"""The host IP layer: output path, input dispatch, and MAC resolution.

All stations share one LAN segment (the paper's testbed has no router),
so "routing" is MAC resolution from a static ARP table populated by the
testbed builder, with broadcast as a last resort.
"""

from __future__ import annotations

from typing import Dict

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.packet import IpProtocol, Ipv4Packet, L4Payload

# Protocol numbers as module globals for the per-packet dispatch.  They
# are compared with ``==``: a packet may carry a plain-int protocol.
_TCP = IpProtocol.TCP
_UDP = IpProtocol.UDP
_ICMP = IpProtocol.ICMP


class IpLayer:
    """Per-host IPv4 input/output."""

    def __init__(self, host) -> None:
        self.host = host
        self.arp_table: Dict[Ipv4Address, MacAddress] = {}
        self._identification = 0
        # Counters
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped_no_proto = 0

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def send(self, dst_ip: Ipv4Address, payload: L4Payload, ttl: int = 64) -> None:
        """Wrap ``payload`` in an IPv4 packet from this host and transmit."""
        identification = self._identification = (self._identification + 1) & 0xFFFF
        # Positional: src, dst, payload, protocol (inferred), ttl,
        # identification.
        self.send_packet(Ipv4Packet(self.host.ip, dst_ip, payload, None, ttl, identification))

    def send_packet(self, packet: Ipv4Packet) -> None:
        """Transmit a fully-formed packet (spoofed sources allowed —
        this is the raw-socket path the flood generator uses)."""
        self.packets_sent += 1
        tracer = self.host.sim.tracer
        if tracer.active:
            self._trace_send(tracer, packet)
        self.host.transmit(packet, self.arp_table.get(packet.dst, BROADCAST_MAC))

    def _trace_send(self, tracer, packet: Ipv4Packet) -> None:
        """Root every sampled packet's span chain at the sending host.

        This is the universal egress entry: the apps, the protocol
        layers, and the raw flood generator all funnel through
        ``send_packet``, so rooting here covers legitimate traffic and
        attack traffic alike.  Retransmissions reuse the packet's
        existing context and extend its chain instead of re-rooting.
        """
        if getattr(packet, "trace_ctx", None) is not None:
            return
        ctx = tracer.begin(packet)
        if ctx is not None:
            now = self.host.sim.now
            record = tracer.span(
                ctx,
                "app.send",
                self.host.name,
                now,
                now,
                proto=packet.protocol.name,
                src=str(packet.src),
                dst=str(packet.dst),
                size=packet.size,
            )
            packet.trace_parent = record.span_id

    def resolve(self, dst_ip: Ipv4Address) -> MacAddress:
        """MAC for ``dst_ip`` from the static table, else broadcast."""
        return self.arp_table.get(dst_ip, BROADCAST_MAC)

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def packet_arrived(self, packet: Ipv4Packet) -> None:
        """Dispatch an inbound packet to the protocol handler.

        Packets not addressed to this host are dropped silently (the
        switch normally prevents this; floods with spoofed destinations
        can still arrive when the switch floods unknown unicast).
        """
        if packet.dst != self.host.ip and not self._is_broadcast(packet.dst):
            return
        self.packets_received += 1
        protocol = packet.protocol
        if protocol == _TCP:
            self.host.tcp.segment_arrived(packet)
        elif protocol == _UDP:
            self.host.udp.datagram_arrived(packet)
        elif protocol == _ICMP:
            self.host.icmp.message_arrived(packet)
        else:
            # Includes VPG: a VPG packet reaching the stack means the ADF
            # NIC had no matching VPG rule to decapsulate it.  Drop.
            self.packets_dropped_no_proto += 1

    @staticmethod
    def _is_broadcast(address: Ipv4Address) -> bool:
        return int(address) == 0xFFFFFFFF or (int(address) & 0xFF) == 0xFF
