"""The end host: protocol stack, NIC attachment, optional host firewall.

A :class:`Host` owns one NIC (standard, EFW or ADF — see
:mod:`repro.nic`) and its protocol stack.  An optional host-resident
packet filter (the iptables model, :mod:`repro.firewall.iptables`) can be
installed between the NIC and the stack, mirroring a netfilter
deployment; it filters both directions with its own processing cost on
the host CPU.

Packet path (ingress):  link -> NIC (firewall policy) -> host.deliver_packet
                         -> [iptables INPUT] -> IP dispatch -> TCP/UDP/ICMP
Packet path (egress):   TCP/UDP/ICMP -> IP output -> [iptables OUTPUT]
                         -> NIC (firewall policy) -> link
"""

from __future__ import annotations

from typing import Optional

from repro.host.icmp import IcmpLayer
from repro.host.ip import IpLayer
from repro.host.tcp import TcpManager
from repro.host.udp import UdpManager
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.packet import Ipv4Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class Host:
    """A simulated end host.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Host name (used in traces and derived RNG stream names).
    ip, mac:
        The host's addresses.
    rng:
        The experiment's RNG registry.
    """

    profile_category = "host"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: Ipv4Address,
        mac: MacAddress,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.name = name
        self.ip = ip
        self.mac = mac
        self.rng = rng if rng is not None else RngRegistry(seed=0)
        self.nic = None  # set by attach_nic
        self.iptables = None  # set by install_iptables
        self.ip_layer = IpLayer(self)
        self.tcp = TcpManager(self)
        self.udp = UdpManager(self)
        self.icmp = IcmpLayer(self)
        # Counters
        self.packets_delivered = 0
        self.packets_filtered_in = 0
        self.packets_filtered_out = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_nic(self, nic) -> None:
        """Install the host's NIC (see :mod:`repro.nic`)."""
        if self.nic is not None:
            raise RuntimeError(f"host {self.name} already has a NIC")
        self.nic = nic
        nic.bind_host(self)

    def install_iptables(self, iptables_filter) -> None:
        """Install a host-resident netfilter-style packet filter."""
        self.iptables = iptables_filter
        iptables_filter.bind_host(self)

    # ------------------------------------------------------------------
    # Egress
    # ------------------------------------------------------------------

    def transmit(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        """Send a packet out of the NIC, via the OUTPUT filter if present."""
        if self.nic is None:
            raise RuntimeError(f"host {self.name} has no NIC")
        if self.iptables is not None:
            self.iptables.filter_output(packet, dst_mac)
            return
        self.nic.send_packet(packet, dst_mac)

    def transmit_filtered(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        """Continue the egress path after the OUTPUT filter's verdict."""
        self.nic.send_packet(packet, dst_mac)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def deliver_packet(self, packet: Ipv4Packet) -> None:
        """Entry point for packets the NIC accepted (ingress)."""
        if self.iptables is not None:
            self.iptables.filter_input(packet)
            return
        self.packets_delivered += 1
        if self.sim.tracer.active:
            self._trace_deliver(packet)
        self.ip_layer.packet_arrived(packet)

    def deliver_filtered(self, packet: Ipv4Packet) -> None:
        """Continue the ingress path after the INPUT filter's verdict."""
        self.packets_delivered += 1
        if self.sim.tracer.active:
            self._trace_deliver(packet)
        self.ip_layer.packet_arrived(packet)

    def _trace_deliver(self, packet: Ipv4Packet) -> None:
        ctx = getattr(packet, "trace_ctx", None)
        if ctx is not None:
            now = self.sim.now
            self.sim.tracer.span(
                ctx, "app.deliver", self.name, now, now,
                parent=getattr(packet, "trace_parent", None),
                proto=packet.protocol.name,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} {self.ip}>"
