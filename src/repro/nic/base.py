"""Common NIC behaviour: link attachment, host binding, framing.

A NIC sits between a :class:`~repro.host.Host` and a
:class:`~repro.net.link.LinkPort`:

* egress: ``host.transmit`` -> ``nic.send_packet(packet, dst_mac)`` ->
  (device-specific processing) -> ``port.send(frame)``,
* ingress: link delivers -> ``nic.receive_frame(frame, port)`` ->
  (device-specific processing) -> ``host.deliver_packet(packet)``.

Subclasses implement the device-specific processing by overriding
``_process_egress`` and ``_process_ingress``.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.checksum import verify_checksum
from repro.net.link import LinkPort
from repro.net.packet import ArpMessage, EthernetFrame, Ipv4Packet
from repro.obs.profiling import core as _profiling
from repro.sim.engine import Simulator


class BaseNic:
    """Base class for all NIC models."""

    #: Wall-clock profiling bucket; device models override (see
    #: :mod:`repro.obs.profiling`).
    profile_category = "nic"

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Precomputed ingress scope name ("nic.efw.rx", ...): frame
        #: reception runs synchronously inside the link's delivery event,
        #: so it opens its own profiling scope to be attributed here.
        self._profile_rx_scope = f"{self.profile_category}.rx"
        self.host = None
        self.port: Optional[LinkPort] = None
        self._frame_ids = itertools.count(1)
        # Counters
        self.frames_received = 0
        self.frames_sent = 0
        self.packets_delivered = 0
        self.checksum_drops = 0
        # Callback-backed instruments: read only at sample time, discarded
        # entirely by the default null registry.
        metrics = sim.metrics
        metrics.counter_fn("nic_frames_received", lambda: self.frames_received, nic=name)
        metrics.counter_fn("nic_frames_sent", lambda: self.frames_sent, nic=name)
        metrics.counter_fn("nic_packets_delivered", lambda: self.packets_delivered, nic=name)
        metrics.counter_fn("nic_checksum_drops", lambda: self.checksum_drops, nic=name)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, port: LinkPort) -> None:
        """Attach this NIC to a link endpoint."""
        if self.port is not None:
            raise RuntimeError(f"NIC {self.name} already attached")
        port.attach(self)
        self.port = port

    def bind_host(self, host) -> None:
        """Called by :meth:`repro.host.Host.attach_nic`."""
        if self.host is not None:
            raise RuntimeError(f"NIC {self.name} already bound to a host")
        self.host = host

    # ------------------------------------------------------------------
    # Egress (host -> wire)
    # ------------------------------------------------------------------

    def send_packet(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        """Entry point for outbound packets from the host stack."""
        tracer = self.sim.tracer
        if tracer.active and getattr(packet, "trace_ctx", None) is None:
            # Fallback root for packets injected below the IP layer
            # (driver-level tests, tools): the chain starts at the NIC.
            ctx = tracer.begin(packet)
            if ctx is not None:
                now = self.sim.now
                record = tracer.span(
                    ctx, "nic.send", self.name, now, now, size=packet.size
                )
                packet.trace_parent = record.span_id
        self._process_egress(packet, dst_mac)

    def _process_egress(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        raise NotImplementedError

    def _transmit_frame(
        self, packet: Ipv4Packet, dst_mac: MacAddress, earliest: float = 0.0
    ) -> None:
        """Frame the packet and hand it to the link, its wire slot starting
        no earlier than ``earliest``."""
        frame = EthernetFrame(
            src_mac=self.host.mac,
            dst_mac=dst_mac,
            payload=packet,
            frame_id=next(self._frame_ids),
        )
        self._send_frame(frame, earliest)

    def _send_frame(self, frame: EthernetFrame, earliest: float) -> None:
        if self.port is None:
            raise RuntimeError(f"NIC {self.name} not attached to a link")
        self.frames_sent += 1
        self.port.send(frame, earliest)

    # ------------------------------------------------------------------
    # Ingress (wire -> host)
    # ------------------------------------------------------------------

    def receive_frame(self, frame: EthernetFrame, port: LinkPort) -> None:
        """Entry point for frames delivered by the link."""
        profiler = _profiling.ACTIVE
        if profiler is None:
            return self._receive_frame(frame, port)
        profiler.enter(self._profile_rx_scope)
        try:
            return self._receive_frame(frame, port)
        finally:
            profiler.exit()

    def _receive_frame(self, frame: EthernetFrame, port: LinkPort) -> None:
        self.frames_received += 1
        if not self._frame_is_for_us(frame):
            return
        if isinstance(frame.payload, ArpMessage):
            # ARP bypasses the firewall engine: the EFW/ADF filter at the
            # IP layer, and link-layer resolution must always work.
            if self.host.arp is not None:
                self.host.arp.message_arrived(frame.payload)
            return
        packet = frame.ip
        if packet is None:
            return
        if frame.corrupt_header is not None and not verify_checksum(
            frame.corrupt_header
        ):
            # An in-flight corruption fault flipped a header bit; the
            # RFC 1071 re-verification catches it and the frame is
            # discarded before the firewall engine ever sees it.
            self.checksum_drops += 1
            tracer = self.sim.tracer
            if tracer.hot:
                tracer.event(
                    self.sim.now, self.name, "drop-checksum",
                    getattr(packet, "trace_ctx", None),
                    bytes=frame.wire_size,
                )
            return
        self._process_ingress(frame, packet)

    def send_arp_frame(self, frame: EthernetFrame) -> None:
        """Transmit an ARP frame, bypassing the policy engine."""
        self._send_frame(frame, self.sim.now)

    def _process_ingress(self, frame: EthernetFrame, packet: Ipv4Packet) -> None:
        raise NotImplementedError

    def _deliver_to_host(self, packet: Ipv4Packet) -> None:
        self.packets_delivered += 1
        self.host.deliver_packet(packet)

    def _frame_is_for_us(self, frame: EthernetFrame) -> bool:
        return (
            frame.dst_mac == self.host.mac
            or frame.dst_mac.is_broadcast
            or frame.dst_mac.is_multicast
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
