"""Common NIC behaviour: link attachment, host binding, framing.

A NIC sits between a :class:`~repro.host.Host` and a
:class:`~repro.net.link.LinkPort`:

* egress: ``host.transmit`` -> ``nic.send_packet(packet, dst_mac)`` ->
  (device-specific processing) -> ``port.send(frame)``,
* ingress: link delivers -> ``nic.receive_frame(frame, port)`` ->
  (device-specific processing) -> ``host.deliver_packet(packet)``.

Subclasses implement the device-specific processing by overriding
``_process_egress`` and ``_process_ingress``.  The link's delivery event
opens the NIC's ``profile_rx_scope`` around ``receive_frame``.

Each device frames inline on its egress path, and reuses the NIC's last
:class:`~repro.net.packet.EthernetFrame` while it is handed the same
packet object for the same destination MAC.
Only a fixed-source flood sends one packet object again and again (its
template; see :class:`~repro.apps.flood.FloodGenerator`), so all its
frames are one object too.  That is sound because nothing writes into
a sent frame: a corruption fault transmits a corrupted copy
(:meth:`~repro.net.link.LinkImpairment.admit`), and the trace stamps
are written only under an armed tracer, for which the flood builds a
fresh packet, and so a fresh frame, per send.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.checksum import verify_checksum
from repro.net.link import LinkPort
from repro.net.packet import EthernetFrame, Ipv4Packet
from repro.sim.engine import Simulator

#: The I/G (group) bit of a MAC address: set for multicast and broadcast.
_GROUP_BIT = 1 << 40


class BaseNic:
    """Base class for all NIC models."""

    #: Wall-clock profiling bucket; device models override (see
    #: :mod:`repro.obs.profiling`).
    profile_category = "nic"

    #: Fixed pipeline latency, each direction: 0 on the embedded cards,
    #: whose latency is their processor queue (see
    #: :class:`~repro.nic.standard.StandardNic`).  The link folds it into
    #: every delivery to this NIC as :attr:`rx_latency`.
    latency = 0.0

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Ingress scope name ("nic.efw.rx", ...): frame reception runs
        #: synchronously inside the link's delivery event, which opens
        #: this scope around :meth:`receive_frame`.
        self.profile_rx_scope = f"{self.profile_category}.rx"
        self.host = None
        self.port: Optional[LinkPort] = None
        #: The last frame sent, reused for the same packet to the same MAC.
        self._last_frame: Optional[EthernetFrame] = None
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

    @property
    def rx_latency(self) -> float:
        """Ingress latency the link adds to each delivery (read at attach)."""
        return self.latency

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

    # ------------------------------------------------------------------
    # Ingress (wire -> host)
    # ------------------------------------------------------------------

    def receive_frame(self, frame: EthernetFrame, port: LinkPort) -> None:
        """Entry point for frames delivered by the link."""
        self.frames_received += 1
        dst = frame.dst_mac
        if dst != self.host.mac and not dst & _GROUP_BIT:
            return
        packet = frame.payload
        if type(packet) is not Ipv4Packet:
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

    def _process_ingress(self, frame: EthernetFrame, packet: Ipv4Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
