"""A standard non-filtering NIC (Intel EEPro 100-class).

The control experiment's hardware: forwards at wire speed in both
directions with a fixed, tiny per-packet latency and no policy.  The
paper used it to show that the switch and infrastructure contribute no
measurable loss — any loss seen with the EFW/ADF is the firewall's.

The model schedules no event of its own: egress books the wire slot
after the latency, and the ingress latency is folded into the link's
delivery event (see :class:`StandardNic`).
"""

from __future__ import annotations

from repro import calibration
from repro.net.addresses import MacAddress
from repro.net.packet import EthernetFrame, Ipv4Packet
from repro.nic.base import BaseNic
from repro.obs.profiling import core as _profiling
from repro.sim.engine import Simulator


class StandardNic(BaseNic):
    """Wire-speed NIC with no filtering.

    The per-packet cost is far below the wire's per-frame time, so the
    device is never the bottleneck; it is modelled as a fixed pipeline
    latency rather than a contended queue: the
    :data:`~repro.calibration.STANDARD_NIC_COST_MODEL` fixed term, which
    has no per-byte or per-rule part.  Neither direction schedules an
    event of its own:

    * egress frames the packet at once (inline, reusing the last frame
      for the same packet and MAC as the embedded cards do) and books
      its wire slot from ``now + latency``
      (:meth:`LinkPort.send`'s ``earliest``): one fixed latency keeps
      frames in order, so the slot is the one a later hand-off would
      have booked, and this NIC books its port in nondecreasing
      ``earliest`` order.
      ``frames_sent`` counts, and the link's egress state is read, as
      the host hands the frame down;
    * ingress latency is folded into the link's delivery event
      (:attr:`rx_latency`), which fires ``latency`` after the frame
      arrives, so the NIC hands the packet to its host at once.
      ``frames_received`` and the checksum check count at that instant.
    """

    profile_category = "nic.standard"

    def __init__(self, sim: Simulator, name: str = "eepro100"):
        super().__init__(sim, name)
        #: Fixed pipeline latency, both directions.
        self.latency = calibration.STANDARD_NIC_COST_MODEL.c0

    def _process_egress(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        profiler = _profiling.ACTIVE
        if profiler is not None:
            # Egress runs inside the host's call, so it opens its own scope
            # (the counterpart of the link's "nic.standard.rx" around ingress).
            profiler.enter("nic.standard.tx")
        try:
            now = self.sim.now
            handover = now + self.latency
            tracer = self.sim.tracer
            if tracer.active:
                ctx = getattr(packet, "trace_ctx", None)
                if ctx is not None:
                    record = tracer.span(
                        ctx, "nic.tx", self.name, now, handover,
                        parent=getattr(packet, "trace_parent", None),
                    )
                    packet.trace_parent = record.span_id
            port = self.port
            if port is None:
                raise RuntimeError(f"NIC {self.name} not attached to a link")
            self.frames_sent += 1
            frame = self._last_frame
            if frame is None or frame.payload is not packet or frame.dst_mac != dst_mac:
                frame = self._last_frame = EthernetFrame(self.host.mac, dst_mac, packet)
            port.send(frame, handover)
        finally:
            if profiler is not None:
                profiler.exit()

    def _process_ingress(self, frame: EthernetFrame, packet: Ipv4Packet) -> None:
        # The link delivered the frame ``latency`` after it arrived.
        tracer = self.sim.tracer
        if tracer.active:
            ctx = getattr(packet, "trace_ctx", None)
            if ctx is not None:
                now = self.sim.now
                record = tracer.span(
                    ctx, "nic.rx", self.name, now - self.latency, now,
                    parent=getattr(packet, "trace_parent", None),
                )
                packet.trace_parent = record.span_id
        self.packets_delivered += 1
        self.host.deliver_packet(packet)
