"""A standard non-filtering NIC (Intel EEPro 100-class).

The control experiment's hardware: forwards at wire speed in both
directions with a fixed, tiny per-packet latency and no policy.  The
paper used it to show that the switch and infrastructure contribute no
measurable loss — any loss seen with the EFW/ADF is the firewall's.
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
    has no per-byte or per-rule part.  Egress frames the packet at once
    and books its wire slot from ``now + latency``
    (:meth:`LinkPort.send`'s ``earliest``) instead of scheduling the
    hand-off: one fixed latency keeps frames in order, so the slot is the
    one a later hand-off would have booked.  ARP frames take the same
    pipeline, so this NIC books its port in nondecreasing ``earliest``
    order.  ``frames_sent`` counts, and the link's egress state is read,
    as the host hands the frame down.
    """

    profile_category = "nic.standard"

    def __init__(self, sim: Simulator, name: str = "eepro100"):
        super().__init__(sim, name)
        #: Fixed pipeline latency, both directions.
        self.latency = calibration.STANDARD_NIC_COST_MODEL.c0

    def send_arp_frame(self, frame: EthernetFrame) -> None:
        """Transmit an ARP frame after the same latency as an IP frame."""
        self._send_frame(frame, self.sim.now + self.latency)

    def _process_egress(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        profiler = _profiling.ACTIVE
        if profiler is None:
            return self._egress(packet, dst_mac)
        # Egress runs inside the host's call, so it opens its own scope
        # (the counterpart of BaseNic.receive_frame's "nic.standard.rx").
        profiler.enter("nic.standard.tx")
        try:
            return self._egress(packet, dst_mac)
        finally:
            profiler.exit()

    def _egress(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
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
        self._transmit_frame(packet, dst_mac, handover)

    def _process_ingress(self, frame: EthernetFrame, packet: Ipv4Packet) -> None:
        tracer = self.sim.tracer
        if tracer.active:
            ctx = getattr(packet, "trace_ctx", None)
            if ctx is not None:
                now = self.sim.now
                record = tracer.span(
                    ctx, "nic.rx", self.name, now, now + self.latency,
                    parent=getattr(packet, "trace_parent", None),
                )
                packet.trace_parent = record.span_id
        self.sim.schedule(self.latency, self._deliver_to_host, packet)
