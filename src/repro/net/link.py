"""Full-duplex point-to-point Ethernet links.

A :class:`Link` joins two :class:`LinkPort` endpoints.  Each direction has
its own serializer: one frame is on the wire at a time, taking
``(wire_size + preamble + IFG) * 8 / bandwidth`` seconds, followed by the
propagation delay.  Each port has a bounded FIFO transmit queue with
tail-drop, which is what turns an offered overload into loss instead of an
unbounded event backlog.

Devices (NICs, switches) attach to a port and must implement
``receive_frame(frame, port)``.  The delivery event calls it under the
device's profiling scope (``profile_rx_scope``), so devices need no
profiler guard of their own.

Per-hop cost: one kernel event.  :meth:`LinkPort.send` books the frame's
wire slot in virtual time (from when the wire is next free, and no
earlier than the sender's ``earliest`` start) and schedules only its
delivery, carrying the wire size read at booking for the byte counters
and trace spans.  Each :class:`Link` memoises the serialization delay per
wire size exactly as :func:`repro.sim.units.transmission_delay` computes
it, and a queued slot starts at the previous slot's end, so event times
are bit-identical to an event per transmit completion.  A device with a
fixed latency in front of the port (the switch fabric, the standard
NIC's pipeline) passes ``earliest = now + latency`` instead of scheduling
an event to hand the frame over later.

A receiving device with a fixed ingress latency (the standard NIC's
pipeline) declares it as ``rx_latency``, and the delivery event fires
that much after the frame arrives, at ``(slot_end + delay) +
rx_latency`` -- the instant a hand-off event scheduled at arrival would
have fired at -- so the device hands the frame on at once.  Everything
the delivery does (port counters, the receiving device's work) then
happens at that later instant; the ``link.tx`` trace span reports the
arrival, recovered as ``now - rx_latency``.

The per-frame path reads what it needs from the port itself: each
:class:`LinkPort` holds the link's kernel, tracer and delay memo, and
its delivery callback bound once.  Only a frame that finds the wire busy
touches the transmit queue's bookkeeping; on an idle wire no booked slot
can still be waiting, so the queue cannot be full.  The drop test reads
one slot start, the capacity-th latest, because slot starts only
increase.  A frame object may be sent many times (a flood template's
frame), so the link writes into a frame only the trace stamps of an
armed tracer (under which a flood builds a fresh packet, and so a fresh
frame, per send); an impairment that corrupts a frame transmits a
corrupted copy.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, Optional, Protocol

from repro.net.packet import EthernetFrame, Ipv4Packet
from repro.obs.profiling import core as _profiling
from repro.sim import units
from repro.sim.engine import Simulator


class FrameSink(Protocol):
    """Anything that can accept frames arriving on a port."""

    def receive_frame(self, frame: EthernetFrame, port: "LinkPort") -> None:
        """Handle a frame delivered by the link."""


class LinkImpairment:
    """Chaos-injected degradation state for one link.

    Installed on :attr:`Link.impairment` by the fault injector
    (:mod:`repro.chaos`) and removed when the fault clears; a healthy
    link pays one ``is None`` check per frame.  Three degradation modes,
    combinable:

    * ``down`` — every offered frame is dropped (link flap, port dead),
    * ``loss_rate`` — each frame is independently dropped with this
      probability (lossy/degraded link), drawn from the supplied
      deterministic ``rng``,
    * ``extra_delay`` — added to the propagation delay of every frame
      booked while installed (latency degradation),
    * ``corrupt`` — each frame's IPv4 header is serialized, one bit is
      flipped, and the corrupted copy rides along; the receiving NIC
      re-verifies the RFC 1071 checksum and discards the frame (burst
      checksum corruption at link egress).
    """

    __slots__ = (
        "down",
        "loss_rate",
        "extra_delay",
        "corrupt",
        "rng",
        "dropped_frames",
        "corrupted_frames",
    )

    def __init__(
        self,
        down: bool = False,
        loss_rate: float = 0.0,
        extra_delay: float = 0.0,
        corrupt: bool = False,
        rng=None,
    ):
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be within [0, 1], got {loss_rate}")
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if (loss_rate > 0.0 or corrupt) and rng is None:
            raise ValueError("probabilistic impairments need a deterministic rng")
        self.down = down
        self.loss_rate = loss_rate
        self.extra_delay = extra_delay
        self.corrupt = corrupt
        self.rng = rng
        self.dropped_frames = 0
        self.corrupted_frames = 0

    def admit(self, port: "LinkPort", frame: EthernetFrame) -> Optional[EthernetFrame]:
        """Apply the impairment to one offered frame.

        Returns the frame to transmit, or None when it must be dropped
        at the port.  Corruption transmits a copy carrying a bit-flipped
        header for the receiver's checksum verification to reject; the
        offered frame is left as it was, because the sender may send
        that same object again (a flood template's frame) and a switch
        offers one object to every port it floods out of.
        """
        if self.down or (self.loss_rate > 0.0 and self.rng.random() < self.loss_rate):
            self.dropped_frames += 1
            sim = port.sim
            tracer = sim.tracer
            if tracer.hot:
                tracer.event(
                    sim.now, port.name, "chaos-link-drop",
                    getattr(frame.payload, "trace_ctx", None),
                    down=self.down, bytes=frame.wire_size,
                )
            return None
        if self.corrupt:
            packet = frame.ip
            if packet is not None:
                raw = bytearray(packet.to_bytes()[: Ipv4Packet.HEADER_SIZE])
                raw[self.rng.randrange(len(raw))] ^= 1 << self.rng.randrange(8)
                frame = dataclasses.replace(frame, corrupt_header=bytes(raw))
                self.corrupted_frames += 1
                sim = port.sim
                tracer = sim.tracer
                if tracer.hot:
                    tracer.event(
                        sim.now, port.name, "chaos-corrupt",
                        getattr(packet, "trace_ctx", None),
                        bytes=frame.wire_size,
                    )
        return frame


class LinkPort:
    """One endpoint of a full-duplex link.

    Transmission model: :meth:`send` books each frame a wire slot of its
    wire time (preamble and inter-frame gap included) starting when the
    wire is next free, but no earlier than the ``earliest`` start the
    sender gives, and the frame reaches the far end's device after the
    propagation delay.  A sender books at most one latency ahead, in
    nondecreasing ``earliest`` order, so the slots stay FIFO.

    Queue depth at time ``t`` counts the frames that have left the
    sender (``earliest <= t``) and whose slot has not started; a frame
    still inside the sender's fixed latency is not queued yet.  A frame
    is dropped and counted when, as of its own ``earliest``,
    ``queue_capacity`` frames wait.  Egress state is read at booking,
    not at ``earliest``: the :class:`LinkImpairment` (including its
    loss draw and ``extra_delay``) and ``tx_frames``/``tx_bytes``.
    """

    #: Wall-clock profiling bucket for delivery events.
    profile_category = "link"

    def __init__(self, link: "Link", name: str, queue_capacity: int):
        self.link = link
        # The link's kernel, tracer and delay memo, held for the
        # per-frame path (the tracer is configured in place, never
        # replaced, and the memo is only ever added to).
        self.sim = link.sim
        self.tracer = link.sim.tracer
        self._tx_delays = link._tx_delays
        self.name = name
        self.queue_capacity = queue_capacity
        self.peer: Optional["LinkPort"] = None
        self.device: Optional[FrameSink] = None
        #: The attached device's fixed ingress latency, added to every
        #: delivery to this port (see the module docstring).
        self.rx_latency = 0.0
        #: Profiling scope the delivery event opens around the device.
        self._rx_scope = ""
        #: The delivery callback, bound once.
        self._deliver_cb = self._deliver
        #: Virtual time the wire is next free.
        self._busy_until = 0.0
        #: Slot start times of the booked frames that wait for the wire
        #: (slot start after ``earliest``) and have not started, in FIFO order.
        self._waiting: Deque[float] = deque()
        #: ``earliest`` of the waiting frames still inside the sender.
        self._entering: Deque[float] = deque()
        # Counters
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        #: Total drops at this port: impairment drops plus queue overflow.
        self.dropped_frames = 0
        #: Drops by an injected :class:`LinkImpairment` (link down, loss).
        self.impairment_dropped_frames = 0
        # Callback-backed instruments: the counters above stay plain ints
        # on the hot path; a real registry reads them only at sample time
        # (the default null registry discards these registrations).
        metrics = link.sim.metrics
        metrics.counter_fn("link_tx_frames", lambda: self.tx_frames, port=name)
        metrics.counter_fn("link_tx_bytes", lambda: self.tx_bytes, port=name)
        metrics.counter_fn("link_rx_frames", lambda: self.rx_frames, port=name)
        metrics.counter_fn("link_rx_bytes", lambda: self.rx_bytes, port=name)
        metrics.counter_fn(
            "link_dropped_frames",
            lambda: self.dropped_frames - self.impairment_dropped_frames,
            port=name, reason="queue_full",
        )
        metrics.counter_fn(
            "link_dropped_frames",
            lambda: self.impairment_dropped_frames,
            port=name, reason="impairment",
        )
        metrics.gauge_fn("link_queue_depth", lambda: self.queue_depth, port=name)

    # ------------------------------------------------------------------

    def attach(self, device: FrameSink) -> None:
        """Attach the device that will receive frames arriving here."""
        if self.device is not None:
            raise RuntimeError(f"port {self.name} already has a device attached")
        self.device = device
        self.rx_latency = float(getattr(device, "rx_latency", 0.0))
        self._rx_scope = getattr(device, "profile_rx_scope", None) or (
            _profiling.derive_category(device.receive_frame)
        )

    def send(self, frame: EthernetFrame, earliest: float = 0.0) -> bool:
        """Book a wire slot for ``frame`` starting no earlier than
        ``earliest`` (default: now) and schedule its delivery.
        Returns False (and counts a drop) if the transmit queue is full."""
        link = self.link
        impairment = link.impairment
        if impairment is not None:
            frame = impairment.admit(self, frame)
            if frame is None:
                self.dropped_frames += 1
                self.impairment_dropped_frames += 1
                return False
        sim = self.sim
        now = sim.now
        if earliest < now:
            earliest = now
        start = self._busy_until
        if start > earliest:
            # Only a frame that finds the wire busy ever waits, and only
            # a waiting frame can find the queue full: on an idle wire
            # every booked slot has started by ``earliest``.  Slot starts
            # only increase, so ``capacity`` frames wait as of
            # ``earliest`` exactly when the capacity-th latest start is
            # after it (every earlier booking has left its sender by then).
            waiting = self._waiting
            while waiting and waiting[0] <= now:
                waiting.popleft()
            capacity = self.queue_capacity
            if len(waiting) >= capacity and waiting[-capacity] > earliest:
                self.dropped_frames += 1
                tracer = self.tracer
                if tracer.hot:
                    tracer.event(
                        earliest, self.name, "drop-queue-full",
                        getattr(frame.payload, "trace_ctx", None),
                        bytes=frame.wire_size,
                    )
                return False
            waiting.append(start)
            if earliest > now:
                entering = self._entering
                while entering and entering[0] <= now:
                    entering.popleft()
                entering.append(earliest)
        else:
            start = earliest
        if self.tracer.active:
            packet = frame.payload
            if getattr(packet, "trace_ctx", None) is not None:
                # Stamp the hop start and the causal parent.  A switch
                # flooding the same frame out several ports stamps every
                # copy here in the same event (same values), and each
                # copy's span later parents under this captured id — not
                # under whatever a sibling branch made of the shared
                # context head in the meantime.
                frame.trace_t0 = earliest
                frame.trace_parent = getattr(packet, "trace_parent", None)
        size = frame.wire_size
        tx_delay = self._tx_delays.get(size)
        if tx_delay is None:
            tx_delay = link.serialization_delay(size)
        end = self._busy_until = start + tx_delay
        self.tx_frames += 1
        self.tx_bytes += size
        delay = link.propagation_delay
        if impairment is not None:
            delay += impairment.extra_delay
        # Arrival first, then the receiver's latency: the association
        # matches a hand-off event scheduled at arrival.
        sim.schedule_at(end + delay + self.peer.rx_latency, self._deliver_cb, frame, size)
        return True

    @property
    def queue_depth(self) -> int:
        """Frames currently waiting (not counting the one on the wire, nor
        frames still inside the sender's latency)."""
        now = self.sim.now
        waiting = self._waiting
        while waiting and waiting[0] <= now:
            waiting.popleft()
        entering = self._entering
        while entering and entering[0] <= now:
            entering.popleft()
        return len(waiting) - len(entering)

    # ------------------------------------------------------------------

    def _deliver(self, frame: EthernetFrame, size: int) -> None:
        peer = self.peer
        peer.rx_frames += 1
        peer.rx_bytes += size
        if self.tracer.active:
            self._observe(frame, size, peer)
        device = peer.device
        if device is None:
            return
        profiler = _profiling.ACTIVE
        if profiler is None:
            device.receive_frame(frame, peer)
            return
        # The device's work runs inside this event, so it gets its own
        # scope ("switch", "nic.efw.rx", ...).
        profiler.enter(peer._rx_scope)
        try:
            device.receive_frame(frame, peer)
        finally:
            profiler.exit()

    def _observe(self, frame: EthernetFrame, size: int, peer: "LinkPort") -> None:
        """Close the frame's ``link.tx`` span at the frame's arrival."""
        packet = frame.payload
        ctx = getattr(packet, "trace_ctx", None)
        if ctx is None:
            return
        arrival = self.sim.now - peer.rx_latency
        record = self.tracer.span(
            ctx, "link.tx", self.name,
            getattr(frame, "trace_t0", arrival), arrival,
            parent=getattr(frame, "trace_parent", None),
            bytes=size,
        )
        # Re-stamp before the synchronous hand-off so the receiving
        # device captures this hop as its parent.
        packet.trace_parent = record.span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkPort {self.name} q={self.queue_depth}/{self.queue_capacity}>"


class Link:
    """A full-duplex point-to-point link with two :class:`LinkPort` ends.

    Parameters
    ----------
    sim:
        The simulation kernel.
    bandwidth_bps:
        Per-direction bandwidth (default 100 Mbps Fast Ethernet).
    propagation_delay:
        One-way propagation delay in seconds (default ~copper patch cable).
    queue_capacity:
        Per-port transmit queue bound, in frames.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "link",
        bandwidth_bps: float = units.FAST_ETHERNET_BPS,
        propagation_delay: float = units.microseconds(0.5),
        queue_capacity: int = 128,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {propagation_delay}")
        if queue_capacity < 1:
            # A frame may always take an idle wire (see LinkPort.send).
            raise ValueError(f"queue capacity must be >= 1, got {queue_capacity}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        #: Chaos-injected degradation (:class:`LinkImpairment`), or None
        #: for a healthy link — the only per-frame cost when no fault is
        #: active is this attribute's ``is None`` check.
        self.impairment: Optional[LinkImpairment] = None
        #: Wire size -> serialization delay; filled by :meth:`serialization_delay`.
        self._tx_delays: Dict[int, float] = {}
        self.port_a = LinkPort(self, f"{name}.a", queue_capacity)
        self.port_b = LinkPort(self, f"{name}.b", queue_capacity)
        self.port_a.peer = self.port_b
        self.port_b.peer = self.port_a

    def serialization_delay(self, wire_size: int) -> float:
        """Seconds to clock a ``wire_size``-byte frame (plus preamble and
        inter-frame gap) onto this link, memoised per size."""
        delay = self._tx_delays.get(wire_size)
        if delay is None:
            delay = self._tx_delays[wire_size] = units.transmission_delay(
                wire_size + units.ETHERNET_WIRE_OVERHEAD, self.bandwidth_bps
            )
        return delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {units.to_mbps(self.bandwidth_bps):.0f}Mbps>"
