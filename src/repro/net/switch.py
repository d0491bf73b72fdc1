"""A store-and-forward learning Ethernet switch.

Models the 3Com SuperStack-class switch of the paper's testbed (Figure 1):

* MAC learning (entries never age out),
* store-and-forward: a frame is fully received before it is queued on the
  egress port (the ingress link model already delivers whole frames, so
  the switch adds only its forwarding latency),
* unknown-unicast and broadcast flooding,
* per-egress-port output queues (provided by :class:`~repro.net.link.LinkPort`),
  which tail-drop under sustained overload.

The paper verified that the switch itself did not cause measurable loss;
our model preserves that property: its forwarding latency is a few
microseconds and its fabric is non-blocking.

Forwarding is **learned-table dispatch**: the learning table maps a MAC
straight to its egress port, so the per-frame hot path is one dict probe
to learn the source (writing only when the binding changes) and one to
look the destination up, which is what keeps 200+-host fabrics tractable
(see :class:`~repro.net.topology.FabricTopology`).  A known unicast to
another port, with no port quarantined or failed and the span tracer
off, goes straight to the egress port's :meth:`~repro.net.link.LinkPort.send`;
:meth:`EthernetSwitch._dispatch` handles everything else (flooding,
trace spans, blocked ports, a destination on the ingress segment).

Per-hop cost: no kernel event of its own.  The lookup runs at ingress,
as in a real switch, and books the egress slot at once with
``earliest = now + forwarding_latency``
(:meth:`~repro.net.link.LinkPort.send`), so every slot and arrival time
is the one a forwarding event after the latency would have produced.
Egress state — the learned binding of the destination, quarantine,
port failure, the link's impairment — is therefore read at the lookup.
(A binding could move inside the latency only if frames from one MAC
reached the switch on two ports; every NIC sends from its host's own
MAC and the fabric is a tree, so that needs an explicit
:meth:`EthernetSwitch.learn`.)  Two cases keep that event:

* an unknown unicast waits out the latency before it floods, because
  its destination may be learned meanwhile and turn it into a unicast;
* while any such frame is inside the switch, every later frame waits
  too, so no frame books an egress slot ahead of an earlier one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addresses import MacAddress
from repro.net.link import LinkPort
from repro.net.packet import EthernetFrame
from repro.sim import units
from repro.sim.engine import Simulator


class EthernetSwitch:
    """A non-blocking, store-and-forward learning switch.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        For traces and repr.
    forwarding_latency:
        Fixed per-frame fabric latency (lookup + queuing decision).
    """

    #: Wall-clock profiling bucket of the deferred forwarding events, and
    #: the scope the link's delivery event opens around :meth:`receive_frame`.
    profile_category = "switch"
    profile_rx_scope = profile_category

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        forwarding_latency: float = units.microseconds(5),
    ):
        self.sim = sim
        #: The kernel's tracer (configured in place, never replaced).
        self._tracer = sim.tracer
        self.name = name
        self.forwarding_latency = float(forwarding_latency)
        self._ports: List[LinkPort] = []
        #: Learned-table dispatch: MAC -> egress port, probed once per frame.
        self._mac_to_port: Dict[MacAddress, LinkPort] = {}
        #: Administratively blocked ports (flood mitigation): frames
        #: arriving from or destined to a quarantined port are dropped.
        #: Kept as a set so the empty-set truthiness check keeps the
        #: unquarantined hot path at one branch per frame.
        self._quarantined: set = set()
        #: Failed (blackholed) ports — the chaos-injected hardware
        #: counterpart of quarantine.  Deliberately separate state so a
        #: fault injection and a defense action on the same port never
        #: clobber each other's bookkeeping: releasing a quarantine does
        #: not heal a failed port, and vice versa.
        self._failed: set = set()
        #: Fabric exit time of the last deferred frame (see :meth:`receive_frame`).
        self._deferred_until = float("-inf")
        # Counters
        self.forwarded_frames = 0
        self.flooded_frames = 0
        self.dropped_frames = 0
        self.quarantined_frames = 0
        self.blackholed_frames = 0

    # ------------------------------------------------------------------

    def attach_port(self, port: LinkPort) -> None:
        """Register a link endpoint as a switch port and attach to it."""
        port.attach(self)
        self._ports.append(port)

    @property
    def ports(self) -> List[LinkPort]:
        """All attached ports."""
        return list(self._ports)

    def learn(self, mac: MacAddress, port: LinkPort) -> None:
        """Install a learning-table entry (as if a frame from ``mac``
        had just arrived on ``port``).

        Topology builders use this to prime large fabrics so the first
        packet between every host pair does not flood the whole tree
        (see :meth:`~repro.net.topology.FabricTopology.prime_mac_tables`).
        """
        self._mac_to_port[mac] = port

    def quarantine_port(self, port: LinkPort, quarantined: bool = True) -> None:
        """Administratively block (or release) one switch port.

        A quarantined port's ingress frames are discarded at the switch —
        the offender's flood never reaches the fabric — and nothing is
        forwarded or flooded out of it either.  This is the
        switch-assisted mitigation a central controller applies against
        an identified flooder (see :mod:`repro.defense.actions`).
        """
        if port not in self._ports:
            raise ValueError(f"{port!r} is not a port of {self.name}")
        if quarantined:
            self._quarantined.add(port)
        else:
            self._quarantined.discard(port)

    def port_is_quarantined(self, port: LinkPort) -> bool:
        """True while ``port`` is administratively blocked."""
        return port in self._quarantined

    def fail_port(self, port: LinkPort, failed: bool = True) -> None:
        """Blackhole (or repair) one switch port.

        A failed port silently discards everything — ingress frames,
        forwarded frames, and flood copies — modelling a dead PHY or
        linecard rather than an administrative block (see
        :meth:`quarantine_port` for the latter; the two states are
        independent).  Fault injection
        (:class:`repro.chaos.SwitchPortFail`) drives this.
        """
        if port not in self._ports:
            raise ValueError(f"{port!r} is not a port of {self.name}")
        if failed:
            self._failed.add(port)
        else:
            self._failed.discard(port)

    def port_is_failed(self, port: LinkPort) -> bool:
        """True while ``port`` is blackholed by an injected fault."""
        return port in self._failed

    def mac_table(self) -> Dict[MacAddress, LinkPort]:
        """A snapshot of the learning table."""
        return dict(self._mac_to_port)

    # ------------------------------------------------------------------
    # FrameSink interface
    # ------------------------------------------------------------------

    def receive_frame(self, frame: EthernetFrame, port: LinkPort) -> None:
        """Learn the source, look the destination up and book the egress
        slot from the end of the fabric latency."""
        quarantined = self._quarantined
        if quarantined and port in quarantined:
            self.quarantined_frames += 1
            return
        failed = self._failed
        if failed and port in failed:
            self.blackholed_frames += 1
            return
        table = self._mac_to_port
        if table.get(frame.src_mac) is not port:
            table[frame.src_mac] = port
        now = self.sim.now
        earliest = now + self.forwarding_latency
        if now > self._deferred_until:
            dst = frame.dst_mac
            # The I/G (group) bit: set for multicast, and for broadcast.
            if dst & (1 << 40):
                self._dispatch(frame, port, None, earliest)
                return
            egress = table.get(dst)
            if egress is not None:
                if (
                    egress is not port
                    and not quarantined
                    and not failed
                    and not self._tracer.active
                ):
                    # Known unicast: _dispatch's forwarding branch, inlined.
                    self.forwarded_frames += 1
                    if not egress.send(frame, earliest):
                        self.dropped_frames += 1
                    return
                self._dispatch(frame, port, egress, earliest)
                return
        # An unknown unicast waits out the latency (its destination may be
        # learned meanwhile), and so does every frame behind it, to keep
        # each egress port's bookings in arrival order.
        self._deferred_until = earliest
        self.sim.schedule_at(earliest, self._forward, frame, port, earliest)

    # ------------------------------------------------------------------

    def _forward(self, frame: EthernetFrame, ingress: LinkPort, earliest: float) -> None:
        """The deferred lookup, a forwarding latency after ingress."""
        dst = frame.dst_mac
        egress = None if dst & (1 << 40) else self._mac_to_port.get(dst)
        self._dispatch(frame, ingress, egress, earliest)

    def _dispatch(
        self,
        frame: EthernetFrame,
        ingress: LinkPort,
        egress: Optional[LinkPort],
        earliest: float,
    ) -> None:
        """Send ``frame`` out of ``egress`` (flood if None), its egress
        slots starting at ``earliest``."""
        tracer = self._tracer
        if tracer.active:
            packet = frame.payload
            ctx = getattr(packet, "trace_ctx", None)
            if ctx is not None:
                record = tracer.span(
                    ctx, "switch.forward", self.name,
                    earliest - self.forwarding_latency, earliest,
                    parent=getattr(packet, "trace_parent", None),
                )
                packet.trace_parent = record.span_id
        if egress is None:
            self._flood(frame, ingress, earliest)
        elif egress is ingress:
            # Destination is on the ingress segment; do not forward.
            pass
        elif self._quarantined and egress in self._quarantined:
            self.quarantined_frames += 1
        elif self._failed and egress in self._failed:
            self.blackholed_frames += 1
        else:
            self.forwarded_frames += 1
            if not egress.send(frame, earliest):
                self.dropped_frames += 1

    def _flood(self, frame: EthernetFrame, ingress: LinkPort, earliest: float) -> None:
        self.flooded_frames += 1
        quarantined = self._quarantined
        failed = self._failed
        for port in self._ports:
            if port is ingress:
                continue
            if quarantined and port in quarantined:
                self.quarantined_frames += 1
                continue
            if failed and port in failed:
                self.blackholed_frames += 1
                continue
            if not port.send(frame, earliest):
                self.dropped_frames += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EthernetSwitch {self.name} ports={len(self._ports)}>"
