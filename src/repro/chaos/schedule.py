"""Chaos schedules: named fault scenarios and their runtime injector.

A :class:`ChaosSchedule` is a frozen, typed list of faults with start
offsets; :class:`ChaosInjector` arms it against a live testbed, firing
each fault's inject/clear at the scheduled virtual times, auditing both
(``chaos-fault-injected`` / ``chaos-fault-cleared``), and logging each
fault as one :class:`~repro.obs.tracing.watchdog.Incident`, recovered
when it clears, that the simulator's tracer also files.

:func:`build_scenario` materialises the named scenarios the CLI's
``--chaos`` flag and the chaos experiment share; ``"compound"`` is the
paper-motivated worst case (client link flap plus policy-server outage
during a flood).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.faults import (
    AgentCrash,
    LinkFlap,
    PacketCorruption,
    PolicyServerOutage,
    SwitchPortFail,
)
from repro.obs.tracing.watchdog import Incident
from repro.policy.audit import AuditEventKind
from repro.sim.timer import Timer

#: Scenario names accepted by ``build_scenario`` / ``--chaos``.
SCENARIOS: Tuple[str, ...] = (
    "none",
    "link-flap",
    "port-fail",
    "corruption",
    "policy-outage",
    "agent-crash",
    "compound",
)


@dataclass(frozen=True)
class ChaosSchedule:
    """A named, ordered set of fault injections."""

    name: str
    faults: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.faults:
            if not hasattr(fault, "inject") or not hasattr(fault, "clear"):
                raise TypeError(f"{fault!r} is not a chaos fault")


def build_scenario(
    name: str, start: float = 0.05, duration: float = 0.1
) -> ChaosSchedule:
    """The named scenario with faults offset ``start`` seconds from arming."""
    if name == "none":
        return ChaosSchedule(name="none", faults=())
    if name == "link-flap":
        faults: Tuple[Any, ...] = (
            LinkFlap(station="client", start=start, duration=duration, mode="down"),
        )
    elif name == "port-fail":
        faults = (SwitchPortFail(station="client", start=start, duration=duration),)
    elif name == "corruption":
        faults = (PacketCorruption(station="target", start=start, duration=duration),)
    elif name == "policy-outage":
        faults = (PolicyServerOutage(start=start, duration=duration),)
    elif name == "agent-crash":
        faults = (AgentCrash(station="target", start=start),)
    elif name == "compound":
        faults = (
            LinkFlap(station="client", start=start, duration=duration, mode="down"),
            PolicyServerOutage(start=start, duration=duration),
        )
    else:
        raise ValueError(
            f"unknown chaos scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        )
    return ChaosSchedule(name=name, faults=faults)


def armed_injectors(bed) -> List["ChaosInjector"]:
    """Every injector armed on ``bed``, in arming order."""
    return getattr(bed, "chaos", [])


class ChaosInjector:
    """Arms a schedule's faults against one live testbed.

    The injector owns the timers and the bookkeeping: which faults are
    currently active (invariant monitors consult this to suppress
    convergence checks mid-fault), when the last one cleared, and the
    log: one incident per fault.  Arming appends it to ``bed.chaos``,
    the list of every injector armed on that bed, where the chaos probe
    and the monitors find it, whoever armed it.
    """

    def __init__(self, bed, schedule: ChaosSchedule):
        self.bed = bed
        self.schedule = schedule
        self.active: List[Any] = []
        self.log: List[Incident] = []
        self._open: Dict[int, Incident] = {}
        self.injected = 0
        self.cleared = 0
        self.last_cleared_at: Optional[float] = None
        self._timers: List[Timer] = []
        self._armed = False

    @property
    def quiescent(self) -> bool:
        """True when no fault is currently active."""
        return not self.active

    def arm(self) -> None:
        """Schedule every fault relative to the current virtual time."""
        if self._armed:
            raise RuntimeError("chaos injector already armed")
        self._armed = True
        self.bed.chaos = armed_injectors(self.bed) + [self]
        sim = self.bed.sim
        for fault in self.schedule.faults:
            timer = Timer(sim, self._inject, fault)
            timer.start(max(0.0, fault.start))
            self._timers.append(timer)

    def disarm(self) -> None:
        """Stop pending timers and clear any still-active faults."""
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        for fault in list(self.active):
            self._clear(fault)

    # ------------------------------------------------------------------

    def _inject(self, fault) -> None:
        fault.inject(self.bed)
        self.active.append(fault)
        self.injected += 1
        self._audit(AuditEventKind.CHAOS_FAULT_INJECTED, fault)
        incident = Incident(fault.kind, fault.subject, self.bed.sim.now, fault.detail())
        self.log.append(incident)
        self._open[id(fault)] = incident
        self.bed.sim.tracer.record_incident(incident)
        if fault.duration is not None:
            timer = Timer(self.bed.sim, self._clear, fault)
            timer.start(fault.duration)
            self._timers.append(timer)

    def _clear(self, fault) -> None:
        fault.clear(self.bed)
        self.active = [active for active in self.active if active is not fault]
        self.cleared += 1
        now = self.bed.sim.now
        self.last_cleared_at = now
        self._open.pop(id(fault)).recovered_at = now
        self._audit(AuditEventKind.CHAOS_FAULT_CLEARED, fault)

    def _audit(self, event_kind: AuditEventKind, fault) -> None:
        server = getattr(self.bed, "policy_server", None)
        if server is not None:
            server.audit.record(
                self.bed.sim.now, event_kind, fault.subject,
                fault=fault.kind, **fault.detail(),
            )
