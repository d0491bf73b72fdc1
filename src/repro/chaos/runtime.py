"""The chaos probe: fault scenarios and invariant monitors on every point.

Sweep workers can't reach into an experiment function to hand it a
chaos schedule, so :class:`ChaosCollector` is a probe (see
:mod:`repro.core.probe`): while a point runs, every testbed it builds
gets the configured scenario armed and an :class:`InvariantMonitor`
attached, and when the point ends one :class:`ChaosSnapshot` (faults
injected and cleared, violations found) travels back with its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos.invariants import MODES, InvariantMonitor, InvariantViolationError
from repro.chaos.schedule import SCENARIOS, ChaosInjector, armed_injectors, build_scenario
from repro.obs.tracing.watchdog import Incident


@dataclass
class ChaosSnapshot:
    """What one sweep point saw: faults fired, violations found."""

    scenario: Optional[str] = None
    invariants: Optional[str] = None
    faults_injected: int = 0
    faults_cleared: int = 0
    violations: List[Incident] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass
class PointChaos:
    """Chaos outcome of one sweep point (empty when the point failed)."""

    label: str
    snapshots: List[ChaosSnapshot] = field(default_factory=list)


@dataclass(frozen=True)
class ChaosConfig:
    """Picklable recipe: a scenario name and/or an invariants mode.

    ``scenario`` names a scenario from
    :data:`~repro.chaos.schedule.SCENARIOS` to arm on every testbed;
    ``invariants`` (``"warn"`` or ``"fail-fast"``) attaches an
    :class:`InvariantMonitor` to each.  Either may be None.
    """

    scenario: Optional[str] = None
    invariants: Optional[str] = None

    def __post_init__(self):
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {self.scenario!r}; "
                f"choose from {', '.join(SCENARIOS)}"
            )
        if self.invariants is not None and self.invariants not in MODES:
            raise ValueError(
                f"invariants mode must be one of {MODES}, got {self.invariants!r}"
            )

    def start(self) -> "_ChaosSession":
        return _ChaosSession(self)


class _ChaosSession:
    """Testbeds and monitors attached while one point runs in this process."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.beds: List = []
        self.monitors: List[InvariantMonitor] = []

    def attach_simulator(self, sim) -> None:
        pass

    def attach_testbed(self, bed) -> None:
        self.beds.append(bed)
        if self.config.scenario is not None:
            ChaosInjector(bed, build_scenario(self.config.scenario)).arm()
        if self.config.invariants is not None:
            monitor = InvariantMonitor(bed, mode=self.config.invariants)
            self.monitors.append(monitor)
            bed.invariant_monitor = monitor

    def finish(self, ok: bool) -> List[ChaosSnapshot]:
        """Finalize every monitor; the first fail-fast violation re-raises.

        With ``ok`` False the monitors' final check is skipped: the run
        already failed, and end-state invariants would mask its error.
        """
        snapshot = ChaosSnapshot(
            scenario=self.config.scenario, invariants=self.config.invariants
        )
        for bed in self.beds:
            # The point may arm injectors of its own beside this probe's.
            for injector in armed_injectors(bed):
                snapshot.faults_injected += injector.injected
                snapshot.faults_cleared += injector.cleared
        error = None
        for monitor in self.monitors:
            try:
                snapshot.violations.extend(monitor.finalize(strict=ok))
            except InvariantViolationError as exc:
                error = error or exc
        if error is not None:
            raise error
        return [snapshot]


class ChaosCollector:
    """The chaos probe, passed as ``RunConfig(probes=(collector,))``."""

    name = "chaos"

    def __init__(self, scenario: Optional[str] = None, invariants: Optional[str] = None):
        self.config = ChaosConfig(scenario=scenario, invariants=invariants)
        self.points: List[PointChaos] = []

    def add_point(self, label: str, snapshots: List[ChaosSnapshot]) -> None:
        """Deposit one sweep point's snapshot (called by the executor)."""
        self.points.append(PointChaos(label=label, snapshots=snapshots))

    def add_failure(self, label: str, failure) -> None:
        """A failed point deposits no snapshot."""
        self.add_point(label, [])

    def snapshots(self) -> List[ChaosSnapshot]:
        """Every point's snapshot, in spec order."""
        return [snap for point in self.points for snap in point.snapshots]

    def violations(self) -> List[Incident]:
        """Every violation collected so far, in collection order."""
        return [v for snap in self.snapshots() for v in snap.violations]

    def summary(self) -> str:
        """One line: the configuration, faults injected/cleared, violations."""
        snapshots = self.snapshots()
        parts = [
            f"scenario={self.config.scenario or '-'}",
            f"invariants={self.config.invariants or '-'}",
            f"faults injected={sum(s.faults_injected for s in snapshots)}",
            f"cleared={sum(s.faults_cleared for s in snapshots)}",
            f"violations={len(self.violations())}",
        ]
        return "chaos: " + " ".join(parts)
