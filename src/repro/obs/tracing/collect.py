"""Per-sweep-point trace collection, identical for any worker count.

:class:`TraceCollector` is the tracing probe (see
:mod:`repro.core.probe`), and :class:`TraceConfig` the picklable arming
recipe the CLI builds and the executor ships to workers.  While a point
runs, every kernel a testbed creates has its tracer armed: spans and
sampling per the config, a flight recorder and watchdog when requested,
and the span-duration histogram bridge whenever the testbed also
carries a real metrics registry.  When the point ends, every watchdog is
finalized and every tracer snapshotted, in creation order; the
collector holds one :class:`PointTrace` per sweep point, in spec order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing.flight import DEFAULT_FLIGHT_SIZE, FlightRecorder
from repro.obs.tracing.tracer import SpanRecord, TraceRecord
from repro.obs.tracing.watchdog import Incident, Watchdog


@dataclass(frozen=True)
class TraceConfig:
    """Picklable arming recipe applied to every testbed of a sweep point."""

    #: Record per-packet lifecycle spans (the CLI's ``--trace``).
    spans: bool = True
    #: Trace every K-th packet (the CLI's ``--trace-sample K``).
    sample_every: int = 1
    #: Arm the bounded incident ring (the CLI's ``--flight-recorder``).
    flight: bool = False
    flight_size: int = DEFAULT_FLIGHT_SIZE
    #: Detect incidents (lockups, saturation, thrash, zero-goodput).
    watchdog: bool = True
    max_spans: int = 200_000
    max_records: int = 100_000

    def start(self) -> "_TraceSession":
        return _TraceSession(self)


@dataclass
class TraceSnapshot:
    """Everything one testbed's tracer collected (picklable)."""

    spans: List[SpanRecord] = field(default_factory=list)
    events: List[TraceRecord] = field(default_factory=list)
    incidents: List[Incident] = field(default_factory=list)
    traces_started: int = 0
    schema_version: int = 1


@dataclass
class PointTrace:
    """Traces of one sweep point: one snapshot per testbed it built.

    Points that probe repeatedly (repetitions, bisection searches) build
    several testbeds; ``snapshots`` lists them in creation order.
    """

    label: str
    snapshots: List[TraceSnapshot] = field(default_factory=list)


@dataclass
class ExperimentTrace:
    """All collected traces of one experiment run."""

    experiment_id: str
    config: TraceConfig = field(default_factory=TraceConfig)
    points: List[PointTrace] = field(default_factory=list)
    schema_version: int = 1

    def incidents(self) -> List[Incident]:
        """Every incident across all points, in collection order."""
        return [
            incident
            for point in self.points
            for snapshot in point.snapshots
            for incident in snapshot.incidents
        ]


class TraceCollector:
    """The tracing probe, passed as ``RunConfig(probes=(collector,))``."""

    name = "trace"

    def __init__(self, config: Optional[TraceConfig] = None):
        self.config = config if config is not None else TraceConfig()
        self.points: List[PointTrace] = []

    def add_point(self, label: str, snapshots: List[TraceSnapshot]) -> None:
        """Deposit one sweep point's snapshots (called by the executor)."""
        self.points.append(PointTrace(label=label, snapshots=snapshots))

    def add_failure(self, label: str, failure) -> None:
        """A failed point deposits a ``sweep-point-failure`` incident."""
        incident = Incident(
            kind="sweep-point-failure",
            source=label,
            time=0.0,
            detail={
                "index": failure.index,
                "cause": failure.kind,
                "attempts": failure.attempts,
                "error": failure.error,
            },
        )
        self.add_point(label, [TraceSnapshot(incidents=[incident])])

    def clear(self) -> None:
        """Drop everything collected so far."""
        self.points.clear()

    def experiment(self, experiment_id: str) -> ExperimentTrace:
        """Package the collection for archiving."""
        return ExperimentTrace(
            experiment_id=experiment_id, config=self.config, points=list(self.points)
        )

    def incidents(self) -> List[Incident]:
        """Every incident collected so far, in collection order."""
        return [
            incident
            for point in self.points
            for snapshot in point.snapshots
            for incident in snapshot.incidents
        ]

    def __len__(self) -> int:
        return len(self.points)


def snapshot_tracer(tracer, now: Optional[float] = None) -> TraceSnapshot:
    """Finalize ``tracer``'s watchdog (if any) and package its state."""
    watchdog = tracer.watchdog
    if watchdog is not None and now is not None:
        watchdog.finalize(now)
    return TraceSnapshot(
        spans=list(tracer.spans()),
        events=list(tracer.records()),
        incidents=list(tracer.incidents),
        traces_started=tracer.traces_started,
    )


def arm_tracer(sim, config: TraceConfig):
    """Arm ``sim``'s tracer per ``config`` and return it."""
    tracer = sim.tracer
    tracer.configure(
        spans=config.spans,
        sample_every=config.sample_every,
        flight=FlightRecorder(config.flight_size) if config.flight else None,
        max_records=config.max_records,
        max_spans=config.max_spans,
    )
    if config.watchdog and tracer.watchdog is None:
        Watchdog(tracer)
    return tracer


def arm_tracing(
    sim,
    *,
    spans: bool = True,
    sample_every: int = 1,
    flight: bool = False,
    flight_size: int = DEFAULT_FLIGHT_SIZE,
    watchdog: bool = True,
):
    """Arm ``sim``'s tracer for ad-hoc use; returns the tracer."""
    config = TraceConfig(
        spans=spans,
        sample_every=sample_every,
        flight=flight,
        flight_size=flight_size,
        watchdog=watchdog,
    )
    return arm_tracer(sim, config)


class _TraceSession:
    """Tracers armed while one sweep point runs in this process."""

    def __init__(self, config: TraceConfig):
        self.config = config
        self.simulators: List[Any] = []

    def attach_simulator(self, sim) -> None:
        arm_tracer(sim, self.config)
        self.simulators.append(sim)

    def attach_testbed(self, bed) -> None:
        # Bridged here, once every probe has seen the kernel, so a
        # metrics probe listed after this one still gets the histograms.
        if bed.sim.metrics is not NULL_REGISTRY:
            bed.sim.tracer.bridge_metrics(bed.sim.metrics)

    def finish(self, ok: bool) -> List[TraceSnapshot]:
        return [snapshot_tracer(sim.tracer, now=sim.now) for sim in self.simulators]
