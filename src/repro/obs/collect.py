"""Per-sweep-point metrics collection, identical for any worker count.

:class:`MetricsCollector` is the metrics probe (see
:mod:`repro.core.probe`).  While a point runs, every kernel a testbed
creates gets a fresh :class:`~repro.obs.registry.MetricsRegistry` and a
running :class:`~repro.obs.sampler.Sampler`; the point's snapshots, one
per kernel in creation order, travel back with its result and are
deposited as one :class:`PointMetrics` per sweep point **in spec
order**, so ``jobs=1`` and ``jobs=N`` runs produce identical
collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.instrument import instrument_simulator
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import MetricsSnapshot, Sampler

#: Default virtual-time sampling interval (seconds): ~50-100 points per
#: quick-preset measurement window.
DEFAULT_SAMPLE_INTERVAL = 0.01


@dataclass(frozen=True)
class MetricsConfig:
    """Picklable recipe: the virtual-time sampling interval."""

    interval: float = DEFAULT_SAMPLE_INTERVAL

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"sample interval must be positive, got {self.interval}")

    def start(self) -> "_MetricsSession":
        return _MetricsSession(self.interval)


class _MetricsSession:
    """Samplers created while one sweep point runs in this process."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samplers: List[Sampler] = []

    def attach_simulator(self, sim) -> None:
        # Installed before any component is built, so every constructor
        # self-registers its instruments into the fresh registry.
        registry = MetricsRegistry()
        sim.metrics = registry
        instrument_simulator(sim)
        sampler = Sampler(sim, registry, self.interval)
        sampler.start()
        self.samplers.append(sampler)

    def attach_testbed(self, bed) -> None:
        pass

    def finish(self, ok: bool) -> List[MetricsSnapshot]:
        snapshots = []
        for sampler in self.samplers:
            sampler.stop()
            snapshots.append(sampler.snapshot())
        return snapshots


@dataclass
class PointMetrics:
    """Metrics of one sweep point: one snapshot per testbed it built.

    Points that probe repeatedly (repetitions, bisection searches) build
    several testbeds; ``snapshots`` lists them in creation order.
    """

    label: str
    snapshots: List[MetricsSnapshot] = field(default_factory=list)


@dataclass
class ExperimentMetrics:
    """All collected metrics of one experiment run."""

    experiment_id: str
    interval: float
    points: List[PointMetrics] = field(default_factory=list)
    schema_version: int = 1
    #: Parent-side sweep-execution counters (``sweep_point_retries``,
    #: ``sweep_point_timeouts``, ``sweep_point_failures``,
    #: ``sweep_worker_deaths``, ``sweep_points_resumed``).
    executor: Dict[str, float] = field(default_factory=dict)


class MetricsCollector:
    """The metrics probe, passed as ``RunConfig(probes=(collector,))``.

    Parameters
    ----------
    interval:
        Virtual-time sampling interval forwarded to every sampler.

    Besides the per-point snapshots, the collector carries
    ``executor_registry`` — a parent-process :class:`MetricsRegistry`
    into which the sweep executor mirrors its fault-handling counters
    (retries, timeouts, failures, worker deaths, resumed points).
    """

    name = "metrics"

    def __init__(self, interval: float = DEFAULT_SAMPLE_INTERVAL):
        self.config = MetricsConfig(float(interval))
        self.points: List[PointMetrics] = []
        self.executor_registry = MetricsRegistry()

    @property
    def interval(self) -> float:
        return self.config.interval

    def add_point(self, label: str, snapshots: List[MetricsSnapshot]) -> None:
        """Deposit one sweep point's snapshots (called by the executor)."""
        self.points.append(PointMetrics(label=label, snapshots=snapshots))

    def add_failure(self, label: str, failure) -> None:
        """A failed point deposits no snapshots."""
        self.add_point(label, [])

    def clear(self) -> None:
        """Drop everything collected so far."""
        self.points.clear()
        self.executor_registry = MetricsRegistry()

    def experiment(self, experiment_id: str) -> ExperimentMetrics:
        """Package the collection for archiving."""
        return ExperimentMetrics(
            experiment_id=experiment_id,
            interval=self.interval,
            points=list(self.points),
            executor=self.executor_registry.read_all(),
        )

    def __len__(self) -> int:
        return len(self.points)
