"""Per-sweep-point profile collection, identical for any worker count.

:class:`ProfileCollector` is the profiling probe (see
:mod:`repro.core.probe`), and :class:`ProfileConfig` the picklable
recipe the CLI builds and the executor ships to workers.  While a point
runs, every kernel a testbed creates shares one live
:class:`~repro.obs.profiling.core.Profiler`.  When the point ends, the
profiler is snapshotted together with the point's measured wall-clock
time, which is what the hotspot report's coverage figure divides by.
The collector holds one :class:`PointProfile` per point, in spec order,
so ``jobs=1`` and ``jobs=N`` produce the same collection structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import List, Optional

from repro.obs.profiling import core as profiling_core
from repro.obs.profiling.core import NULL_PROFILER, Profiler


@dataclass(frozen=True)
class ProfileConfig:
    """Picklable profiling recipe applied to every testbed of a point."""

    #: Record per-call-path self-time (the collapsed-stack/flamegraph
    #: output).  Scope totals are always recorded.
    stacks: bool = True
    #: Rows shown in the rendered hotspot table.
    top: int = 25

    def start(self) -> "_ProfileSession":
        return _ProfileSession(self)


@dataclass
class ProfileEntry:
    """Aggregate of one scope name (component category)."""

    name: str
    calls: int = 0
    cum_ns: int = 0
    self_ns: int = 0
    schema_version: int = 1


@dataclass
class StackEntry:
    """Self-time of one call path (root -> ... -> leaf)."""

    path: List[str] = field(default_factory=list)
    calls: int = 0
    self_ns: int = 0
    schema_version: int = 1


@dataclass
class ProfileSnapshot:
    """Everything one point's profiler recorded (picklable)."""

    entries: List[ProfileEntry] = field(default_factory=list)
    stacks: List[StackEntry] = field(default_factory=list)
    #: Wall-clock nanoseconds from session start to finish — the
    #: denominator of the coverage figure.
    wall_ns: int = 0
    schema_version: int = 1

    def attributed_ns(self) -> int:
        """Self-time summed over every scope (== root cumulative time)."""
        return sum(entry.self_ns for entry in self.entries)

    def coverage(self) -> float:
        """Attributed fraction of the measured wall clock (0.0 when unknown)."""
        if self.wall_ns <= 0:
            return 0.0
        return self.attributed_ns() / self.wall_ns


@dataclass
class PointProfile:
    """Profile of one sweep point."""

    label: str
    snapshots: List[ProfileSnapshot] = field(default_factory=list)


@dataclass
class ExperimentProfile:
    """All collected profiles of one experiment run."""

    experiment_id: str
    config: ProfileConfig = field(default_factory=ProfileConfig)
    points: List[PointProfile] = field(default_factory=list)
    schema_version: int = 1

    def aggregate(self) -> ProfileSnapshot:
        """Merge every point's snapshot into one (deterministic order).

        Entries and stacks are summed by name/path in first-encounter
        order over points in spec order, so the merged profile is
        identical for any ``jobs`` value modulo the measured times.
        """
        return merge_snapshots(
            [snap for point in self.points for snap in point.snapshots]
        )


def merge_snapshots(snapshots: List[ProfileSnapshot]) -> ProfileSnapshot:
    """Sum snapshots into one, keyed by scope name / call path."""
    entries = {}
    stacks = {}
    wall_ns = 0
    for snap in snapshots:
        wall_ns += snap.wall_ns
        for entry in snap.entries:
            merged = entries.get(entry.name)
            if merged is None:
                entries[entry.name] = ProfileEntry(
                    name=entry.name,
                    calls=entry.calls,
                    cum_ns=entry.cum_ns,
                    self_ns=entry.self_ns,
                )
            else:
                merged.calls += entry.calls
                merged.cum_ns += entry.cum_ns
                merged.self_ns += entry.self_ns
        for stack in snap.stacks:
            key = tuple(stack.path)
            merged = stacks.get(key)
            if merged is None:
                stacks[key] = StackEntry(
                    path=list(stack.path), calls=stack.calls, self_ns=stack.self_ns
                )
            else:
                merged.calls += stack.calls
                merged.self_ns += stack.self_ns
    return ProfileSnapshot(
        entries=list(entries.values()), stacks=list(stacks.values()), wall_ns=wall_ns
    )


def snapshot_profiler(
    profiler: Profiler, wall_ns: int = 0, stacks: bool = True
) -> ProfileSnapshot:
    """Package ``profiler``'s state (open scopes are unwound first)."""
    profiler.unwind()
    entries = [
        ProfileEntry(name=name, calls=calls, cum_ns=cum, self_ns=self_ns)
        for name, (calls, cum, self_ns) in profiler.totals().items()
    ]
    stack_entries = (
        [
            StackEntry(path=list(path), calls=calls, self_ns=self_ns)
            for path, (calls, self_ns) in profiler.stack_totals().items()
        ]
        if stacks
        else []
    )
    return ProfileSnapshot(entries=entries, stacks=stack_entries, wall_ns=wall_ns)


class ProfileCollector:
    """The profiling probe, passed as ``RunConfig(probes=(collector,))``."""

    name = "profile"

    def __init__(self, config: Optional[ProfileConfig] = None):
        self.config = config if config is not None else ProfileConfig()
        self.points: List[PointProfile] = []

    def add_point(self, label: str, snapshots: List[ProfileSnapshot]) -> None:
        """Deposit one sweep point's snapshots (called by the executor)."""
        self.points.append(PointProfile(label=label, snapshots=snapshots))

    def add_failure(self, label: str, failure) -> None:
        """A failed point deposits an empty profile."""
        self.add_point(label, [])

    def clear(self) -> None:
        """Drop everything collected so far."""
        self.points.clear()

    def experiment(self, experiment_id: str) -> ExperimentProfile:
        """Package the collection for archiving."""
        return ExperimentProfile(
            experiment_id=experiment_id, config=self.config, points=list(self.points)
        )

    def aggregate(self) -> ProfileSnapshot:
        """Merged snapshot over every point collected so far."""
        return merge_snapshots(
            [snap for point in self.points for snap in point.snapshots]
        )

    def __len__(self) -> int:
        return len(self.points)


class _ProfileSession:
    """The live profiler while one sweep point runs in this process.

    Every kernel built during the point shares it, and the module-level
    :data:`~repro.obs.profiling.core.ACTIVE` pointer routes synchronous
    hot paths (rule evaluation) to it too.
    """

    def __init__(self, config: ProfileConfig):
        self.config = config
        self.profiler = Profiler()
        self.started_ns = perf_counter_ns()
        profiling_core.ACTIVE = self.profiler

    def attach_simulator(self, sim) -> None:
        sim.profiler = self.profiler

    def attach_testbed(self, bed) -> None:
        pass

    def finish(self, ok: bool) -> List[ProfileSnapshot]:
        profiling_core.ACTIVE = None
        wall_ns = perf_counter_ns() - self.started_ns
        return [
            snapshot_profiler(self.profiler, wall_ns=wall_ns, stacks=self.config.stacks)
        ]


__all__ = [
    "ProfileConfig",
    "ProfileEntry",
    "StackEntry",
    "ProfileSnapshot",
    "PointProfile",
    "ExperimentProfile",
    "ProfileCollector",
    "merge_snapshots",
    "snapshot_profiler",
    "NULL_PROFILER",
]
