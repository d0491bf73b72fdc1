"""Wall-clock profiling: where the *host's* cycles go during a run.

The metrics/tracing layers observe simulated time; this package observes
the simulation's own cost.  See :mod:`repro.obs.profiling.core` for the
profiler and the null-object contract, :mod:`~repro.obs.profiling.collect`
for the profiling probe (identical for any ``jobs``),
and :mod:`~repro.obs.profiling.export` for the hotspot table and the
collapsed-stack flamegraph output.
"""

from repro.obs.profiling.collect import (
    ExperimentProfile,
    PointProfile,
    ProfileCollector,
    ProfileConfig,
    ProfileEntry,
    ProfileSnapshot,
    StackEntry,
    merge_snapshots,
    snapshot_profiler,
)
from repro.obs.profiling.core import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    active_profiler,
    derive_category,
)
from repro.obs.profiling.export import (
    collapsed_stacks,
    hotspot_table,
    write_collapsed,
)

__all__ = [
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "active_profiler",
    "derive_category",
    "ProfileConfig",
    "ProfileEntry",
    "StackEntry",
    "ProfileSnapshot",
    "PointProfile",
    "ExperimentProfile",
    "ProfileCollector",
    "merge_snapshots",
    "snapshot_profiler",
    "hotspot_table",
    "collapsed_stacks",
    "write_collapsed",
]
