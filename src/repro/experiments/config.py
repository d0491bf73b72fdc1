"""The unified experiment run configuration.

Every experiment module's ``run()`` takes one :class:`RunConfig`, and
:class:`~repro.experiments.runner.ExperimentSpec` forwards it with the
preset resolved for that experiment::

    from repro.experiments import RunConfig, fig2_bandwidth

    config = RunConfig(preset="quick", jobs=4, retries=1)
    result = fig2_bandwidth.run(config)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.parallel import SweepExecutor
from repro.core.probe import Probe
from repro.experiments.presets import Preset, resolve_preset


@dataclass(frozen=True)
class RunConfig:
    """Everything that shapes one experiment run.

    Parameters
    ----------
    preset:
        A :class:`~repro.experiments.presets.Preset`, the name
        "full"/"quick", or None (= full).  Names are resolved per
        experiment (each has its own quick grid).
    progress:
        Optional ``progress(line)`` callback (parent process only).
    jobs:
        Sweep worker-process count (1 = serial, None = auto via
        ``REPRO_JOBS`` or the CPU count).  Results are identical for
        any value.
    probes:
        Collectors run around every sweep point (see
        :mod:`repro.core.probe`):
        :class:`~repro.obs.collect.MetricsCollector`,
        :class:`~repro.obs.tracing.collect.TraceCollector`,
        :class:`~repro.obs.profiling.collect.ProfileCollector` and
        :class:`~repro.chaos.runtime.ChaosCollector`.  Each receives one
        entry per point, in spec order for any ``jobs`` value.
    checkpoint:
        A :class:`~repro.core.checkpoint.SweepCheckpoint` or a path
        (opened in resume mode).
    retries:
        Re-runs granted to a failed/timed-out sweep point.
    point_timeout:
        Wall-clock seconds per point before its worker is killed.
    on_failure:
        "raise" (default) or "record" (keep going, record failures).
    """

    preset: Union[None, str, Preset] = None
    progress: Optional[Callable[[str], None]] = None
    jobs: Optional[int] = None
    probes: Sequence[Probe] = ()
    checkpoint: Any = None
    retries: int = 0
    point_timeout: Optional[float] = None
    on_failure: str = "raise"

    def resolved_preset(self, experiment_id: str) -> Preset:
        """The concrete :class:`Preset` for ``experiment_id``."""
        return resolve_preset(experiment_id, self.preset)

    def executor(self) -> SweepExecutor:
        """A :class:`~repro.core.parallel.SweepExecutor` per this config.

        The executor validates ``jobs``/``retries``/``on_failure``; this
        is the single point where the config meets the sweep machinery.
        """
        return SweepExecutor(
            jobs=self.jobs,
            progress=self.progress,
            probes=self.probes,
            checkpoint=self.checkpoint,
            retries=self.retries,
            point_timeout=self.point_timeout,
            on_failure=self.on_failure,
        )
