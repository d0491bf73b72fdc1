"""Experiment registry and the unified run contract.

``python -m repro.experiments <id>`` regenerates one artefact; ids are
``fig2``, ``fig3a``, ``fig3b``, ``table1``, ``ablations``, ``extension``,
``fleet``, ``mitigation`` or ``all``.  Every experiment is an :class:`ExperimentSpec`
whose single entry point takes one
:class:`~repro.experiments.RunConfig`::

    spec.run(RunConfig(preset="quick", jobs=4))

``RunConfig.preset`` is a :class:`~repro.experiments.presets.Preset` (or
the names "full"/"quick"); the quick grids live in
:mod:`repro.experiments.presets`.  Its ``checkpoint``/``retries``/
``point_timeout``/``on_failure`` fields configure the sweep executor's
fault tolerance (per-point retries with identical seeds, wall-clock
watchdog, JSONL checkpoint/resume; see
:class:`~repro.core.parallel.SweepExecutor` and the CLI's
``--checkpoint``/``--resume``/``--retries``/``--point-timeout``/
``--keep-going``).  ``probes`` are collectors run around every sweep
point (see :mod:`repro.core.probe`): per-sweep metric time series,
packet-lifecycle traces and incidents, wall-clock profiles, chaos
faults and invariant violations.  ``--json DIR``, ``--metrics DIR`` and
``--trace DIR`` on the CLI archive the result, the series and the
traces (see :mod:`repro.experiments.results` and
:mod:`repro.obs.tracing.export`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Union

from repro._lazy import import_module
from repro.experiments.config import RunConfig
from repro.experiments.presets import Preset

Progress = Optional[Callable[[str], None]]

Jobs = Optional[int]

PresetLike = Union[None, str, Preset]


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment.

    ``target`` is the experiment's ``run`` taking a
    :class:`~repro.experiments.RunConfig`, or the name of the module
    that defines it; a named module is imported when :attr:`entry` is
    first read, so a run imports only the experiments it runs.
    :meth:`run` resolves the preset for this experiment id and forwards
    to :attr:`entry`.  ``config.jobs`` is the
    sweep worker-process count (see :mod:`repro.core.parallel`) and
    ``config.probes`` the collectors; results are identical for any
    value of either.
    """

    experiment_id: str
    title: str
    target: Union[Callable[..., Any], str]

    @property
    def entry(self) -> Callable[..., Any]:
        """The experiment's ``run``."""
        if isinstance(self.target, str):
            return import_module(self.target).run
        return self.target

    def run(self, config: Optional[RunConfig] = None) -> Any:
        """Run the experiment and return its raw result object."""
        config = config or RunConfig()
        resolved = config.resolved_preset(self.experiment_id)
        return self.entry(replace(config, preset=resolved))


def render_result(result: Any) -> str:
    """Render a result object (or list of them) as text tables."""
    if isinstance(result, str):
        return result
    if isinstance(result, list):
        return "\n\n".join(render_result(item) for item in result)
    return result.table()


REGISTRY: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig2",
            "Figure 2: available bandwidth vs. rule-set depth",
            "repro.experiments.fig2_bandwidth",
        ),
        ExperimentSpec(
            "fig3a",
            "Figure 3a: available bandwidth during flood",
            "repro.experiments.fig3a_flood",
        ),
        ExperimentSpec(
            "fig3b",
            "Figure 3b: minimum DoS flood rate vs. depth",
            "repro.experiments.fig3b_minflood",
        ),
        ExperimentSpec(
            "table1",
            "Table 1: HTTP performance behind an ADF",
            "repro.experiments.table1_http",
        ),
        ExperimentSpec(
            "ablations",
            "Design-choice ablations",
            "repro.experiments.ablations",
        ),
        ExperimentSpec(
            "extension",
            "Extension: the future-work flood-tolerant NIC",
            "repro.experiments.extension_hardened",
        ),
        ExperimentSpec(
            "fleet",
            "Fleet flood tolerance on a multi-switch fabric",
            "repro.experiments.fleet_flood",
        ),
        ExperimentSpec(
            "mitigation",
            "Closed-loop flood defense: detection, mitigation, recovery",
            "repro.experiments.mitigation",
        ),
        ExperimentSpec(
            "chaos",
            "Chaos: recovery under compound faults during a flood",
            "repro.experiments.chaos_faults",
        ),
    )
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in presentation order."""
    return list(REGISTRY)


def run_experiment_result(
    experiment_id: str,
    quick: bool = False,
    config: Optional[RunConfig] = None,
) -> Any:
    """Run one experiment and return its raw result object.

    ``config`` carries everything that shapes the run (see
    :class:`~repro.experiments.RunConfig`); ``config.preset`` wins over
    the ``quick`` flag when both are given.  Results are identical for
    any ``config.jobs`` value, with or without probes.
    """
    spec = REGISTRY.get(experiment_id)
    if spec is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {', '.join(REGISTRY)}"
        )
    config = config or RunConfig()
    if config.preset is None:
        config = replace(config, preset="quick" if quick else "full")
    return spec.run(config)


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    progress: Progress = None,
    jobs: Jobs = None,
) -> str:
    """Run one experiment and return its formatted text output."""
    config = RunConfig(progress=progress, jobs=jobs)
    return render_result(run_experiment_result(experiment_id, quick=quick, config=config))
