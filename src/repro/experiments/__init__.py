"""Experiment modules: one per figure/table of the paper, plus ablations,
the fleet-scale flood workload, and the closed-loop flood defense
(``mitigation``).

Run them via ``python -m repro.experiments
[fig2|fig3a|fig3b|table1|ablations|extension|fleet|mitigation|all]`` (add
``--quick`` for reduced grids, ``--metrics DIR`` for per-component time
series), or call each module's ``run()`` — every module follows the
shared contract::

    run(config: RunConfig | None = None)

One :class:`RunConfig` carries everything that shapes a run: the sweep
grid (``preset``), execution (``progress``, ``jobs``), observability and
chaos (``probes``) and fault tolerance (``checkpoint``, ``retries``,
``point_timeout``, ``on_failure``).
"""

from repro import _lazy

__all__ = [
    "FULL",
    "QUICK",
    "Preset",
    "RunConfig",
    "preset_for",
    "resolve_preset",
    "REGISTRY",
    "ExperimentSpec",
    "experiment_ids",
    "run_experiment",
    "run_experiment_result",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".config": ("RunConfig",),
    ".presets": ("FULL", "QUICK", "Preset", "preset_for", "resolve_preset"),
    ".runner": (
        "REGISTRY",
        "ExperimentSpec",
        "experiment_ids",
        "run_experiment",
        "run_experiment_result",
    ),
})
