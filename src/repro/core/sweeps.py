"""A small parameter-sweep runner.

Experiments are grids of independent measurements (device × depth ×
flood-rate ...).  :class:`Sweep` runs a callable over a parameter grid,
records results with their parameters, and supports progress reporting —
the shared machinery behind every figure/table module in
:mod:`repro.experiments`.

Grids whose callable is picklable can be evaluated by a process pool
(``jobs > 1``); point order, recorded parameters and results are
identical to a serial run (see :mod:`repro.core.parallel`).  The
executor's fault-tolerance knobs — ``retries``, ``point_timeout``,
``checkpoint``, ``on_failure`` — and its ``probes`` pass straight
through.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.checkpoint import SweepCheckpoint
from repro.core.parallel import ON_FAILURE_RAISE, SweepExecutor, SweepPointSpec
from repro.core.probe import Probe


@dataclass(frozen=True)
class SweepPoint:
    """One (parameters, result) record."""

    params: Tuple[Tuple[str, Any], ...]
    result: Any

    def param(self, name: str) -> Any:
        """Value of one swept parameter."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass
class Sweep:
    """Runs ``fn(**params)`` over the cross product of parameter values.

    ``jobs`` selects the worker-process count for :meth:`run` (1 =
    serial, the default; None = auto via :func:`repro.core.parallel.resolve_jobs`).
    Parallel evaluation requires a picklable ``fn``; closures and lambdas
    degrade to the serial loop with identical results.

    Each :meth:`run` call replaces :attr:`points` with the new grid's
    records (a reused ``Sweep`` never mixes grids in :meth:`series`).
    ``probes`` (see :mod:`repro.core.probe`) and the fault-tolerance
    knobs (``retries``, ``point_timeout``, ``checkpoint``, ``on_failure``)
    forward to the :class:`~repro.core.parallel.SweepExecutor`.

    Examples
    --------
    >>> sweep = Sweep(lambda a, b: a * b)
    >>> points = sweep.run({"a": [1, 2], "b": [10]})
    >>> [(p.param("a"), p.result) for p in points]
    [(1, 10), (2, 20)]
    """

    fn: Callable[..., Any]
    progress: Optional[Callable[[str], None]] = None
    points: List[SweepPoint] = field(default_factory=list)
    jobs: Optional[int] = 1
    probes: Sequence[Probe] = ()
    retries: int = 0
    point_timeout: Optional[float] = None
    checkpoint: Union[SweepCheckpoint, str, None] = None
    on_failure: str = ON_FAILURE_RAISE

    def run(self, grid: Dict[str, Iterable[Any]]) -> List[SweepPoint]:
        """Evaluate over the grid's cross product (insertion order)."""
        names = list(grid)
        combos = list(itertools.product(*(list(grid[name]) for name in names)))
        params_list = [tuple(zip(names, combo)) for combo in combos]
        specs = [
            SweepPointSpec(
                label=", ".join(f"{key}={value}" for key, value in params),
                fn=self.fn,
                kwargs=dict(params),
            )
            for params in params_list
        ]
        executor = SweepExecutor(
            jobs=self.jobs,
            progress=self.progress,
            probes=self.probes,
            retries=self.retries,
            point_timeout=self.point_timeout,
            checkpoint=self.checkpoint,
            on_failure=self.on_failure,
        )
        results = executor.run(specs)
        self.points = [
            SweepPoint(params=params, result=result)
            for params, result in zip(params_list, results)
        ]
        return list(self.points)

    def series(
        self,
        x_param: str,
        y_of: Callable[[Any], float],
        where: Optional[Dict[str, Any]] = None,
    ) -> List[Tuple[Any, float]]:
        """Extract an (x, y) series from recorded points.

        ``where`` filters points by exact parameter values.
        """
        selected: Sequence[SweepPoint] = self.points
        if where:
            selected = [
                point
                for point in selected
                if all(point.param(key) == value for key, value in where.items())
            ]
        return [(point.param(x_param), y_of(point.result)) for point in selected]
