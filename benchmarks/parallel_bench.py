#!/usr/bin/env python
"""Quick-preset timings and the overhead gates, all through one A/B leg.

Every measurement in this file is an :func:`ab_leg`: one experiment's
quick preset run under an ordered set of *sides* (run configurations),
interleaved round by round, with each side's best wall time kept.  Every
side must render a byte-identical table — parallelism and
instrumentation may cost host time but must never change a result — and
each side is reported as an overhead against the first side.

The legs, merged into ``BENCH_parallel.json`` (so the ``fleet`` and
``mitigation`` sections other scripts write there survive):

* ``experiments`` / ``total`` — each requested id at ``jobs=1`` vs
  ``jobs=N`` (``--jobs``, ``REPRO_JOBS``, or all cores), one round.
* ``metrics`` — no collector vs a :class:`MetricsCollector` with its
  sampler running.
* ``trace`` — packet tracer off vs sampled (every 64th packet plus the
  flight recorder) vs full.
* ``profile`` — wall-clock profiler off vs fully on, stack collection
  included.
* ``invariants`` — invariant monitors absent vs ``warn`` mode.

The four overhead legs run on ``OVERHEAD_ID`` (fig2), the preset the
pre-subsystem baselines were recorded on: in a full run when fig2 is
among the ids, and alone with ``--gates``.  ``GATES`` budgets them; every
gate is evaluated and printed, recorded under ``gates``, and the script
exits 1 if any failed.

After every run a leg also times the benchmark harness's
``reference_work``, a fixed piece of pure-Python work, and records the
median as ``reference_s``: the host's speed while the leg ran.  The
profiler-on gate divides the profiler's extra wall time by the scopes
it entered and rescales that cost to the speed at which the reference
takes ``REFERENCE_NOMINAL_S``, so it reads the same on a faster or a
slower host, and does not grow when the simulator gets faster.  The
invariants gate prices the monitors from their own time instead: after
the leg, one more ``warn`` run times every ``InvariantMonitor.check``
and a ``reference_work`` call right after each (:class:`CheckClock`),
and the gate sets the one total against the other.

This file is deliberately named ``parallel_bench.py`` (not ``bench_*``)
so the pytest benchmark suite does not collect it.

Usage::

    PYTHONPATH=src python benchmarks/parallel_bench.py            # every quick preset
    PYTHONPATH=src python benchmarks/parallel_bench.py fig3a -j 4
    PYTHONPATH=src python benchmarks/parallel_bench.py --gates    # make bench-gates
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos import ChaosCollector
from repro.chaos.invariants import InvariantMonitor
from repro.core.parallel import resolve_jobs
from repro.experiments import RunConfig, runner
from repro.obs import MetricsCollector, TraceCollector, TraceConfig
from repro.obs.profiling import ProfileCollector, ProfileConfig
from harness.child import REFERENCE_NOMINAL_S, reference_work
from summary import SUMMARY_PATH, merge_sections

#: fig2 quick, jobs=1, on the reference container *before* the tracing
#: subsystem landed — the ``serial_s`` recorded for fig2 in
#: ``BENCH_parallel.json`` at that commit.  Re-record it when moving to
#: different hardware: check out the last pre-tracing commit, time fig2
#: quick serially three times and keep the best.
PRE_TRACE_BASELINE_S = 7.585

#: fig2 quick, jobs=1, on the reference container at the last commit
#: *before* the profiling subsystem landed.  Recorded as the *median*
#: of seven runs of the pre-profiler tree interleaved with
#: profiler-off runs of the current tree (the container's speed drifts
#: ±10-25 % on a minutes scale, so a best-of-N baseline would make
#: every later reading look inflated; the same interleaving measured
#: the genuine off-path cost at 0-1.5 %).  Re-record by checking out
#: the last pre-profiler commit and repeating that interleaved
#: measurement.
PRE_PROFILE_BASELINE_S = 6.868

#: The preset every overhead leg runs on (the baselines' preset).
OVERHEAD_ID = "fig2"

#: Budget of the fully-on profiler (stack collection included), in ns
#: per scope entered at the nominal host speed: see :func:`scope_cost_ns`.
#: Ten fig2 legs on a shared 2-vCPU container (583,179 scopes each)
#: read 833 to 1,691 ns (median 1,085); the budget is the largest times
#: 1.5, so host noise passes and a profiler whose scopes cost well over
#: twice today's median fails.
PROFILE_SCOPE_BUDGET_NS = 2500.0

#: Budget of the ``warn``-mode invariant monitors, in ns per
#: ``InvariantMonitor.check`` at the nominal host speed: see
#: :func:`check_cost_ns`.  Ten fig2 legs on a shared 2-vCPU container
#: (187 priced checks each) read 16,145 to 20,195 ns (median 17,677);
#: the budget is about the largest times 1.5, so host noise passes and
#: monitors whose checks cost 1.7 times today's median fail.
CHECK_BUDGET_NS = 30000.0

#: ``reference_work`` samples taken after every timed run of a leg.
REFERENCE_SAMPLES = 5

#: The overhead budgets: ``(leg, side, reference, budget, unit)``.  A
#: string reference names another side of the same leg; a number is a
#: recorded baseline in seconds.  With unit ``%`` the side's best wall
#: time may exceed the reference by at most ``budget`` percent; with
#: unit ``ns/scope`` its :func:`scope_cost_ns` may be at most ``budget``,
#: and with unit ``ns/check`` the leg's :func:`check_cost_ns`.
GATES = (
    ("trace", "off", PRE_TRACE_BASELINE_S, 3.0, "%"),
    ("profile", "off", PRE_PROFILE_BASELINE_S, 3.0, "%"),
    ("profile", "on", "off", PROFILE_SCOPE_BUDGET_NS, "ns/scope"),
    ("invariants", "warn", "InvariantMonitor.check", CHECK_BUDGET_NS, "ns/check"),
)

Sides = Dict[str, Callable[[], RunConfig]]


def _timed_run(experiment_id: str, config: RunConfig) -> Tuple[float, str]:
    """Run one quick preset; return (wall-clock seconds, rendered table)."""
    start = time.perf_counter()
    result = runner.run_experiment_result(experiment_id, quick=True, config=config)
    elapsed = time.perf_counter() - start
    return elapsed, runner.render_result(result)


def _pct(value: float, reference: float) -> float:
    return round(100.0 * (value - reference) / reference, 1) if reference else 0.0


def _reference_sample() -> float:
    """Seconds one ``reference_work`` call takes now, the collector
    paused as the harness pauses it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scope_cost_ns(leg: dict, side: str, reference: str) -> Optional[float]:
    """What each profiler scope cost ``side`` over ``reference``, in ns.

    The side's extra wall time over the reference side, divided by the
    leg's ``scopes_entered`` and rescaled by ``REFERENCE_NOMINAL_S /
    reference_s`` to the nominal host speed.  None when no scope was
    entered (a profiler that recorded nothing cannot be priced).
    """
    scopes = leg.get("scopes_entered", 0)
    if not scopes:
        return None
    sides = leg["sides"]
    extra_s = sides[side]["wall_s"] - sides[reference]["wall_s"]
    return round(1e9 * extra_s / scopes * REFERENCE_NOMINAL_S / leg["reference_s"], 1)


def check_cost_ns(leg: dict) -> Optional[float]:
    """What one ``InvariantMonitor.check`` cost, in ns at the nominal
    host speed.

    The wall time spent inside the checks over the time of the
    ``reference_work`` call that followed each, times
    ``REFERENCE_NOMINAL_S``.  Each check is set against the host's speed
    at that moment: the check costs tens of microseconds, and a speed
    sampled between runs varied as much as the checks did.  None when
    no check ran.
    """
    if not leg.get("checks_run"):
        return None
    return round(1e9 * REFERENCE_NOMINAL_S * leg["check_s"] / leg["check_reference_s"], 1)


class CheckClock:
    """While installed (a ``with`` block), counts ``InvariantMonitor.check``
    calls, the wall time spent inside them, and the time of a
    ``reference_work`` call made right after each.  A monitor binds
    ``check`` when it is built, so only monitors built inside the block
    are timed."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.reference_s = 0.0

    def __enter__(self) -> "CheckClock":
        original = self._original = InvariantMonitor.check

        def check(monitor) -> None:
            start = time.perf_counter()
            original(monitor)
            checked = time.perf_counter()
            reference_work()
            self.reference_s += time.perf_counter() - checked
            self.seconds += checked - start
            self.calls += 1

        InvariantMonitor.check = check
        return self

    def __exit__(self, *exc) -> None:
        InvariantMonitor.check = self._original


def ab_leg(
    experiment_id: str, sides: Sides, runs: int
) -> Tuple[dict, Dict[str, RunConfig]]:
    """Time the ``sides`` of one quick preset, interleaved for ``runs`` rounds.

    ``sides`` is an ordered ``{label: () -> RunConfig}``.  Each round
    builds a fresh config per side (so collectors start empty) and runs
    the sides in order.  Interleaving exposes every side to the same
    drift in host speed, which on a shared single-CPU container reaches
    10-25 % over minutes; keeping each side's best run discards one-off
    stalls.  Every run must render the same table as the first, or
    ``AssertionError`` is raised.  After each run ``REFERENCE_SAMPLES``
    timings of ``reference_work`` sample the host's speed.

    Returns the leg record (each side's best ``wall_s`` and its
    ``overhead_pct`` against the first side, and the median reference
    timing ``reference_s``) and each side's last config, whose probes
    hold what that side collected.
    """
    print(
        f"== {experiment_id}: {' vs '.join(sides)}, interleaved best of {runs} ==",
        file=sys.stderr,
    )
    best: Dict[str, float] = {}
    configs: Dict[str, RunConfig] = {}
    reference: Optional[str] = None
    speed: List[float] = []
    for _ in range(runs):
        for label, make_config in sides.items():
            configs[label] = make_config()
            elapsed, table = _timed_run(experiment_id, configs[label])
            speed.extend(_reference_sample() for _ in range(REFERENCE_SAMPLES))
            if reference is None:
                reference = table
            elif table != reference:
                raise AssertionError(
                    f"{experiment_id}: side {label!r} changed the rendered table"
                )
            best[label] = min(elapsed, best.get(label, elapsed))
    first = round(best[next(iter(sides))], 3)
    reference_s = round(statistics.median(speed), 6)
    record = {"experiment": experiment_id, "runs": runs, "reference_s": reference_s, "sides": {}}
    for label, elapsed in best.items():
        wall = round(elapsed, 3)
        record["sides"][label] = {"wall_s": wall, "overhead_pct": _pct(wall, first)}
        print(f"   {label}: {wall:.2f}s ({_pct(wall, first):+}%)", file=sys.stderr)
    print(f"   reference_work: {1e3 * reference_s:.2f} ms", file=sys.stderr)
    return record, configs


def _side(make_probe: Optional[Callable[[], object]] = None, jobs: int = 1):
    """A side factory: ``jobs`` workers, plus one fresh probe per run."""
    if make_probe is None:
        return lambda: RunConfig(jobs=jobs)
    return lambda: RunConfig(jobs=jobs, probes=(make_probe(),))


def _metrics_summary(configs: Dict[str, RunConfig]) -> dict:
    (collector,) = configs["on"].probes
    return {
        "points": len(collector.points),
        "samples": sum(
            len(series.points)
            for point in collector.points
            for snapshot in point.snapshots
            for series in snapshot.series
        ),
    }


def _trace_summary(configs: Dict[str, RunConfig]) -> dict:
    records = {}
    for label in ("sampled", "full"):
        (collector,) = configs[label].probes
        snapshots = [s for point in collector.points for s in point.snapshots]
        records[label] = {
            "traces": sum(s.traces_started for s in snapshots),
            "spans": sum(len(s.spans) for s in snapshots),
            "events": sum(len(s.events) for s in snapshots),
            "incidents": len(collector.incidents()),
        }
    return {"records": records}


def _profile_summary(configs: Dict[str, RunConfig]) -> dict:
    (collector,) = configs["on"].probes
    aggregate = collector.aggregate()
    return {
        "components": len(aggregate.entries),
        "scopes_entered": sum(entry.calls for entry in aggregate.entries),
        "coverage_pct": round(100.0 * aggregate.coverage(), 1),
    }


def _invariants_summary(configs: Dict[str, RunConfig]) -> dict:
    """Price the monitors: one more ``warn`` run under a :class:`CheckClock`
    (its reference calls would inflate the leg's timed runs)."""
    with CheckClock() as clock:
        _timed_run(OVERHEAD_ID, RunConfig(jobs=1, probes=(ChaosCollector(invariants="warn"),)))
    return {
        "checks_run": clock.calls,
        "check_s": round(clock.seconds, 6),
        "check_reference_s": round(clock.reference_s, 6),
    }


#: The overhead legs: name -> (ordered sides, summary of what the
#: instrumented sides' probes collected, or None).
OVERHEAD_LEGS = {
    "metrics": ({"off": _side(), "on": _side(MetricsCollector)}, _metrics_summary),
    "trace": (
        {
            "off": _side(),
            "sampled": _side(lambda: TraceCollector(TraceConfig(sample_every=64, flight=True))),
            "full": _side(lambda: TraceCollector(TraceConfig(sample_every=1, flight=True))),
        },
        _trace_summary,
    ),
    "profile": (
        {"off": _side(), "on": _side(lambda: ProfileCollector(ProfileConfig(stacks=True)))},
        _profile_summary,
    ),
    "invariants": (
        {"off": _side(), "warn": _side(lambda: ChaosCollector(invariants="warn"))},
        _invariants_summary,
    ),
}


def overhead_legs(names, runs: int) -> Dict[str, dict]:
    """Run the named overhead legs on ``OVERHEAD_ID``."""
    legs = {}
    for name in names:
        sides, summarize = OVERHEAD_LEGS[name]
        record, configs = ab_leg(OVERHEAD_ID, sides, runs)
        if summarize is not None:
            record.update(summarize(configs))
        legs[name] = record
    return legs


def check_gates(legs: Dict[str, dict]) -> List[dict]:
    """Evaluate and print every gate whose leg ran; return one record each."""
    results = []
    for leg, side, reference, budget, unit in GATES:
        if leg not in legs:
            continue
        sides = legs[leg]["sides"]
        if unit == "ns/scope":
            value, against = scope_cost_ns(legs[leg], side, reference), reference
        elif unit == "ns/check":
            value, against = check_cost_ns(legs[leg]), reference
        elif isinstance(reference, str):
            value, against = _pct(sides[side]["wall_s"], sides[reference]["wall_s"]), reference
        else:
            value, against = _pct(sides[side]["wall_s"], reference), f"baseline {reference}s"
        passed = value is not None and value <= budget
        results.append(
            {
                "leg": leg,
                "side": side,
                "reference": against,
                "value": value,
                "unit": unit,
                "budget": budget,
                "passed": passed,
            }
        )
        shown = "nothing measured" if value is None else f"{value:+}{unit}"
        print(
            f"{'ok' if passed else 'FAIL'}: {leg} {side} {shown} vs {against} "
            f"(budget {budget}{unit})",
            file=sys.stderr,
        )
    return results


def serial_vs_parallel(ids: List[str], jobs: int) -> dict:
    """Time each id at jobs=1 and jobs=``jobs`` (one round each)."""
    sides = {"serial": _side()}
    if jobs > 1:
        sides["parallel"] = _side(jobs=jobs)
    experiments = {}
    for experiment_id in ids:
        walls = ab_leg(experiment_id, sides, runs=1)[0]["sides"]
        serial = walls["serial"]["wall_s"]
        parallel = walls.get("parallel", walls["serial"])["wall_s"]
        experiments[experiment_id] = {
            "serial_s": serial,
            "parallel_s": parallel,
            "speedup": round(serial / parallel, 2) if parallel else 0.0,
        }
    serial = sum(e["serial_s"] for e in experiments.values())
    parallel = sum(e["parallel_s"] for e in experiments.values())
    return {
        "outputs_identical": True,
        "experiments": experiments,
        "total": {
            "serial_s": round(serial, 3),
            "parallel_s": round(parallel, 3),
            "speedup": round(serial / parallel, 2) if parallel else 0.0,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to time serial vs parallel (default: all); the "
        f"overhead legs run when {OVERHEAD_ID} is among them",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the parallel side "
        "(default: REPRO_JOBS or the machine's core count)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=SUMMARY_PATH,
        help="JSON summary to merge the results into (default: %(default)s)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=3,
        metavar="N",
        help="interleaved rounds per overhead leg; each side keeps its best "
        "run (default: %(default)s)",
    )
    parser.add_argument(
        "--gates",
        action="store_true",
        help=f"run only the gated overhead legs on {OVERHEAD_ID}; exit 1 if "
        "any budget is exceeded",
    )
    args = parser.parse_args(argv)
    if args.gates and args.experiments:
        parser.error(f"--gates always runs on {OVERHEAD_ID}; it takes no ids")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    ids = args.experiments or runner.experiment_ids()
    unknown = [i for i in ids if i not in runner.experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")

    sections = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "preset": "quick",
    }
    gates: List[dict] = []
    if args.gates:
        names = list(dict.fromkeys(leg for leg, *_ in GATES))
    else:
        jobs = resolve_jobs(args.jobs)
        sections["jobs"] = jobs
        sections.update(serial_vs_parallel(ids, jobs))
        names = list(OVERHEAD_LEGS) if OVERHEAD_ID in ids else []
    if names:
        legs = overhead_legs(names, args.runs)
        gates = check_gates(legs)
        sections.update(legs)
        sections["gates"] = gates
    merge_sections(args.output, sections)
    return 1 if any(not gate["passed"] for gate in gates) else 0


if __name__ == "__main__":
    raise SystemExit(main())
