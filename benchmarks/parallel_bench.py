#!/usr/bin/env python
"""Wall-clock comparison of serial vs. parallel experiment regeneration.

Runs each experiment's *quick* preset twice — once with ``jobs=1`` and
once with ``jobs=N`` (``--jobs``, ``REPRO_JOBS``, or all cores) — and
writes a machine-readable summary to ``BENCH_parallel.json``:

    {
      "jobs": 4,
      "cpu_count": 4,
      "experiments": {
        "fig3a": {"serial_s": 12.1, "parallel_s": 3.4, "speedup": 3.56},
        ...
      },
      "total": {"serial_s": ..., "parallel_s": ..., "speedup": ...},
      "compiled": {
        "equivalence": {"fig3a": {"on_s": ..., "off_s": ..., ...}, ...},
        "micro_deep_rules": {"32": {...}, "64": {...}}
      },
      "trace_overhead": {
        "experiment": "fig2", "off_s": ..., "sampled_s": ..., "full_s": ...,
        "disabled_overhead_pct": ...
      },
      "profiling": {
        "experiment": "fig2", "off_s": ..., "on_s": ...,
        "off_overhead_pct": ..., "on_overhead_pct": ..., "coverage_pct": ...
      },
      "invariants": {
        "experiment": "fig2", "off_s": ..., "warn_s": ..., "overhead_pct": ...
      }
    }

The parallel executor derives every sweep point's seed from (base seed,
point index), so both runs produce identical tables; the script asserts
that before trusting the timings.

The ``trace_overhead`` section times one quick preset with the packet
tracer disabled, sampled (every 64th packet + flight recorder), and
full-on; the three tables must be identical, and the disabled-tracer
time is diffed against the recorded pre-tracing baseline.
``--trace-overhead-only`` runs just this leg and merges it into the
output file, and ``--fail-overhead-above 3`` turns it into the gate
``make bench-trace`` and CI enforce.

The ``profiling`` section times one quick preset with the wall-clock
profiler absent and fully on (scoped timers around every dispatched
event, NIC receive, and rule-set evaluation, stack collection included);
the two tables must be identical.  The profiler-absent time is diffed
against the recorded pre-profiler baseline (the null-profiler hot-path
budget), the fully-on time against the profiler-absent time.
``--profile-overhead-only`` runs just this leg and merges it into the
output file; ``--fail-profile-off-above 3`` / ``--fail-profile-on-above
35`` turn it into the gate ``make bench-profile`` and CI enforce.

The ``invariants`` section times one quick preset with the runtime
invariant monitors absent and in ``warn`` mode; the two tables must be
identical, and the warn-mode overhead is budgeted at <= 5 %
(``--invariant-overhead-only`` / ``--fail-invariant-overhead-above``,
enforced by ``make bench-invariants`` and CI).

The ``compiled`` section is the compiled-classifier equivalence leg
(``--equivalence-only`` runs just this, as CI does): each experiment's
quick preset is rendered with the compiled matcher on and off and the
outputs must be byte-identical, and a deep-rule micro-benchmark times
both matchers on rule-sets of depth >= 32 with unique flows (so the
flow cache cannot absorb the cost) to record the fast-path speedup.

This file is deliberately named ``parallel_bench.py`` (not ``bench_*``)
so the pytest benchmark suite does not collect it.

Usage::

    PYTHONPATH=src python benchmarks/parallel_bench.py            # all quick presets
    PYTHONPATH=src python benchmarks/parallel_bench.py fig3a -j 4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import List, Optional, Tuple

from repro.chaos import ChaosCollector
from repro.core.parallel import resolve_jobs
from repro.experiments import RunConfig, runner
from repro.firewall.compiled import compiled_enabled, set_compiled_enabled
from repro.obs import MetricsCollector, TraceCollector, TraceConfig
from repro.obs.profiling import ProfileCollector, ProfileConfig

#: fig2 quick, jobs=1, on the reference container *before* the tracing
#: subsystem landed — the ``serial_s`` recorded for fig2 in
#: ``BENCH_parallel.json`` at that commit.  The bench-trace gate diffs
#: today's disabled-tracer time against this; re-record it when moving
#: to different hardware (check out the last pre-tracing commit, run
#: ``parallel_bench.py fig2 --no-metrics-overhead`` three times, keep
#: the best ``serial_s``) or override with ``--baseline-serial``.
PRE_TRACE_BASELINE_S = {"fig2": 7.585}

#: fig2 quick, jobs=1, on the reference container at the last commit
#: *before* the profiling subsystem landed.  Recorded as the *median*
#: of seven runs of the pre-profiler tree interleaved with
#: profiler-off runs of the current tree (the container's speed drifts
#: ±10-25 % on a minutes scale, so a best-of-N baseline would make
#: every later reading look inflated; the same interleaving measured
#: the genuine off-path cost at 0-1.5 %).  Re-record by checking out
#: the last pre-profiler commit and repeating that interleaved
#: measurement, or override with ``--baseline-serial``.
PRE_PROFILE_BASELINE_S = {"fig2": 6.868}


def _timed_run(experiment_id: str, jobs: int, *probes) -> Tuple[float, str]:
    """Run one quick preset; return (wall-clock seconds, rendered output).

    ``probes`` are armed on every point; None entries are skipped, so an
    "off" leg passes None in the probe's place.
    """
    config = RunConfig(jobs=jobs, probes=tuple(p for p in probes if p is not None))
    start = time.perf_counter()
    result = runner.run_experiment_result(experiment_id, quick=True, config=config)
    elapsed = time.perf_counter() - start
    return elapsed, runner.render_result(result)


def _metrics_overhead(experiment_id: str) -> dict:
    """Cost of turning metrics *collection* on for one quick preset.

    Everything in this file otherwise runs with the default null
    registry, i.e. with instrumentation compiled in but disabled — those
    ``serial_s``/``parallel_s`` numbers are the ones to diff against the
    pre-instrumentation baseline (the ≤5 % null-registry budget).  This
    measures the other axis: a real registry plus a running sampler.
    """
    off_s, off_out = _timed_run(experiment_id, 1)
    collector = MetricsCollector()
    on_s, on_out = _timed_run(experiment_id, 1, collector)
    if on_out != off_out:
        raise AssertionError(f"{experiment_id}: metrics collection changed the table")
    samples = sum(
        len(series.points)
        for point in collector.points
        for snapshot in point.snapshots
        for series in snapshot.series
    )
    return {
        "experiment": experiment_id,
        "off_s": round(off_s, 3),
        "on_s": round(on_s, 3),
        "overhead_pct": round(100.0 * (on_s - off_s) / off_s, 1) if off_s else 0.0,
        "points": len(collector.points),
        "samples": samples,
        "outputs_identical": True,
    }


def _trace_overhead(
    experiment_id: str, runs: int = 3, baseline: Optional[float] = None
) -> dict:
    """Cost of the tracing subsystem on one quick preset, per mode.

    Three modes: tracer compiled in but *disabled* (the default for every
    other timing in this file), *sampled* (every 64th packet traced plus
    the flight recorder), and *full* (every packet).  Each mode is timed
    ``runs`` times and the best run kept — shared-container jitter easily
    exceeds the effect being measured otherwise.  The rendered tables
    must be byte-identical across the three modes: tracing is observation
    only and must never change a result.

    ``disabled_overhead_pct`` diffs the disabled-tracer time against
    ``PRE_TRACE_BASELINE_S`` (same preset, same container, pre-tracing
    code) — the null-tracer hot-path budget is <= 3 %, enforced by
    ``--fail-overhead-above`` (``make bench-trace`` / CI).
    """
    if baseline is None:
        baseline = PRE_TRACE_BASELINE_S.get(experiment_id)
    modes = (
        ("off", None),
        ("sampled", TraceConfig(sample_every=64, flight=True)),
        ("full", TraceConfig(sample_every=1, flight=True)),
    )
    timings = {}
    outputs = {}
    records = {}
    for label, config in modes:
        print(
            f"== {experiment_id}: tracing {label}, best of {runs} ==", file=sys.stderr
        )
        best = None
        for _ in range(runs):
            collector = TraceCollector(config) if config is not None else None
            elapsed, out = _timed_run(experiment_id, 1, collector)
            best = elapsed if best is None else min(best, elapsed)
        timings[label] = best
        outputs[label] = out
        if collector is not None:
            snapshots = [
                snapshot for point in collector.points for snapshot in point.snapshots
            ]
            records[label] = {
                "traces": sum(s.traces_started for s in snapshots),
                "spans": sum(len(s.spans) for s in snapshots),
                "events": sum(len(s.events) for s in snapshots),
                "incidents": len(collector.incidents()),
            }
    if not (outputs["off"] == outputs["sampled"] == outputs["full"]):
        raise AssertionError(f"{experiment_id}: tracing changed the rendered table")
    off = timings["off"]
    result = {
        "experiment": experiment_id,
        "runs_per_mode": runs,
        "off_s": round(off, 3),
        "sampled_s": round(timings["sampled"], 3),
        "full_s": round(timings["full"], 3),
        "sampled_overhead_pct": round(100.0 * (timings["sampled"] - off) / off, 1)
        if off
        else 0.0,
        "full_overhead_pct": round(100.0 * (timings["full"] - off) / off, 1)
        if off
        else 0.0,
        "sampled_records": records["sampled"],
        "full_records": records["full"],
        "outputs_identical": True,
    }
    if baseline is not None:
        result["baseline_serial_s"] = baseline
        result["disabled_overhead_pct"] = round(100.0 * (off - baseline) / baseline, 1)
    for label in ("off", "sampled", "full"):
        extra = ""
        if label != "off":
            extra = (
                f" (+{result[label + '_overhead_pct']}%, "
                f"{records[label]['spans']} spans)"
            )
        elif baseline is not None:
            extra = (
                f" ({result['disabled_overhead_pct']:+}% vs pre-trace "
                f"baseline {baseline}s)"
            )
        print(f"   {label}: {timings[label]:.2f}s{extra}", file=sys.stderr)
    return result


def _profile_overhead(
    experiment_id: str, runs: int = 3, baseline: Optional[float] = None
) -> dict:
    """Cost of the wall-clock profiler on one quick preset, per mode.

    Two modes: profiler *off* (no collector — the null profiler on the
    kernel, no active global, i.e. the default for every other timing in
    this file) and *on* (a :class:`ProfileCollector` with stack
    collection, so every dispatched event, NIC receive, timer firing,
    and rule-set evaluation runs inside a scoped timer).  The two modes
    are *interleaved* (off, on, off, on, ...) for ``runs`` rounds and
    the best run of each kept — shared-container speed drifts on a
    minutes scale, and interleaving exposes both modes to the same
    drift instead of letting one mode soak a slow phase.  The rendered
    tables must be byte-identical: profiling observes the *host's*
    cycles and must never change a simulated result.

    ``off_overhead_pct`` diffs the profiler-off time against
    ``PRE_PROFILE_BASELINE_S`` (same preset, same container,
    pre-profiler code) — the null-profiler hot-path budget.
    ``on_overhead_pct`` diffs fully-on against off — the cost of
    actually attributing every event.
    """
    if baseline is None:
        baseline = PRE_PROFILE_BASELINE_S.get(experiment_id)
    timings = {}
    outputs = {}
    aggregate = None
    print(
        f"== {experiment_id}: profiler off vs on, interleaved best of {runs} ==",
        file=sys.stderr,
    )
    for _ in range(runs):
        for label, make_collector in (
            ("off", lambda: None),
            ("on", lambda: ProfileCollector(ProfileConfig(stacks=True))),
        ):
            collector = make_collector()
            elapsed, out = _timed_run(experiment_id, 1, collector)
            best = timings.get(label)
            timings[label] = elapsed if best is None else min(best, elapsed)
            outputs[label] = out
            if collector is not None:
                aggregate = collector.experiment(experiment_id).aggregate()
    if outputs["off"] != outputs["on"]:
        raise AssertionError(f"{experiment_id}: profiling changed the rendered table")
    off, on = timings["off"], timings["on"]
    result = {
        "experiment": experiment_id,
        "runs_per_mode": runs,
        "off_s": round(off, 3),
        "on_s": round(on, 3),
        "on_overhead_pct": round(100.0 * (on - off) / off, 1) if off else 0.0,
        "components": len(aggregate.entries),
        "scopes_entered": sum(entry.calls for entry in aggregate.entries),
        "coverage_pct": round(100.0 * aggregate.coverage(), 1),
        "outputs_identical": True,
    }
    if baseline is not None:
        result["baseline_serial_s"] = baseline
        result["off_overhead_pct"] = round(100.0 * (off - baseline) / baseline, 1)
    extra = ""
    if baseline is not None:
        extra = f" ({result['off_overhead_pct']:+}% vs pre-profile baseline {baseline}s)"
    print(f"   off: {off:.2f}s{extra}", file=sys.stderr)
    print(
        f"   on:  {on:.2f}s (+{result['on_overhead_pct']}%, "
        f"{result['components']} components, "
        f"{result['coverage_pct']}% of wall time attributed)",
        file=sys.stderr,
    )
    return result


def _invariant_overhead(experiment_id: str, runs: int = 3) -> dict:
    """Cost of the runtime invariant monitors on one quick preset.

    Two modes, *interleaved* (off, warn, off, warn, ...) for ``runs``
    rounds with the best run of each kept, like the profiling leg: the
    monitors absent entirely vs a ``ChaosCollector(invariants="warn")`` (an
    :class:`~repro.chaos.invariants.InvariantMonitor` attached to every
    testbed, running the full check suite on its periodic tick).  The
    rendered tables must be byte-identical — the monitors observe
    counters, they never mutate simulation state.

    ``overhead_pct`` diffs warn against off; the budget is <= 5 %,
    enforced by ``--fail-invariant-overhead-above`` (``make
    bench-invariants`` / CI).
    """
    timings = {}
    outputs = {}
    print(
        f"== {experiment_id}: invariants off vs warn, interleaved best of {runs} ==",
        file=sys.stderr,
    )
    for _ in range(runs):
        for label, make_collector in (
            ("off", lambda: None),
            ("warn", lambda: ChaosCollector(invariants="warn")),
        ):
            elapsed, out = _timed_run(experiment_id, 1, make_collector())
            best = timings.get(label)
            timings[label] = elapsed if best is None else min(best, elapsed)
            outputs[label] = out
    if outputs["off"] != outputs["warn"]:
        raise AssertionError(
            f"{experiment_id}: invariant monitors changed the rendered table"
        )
    off, warn = timings["off"], timings["warn"]
    result = {
        "experiment": experiment_id,
        "runs_per_mode": runs,
        "off_s": round(off, 3),
        "warn_s": round(warn, 3),
        "overhead_pct": round(100.0 * (warn - off) / off, 1) if off else 0.0,
        "outputs_identical": True,
    }
    print(
        f"   off:  {off:.2f}s\n"
        f"   warn: {warn:.2f}s ({result['overhead_pct']:+}%)",
        file=sys.stderr,
    )
    return result


def _check_invariant_gate(invariants: dict, limit: Optional[float]) -> int:
    """Enforce ``--fail-invariant-overhead-above`` on the invariants leg."""
    if limit is None:
        return 0
    pct = invariants["overhead_pct"]
    if pct > limit:
        print(
            f"ERROR: invariant-monitor overhead {pct}% exceeds the "
            f"{limit}% budget",
            file=sys.stderr,
        )
        return 1
    print(
        f"invariant-monitor overhead {pct}% within the {limit}% budget",
        file=sys.stderr,
    )
    return 0


def _compiled_equivalence(ids: List[str], jobs: int) -> dict:
    """Render each quick preset with the compiled matcher on and off.

    The tables must be byte-identical — the compiled classifier charges
    the same traversal cost as the linear walk, so only wall-clock may
    differ.  Raises ``AssertionError`` on any divergence.
    """
    results = {}
    original = compiled_enabled()
    try:
        for experiment_id in ids:
            print(f"== {experiment_id}: compiled matcher on vs off ==", file=sys.stderr)
            set_compiled_enabled(True)
            on_s, on_out = _timed_run(experiment_id, jobs)
            set_compiled_enabled(False)
            off_s, off_out = _timed_run(experiment_id, jobs)
            if on_out != off_out:
                raise AssertionError(
                    f"{experiment_id}: compiled and linear matchers rendered different tables"
                )
            results[experiment_id] = {
                "on_s": round(on_s, 3),
                "off_s": round(off_s, 3),
                "speedup": round(off_s / on_s, 2) if on_s else 0.0,
                "outputs_identical": True,
            }
            print(
                f"   {experiment_id}: {off_s:.1f}s linear, {on_s:.1f}s compiled "
                f"({results[experiment_id]['speedup']}x), outputs identical",
                file=sys.stderr,
            )
    finally:
        set_compiled_enabled(original)
    return results


def _deep_rule_micro(depths=(32, 64), probes: int = 6000) -> dict:
    """Time both matchers on deep rule-sets with all-unique flows.

    The experiment floods reuse a handful of flows, so the LRU flow
    cache absorbs most rule walks there; this leg defeats the cache
    (every probe is a fresh flow) to expose the per-walk cost the
    compiled classifier removes at depth >= 32.
    """
    from repro.firewall.builders import padded_ruleset
    from repro.firewall.rules import Direction
    from repro.net.addresses import Ipv4Address
    from repro.net.packet import Ipv4Packet, TcpSegment

    base = Ipv4Address("10.64.0.1")
    dst = Ipv4Address("192.0.2.1")
    packets = [
        Ipv4Packet(
            src=base + (index // 1000),
            dst=dst,
            payload=TcpSegment(src_port=1024 + index % 60000, dst_port=5001),
        )
        for index in range(probes)
    ]
    out = {}
    original = compiled_enabled()
    try:
        for depth in depths:
            verdicts = {}
            timings = {}
            for label, enabled in (("compiled", True), ("linear", False)):
                set_compiled_enabled(enabled)
                ruleset = padded_ruleset(depth)
                seen = []
                start = time.perf_counter()
                for packet in packets:
                    result = ruleset.evaluate(packet, Direction.INBOUND)
                    seen.append((result.action, result.rules_traversed))
                timings[label] = time.perf_counter() - start
                verdicts[label] = seen
            if verdicts["compiled"] != verdicts["linear"]:
                raise AssertionError(f"depth {depth}: matcher verdicts diverge")
            out[str(depth)] = {
                "probes": probes,
                "compiled_s": round(timings["compiled"], 3),
                "linear_s": round(timings["linear"], 3),
                "speedup": round(timings["linear"] / timings["compiled"], 2)
                if timings["compiled"]
                else 0.0,
            }
            print(
                f"   depth {depth}: {timings['linear']:.2f}s linear, "
                f"{timings['compiled']:.2f}s compiled "
                f"({out[str(depth)]['speedup']}x over {probes} unique flows)",
                file=sys.stderr,
            )
    finally:
        set_compiled_enabled(original)
    return out


def _check_overhead_gate(overhead: dict, limit: Optional[float]) -> int:
    """Enforce ``--fail-overhead-above`` on a trace-overhead result."""
    if limit is None:
        return 0
    pct = overhead.get("disabled_overhead_pct")
    if pct is None:
        print(
            "ERROR: --fail-overhead-above needs a pre-tracing baseline "
            "(none recorded for this preset; pass --baseline-serial)",
            file=sys.stderr,
        )
        return 1
    if pct > limit:
        print(
            f"ERROR: disabled-tracer overhead {pct}% exceeds the "
            f"{limit}% budget",
            file=sys.stderr,
        )
        return 1
    print(
        f"disabled-tracer overhead {pct}% within the {limit}% budget",
        file=sys.stderr,
    )
    return 0


def _check_profile_gate(
    profiling: dict, off_limit: Optional[float], on_limit: Optional[float]
) -> int:
    """Enforce the ``--fail-profile-*-above`` budgets on a profiling result."""
    failed = 0
    if off_limit is not None:
        pct = profiling.get("off_overhead_pct")
        if pct is None:
            print(
                "ERROR: --fail-profile-off-above needs a pre-profiler baseline "
                "(none recorded for this preset; pass --baseline-serial)",
                file=sys.stderr,
            )
            failed = 1
        elif pct > off_limit:
            print(
                f"ERROR: profiler-off overhead {pct}% exceeds the "
                f"{off_limit}% budget",
                file=sys.stderr,
            )
            failed = 1
        else:
            print(
                f"profiler-off overhead {pct}% within the {off_limit}% budget",
                file=sys.stderr,
            )
    if on_limit is not None:
        pct = profiling["on_overhead_pct"]
        if pct > on_limit:
            print(
                f"ERROR: profiler-on overhead {pct}% exceeds the "
                f"{on_limit}% budget",
                file=sys.stderr,
            )
            failed = 1
        else:
            print(
                f"profiler-on overhead {pct}% within the {on_limit}% budget",
                file=sys.stderr,
            )
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to time (default: all quick presets)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the parallel leg "
        "(default: REPRO_JOBS or the machine's core count)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default="BENCH_parallel.json",
        help="path for the JSON summary (default: %(default)s)",
    )
    parser.add_argument(
        "--no-metrics-overhead",
        action="store_true",
        help="skip the metrics-collection overhead measurement",
    )
    parser.add_argument(
        "--equivalence-only",
        action="store_true",
        help=(
            "run only the compiled-classifier equivalence leg (tables with "
            "the matcher on vs off, plus the deep-rule micro-benchmark); "
            "this is what CI runs"
        ),
    )
    parser.add_argument(
        "--no-compiled-matcher",
        action="store_true",
        help="time the serial/parallel legs with the linear matcher instead",
    )
    parser.add_argument(
        "--no-trace-overhead",
        action="store_true",
        help="skip the tracing-overhead measurement in the full sweep",
    )
    parser.add_argument(
        "--trace-overhead-only",
        action="store_true",
        help=(
            "run only the tracing-overhead leg (disabled vs sampled vs "
            "full tracing on one quick preset, identical tables required) "
            "and merge it into the output JSON; this is what bench-trace "
            "and CI run"
        ),
    )
    parser.add_argument(
        "--trace-runs",
        type=int,
        default=3,
        metavar="N",
        help="timing repetitions per tracing/profiling mode; the best run "
        "is kept (default: %(default)s)",
    )
    parser.add_argument(
        "--no-profile-overhead",
        action="store_true",
        help="skip the profiling-overhead measurement in the full sweep",
    )
    parser.add_argument(
        "--profile-overhead-only",
        action="store_true",
        help=(
            "run only the profiling-overhead leg (profiler absent vs fully "
            "on, with stack collection, on one quick preset; identical "
            "tables required) and merge it into the output JSON; this is "
            "what bench-profile and CI run"
        ),
    )
    parser.add_argument(
        "--no-invariant-overhead",
        action="store_true",
        help="skip the invariant-monitor overhead measurement in the full sweep",
    )
    parser.add_argument(
        "--invariant-overhead-only",
        action="store_true",
        help=(
            "run only the invariant-monitor overhead leg (monitors absent "
            "vs invariants=warn on one quick preset, identical tables "
            "required) and merge it into the output JSON; this is what "
            "bench-invariants and CI run"
        ),
    )
    parser.add_argument(
        "--fail-invariant-overhead-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when the invariant-monitor (warn mode) overhead "
        "vs the monitors-absent run exceeds this percentage",
    )
    parser.add_argument(
        "--fail-profile-off-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when the profiler-off overhead vs the "
        "pre-profiler baseline exceeds this percentage",
    )
    parser.add_argument(
        "--fail-profile-on-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when the fully-on profiler overhead vs the "
        "profiler-off run exceeds this percentage",
    )
    parser.add_argument(
        "--baseline-serial",
        type=float,
        default=None,
        metavar="SECONDS",
        help="pre-tracing serial wall-clock to diff the disabled tracer "
        "against (default: the recorded reference-container value)",
    )
    parser.add_argument(
        "--fail-overhead-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when the disabled-tracer overhead exceeds "
        "this percentage (requires a recorded or given baseline)",
    )
    args = parser.parse_args(argv)

    jobs = resolve_jobs(args.jobs)
    ids = args.experiments or runner.experiment_ids()
    unknown = [i for i in ids if i not in runner.experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")
    if args.no_compiled_matcher:
        set_compiled_enabled(False)

    if args.trace_overhead_only:
        overhead_id = args.experiments[0] if args.experiments else "fig2"
        overhead = _trace_overhead(
            overhead_id, runs=args.trace_runs, baseline=args.baseline_serial
        )
        # Merge into an existing summary rather than clobbering the other
        # legs' numbers; start a fresh payload when none exists.
        try:
            with open(args.output) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {
                "jobs": jobs,
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "preset": "quick",
            }
        payload["trace_overhead"] = overhead
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
        return _check_overhead_gate(overhead, args.fail_overhead_above)

    if args.invariant_overhead_only:
        overhead_id = args.experiments[0] if args.experiments else "fig2"
        invariants = _invariant_overhead(overhead_id, runs=args.trace_runs)
        try:
            with open(args.output) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {
                "jobs": jobs,
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "preset": "quick",
            }
        payload["invariants"] = invariants
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
        return _check_invariant_gate(invariants, args.fail_invariant_overhead_above)

    if args.profile_overhead_only:
        overhead_id = args.experiments[0] if args.experiments else "fig2"
        profiling = _profile_overhead(
            overhead_id, runs=args.trace_runs, baseline=args.baseline_serial
        )
        try:
            with open(args.output) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {
                "jobs": jobs,
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "preset": "quick",
            }
        payload["profiling"] = profiling
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
        return _check_profile_gate(
            profiling, args.fail_profile_off_above, args.fail_profile_on_above
        )

    if args.equivalence_only:
        payload = {
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "preset": "quick",
            "compiled": {
                "equivalence": _compiled_equivalence(ids, jobs),
                "micro_deep_rules": _deep_rule_micro(),
            },
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
        return 0

    experiments = {}
    total_serial = 0.0
    total_parallel = 0.0
    for experiment_id in ids:
        print(f"== {experiment_id}: jobs=1 ==", file=sys.stderr)
        serial_s, serial_out = _timed_run(experiment_id, 1)
        if jobs > 1:
            print(f"== {experiment_id}: jobs={jobs} ==", file=sys.stderr)
            parallel_s, parallel_out = _timed_run(experiment_id, jobs)
            if parallel_out != serial_out:
                print(
                    f"ERROR: {experiment_id}: jobs=1 and jobs={jobs} outputs differ",
                    file=sys.stderr,
                )
                return 1
        else:
            parallel_s = serial_s
        total_serial += serial_s
        total_parallel += parallel_s
        experiments[experiment_id] = {
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else 0.0,
        }
        print(
            f"   {experiment_id}: {serial_s:.1f}s serial, "
            f"{parallel_s:.1f}s at jobs={jobs} "
            f"({experiments[experiment_id]['speedup']}x)",
            file=sys.stderr,
        )

    payload = {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "preset": "quick",
        "outputs_identical": True,
        "experiments": experiments,
        "total": {
            "serial_s": round(total_serial, 3),
            "parallel_s": round(total_parallel, 3),
            "speedup": round(total_serial / total_parallel, 2) if total_parallel else 0.0,
        },
    }
    # Equivalence re-runs every preset twice; in the full sweep restrict
    # it to the paper's four artefacts (--equivalence-only honours the
    # exact id list instead).
    artefacts = [i for i in ids if i in ("fig2", "fig3a", "fig3b", "table1")] or ids
    payload["compiled"] = {
        "equivalence": _compiled_equivalence(artefacts, jobs),
        "micro_deep_rules": _deep_rule_micro(),
    }
    if not args.no_metrics_overhead:
        overhead_id = "fig3a" if "fig3a" in ids else ids[0]
        print(f"== {overhead_id}: metrics collection on vs off ==", file=sys.stderr)
        payload["metrics_overhead"] = _metrics_overhead(overhead_id)
        print(
            f"   metrics collection: {payload['metrics_overhead']['overhead_pct']}% "
            f"({payload['metrics_overhead']['samples']} samples)",
            file=sys.stderr,
        )
    gate = 0
    if not args.no_trace_overhead:
        trace_id = "fig2" if "fig2" in ids else ids[0]
        payload["trace_overhead"] = _trace_overhead(
            trace_id, runs=args.trace_runs, baseline=args.baseline_serial
        )
        gate = _check_overhead_gate(
            payload["trace_overhead"], args.fail_overhead_above
        )
    if not args.no_profile_overhead:
        profile_id = "fig2" if "fig2" in ids else ids[0]
        payload["profiling"] = _profile_overhead(
            profile_id, runs=args.trace_runs, baseline=args.baseline_serial
        )
        gate = gate or _check_profile_gate(
            payload["profiling"],
            args.fail_profile_off_above,
            args.fail_profile_on_above,
        )
    if not args.no_invariant_overhead:
        invariant_id = "fig2" if "fig2" in ids else ids[0]
        payload["invariants"] = _invariant_overhead(
            invariant_id, runs=args.trace_runs
        )
        gate = gate or _check_invariant_gate(
            payload["invariants"], args.fail_invariant_overhead_above
        )
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return gate


if __name__ == "__main__":
    raise SystemExit(main())
