"""Command-line entry point: ``python -m repro.experiments [ids] [--quick] [--preset NAME] [--jobs N] [--json DIR] [--metrics DIR] [--trace DIR] [--trace-sample K] [--flight-recorder] [--profile DIR] [--profile-top N] [--checkpoint DIR] [--resume] [--retries N] [--point-timeout S] [--keep-going] [--chaos SCENARIO] [--invariants MODE]``."""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.chaos.runtime import ChaosCollector
from repro.chaos.schedule import SCENARIOS as CHAOS_SCENARIOS
from repro.core.checkpoint import SweepCheckpoint
from repro.core.parallel import JOBS_ENV_VAR, SweepError, resolve_jobs
from repro.experiments.figures import plot_result
from repro.experiments.results import write_json
from repro.obs import MetricsCollector, write_metrics_csv
from repro.obs.profiling import (
    ProfileCollector,
    ProfileConfig,
    hotspot_table,
    write_collapsed,
)
from repro.obs.tracing import (
    TraceCollector,
    TraceConfig,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.experiments.config import RunConfig
from repro.experiments.runner import (
    experiment_ids,
    render_result,
    run_experiment,
    run_experiment_result,
)


def main(argv=None) -> int:
    """Run the requested experiments and print their tables."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures and tables of 'Barbarians in the Gate' "
            "(DSN 2006) on the simulated testbed."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=["all"],
        help=f"experiment ids: {', '.join(experiment_ids())}, or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced grids and windows (minutes instead of tens of minutes)",
    )
    parser.add_argument(
        "--preset",
        choices=("quick", "full"),
        default=None,
        help="named preset; --preset quick is equivalent to --quick",
    )
    parser.add_argument(
        "--chaos",
        metavar="SCENARIO",
        choices=CHAOS_SCENARIOS,
        default=None,
        help=(
            "arm a chaos fault scenario on every sweep point's testbed: "
            + ", ".join(CHAOS_SCENARIOS)
        ),
    )
    parser.add_argument(
        "--invariants",
        choices=("warn", "fail-fast"),
        default=None,
        help=(
            "run the cross-layer invariant monitors on every sweep point "
            "(warn collects violations; fail-fast raises on the first)"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep points (default: $"
            + JOBS_ENV_VAR
            + " or the CPU count; 1 = serial; results are identical for any value)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each experiment's raw result to DIR/<id>.json",
    )
    parser.add_argument(
        "--metrics",
        metavar="DIR",
        default=None,
        help=(
            "collect per-component time series (queue depths, drop causes, "
            "NIC accept/deny rates) for every sweep point and write them to "
            "DIR/<id>_metrics.{json,csv}; tables are unaffected"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help=(
            "record per-packet lifecycle spans (app send -> NIC -> firewall "
            "-> link -> switch -> deliver/drop) and write DIR/<id>_trace.json "
            "(Chrome trace-event format, load in Perfetto or about:tracing) "
            "plus DIR/<id>_trace.jsonl and DIR/<id>_trace_summary.json"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="K",
        help=(
            "trace every K-th packet per testbed (default 1 with --trace: "
            "trace everything); incident events are recorded regardless"
        ),
    )
    parser.add_argument(
        "--flight-recorder",
        action="store_true",
        help=(
            "arm the always-cheap bounded event ring and the incident "
            "watchdog; incidents (EFW lockups, queue saturation, flow-cache "
            "thrash, zero-goodput) are summarized on stderr and carry the "
            "last events before the anomaly; combines with --trace"
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help=(
            "profile the host-CPU wall-clock cost of every sweep point, "
            "print a per-component hotspot table to stderr, and write "
            "DIR/<id>_profile.json (versioned envelope) plus "
            "DIR/<id>_profile.collapsed (collapsed stacks: load in "
            "flamegraph.pl or speedscope); simulated results are unaffected"
        ),
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="rows in the --profile hotspot table (default 25)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help=(
            "append each completed sweep point to DIR/<id>_checkpoint.jsonl "
            "as it finishes, so an interrupted run can be resumed; without "
            "--resume an existing checkpoint is overwritten"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore completed points from the --checkpoint file instead of "
            "re-running them; the resumed output is byte-identical to an "
            "uninterrupted run"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-run a failed, timed-out, or crashed sweep point up to N times "
            "with its identical deterministic seed (default 0)"
        ),
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill a sweep point's worker after SECONDS wall-clock and retry "
            "or fail the point (needs worker processes; ignored with --jobs 1)"
        ),
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "on exhausted retries, record a per-point failure and keep "
            "sweeping instead of aborting the experiment; completed points "
            "are always preserved either way"
        ),
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="print ASCII charts for the figure experiments",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-measurement progress lines",
    )
    args = parser.parse_args(argv)
    if args.trace_sample is not None and args.trace_sample < 1:
        parser.error("--trace-sample must be >= 1")
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint DIR")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.point_timeout is not None and args.point_timeout <= 0:
        parser.error("--point-timeout must be > 0 seconds")
    if args.profile_top < 1:
        parser.error("--profile-top must be >= 1")
    if args.preset is not None and args.quick and args.preset != "quick":
        parser.error("--quick conflicts with --preset " + args.preset)
    preset_name = args.preset or ("quick" if args.quick else "full")

    selected = args.ids
    if "all" in selected:
        selected = experiment_ids()
    if args.json is not None:
        os.makedirs(args.json, exist_ok=True)
    if args.metrics is not None:
        os.makedirs(args.metrics, exist_ok=True)
    if args.trace is not None:
        os.makedirs(args.trace, exist_ok=True)
    if args.profile is not None:
        os.makedirs(args.profile, exist_ok=True)
    if args.checkpoint is not None:
        os.makedirs(args.checkpoint, exist_ok=True)
    tracing = args.trace is not None or args.flight_recorder
    trace_config = TraceConfig(
        spans=args.trace is not None,
        sample_every=args.trace_sample if args.trace_sample is not None else 1,
        flight=args.flight_recorder,
    ) if tracing else None

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    progress = None if args.no_progress else lambda line: print(f"  .. {line}", file=sys.stderr)
    exit_code = 0
    for experiment_id in selected:
        started = time.time()
        print(f"== {experiment_id} (jobs={jobs}) ==", file=sys.stderr)
        collector = MetricsCollector() if args.metrics is not None else None
        tracer = TraceCollector(trace_config) if trace_config is not None else None
        profiler = (
            ProfileCollector(ProfileConfig(top=args.profile_top))
            if args.profile is not None
            else None
        )
        chaos = (
            ChaosCollector(args.chaos, args.invariants)
            if args.chaos is not None or args.invariants is not None
            else None
        )
        # The profiler opens first and closes last, so its wall clock
        # covers the other probes' work too.
        probes = tuple(
            item for item in (profiler, collector, tracer, chaos) if item is not None
        )
        checkpoint = None
        if args.checkpoint is not None:
            checkpoint = SweepCheckpoint(
                os.path.join(args.checkpoint, f"{experiment_id}_checkpoint.jsonl"),
                resume=args.resume,
            )
        config = RunConfig(
            preset=preset_name,
            progress=progress,
            jobs=jobs,
            probes=probes,
            checkpoint=checkpoint,
            retries=args.retries,
            point_timeout=args.point_timeout,
            on_failure="record" if args.keep_going else "raise",
        )
        try:
            result = run_experiment_result(experiment_id, config=config)
        except SweepError as exc:
            print(f"  !! {experiment_id}: {exc}", file=sys.stderr)
            if checkpoint is not None:
                print(
                    f"  !! completed points are checkpointed; re-run with "
                    f"--checkpoint {args.checkpoint} --resume to continue",
                    file=sys.stderr,
                )
            exit_code = 1
            continue
        finally:
            if checkpoint is not None:
                checkpoint.close()
        elapsed = time.time() - started
        print(render_result(result))
        if args.plot:
            chart = plot_result(experiment_id, result)
            if chart is not None:
                print()
                print(chart)
        if args.json is not None:
            path = os.path.join(args.json, f"{experiment_id}.json")
            write_json(result, path)
            print(f"(wrote {path})", file=sys.stderr)
        if collector is not None:
            series = collector.experiment(experiment_id)
            json_path = os.path.join(args.metrics, f"{experiment_id}_metrics.json")
            csv_path = os.path.join(args.metrics, f"{experiment_id}_metrics.csv")
            write_json(series, json_path)
            write_metrics_csv(series, csv_path)
            print(f"(wrote {json_path} and {csv_path})", file=sys.stderr)
        if tracer is not None:
            for incident in tracer.incidents():
                print(f"  !! {incident.describe()}", file=sys.stderr)
            if args.trace is not None:
                trace = tracer.experiment(experiment_id)
                chrome_path = os.path.join(args.trace, f"{experiment_id}_trace.json")
                jsonl_path = os.path.join(args.trace, f"{experiment_id}_trace.jsonl")
                summary_path = os.path.join(
                    args.trace, f"{experiment_id}_trace_summary.json"
                )
                write_chrome_trace(trace, chrome_path)
                write_trace_jsonl(trace, jsonl_path)
                summary = {
                    "experiment": experiment_id,
                    "config": trace.config,
                    "points": [
                        {
                            "label": point.label,
                            "spans": sum(len(s.spans) for s in point.snapshots),
                            "events": sum(len(s.events) for s in point.snapshots),
                            "incidents": sum(
                                len(s.incidents) for s in point.snapshots
                            ),
                        }
                        for point in trace.points
                    ],
                    "incidents": [inc.describe() for inc in trace.incidents()],
                }
                write_json(summary, summary_path)
                print(
                    f"(wrote {chrome_path}, {jsonl_path} and {summary_path})",
                    file=sys.stderr,
                )
        if chaos is not None:
            print(f"  {chaos.summary()}", file=sys.stderr)
            if tracer is None:  # an armed tracer already printed them above
                for violation in chaos.violations():
                    print(f"  !! {violation.describe()}", file=sys.stderr)
        if profiler is not None:
            profile = profiler.experiment(experiment_id)
            json_path = os.path.join(args.profile, f"{experiment_id}_profile.json")
            collapsed_path = os.path.join(
                args.profile, f"{experiment_id}_profile.collapsed"
            )
            write_json(profile, json_path)
            write_collapsed(profile, collapsed_path)
            print(hotspot_table(profile, top=args.profile_top), file=sys.stderr)
            print(f"(wrote {json_path} and {collapsed_path})", file=sys.stderr)
        print(f"({experiment_id} took {elapsed:.1f}s)\n", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
