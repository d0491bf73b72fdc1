"""The benchmark: four paper-derived workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python benchmarks/harness/run.py [--seed N] [--runs 5] [--out FILE]
    python benchmarks/harness/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python benchmarks/harness/run.py --compare PARENT.json CHANGE.json

The first form runs every workload ``--runs`` times untraced and once
traced, prints every metric by name with its unit, and writes the raw
samples to ``--out``.  The second runs one workload for about
``--seconds`` seconds and prints one JSON line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The third
prints each (metric, workload) pair of two ``--out`` files as better,
unchanged, worse or unresolved against the bounds in ``BENCHMARK.json``.

Every run is a fresh ``child.py`` process (``PYTHONHASHSEED=0``, one
sweep job, one thread), started one at a time.  Every run's result
envelope must hash to the digest pinned in ``digests.json`` at seed 1,
and to the same digest as the invocation's other runs at any seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

#: Set-up-only runs per ``--workload`` invocation; setup_s is their median.
SETUP_RUNS = 5
#: A ``--workload`` invocation ends within this many seconds.
INVOCATION_LIMIT_S = 170.0
#: Per-run limit for the full report.
REPORT_RUN_LIMIT_S = 600.0
#: fail_pct stays out of BENCHMARK.json (it reads 0 on every healthy
#: run), so its definition lives here: any increase is a regression.
FAIL_PCT = {"name": "fail_pct", "unit": "%", "better": "lower", "bound": 0.0}
#: Reported beside the end-to-end metrics, without a bound: the times
#: before rescaling, and the reference sample wall_s was rescaled by.
CONTEXT = [
    {"name": "raw_wall_s", "unit": "s", "better": "lower", "bound": None},
    {"name": "raw_setup_s", "unit": "s", "better": "lower", "bound": None},
    {"name": "reference_s", "unit": "s", "better": "lower", "bound": None},
]


class WorkloadRuns:
    """Every run of one workload in one invocation, and their checks."""

    def __init__(self, name: str, seed: int, pinned: Optional[str]):
        self.name = name
        self.seed = seed
        self.expected = pinned
        self.timed: List[dict] = []
        #: Set-up times from set-up-only and timed runs alike.
        self.setups: List[dict] = []
        self.traced: Optional[dict] = None
        self.attempted = 0
        self.failures: List[str] = []

    def spawn(self, mode: str, timeout: float) -> Optional[dict]:
        """Run ``child.py`` once; record and check its outcome."""
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        command = [sys.executable, str(HERE / "child.py"), self.name, str(self.seed), mode]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return self._fail(mode, f"no result within {timeout:.0f} s")
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            return self._fail(mode, f"exit {proc.returncode}: {lines[-1]}")
        try:
            outcome = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(mode, f"no JSON result in {proc.stdout[-200:]!r}")
        if mode == "setup":
            self.setups.append(outcome)
            return outcome
        if outcome["point_failures"]:
            return self._fail(mode, f"{outcome['point_failures']} sweep point(s) failed")
        if self.expected is None:
            self.expected = outcome["digest"]
        if outcome["digest"] != self.expected:
            return self._fail(mode, f"envelope sha256 {outcome['digest']} != {self.expected}")
        frames = {run["frames"] for run in self.timed + [outcome]}
        if mode == "traced":
            frames.add(outcome["layers"]["net.link.frames"])
        if len(frames) > 1:
            return self._fail(mode, f"link frame counts disagree: {sorted(frames)}")
        if mode == "traced":
            self.traced = outcome
        else:
            self.timed.append(outcome)
            self.setups.append(outcome)
        return outcome

    def _fail(self, mode: str, reason: str) -> Optional[dict]:
        self.failures.append(f"{self.name} {mode}: {reason}")
        print(f"FAIL {self.failures[-1]}", file=sys.stderr)
        return None

    def end_to_end(self) -> Dict[str, List[float]]:
        """Raw samples of every end-to-end metric."""
        return {
            "wall_s": [run["wall_s"] for run in self.timed],
            "frames_per_s": [run["frames"] / run["wall_s"] for run in self.timed],
            "setup_s": [run["setup_s"] for run in self.setups],
            "peak_rss_mb": [run["peak_rss_mb"] for run in self.timed],
            "fail_pct": [100.0 * len(self.failures) / max(self.attempted, 1)],
            "raw_wall_s": [run["raw_wall_s"] for run in self.timed],
            "reference_s": [run["reference_s"] for run in self.timed],
            "raw_setup_s": [run["raw_setup_s"] for run in self.setups],
        }

    def per_layer(self) -> Dict[str, float]:
        """The traced run's layer metrics, plus its overhead against the
        median untraced run over the same window."""
        if self.traced is None or not self.timed:
            return {}
        layers = dict(self.traced["layers"])
        untraced = statistics.median(run["window_s"] for run in self.timed)
        layers["trace.overhead_pct"] = 100.0 * (self.traced["window_s"] / untraced - 1.0)
        return layers


def summarize(samples: List[float]) -> Dict[str, float]:
    """Median, first and third quartile (as ``statistics.quantiles``), n."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as stream:
        return json.load(stream)


def pinned_digest(name: str, seed: int) -> Optional[str]:
    with open(DIGESTS, encoding="utf-8") as stream:
        pins = json.load(stream)
    return pins["sha256"][name] if seed == pins["seed"] else None


# ----------------------------------------------------------------------
# One workload, one JSON line
# ----------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_benchmark()
    started = time.monotonic()
    runs = WorkloadRuns(name, seed, pinned_digest(name, seed))

    def remaining() -> float:
        return max(1.0, INVOCATION_LIMIT_S - (time.monotonic() - started))

    if trace:
        runs.spawn("timed", remaining())
        runs.spawn("traced", remaining())
        values = runs.per_layer()
        wanted = spec["per_layer"]
    else:
        for _ in range(SETUP_RUNS):
            runs.spawn("setup", remaining())
        measuring = time.monotonic()
        while True:
            begun = time.monotonic()
            runs.spawn("timed", remaining())
            took = time.monotonic() - begun
            if runs.failures or time.monotonic() - measuring + took > seconds:
                break
        values = {
            metric: summarize(samples)["median"]
            for metric, samples in runs.end_to_end().items()
            if samples
        }
        wanted = spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }
    correct = not runs.failures and len(metrics) == len(wanted)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runs.attempted,
                "failed": len(runs.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Every workload: the full report
# ----------------------------------------------------------------------


def run_all(seed: int, rounds: int, out: Optional[str]) -> int:
    spec = load_benchmark()
    names = list(WORKLOADS)
    runs = {name: WorkloadRuns(name, seed, pinned_digest(name, seed)) for name in names}
    # Interleave the workloads and alternate their order each round, so
    # slow drift of the host spreads over every workload alike.
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else reversed(names):
            print(f"[round {round_index + 1}/{rounds}] {name}", file=sys.stderr, flush=True)
            runs[name].spawn("timed", REPORT_RUN_LIMIT_S)
    for name in names:
        print(f"[traced] {name}", file=sys.stderr, flush=True)
        runs[name].spawn("traced", REPORT_RUN_LIMIT_S)

    reported = spec["end_to_end"] + [FAIL_PCT] + CONTEXT
    record = {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "runs": rounds,
        "workloads": {},
    }
    for name in names:
        samples = runs[name].end_to_end()
        record["workloads"][name] = {
            "samples": samples,
            "end_to_end": {
                metric["name"]: dict(summarize(samples[metric["name"]]), unit=metric["unit"])
                for metric in reported
                if samples[metric["name"]]
            },
            "per_layer": runs[name].per_layer(),
            "digest": runs[name].expected,
            "failures": runs[name].failures,
        }
    _print_report(record, reported, spec["per_layer"])
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=2, sort_keys=True)
            stream.write("\n")
    failures = [failure for name in names for failure in runs[name].failures]
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _print_report(record: dict, end_to_end: List[dict], per_layer: List[dict]) -> None:
    workloads = record["workloads"]
    print(f"git {record['git_rev']}  python {record['python']}  nproc {record['nproc']}  "
          f"seed {record['seed']}  runs {record['runs']}")
    print()
    print(f"{'end-to-end':<14}{'workload':<11}{'median':>14}{'Q1':>14}{'Q3':>14}{'n':>4}  "
          f"{'unit':<6}{'better':<7}bound")
    for metric in end_to_end:
        for name, data in workloads.items():
            stats = data["end_to_end"].get(metric["name"])
            if stats is None:
                continue
            bound = "-" if metric["bound"] is None else f"{metric['bound']:.0%}"
            print(f"{metric['name']:<14}{name:<11}{stats['median']:>14.4f}{stats['q1']:>14.4f}"
                  f"{stats['q3']:>14.4f}{stats['n']:>4}  {metric['unit']:<6}{metric['better']:<7}"
                  f"{bound}")
    print()
    print(f"{'per layer (traced run)':<28}" + "".join(f"{name:>14}" for name in workloads)
          + "  unit")
    for metric in per_layer:
        cells = "".join(
            f"{data['per_layer'].get(metric['name'], float('nan')):>14.4g}"
            for data in workloads.values()
        )
        print(f"{metric['name']:<28}{cells}  {metric['unit']}")


# ----------------------------------------------------------------------
# Compare two records
# ----------------------------------------------------------------------


def _change(parent: dict, change: dict) -> float:
    """The change's median against the parent's, as a share of the
    parent's; an absolute difference when the parent reads 0 (fail_pct)."""
    base = parent["median"]
    return (change["median"] - base) / abs(base) if base else change["median"]


def _spread(stats: dict) -> float:
    """Q3 - Q1 as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """better / unchanged / worse against ``bound``, or unresolved when
    the parent's own spread is wider than the bound."""
    if _spread(parent) > bound:
        return "unresolved"
    worse_by = _change(parent, change) * (1 if better == "lower" else -1)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(parent_path: str, change_path: str) -> int:
    with open(parent_path, encoding="utf-8") as stream:
        parent = json.load(stream)
    with open(change_path, encoding="utf-8") as stream:
        change = json.load(stream)
    worse = 0
    print(f"parent {parent['git_rev']}  change {change['git_rev']}")
    print(f"{'metric':<14}{'workload':<11}{'parent':>14}{'change':>14}{'delta':>9}"
          f"{'parent IQR':>12}{'bound':>7}  verdict")
    for metric in load_benchmark()["end_to_end"] + [FAIL_PCT]:
        for name, data in parent["workloads"].items():
            a = data["end_to_end"].get(metric["name"])
            b = change["workloads"].get(name, {}).get("end_to_end", {}).get(metric["name"])
            if a is None or b is None:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{metric['name']:<14}{name:<11}{a['median']:>14.4f}{b['median']:>14.4f}"
                  f"{_change(a, b):>+9.1%}{_spread(a):>12.1%}{metric['bound']:>7.0%}  {result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return run_all(args.seed, args.runs, args.out)


if __name__ == "__main__":
    sys.exit(main())
