#!/usr/bin/env python
"""Closed-loop flood-defense benchmark: recovery quality and loop latency.

Runs the mitigation experiment's single-testbed sweep (EFW + ADF, every
defense mode) and records, per (device, mode):

* goodput recovery fraction (recovery window / baseline window),
* time-to-detect and time-to-mitigate from flood onset,
* agent restarts and policy-push accounting,

then merges a ``mitigation`` section into ``BENCH_parallel.json``.

Two acceptance gates guard the physics this repo's defense claims rest
on (the CI smoke job runs them):

* **off-collapse** — the undefended EFW must collapse under the deny
  flood (recovery fraction < 0.2: the paper's §4.3 behaviour),
* **recovery** — the defenses that are supposed to work (rate-limit and
  quarantine on the EFW) must restore >= 80% of baseline goodput.

Usage:
    python benchmarks/mitigation_bench.py             # full quick grid
    python benchmarks/mitigation_bench.py --smoke     # trimmed CI gate
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict

from repro.core.methodology import MeasurementSettings
from repro.experiments import RunConfig, mitigation
from repro.experiments.presets import Preset
from summary import SUMMARY_PATH, merge_sections

OFF_COLLAPSE_MAX = 0.2
RECOVERY_MIN = 0.8
#: Modes the gate requires to actually recover the EFW.
RECOVERING_MODES = ("rate-limit", "quarantine")


def build_preset(smoke: bool) -> Preset:
    return Preset(
        name="bench-smoke" if smoke else "bench",
        settings=MeasurementSettings(duration=0.25 if smoke else 0.5),
        defense_modes=(
            ("off",) + RECOVERING_MODES
            if smoke
            else mitigation.DEFAULT_DEFENSE_MODES
        ),
        fleet_defense_modes=(),
        fleet_sizes=(),
    )


def point_record(point) -> Dict[str, Any]:
    return {
        "baseline_mbps": round(point.baseline_mbps, 2),
        "recovery_mbps": round(point.recovery_mbps, 2),
        "recovery_fraction": round(point.recovery_fraction, 3),
        "time_to_detect_ms": (
            round(point.time_to_detect * 1e3, 2)
            if point.time_to_detect is not None
            else None
        ),
        "time_to_mitigate_ms": (
            round(point.time_to_mitigate * 1e3, 2)
            if point.time_to_mitigate is not None
            else None
        ),
        "agent_restarts": point.agent_restarts,
        "pushes_acked": point.pushes_acked,
        "wedged_at_end": point.wedged_at_end,
    }


def check_gates(points) -> list:
    """The physics assertions; returns a list of failure strings."""
    failures = []
    by_key = {(p.device, p.mode): p for p in points}
    off = by_key.get(("efw", "off"))
    if off is not None and off.recovery_fraction >= OFF_COLLAPSE_MAX:
        failures.append(
            f"undefended EFW did not collapse: recovery fraction "
            f"{off.recovery_fraction:.2f} >= {OFF_COLLAPSE_MAX}"
        )
    for mode in RECOVERING_MODES:
        point = by_key.get(("efw", mode))
        if point is None:
            continue
        if point.recovery_fraction < RECOVERY_MIN:
            failures.append(
                f"EFW {mode} recovered only {point.recovery_fraction:.2f} "
                f"of baseline (< {RECOVERY_MIN})"
            )
        if point.time_to_mitigate is None:
            failures.append(f"EFW {mode} never mitigated")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="trimmed grid and shorter windows (the CI job)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: auto)",
    )
    parser.add_argument(
        "--output", default=SUMMARY_PATH,
        help="JSON file to merge the 'mitigation' section into",
    )
    args = parser.parse_args(argv)

    preset = build_preset(args.smoke)
    start = time.perf_counter()
    result = mitigation.run(RunConfig(preset=preset, jobs=args.jobs))
    elapsed = time.perf_counter() - start

    records: Dict[str, Any] = {}
    for point in result.points:
        records[f"{point.device}/{point.mode}"] = point_record(point)
        print(
            f"   {point.device:>3} {point.mode:<10} "
            f"recovered {point.recovery_fraction:5.2f}  "
            f"detect {point.time_to_detect if point.time_to_detect is not None else '-'}",
            file=sys.stderr,
        )

    failures = check_gates(result.points)
    section = {
        "smoke": args.smoke,
        "wall_s": round(elapsed, 3),
        "window_s": preset.settings.duration,
        "gates": {
            "off_collapse_max": OFF_COLLAPSE_MAX,
            "recovery_min": RECOVERY_MIN,
            "passed": not failures,
            "failures": failures,
        },
        "points": records,
    }
    merge_sections(args.output, {"mitigation": section})
    print(f"mitigation bench: {len(result.points)} points in {elapsed:.1f}s "
          f"-> {args.output}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
