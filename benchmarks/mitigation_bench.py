#!/usr/bin/env python
"""Closed-loop flood-defense benchmark: recovery quality and loop latency.

Runs the mitigation experiment's single-testbed sweep (EFW + ADF, every
defense mode) and records, per (device, mode):

* goodput recovery fraction (recovery window / baseline window),
* time-to-detect and time-to-mitigate from flood onset,
* agent restarts and policy-push accounting,

then merges a ``mitigation`` section into ``BENCH_parallel.json``.

The physics the defense claims rest on (the undefended EFW collapses,
rate-limit and quarantine recover) are rows of
:mod:`repro.experiments.claims`, checked on the quick envelopes.

Usage:
    python benchmarks/mitigation_bench.py
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

PRESET = Preset(
    name="bench",
    settings=MeasurementSettings(duration=0.5),
    defense_modes=mitigation.DEFAULT_DEFENSE_MODES,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: auto)",
    )
    parser.add_argument(
        "--output", default=SUMMARY_PATH,
        help="JSON file to merge the 'mitigation' section into",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    result = mitigation.run(RunConfig(preset=PRESET, jobs=args.jobs))
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

    section = {
        "wall_s": round(elapsed, 3),
        "window_s": PRESET.settings.duration,
        "points": records,
    }
    merge_sections(args.output, {"mitigation": section})
    print(f"mitigation bench: {len(result.points)} points in {elapsed:.1f}s "
          f"-> {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
