#!/usr/bin/env python
"""Fleet-scale kernel benchmark: fleet flood throughput and wheel dispatch.

Measures how fast the simulation kernel dispatches a fleet flood
scenario as the host count grows, and records the results under the
``"fleet"`` key of ``BENCH_parallel.json``.  Two legs per fleet size:

* **scenario** — a full :class:`~repro.core.fleet.FleetTestbed` flood
  run (N attackers flooding a share of M protected EFW targets on the
  multi-switch fabric, paired iperf goodput flows on every target).
  ``events_per_s`` is kernel events dispatched per wall-clock second.

* **dispatch** — the kernel-dispatch microbenchmark the 3x gate is
  defined over: N flood senders ticking at the flood rate with no-op
  payloads, so nothing but timer dispatch is on the clock.  One side
  paces every sender from one :class:`~repro.sim.timer.TimerWheel` (one
  kernel event per tick, however many senders are due); the other gives
  each sender its own :class:`~repro.sim.timer.PeriodicTimer` (one kernel
  event per send), as the four-host experiments pace their floods.  Both
  run on the current kernel, so the ratio is what the wheel itself buys.
  ``sends_per_s`` — sender callbacks dispatched per wall-clock second,
  best of ``DISPATCH_ROUNDS`` interleaved rounds per side — is the
  figure the gate compares.

The gate requires the dispatch speedup to be at least ``FAIL_BELOW`` at
every measured size >= ``GATE_MIN_HOSTS`` hosts; ``--smoke`` runs the
single 32-host size (as CI does), where the gate does not apply.

Until commit 4b8f603's embedded copies of the old heap kernel and
tuple-table switch were deleted, the dispatch leg compared the wheel
against per-timer pacing on that old kernel; it recorded 12.03x at 128
hosts and 10.68x at 256 hosts.

This file is deliberately named ``fleet_bench.py`` (not ``bench_*``) so
the pytest benchmark suite does not collect it.

Usage::

    PYTHONPATH=src python benchmarks/fleet_bench.py              # 4/32/128/256
    PYTHONPATH=src python benchmarks/fleet_bench.py --smoke      # 32 hosts, no gate
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict

from repro.core.fleet import FleetSpec, FleetTestbed
from repro.sim.engine import Simulator
from repro.sim.timer import PeriodicTimer, TimerWheel
from summary import SUMMARY_PATH, merge_sections

#: Fleet sizes (total stations, including attackers and the policy
#: server); 256 is the acceptance scenario (32 attackers).
SIZES = (4, 32, 128, 256)

#: --smoke runs just this size (and skips the >=128 gate).
SMOKE_SIZES = (32,)

#: Simulated seconds per scenario run.
SCENARIO_DURATION_S = 0.2

#: Minimum dispatch-leg speedup required at every size >= GATE_MIN_HOSTS.
FAIL_BELOW = 3.0
GATE_MIN_HOSTS = 128

#: Per-sender rate in the dispatch leg and simulated window.
DISPATCH_RATE_PPS = 20_000.0
DISPATCH_DURATION_S = 1.0

#: Interleaved wheel/timers rounds per size; each side keeps its best
#: run, so one host-speed dip cannot decide the gate.
DISPATCH_ROUNDS = 3


def spec_for_hosts(hosts: int) -> FleetSpec:
    """Map a total station count to the benchmark's FleetSpec shape."""
    attackers = max(1, hosts // 8)
    targets = max(1, (hosts - attackers - 1) // 2)
    return FleetSpec(
        targets=targets,
        attackers=attackers,
        attacked_fraction=min(1.0, attackers / targets),
    )


def run_scenario(hosts: int) -> Dict[str, Any]:
    """One full fleet flood run; returns kernel/goodput figures."""
    spec = spec_for_hosts(hosts)
    bed = FleetTestbed(spec, seed=1)
    bed.distribute_policies(networked=False)
    before = bed.sim.events_executed
    started = time.perf_counter()
    result = bed.measure(duration=SCENARIO_DURATION_S)
    wall = time.perf_counter() - started
    events = bed.sim.events_executed - before
    return {
        "stations": spec.station_count,
        "targets": spec.targets,
        "attackers": spec.attackers,
        "events": events,
        "wall_s": round(wall, 3),
        "events_per_s": round(events / wall) if wall > 0 else None,
        "aggregate_goodput_mbps": round(result.aggregate_goodput_mbps, 2),
        "dos_fraction": round(result.dos_fraction, 3),
    }


def _dispatch(senders: int, wheel: bool) -> Dict[str, Any]:
    """Pace ``senders`` no-op senders for the dispatch window."""
    sim = Simulator()
    interval = 1.0 / DISPATCH_RATE_PPS
    sent = [0]

    def send():
        sent[0] += 1

    if wheel:
        pacer = TimerWheel(sim, tick=interval)
        for _ in range(senders):
            pacer.schedule_periodic(interval, send)
    else:
        for _ in range(senders):
            PeriodicTimer(sim, interval, send).start()
    started = time.perf_counter()
    sim.run(until=DISPATCH_DURATION_S)
    wall = time.perf_counter() - started
    return {
        "sends": sent[0],
        "kernel_events": sim.events_executed,
        "wall_s": round(wall, 3),
        "sends_per_s": round(sent[0] / wall),
    }


def run_dispatch(hosts: int) -> Dict[str, Any]:
    """Compare wheel vs per-sender timer dispatch for ``hosts`` senders."""
    best: Dict[bool, Dict[str, Any]] = {}
    for _ in range(DISPATCH_ROUNDS):
        for side in (True, False):
            run = _dispatch(hosts, wheel=side)
            if side not in best or run["sends_per_s"] > best[side]["sends_per_s"]:
                best[side] = run
    wheel, timers = best[True], best[False]
    assert wheel["sends"] == timers["sends"], "dispatch sides must do identical work"
    return {
        "senders": hosts,
        "rate_pps": DISPATCH_RATE_PPS,
        "duration_s": DISPATCH_DURATION_S,
        "wheel": wheel,
        "timers": timers,
        "speedup": round(wheel["sends_per_s"] / timers["sends_per_s"], 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"single {SMOKE_SIZES[0]}-host size, no >=128 gate (the CI job)",
    )
    parser.add_argument(
        "--output", default=SUMMARY_PATH,
        help="JSON file to merge the 'fleet' section into",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES

    per_size: Dict[str, Any] = {}
    for hosts in sizes:
        print(f"== fleet {hosts} hosts ==", file=sys.stderr)
        scenario = run_scenario(hosts)
        dispatch = run_dispatch(hosts)
        per_size[str(hosts)] = {"scenario": scenario, "dispatch": dispatch}
        print(
            f"   scenario: {scenario['events_per_s']:,} ev/s "
            f"(goodput {scenario['aggregate_goodput_mbps']} Mbps, "
            f"DoS {scenario['dos_fraction']})",
            file=sys.stderr,
        )
        print(
            f"   dispatch: wheel {dispatch['wheel']['sends_per_s']:,}/s, "
            f"timers {dispatch['timers']['sends_per_s']:,}/s, "
            f"speedup {dispatch['speedup']}x",
            file=sys.stderr,
        )

    gated = [
        per_size[str(hosts)]["dispatch"]["speedup"]
        for hosts in sizes
        if hosts >= GATE_MIN_HOSTS
    ]
    gate: Dict[str, Any] = {
        "min_hosts": GATE_MIN_HOSTS,
        "fail_below": FAIL_BELOW,
        "measured_min_speedup": min(gated) if gated else None,
        "applicable": bool(gated),
        "pass": (not gated) or min(gated) >= FAIL_BELOW,
    }
    merge_sections(
        args.output,
        {
            "fleet": {
                "smoke": args.smoke,
                "scenario_duration_s": SCENARIO_DURATION_S,
                "sizes": per_size,
                "gate": gate,
            }
        },
    )
    if not gate["pass"]:
        print(
            f"FAIL: dispatch speedup {gate['measured_min_speedup']}x at "
            f">={GATE_MIN_HOSTS} hosts is below {FAIL_BELOW}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
