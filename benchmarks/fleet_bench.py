#!/usr/bin/env python
"""Fleet-scale kernel benchmark: new engine/switch/timer-wheel vs. pre-PR.

Measures how fast the simulation kernel dispatches a fleet flood
scenario as the host count grows, and records the results under the
``"fleet"`` key of ``BENCH_parallel.json``.  Two legs per fleet size:

* **scenario** — a full :class:`~repro.core.fleet.FleetTestbed` flood
  run (N attackers flooding a share of M protected EFW targets on the
  multi-switch fabric, paired iperf goodput flows on every target),
  executed once on the current stack and once on the embedded pre-PR
  stack (:class:`LegacySimulator` heap kernel +
  :class:`LegacyEthernetSwitch` tuple-table switch, periodic-timer
  flood pacing).  Both runs simulate the identical workload; the
  recorded ``events_per_s`` is kernel events dispatched per wall-clock
  second and ``speedup`` the wall-clock ratio.

* **dispatch** — the kernel-dispatch microbenchmark the 3x gate is
  defined over: N flood senders ticking at the flood rate with no-op
  payloads, so nothing but timer dispatch is on the clock.  The new
  stack paces all senders from one :class:`~repro.sim.timer.TimerWheel`
  (one kernel event per tick, however many senders are due); the legacy
  stack re-heaps one :class:`LegacyEvent` per sender per tick.
  ``sends_per_s`` — sender callbacks dispatched per wall-clock second —
  is the events/sec figure the gate compares.

The gate (``--fail-below``, default 3.0) requires the dispatch-leg
speedup to be at least that factor at every measured size >= 128 hosts;
``--smoke`` runs the single 32-host size (as CI does) and skips the
gate.  The legacy classes are verbatim copies of the pre-PR
``repro.sim.engine`` / ``repro.net.switch`` (plus a ``learn()`` shim so
the fabric can prime legacy MAC tables) and are injected by patching
the module globals the testbed resolves at build time — the rest of the
stack (NIC models, links, hosts, policy server) is identical in both
runs.

This file is deliberately named ``fleet_bench.py`` (not ``bench_*``) so
the pytest benchmark suite does not collect it.

Usage::

    PYTHONPATH=src python benchmarks/fleet_bench.py              # 4/32/128/256
    PYTHONPATH=src python benchmarks/fleet_bench.py --smoke      # 32 hosts, no gate
    PYTHONPATH=src python benchmarks/fleet_bench.py --sizes 128 256
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import repro.core.testbed as testbed_module
import repro.net.topology as topology_module
from repro.core.fleet import FleetSpec, FleetTestbed
from repro.net.addresses import MacAddress
from repro.net.link import LinkPort
from repro.net.packet import EthernetFrame
from repro.obs.profiling import NULL_PROFILER
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing.tracer import PacketTracer
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.timer import TimerWheel

#: Default fleet sizes (total stations, including attackers and the
#: policy server); 256 is the acceptance scenario (32 attackers).
DEFAULT_SIZES = (4, 32, 128, 256)

#: --smoke runs just this size (and skips the >=128 gate).
SMOKE_SIZES = (32,)

#: Simulated seconds per scenario run.
DEFAULT_DURATION_S = 0.2

#: Minimum dispatch-leg speedup required at every size >= GATE_MIN_HOSTS.
DEFAULT_FAIL_BELOW = 3.0
GATE_MIN_HOSTS = 128

#: Per-sender rate in the dispatch leg and simulated window.
DISPATCH_RATE_PPS = 20_000.0
DISPATCH_DURATION_S = 1.0

OUTPUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_parallel.json")


# ----------------------------------------------------------------------
# The pre-PR kernel, embedded verbatim (heap of Event objects with lazy
# tombstones and compaction), so the comparison does not depend on git
# history being available.
# ----------------------------------------------------------------------


class LegacyEvent:
    """Pre-PR cancellable event handle (heap entry with ``__lt__``)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_kernel")

    def __init__(self, time, seq, callback, args, kernel=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._kernel = kernel

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = _noop
        self.args = ()
        kernel = self._kernel
        self._kernel = None
        if kernel is not None:
            kernel._note_cancelled()

    @property
    def pending(self) -> bool:
        return not self.cancelled

    def __lt__(self, other: "LegacyEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _noop(*_args: Any) -> None:
    """Placeholder callback for cancelled events."""


_COMPACT_MIN_TOMBSTONES = 512


class LegacySimulator:
    """The pre-PR heap kernel: one ``heappush``/``heappop`` per event."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[LegacyEvent] = []
        self._seq = itertools.count()
        self._running = False
        self._pending = 0
        self._tombstones = 0
        self.events_executed = 0
        self.events_cancelled = 0
        self.tracer = PacketTracer()
        self.metrics = NULL_REGISTRY
        self.profiler = NULL_PROFILER

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any):
        if delay < 0:
            raise RuntimeError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any):
        if time < self._now:
            raise RuntimeError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = LegacyEvent(float(time), next(self._seq), callback, args, kernel=self)
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any):
        return self.schedule_at(self._now, callback, *args)

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._pending -= 1
            event._kernel = None
            self._now = event.time
            self.events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while heap:
                event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._tombstones -= 1
                    continue
                if until is not None and event.time > until:
                    break
                heappop(heap)
                self._pending -= 1
                event._kernel = None
                self._now = event.time
                self.events_executed += 1
                event.callback(*event.args)
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and until > self._now:
                next_time = self._next_pending_time()
                if next_time is None or next_time > until:
                    self._now = float(until)
        finally:
            self._running = False

    def pending_count(self) -> int:
        return self._pending

    def queue_depth(self) -> int:
        """Same heap-residency metric the current kernel exposes."""
        return self._pending + self._tombstones

    def _next_pending_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._tombstones -= 1
        return heap[0].time if heap else None

    def _note_cancelled(self) -> None:
        self._pending -= 1
        self._tombstones += 1
        self.events_cancelled += 1
        heap = self._heap
        if self._tombstones >= _COMPACT_MIN_TOMBSTONES and self._tombstones * 2 > len(heap):
            heap[:] = [event for event in heap if not event.cancelled]
            heapq.heapify(heap)
            self._tombstones = 0


class LegacyEthernetSwitch:
    """The pre-PR switch: MAC -> (port, seen) tuples, freshness-checked
    on every forward even with ageing disabled.

    ``learn()`` is the one addition (the fabric primes MAC tables
    through it); it installs entries exactly as ``receive_frame`` does,
    so the forwarding path being measured is untouched.
    """

    def __init__(
        self,
        sim,
        name: str = "switch",
        forwarding_latency: float = units.microseconds(5),
        mac_ageing_time: Optional[float] = None,
    ):
        self.sim = sim
        self.name = name
        self.forwarding_latency = float(forwarding_latency)
        self.mac_ageing_time = mac_ageing_time
        self._ports: List[LinkPort] = []
        self._mac_table: Dict[MacAddress, tuple] = {}
        self.forwarded_frames = 0
        self.flooded_frames = 0
        self.dropped_frames = 0

    def attach_port(self, port: LinkPort) -> None:
        port.attach(self)
        self._ports.append(port)

    @property
    def ports(self) -> List[LinkPort]:
        return list(self._ports)

    def learn(self, mac: MacAddress, port: LinkPort) -> None:
        self._mac_table[mac] = (port, self.sim.now)

    def mac_table(self) -> Dict[MacAddress, LinkPort]:
        now = self.sim.now
        table = {}
        for mac, (port, seen) in self._mac_table.items():
            if self._fresh(seen, now):
                table[mac] = port
        return table

    def receive_frame(self, frame: EthernetFrame, port: LinkPort) -> None:
        self._mac_table[frame.src_mac] = (port, self.sim.now)
        self.sim.schedule(self.forwarding_latency, self._forward, frame, port)

    def _forward(self, frame: EthernetFrame, ingress: LinkPort) -> None:
        if frame.dst_mac.is_broadcast or frame.dst_mac.is_multicast:
            self._flood(frame, ingress)
            return
        entry = self._mac_table.get(frame.dst_mac)
        if entry is not None:
            egress, seen = entry
            if self._fresh(seen, self.sim.now) and egress is not ingress:
                self.forwarded_frames += 1
                if not egress.send(frame):
                    self.dropped_frames += 1
                return
            if egress is ingress:
                return
        self._flood(frame, ingress)

    def _flood(self, frame: EthernetFrame, ingress: LinkPort) -> None:
        self.flooded_frames += 1
        for port in self._ports:
            if port is ingress:
                continue
            if not port.send(frame):
                self.dropped_frames += 1

    def _fresh(self, seen: float, now: float) -> bool:
        if self.mac_ageing_time is None:
            return True
        return (now - seen) <= self.mac_ageing_time


# ----------------------------------------------------------------------
# Scenario leg
# ----------------------------------------------------------------------


def spec_for_hosts(hosts: int) -> FleetSpec:
    """Map a total station count to the benchmark's FleetSpec shape."""
    attackers = max(1, hosts // 8)
    targets = max(1, (hosts - attackers - 1) // 2)
    return FleetSpec(
        targets=targets,
        attackers=attackers,
        attacked_fraction=min(1.0, attackers / targets),
    )


class _patched:
    """Swap the kernel/switch classes the testbed resolves at build time.

    ``Testbed._build`` creates the kernel from ``repro.core.testbed`` and
    ``FabricTopology`` its switches from ``repro.net.topology``.
    """

    def __init__(self, legacy: bool):
        self.legacy = legacy

    def __enter__(self):
        if self.legacy:
            self._sim = testbed_module.Simulator
            self._switch = topology_module.EthernetSwitch
            testbed_module.Simulator = LegacySimulator
            topology_module.EthernetSwitch = LegacyEthernetSwitch
        return self

    def __exit__(self, *exc):
        if self.legacy:
            testbed_module.Simulator = self._sim
            topology_module.EthernetSwitch = self._switch
        return False


def run_scenario(hosts: int, duration: float, legacy: bool) -> Dict[str, Any]:
    """One full fleet flood run; returns kernel/goodput figures."""
    spec = spec_for_hosts(hosts)
    if legacy:
        # The pre-PR stack had no timer wheel: floods paced per-timer.
        spec = dataclasses.replace(spec, use_timer_wheel=False)
    with _patched(legacy):
        bed = FleetTestbed(spec, seed=1)
        if legacy:
            assert type(bed.sim) is LegacySimulator, "legacy leg built the current kernel"
            assert type(bed.topology.switch) is LegacyEthernetSwitch
        bed.distribute_policies(networked=False)
        before = bed.sim.events_executed
        started = time.perf_counter()
        result = bed.measure(duration=duration)
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


# ----------------------------------------------------------------------
# Dispatch leg (the gated events/sec comparison)
# ----------------------------------------------------------------------


def dispatch_new(senders: int, rate: float, duration: float) -> Dict[str, Any]:
    """Timer-wheel pacing on the current kernel: batched tick dispatch."""
    sim = Simulator()
    wheel = TimerWheel(sim, tick=1.0 / rate)
    sent = [0]

    def send():
        sent[0] += 1

    for _ in range(senders):
        wheel.schedule_periodic(1.0 / rate, send)
    started = time.perf_counter()
    sim.run(until=duration)
    wall = time.perf_counter() - started
    return {"sends": sent[0], "kernel_events": sim.events_executed, "wall_s": wall}


def dispatch_legacy(senders: int, rate: float, duration: float) -> Dict[str, Any]:
    """Per-timer heap pacing on the pre-PR kernel: one event per send."""
    sim = LegacySimulator()
    sent = [0]
    interval = 1.0 / rate

    def tick():
        sent[0] += 1
        sim.schedule(interval, tick)

    for _ in range(senders):
        sim.schedule(interval, tick)
    started = time.perf_counter()
    sim.run(until=duration)
    wall = time.perf_counter() - started
    return {"sends": sent[0], "kernel_events": sim.events_executed, "wall_s": wall}


def run_dispatch(hosts: int) -> Dict[str, Any]:
    """Compare send-dispatch throughput for ``hosts`` concurrent senders."""
    new = dispatch_new(hosts, DISPATCH_RATE_PPS, DISPATCH_DURATION_S)
    old = dispatch_legacy(hosts, DISPATCH_RATE_PPS, DISPATCH_DURATION_S)
    assert new["sends"] == old["sends"], "dispatch legs must do identical work"
    new_rate = new["sends"] / new["wall_s"]
    old_rate = old["sends"] / old["wall_s"]
    return {
        "senders": hosts,
        "rate_pps": DISPATCH_RATE_PPS,
        "duration_s": DISPATCH_DURATION_S,
        "sends": new["sends"],
        "new": {
            "kernel_events": new["kernel_events"],
            "wall_s": round(new["wall_s"], 3),
            "sends_per_s": round(new_rate),
        },
        "legacy": {
            "kernel_events": old["kernel_events"],
            "wall_s": round(old["wall_s"], 3),
            "sends_per_s": round(old_rate),
        },
        "speedup": round(new_rate / old_rate, 2),
    }


# ----------------------------------------------------------------------


def merge_output(fleet_section: Dict[str, Any], path: str) -> None:
    """Merge the ``fleet`` section into ``BENCH_parallel.json``."""
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data["fleet"] = fleet_section
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help=f"fleet sizes (total stations) to measure; default {DEFAULT_SIZES}",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"single {SMOKE_SIZES[0]}-host size, no >=128 gate (the CI job)",
    )
    parser.add_argument(
        "--duration", type=float, default=DEFAULT_DURATION_S,
        help=f"simulated seconds per scenario run (default {DEFAULT_DURATION_S})",
    )
    parser.add_argument(
        "--fail-below", type=float, default=DEFAULT_FAIL_BELOW, metavar="FACTOR",
        help=(
            "exit non-zero if the dispatch speedup at any size >= "
            f"{GATE_MIN_HOSTS} hosts is below FACTOR (default "
            f"{DEFAULT_FAIL_BELOW})"
        ),
    )
    parser.add_argument(
        "--output", default=os.path.normpath(OUTPUT_PATH),
        help="JSON file to merge the 'fleet' section into",
    )
    args = parser.parse_args(argv)
    sizes = tuple(args.sizes) if args.sizes else (SMOKE_SIZES if args.smoke else DEFAULT_SIZES)

    per_size: Dict[str, Any] = {}
    for hosts in sizes:
        print(f"== fleet {hosts} hosts ==", file=sys.stderr)
        scenario_new = run_scenario(hosts, args.duration, legacy=False)
        scenario_old = run_scenario(hosts, args.duration, legacy=True)
        dispatch = run_dispatch(hosts)
        scenario = {
            "new": scenario_new,
            "legacy": {
                key: scenario_old[key]
                for key in ("events", "wall_s", "events_per_s")
            },
            "speedup": (
                round(scenario_old["wall_s"] / scenario_new["wall_s"], 2)
                if scenario_new["wall_s"] > 0 else None
            ),
        }
        per_size[str(hosts)] = {"scenario": scenario, "dispatch": dispatch}
        print(
            f"   scenario: new {scenario_new['events_per_s']:,} ev/s "
            f"(goodput {scenario_new['aggregate_goodput_mbps']} Mbps, "
            f"DoS {scenario_new['dos_fraction']}), "
            f"legacy {scenario_old['events_per_s']:,} ev/s, "
            f"wall speedup {scenario['speedup']}x",
            file=sys.stderr,
        )
        print(
            f"   dispatch: new {dispatch['new']['sends_per_s']:,}/s, "
            f"legacy {dispatch['legacy']['sends_per_s']:,}/s, "
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
        "fail_below": args.fail_below,
        "measured_min_speedup": min(gated) if gated else None,
        "applicable": bool(gated),
    }
    gate["pass"] = (not gated) or min(gated) >= args.fail_below

    merge_output(
        {
            "smoke": args.smoke,
            "scenario_duration_s": args.duration,
            "sizes": per_size,
            "gate": gate,
        },
        args.output,
    )
    print(f"(wrote fleet section to {args.output})", file=sys.stderr)
    if not gate["pass"]:
        print(
            f"FAIL: dispatch speedup {gate['measured_min_speedup']}x at "
            f">={GATE_MIN_HOSTS} hosts is below {args.fail_below}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
