"""Tests of the benchmark's span recorder.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness``.
"""

import pytest

from recorder import (
    BOUNDARIES,
    CALLBACK_TAKERS,
    CALLS,
    CHILD_SPANS,
    FLAGGED,
    SELF_NS,
    Recorder,
)

from repro.apps.flood import FloodGenerator
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all
from repro.net.link import Link
from repro.sim.engine import Simulator


class FakeClock:
    """A clock that moves only when a test advances it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    recorder = Recorder(clock)

    def leaf():
        clock.now += 30

    def middle():
        clock.now += 7
        leaf_span()
        clock.now += 3

    def top():
        clock.now += 10
        middle_span()
        middle_span()
        clock.now += 5

    leaf_span = recorder.span(recorder.cell("nic", "leaf"), leaf)
    middle_span = recorder.span(recorder.cell("net.link", "middle"), middle)
    top_span = recorder.span(recorder.cell("sim", "top"), top)
    top_span()

    top_cell = recorder.cells[("sim", "top")]
    middle_cell = recorder.cells[("net.link", "middle")]
    leaf_cell = recorder.cells[("nic", "leaf")]
    assert top_cell[SELF_NS] == 15
    assert middle_cell[SELF_NS] == 2 * 10
    assert leaf_cell[SELF_NS] == 2 * 30
    assert (top_cell[CALLS], middle_cell[CALLS], leaf_cell[CALLS]) == (1, 2, 2)
    assert (top_cell[CHILD_SPANS], middle_cell[CHILD_SPANS], leaf_cell[CHILD_SPANS]) == (2, 2, 0)

    # Each span's wrapping cost is taken from its parent's self time:
    # 5 spans at 1 ns each, over a 95 ns window.
    metrics = recorder.metrics(window_ns=95, span_cost_ns=1.0, schedule_cost_ns=0.0)
    assert metrics["sim.self_pct"] == pytest.approx(100.0 * (15 - 2) / 90)
    assert metrics["net.link.self_pct"] == pytest.approx(100.0 * (20 - 2) / 90)
    assert metrics["nic.self_pct"] == pytest.approx(100.0 * 60 / 90)
    assert metrics["trace.coverage_pct"] == pytest.approx(100.0)


def test_a_raising_span_is_still_charged():
    clock = FakeClock()
    recorder = Recorder(clock)

    def fails():
        clock.now += 4
        raise ValueError("boom")

    def top():
        clock.now += 1
        with pytest.raises(ValueError):
            failing()

    failing = recorder.span(recorder.cell("crypto", "fails"), fails)
    recorder.span(recorder.cell("host", "top"), top)()
    assert recorder.cells[("crypto", "fails")][SELF_NS] == 4
    assert recorder.cells[("host", "top")][SELF_NS] == 1


def test_flag_counts_outcomes():
    recorder = Recorder(FakeClock())
    send = recorder.span(
        recorder.cell("net.link", "send"), lambda ok: ok, flag=lambda args, result: result is False
    )
    for ok in (True, False, False):
        send(ok)
    assert recorder.cells[("net.link", "send")][FLAGGED] == 2


def test_uninstall_restores_every_patched_attribute():
    recorder = Recorder()
    recorder.install()
    try:
        patched = list(recorder._patches)
        for cls, name, original in patched:
            assert cls.__dict__[name] is not original
    finally:
        recorder.uninstall()
    for cls, name, original in patched:
        assert cls.__dict__[name] is original
    names = {(cls.__name__, name) for cls, name, _ in patched}
    expected = {(cls, name) for _module, cls, name, _layer in BOUNDARIES}
    expected |= {(cls, name) for _module, cls, name, _index in CALLBACK_TAKERS}
    expected |= {
        ("Simulator", "schedule"),
        ("Simulator", "schedule_at"),
        ("Simulator", "run"),
        ("ServiceQueue", "offer"),
    }
    assert names == expected
    assert len(patched) == len(expected)


def test_link_port_callback_maps_to_net_link():
    recorder = Recorder()
    link = Link(Simulator())
    cell = recorder.callback_cell(link.port_a._deliver)
    assert cell is recorder.cells[("net.link", "LinkPort._deliver")]
    assert recorder.callback_cell(link.port_b._deliver) is cell


def test_flood_generator_maps_to_apps_through_periodic_timer():
    recorder = Recorder()
    recorder.install()
    try:
        bed = Testbed(DeviceKind.STANDARD)
        flood = FloodGenerator(bed.attacker)
        flood.start(bed.target.ip, rate_pps=1000.0)
        bed.sim.run(until=0.01)
    finally:
        recorder.uninstall()
    sends = recorder.cells[("apps", "FloodGenerator._send_one")][CALLS]
    assert sends == flood.packets_sent > 0
    assert recorder.cells[("sim", "PeriodicTimer._fire")][CALLS] == sends


def _flood_counters():
    """Every counter of a 50 ms flood against an EFW."""
    bed = Testbed(DeviceKind.EFW)
    bed.install_target_policy(allow_all())
    flood = FloodGenerator(bed.attacker)
    flood.start(bed.target.ip, rate_pps=30000.0)
    bed.sim.run(until=0.05)
    counters = {
        "events": bed.sim.events_executed,
        "cancelled": bed.sim.events_cancelled,
        "flood": flood.packets_sent,
        "switch": bed.topology.switch.forwarded_frames,
        "ring": (bed.target.nic.processor.accepted, bed.target.nic.processor.dropped_full),
    }
    for name, link in bed.topology.links.items():
        for port in (link.port_a, link.port_b):
            counters[port.name] = (port.tx_frames, port.rx_frames, port.dropped_frames)
    for name, host in bed.hosts.items():
        nic = host.nic
        counters[name] = (nic.frames_received, nic.frames_sent, nic.packets_delivered)
    return counters


def test_traced_flood_counters_equal_untraced():
    untraced = _flood_counters()
    recorder = Recorder()
    recorder.install()
    try:
        traced = _flood_counters()
    finally:
        recorder.uninstall()
    assert traced == untraced
    assert untraced["flood"] > 1000
    delivered = sum(value[1] for key, value in untraced.items() if key.endswith((".a", ".b")))
    assert recorder.frames() == delivered
    assert recorder.events == untraced["events"]
