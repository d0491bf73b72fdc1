"""Tests for the wall-clock profiler: core math, collection, exporters."""

import pytest

from repro.core import probe
from repro.core.checkpoint import SweepCheckpoint
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.experiments.results import deserialize, serialize
from repro.obs.profiling import core as profiling_core
from repro.obs.profiling.collect import (
    ProfileCollector,
    ProfileConfig,
    ProfileEntry,
    ProfileSnapshot,
    StackEntry,
    merge_snapshots,
    snapshot_profiler,
)
from repro.obs.profiling.core import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    derive_category,
)
from repro.obs.profiling.export import collapsed_stacks, hotspot_table
from repro.sim.engine import Simulator
from repro.sim.timer import PeriodicTimer, Timer, TimerWheel


@pytest.fixture(autouse=True)
def _clean_profiling_state():
    """Never leak an active profile collection between tests."""
    yield
    if probe.active():
        probe.finish(ok=False)


def _fake_clock():
    """A deterministic clock: each call returns the next integer ns."""
    return iter(range(10_000)).__next__


class TestProfilerMath:
    def test_nested_scopes_split_self_and_cumulative(self):
        p = Profiler(clock=_fake_clock())
        p.enter("root")  # t=0
        p.enter("child")  # t=1
        p.exit()  # t=2: child cum=1, self=1
        p.exit()  # t=3: root cum=3, self=3-1=2
        assert p.totals() == {"root": (1, 3, 2), "child": (1, 1, 1)}
        assert p.stack_totals() == {("root",): (1, 2), ("root", "child"): (1, 1)}
        # Self time sums to the root's cumulative time.
        assert p.attributed_ns() == 3

    def test_siblings_accumulate_under_one_parent(self):
        p = Profiler(clock=_fake_clock())
        p.enter("root")  # t=0
        for _ in range(2):
            p.enter("a")  # t=1, t=5
            p.exit()  # t=2, t=6
            p.enter("b")  # t=3, t=7
            p.exit()  # t=4, t=8
        p.exit()  # t=9: root cum=9, children used 4 -> self=5
        assert p.totals() == {"root": (1, 9, 5), "a": (2, 2, 2), "b": (2, 2, 2)}
        assert p.stack_totals() == {
            ("root",): (1, 5),
            ("root", "a"): (2, 2),
            ("root", "b"): (2, 2),
        }

    def test_same_name_on_two_paths_shares_totals_not_stacks(self):
        p = Profiler(clock=_fake_clock())
        p.enter("work")  # t=0, top-level
        p.exit()  # t=1
        p.enter("outer")  # t=2
        p.enter("work")  # t=3, nested
        p.exit()  # t=4
        p.exit()  # t=5
        assert p.totals()["work"] == (2, 2, 2)
        assert p.stack_totals()[("work",)] == (1, 1)
        assert p.stack_totals()[("outer", "work")] == (1, 1)

    def test_deep_recursion_grows_the_frame_pool(self):
        p = Profiler(clock=_fake_clock())
        depth = 200  # deeper than the preallocated pool
        for level in range(depth):
            p.enter(f"level{level}")
        for _ in range(depth):
            p.exit()
        assert p.totals()["level0"][0] == 1
        assert len(p.stack_totals()) == depth

    def test_scope_context_manager_closes_on_exception(self):
        p = Profiler(clock=_fake_clock())
        with pytest.raises(ValueError):
            with p.scope("outer"):
                with p.scope("inner"):
                    raise ValueError("boom")
        assert p.totals()["outer"][0] == 1
        assert p.totals()["inner"][0] == 1
        assert "open=0" in repr(p)

    def test_unwind_settles_dangling_scopes(self):
        p = Profiler(clock=_fake_clock())
        p.enter("a")
        p.enter("b")
        p.unwind()
        assert p.totals()["a"][0] == 1
        assert p.totals()["b"][0] == 1

    def test_clear_drops_everything(self):
        p = Profiler(clock=_fake_clock())
        p.enter("a")
        p.exit()
        p.enter("open")
        p.clear()
        assert p.totals() == {}
        assert p.stack_totals() == {}
        assert p.attributed_ns() == 0
        # A fresh tree works after clear.
        p.enter("b")
        p.exit()
        assert set(p.totals()) == {"b"}

    def test_real_clock_records_positive_times(self):
        p = Profiler()
        with p.scope("real"):
            sum(range(1000))
        calls, cum, self_ns = p.totals()["real"]
        assert calls == 1
        assert cum > 0
        assert self_ns == cum


class _Categorized:
    profile_category = "nic.test"

    def tick(self):
        pass


class _Uncategorized:
    def tick(self):
        pass


def _free_callback():
    pass


class TestCallbackCategories:
    def test_instance_profile_category_wins(self):
        p = Profiler(clock=_fake_clock())
        p.enter_callback(_Categorized().tick)
        p.exit()
        assert set(p.totals()) == {"nic.test"}

    def test_uncategorized_method_derives_class_name_and_caches(self):
        p = Profiler(clock=_fake_clock())
        obj = _Uncategorized()
        p.enter_callback(obj.tick)
        p.exit()
        p.enter_callback(_Uncategorized().tick)  # second instance, same class
        p.exit()
        (name,) = p.totals()
        assert name.endswith("._Uncategorized")
        assert p.totals()[name][0] == 2

    def test_free_function_derives_qualified_name(self):
        p = Profiler(clock=_fake_clock())
        p.enter_callback(_free_callback)
        p.exit()
        (name,) = p.totals()
        assert name.endswith("._free_callback")

    def test_derive_category_strips_repro_prefix(self):
        sim = Simulator()
        assert derive_category(sim.run).startswith("sim.")


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        assert Profiler.enabled is True
        NULL_PROFILER.enter("x")
        NULL_PROFILER.enter_callback(_free_callback)
        NULL_PROFILER.exit()
        NULL_PROFILER.unwind()
        NULL_PROFILER.clear()
        with NULL_PROFILER.scope("y"):
            pass
        assert NULL_PROFILER.totals() == {}
        assert NULL_PROFILER.stack_totals() == {}
        assert NULL_PROFILER.attributed_ns() == 0

    def test_fresh_simulator_uses_the_shared_null(self):
        assert Simulator().profiler is NULL_PROFILER
        assert isinstance(NULL_PROFILER, NullProfiler)


class TestActivation:
    def test_inactive_by_default(self):
        assert not probe.active()
        sim = Simulator()
        probe.attach_simulator(sim)
        assert sim.profiler is NULL_PROFILER
        assert probe.finish() == {}

    def test_activate_attach_deactivate_cycle(self):
        probe.start({"profile": ProfileConfig(stacks=True)})
        profiler = profiling_core.ACTIVE
        assert isinstance(profiler, Profiler)
        sim = Simulator()
        probe.attach_simulator(sim)
        assert sim.profiler is profiler
        sim.schedule(0.01, _free_callback)
        sim.run(until=0.02)
        snapshots = probe.finish()["profile"]
        assert not probe.active()
        assert profiling_core.ACTIVE is None
        assert len(snapshots) == 1
        assert snapshots[0].wall_ns > 0
        names = [entry.name for entry in snapshots[0].entries]
        assert any(name.endswith("._free_callback") for name in names)

    def test_double_activate_rejected(self):
        probe.start({"profile": ProfileConfig()})
        with pytest.raises(RuntimeError):
            probe.start({"profile": ProfileConfig()})

    def test_stacks_false_drops_call_paths_keeps_totals(self):
        probe.start({"profile": ProfileConfig(stacks=False)})
        with profiling_core.ACTIVE.scope("only"):
            pass
        (snapshot,) = probe.finish()["profile"]
        assert snapshot.stacks == []
        assert [entry.name for entry in snapshot.entries] == ["only"]

    def test_snapshot_profiler_unwinds_open_scopes(self):
        p = Profiler(clock=_fake_clock())
        p.enter("left-open")
        snapshot = snapshot_profiler(p, wall_ns=100)
        assert snapshot.entries[0].calls == 1
        assert snapshot.wall_ns == 100


class TestSnapshotMerging:
    def test_merge_sums_by_name_and_path(self):
        a = ProfileSnapshot(
            entries=[ProfileEntry(name="x", calls=1, cum_ns=10, self_ns=10)],
            stacks=[StackEntry(path=["x"], calls=1, self_ns=10)],
            wall_ns=20,
        )
        b = ProfileSnapshot(
            entries=[
                ProfileEntry(name="x", calls=2, cum_ns=5, self_ns=4),
                ProfileEntry(name="y", calls=1, cum_ns=1, self_ns=1),
            ],
            stacks=[
                StackEntry(path=["x"], calls=2, self_ns=4),
                StackEntry(path=["x", "y"], calls=1, self_ns=1),
            ],
            wall_ns=15,
        )
        merged = merge_snapshots([a, b])
        assert merged.wall_ns == 35
        assert {e.name: (e.calls, e.cum_ns, e.self_ns) for e in merged.entries} == {
            "x": (3, 15, 14),
            "y": (1, 1, 1),
        }
        assert {tuple(s.path): (s.calls, s.self_ns) for s in merged.stacks} == {
            ("x",): (3, 14),
            ("x", "y"): (1, 1),
        }
        assert merged.attributed_ns() == 15
        assert merged.coverage() == pytest.approx(15 / 35)

    def test_empty_merge_and_zero_wall_coverage(self):
        merged = merge_snapshots([])
        assert merged.entries == [] and merged.stacks == []
        assert merged.coverage() == 0.0


def _profiled_point(count: int) -> int:
    """A sweep point whose simulator self-profiles (picklable)."""
    sim = Simulator()
    probe.attach_simulator(sim)
    assert sim.profiler is not NULL_PROFILER, "executor should activate profiling"
    obj = _Categorized()
    for step in range(count):
        sim.schedule(0.01 * (step + 1), obj.tick)
    sim.run(until=0.01 * count + 0.005)
    return count


def _specs():
    return [
        SweepPointSpec(
            label=f"point count={count}", fn=_profiled_point, kwargs={"count": count}
        )
        for count in (3, 5, 2, 4)
    ]


def _structure(collector: ProfileCollector):
    """Times vary run to run; the merged *structure* must not."""
    return [
        (
            point.label,
            [
                [(entry.name, entry.calls) for entry in snap.entries]
                for snap in point.snapshots
            ],
            [
                [(tuple(stack.path), stack.calls) for stack in snap.stacks]
                for snap in point.snapshots
            ],
        )
        for point in collector.points
    ]


class TestExecutorIntegration:
    def test_serial_executor_deposits_points_in_spec_order(self):
        collector = ProfileCollector(ProfileConfig(stacks=True))
        values = SweepExecutor(jobs=1, probes=(collector,)).run(_specs())
        assert values == [3, 5, 2, 4]
        assert [point.label for point in collector.points] == [
            "point count=3",
            "point count=5",
            "point count=2",
            "point count=4",
        ]
        snap = collector.points[1].snapshots[0]
        entry = next(e for e in snap.entries if e.name == "nic.test")
        assert entry.calls == 5

    def test_jobs_1_and_jobs_4_collect_identical_structure(self):
        serial = ProfileCollector()
        SweepExecutor(jobs=1, probes=(serial,)).run(_specs())
        parallel = ProfileCollector()
        SweepExecutor(jobs=4, probes=(parallel,)).run(_specs())
        assert _structure(serial) == _structure(parallel)
        aggregated = parallel.aggregate()
        assert aggregated.wall_ns > 0

    def test_profiling_is_inactive_again_after_a_run(self):
        SweepExecutor(jobs=1, probes=(ProfileCollector(),)).run(_specs()[:1])
        assert not probe.active()
        assert profiling_core.ACTIVE is None

    def test_collector_clear_and_len(self):
        collector = ProfileCollector()
        SweepExecutor(jobs=1, probes=(collector,)).run(_specs()[:2])
        assert len(collector) == 2
        collector.clear()
        assert len(collector) == 0


class TestSerialization:
    def test_experiment_profile_round_trips_through_the_envelope(self):
        collector = ProfileCollector(ProfileConfig(stacks=True, top=10))
        SweepExecutor(jobs=1, probes=(collector,)).run(_specs()[:2])
        profile = collector.experiment("unit")
        payload = serialize(profile)
        restored = deserialize(payload)
        assert serialize(restored) == payload
        assert restored.experiment_id == "unit"
        assert restored.config.top == 10
        assert [p.label for p in restored.points] == [
            p.label for p in profile.points
        ]

    def test_spec_key_omits_profile_when_absent(self):
        spec = SweepPointSpec(label="p", fn=_profiled_point, kwargs={"count": 1})
        without = SweepCheckpoint.spec_key(spec, {})
        with_profile = SweepCheckpoint.spec_key(spec, {"profile": ProfileConfig()})
        # The key is stable across calls...
        assert without == SweepCheckpoint.spec_key(spec, {})
        # ...but a profiled run is keyed distinctly.
        assert with_profile != without


class TestExporters:
    def _snapshot(self):
        return ProfileSnapshot(
            entries=[
                ProfileEntry(name="nic.efw", calls=100, cum_ns=60_000, self_ns=50_000),
                ProfileEntry(name="link", calls=50, cum_ns=20_000, self_ns=20_000),
                ProfileEntry(name="apps", calls=10, cum_ns=10_000, self_ns=10_000),
            ],
            stacks=[
                StackEntry(path=["nic.efw"], calls=100, self_ns=50_000),
                StackEntry(path=["nic.efw", "firewall"], calls=40, self_ns=9_000),
                StackEntry(path=["link"], calls=50, self_ns=500),
            ],
            wall_ns=100_000,
        )

    def test_hotspot_table_sorts_by_self_time_and_reports_coverage(self):
        table = hotspot_table(self._snapshot(), top=2)
        lines = table.splitlines()
        assert lines[0].startswith("Hotspots")
        body = [line for line in lines if line.startswith(("nic.efw", "link", "apps"))]
        assert [line.split()[0] for line in body] == ["nic.efw", "link"]
        assert "... 1 more component(s)" in table
        assert "(80.0% coverage)" in table

    def test_hotspot_table_without_wall_clock(self):
        snapshot = self._snapshot()
        snapshot.wall_ns = 0
        assert "no wall-clock baseline" in hotspot_table(snapshot)

    def test_collapsed_stacks_emit_one_weighted_line_per_path(self):
        lines = collapsed_stacks(self._snapshot()).splitlines()
        assert lines[0] == "nic.efw 50"
        assert lines[1] == "nic.efw;firewall 9"
        # Sub-microsecond paths keep a minimal weight of 1.
        assert lines[2] == "link 1"

    def test_exporters_accept_experiment_profiles(self):
        collector = ProfileCollector()
        SweepExecutor(jobs=1, probes=(collector,)).run(_specs()[:1])
        profile = collector.experiment("unit")
        assert "nic.test" in hotspot_table(profile)
        # Dispatched callbacks nest under the kernel's sim.run root scope.
        assert any(
            line.startswith("sim.run;nic.test ")
            for line in collapsed_stacks(profile).splitlines()
        )


@pytest.mark.slow
class TestCoverageAcceptance:
    def test_fig3a_quick_attributes_most_of_the_wall_clock(self):
        """The hotspot report must explain >=90% of a real run's time."""
        from repro.experiments import REGISTRY, RunConfig

        collector = ProfileCollector(ProfileConfig(stacks=True))
        REGISTRY["fig3a"].run(RunConfig(preset="quick", jobs=1, probes=(collector,)))
        aggregated = collector.aggregate()
        assert aggregated.coverage() >= 0.90
        names = {entry.name for entry in aggregated.entries}
        # The components the paper's claim is about are all attributed.
        assert "sim.run" in names
        assert any(name.startswith("nic.") for name in names)


class TestForwardingAttribution:
    def test_fig3a_point_charges_switch_and_standard_nic_egress(self):
        """Switch forwarding and standard-NIC ingress and egress run
        inside other components' events, under scopes of their own."""
        from repro.core.methodology import MeasurementSettings
        from repro.core.testbed import DeviceKind
        from repro.experiments.fig3a_flood import _flood_point

        collector = ProfileCollector(ProfileConfig(stacks=True))
        spec = SweepPointSpec(
            label="fig3a: No Firewall flood=2,000 pps",
            fn=_flood_point,
            kwargs={
                "device": DeviceKind.STANDARD,
                "rate": 2000.0,
                "vpg_count": 0,
                "settings": MeasurementSettings(duration=0.05, flood_lead=0.02),
            },
        )
        SweepExecutor(jobs=1, probes=(collector,)).run([spec])
        aggregated = collector.aggregate()
        entries = {entry.name: entry for entry in aggregated.entries}
        for name in ("switch", "nic.standard.rx", "nic.standard.tx"):
            assert entries[name].self_ns > 0, name
        paths = {tuple(stack.path): stack.calls for stack in aggregated.stacks}
        # The switch forwards, and the standard NIC hands packets to its
        # host, inside the link's delivery event.
        assert paths[("sim.run", "link", "switch")] > 0
        assert paths[("sim.run", "link", "nic.standard.rx")] > 0
        assert paths[("sim.run", "app.flood", "nic.standard.tx")] > 0


class TestCryptoAttribution:
    def test_table1_vpg_point_charges_crypto_inside_the_adf_processor(self):
        """VPG seal/open run inside the ADF's processor event, under a
        scope of their own."""
        from repro.core.methodology import MeasurementSettings
        from repro.core.testbed import DeviceKind
        from repro.experiments.table1_http import _http_point

        collector = ProfileCollector(ProfileConfig(stacks=True))
        spec = SweepPointSpec(
            label="table1: ADF VPG count=1",
            fn=_http_point,
            kwargs={
                "device": DeviceKind.ADF,
                "depth": 1,
                "vpg_count": 1,
                "settings": MeasurementSettings(http_duration=0.05),
            },
        )
        SweepExecutor(jobs=1, probes=(collector,)).run([spec])
        aggregated = collector.aggregate()
        entries = {entry.name: entry for entry in aggregated.entries}
        assert entries["crypto.vpg"].self_ns > 0
        paths = [tuple(stack.path) for stack in aggregated.stacks]
        assert any(
            path[-2:] == ("nic.adf.proc", "crypto.vpg") for path in paths
        ), paths


class _WheelTarget:
    profile_category = "defense.wheel-target"

    def __init__(self):
        self.fired = 0

    def tick(self):
        self.fired += 1


class TestTimerAttribution:
    def test_timer_bills_the_wrapped_callback(self):
        sim = Simulator()
        target = _WheelTarget()
        timer = Timer(sim, target.tick)
        assert timer.profile_category == "defense.wheel-target"
        # Cached: the second read returns the same resolved name.
        assert timer.profile_category == "defense.wheel-target"

    def test_periodic_timer_bills_the_wrapped_callback(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 0.1, _WheelTarget().tick)
        assert timer.profile_category == "defense.wheel-target"

    def test_wheel_entries_attributed_to_their_component(self):
        sim = Simulator()
        profiler = Profiler()
        sim.profiler = profiler
        wheel = TimerWheel(sim, tick=0.01)
        target = _WheelTarget()
        wheel.schedule_periodic(0.01, target.tick)
        sim.run(until=0.055)
        assert target.fired == 5
        assert profiler.totals()["defense.wheel-target"][0] == 5
        # The wheel's own bookkeeping is billed to the kernel timer scope.
        assert "sim.timer" in profiler.totals()
