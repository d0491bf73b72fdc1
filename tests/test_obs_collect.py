"""Tests for per-sweep-point metrics collection and executor merging."""

import pytest

from repro.core import probe
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.experiments.results import serialize
from repro.obs.collect import MetricsCollector, MetricsConfig
from repro.obs.export import CSV_COLUMNS, flatten_rows, write_metrics_csv
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_collection_state():
    """Never leak an active collection between tests."""
    yield
    if probe.active():
        probe.finish(ok=False)


class TestActivation:
    def test_inactive_by_default(self):
        assert not probe.active()
        sim = Simulator()
        probe.attach_simulator(sim)
        assert sim.metrics is NULL_REGISTRY
        assert probe.finish() == {}

    def test_activate_attach_deactivate_cycle(self):
        probe.start({"metrics": MetricsConfig(interval=0.05)})
        assert probe.active()
        sim = Simulator()
        probe.attach_simulator(sim)
        registry = sim.metrics
        assert isinstance(registry, MetricsRegistry)
        # The kernel's own instruments are registered on attach.
        assert registry.get("sim_events_executed", component="engine") is not None
        sim.run(until=0.2)
        snapshots = probe.finish()["metrics"]
        assert not probe.active()
        assert len(snapshots) == 1
        assert snapshots[0].interval == 0.05
        assert snapshots[0].find("sim_events_executed", component="engine") is not None

    def test_double_activate_rejected(self):
        probe.start({"metrics": MetricsConfig()})
        with pytest.raises(RuntimeError):
            probe.start({"metrics": MetricsConfig()})

    def test_simulator_stays_null_when_inactive(self):
        sim = Simulator()
        assert sim.metrics is NULL_REGISTRY

    def test_collector_interval_validated(self):
        with pytest.raises(ValueError):
            MetricsCollector(interval=0)


def _metric_point(count: int) -> float:
    """A sweep point that self-instruments (picklable for the pool path)."""
    sim = Simulator()
    probe.attach_simulator(sim)
    registry = sim.metrics
    assert registry is not NULL_REGISTRY, "executor should activate collection"
    counter = registry.counter("test_events", source="point")
    for step in range(count):
        sim.schedule(0.01 * (step + 1), counter.inc)
    sim.run(until=0.01 * count + 0.005)
    return counter.read()


def _specs():
    return [
        SweepPointSpec(label=f"point count={count}", fn=_metric_point, kwargs={"count": count})
        for count in (3, 5, 2, 4)
    ]


class TestExecutorMerging:
    def test_serial_executor_deposits_points_in_spec_order(self):
        collector = MetricsCollector(interval=0.01)
        values = SweepExecutor(jobs=1, probes=(collector,)).run(_specs())
        assert values == [3.0, 5.0, 2.0, 4.0]
        assert [point.label for point in collector.points] == [
            "point count=3",
            "point count=5",
            "point count=2",
            "point count=4",
        ]
        series = collector.points[1].snapshots[0].find("test_events", source="point")
        assert series.final == 5.0

    def test_jobs_1_and_jobs_n_merge_identically(self):
        serial = MetricsCollector(interval=0.01)
        SweepExecutor(jobs=1, probes=(serial,)).run(_specs())
        parallel = MetricsCollector(interval=0.01)
        SweepExecutor(jobs=2, probes=(parallel,)).run(_specs())
        assert serialize(serial.experiment("x")) == serialize(parallel.experiment("x"))

    def test_collection_is_inactive_again_after_a_metrics_run(self):
        SweepExecutor(jobs=1, probes=(MetricsCollector(),)).run(_specs()[:1])
        assert not probe.active()

    def test_runs_without_collector_leave_metrics_off(self):
        values = SweepExecutor(jobs=1).run(
            [SweepPointSpec(label="plain", fn=_plain_point, kwargs={})]
        )
        assert values == [True]


def _plain_point() -> bool:
    """Without a collector the point's simulators stay on the null registry."""
    sim = Simulator()
    probe.attach_simulator(sim)
    return sim.metrics is NULL_REGISTRY


class TestCsvExport:
    def test_flatten_and_write(self, tmp_path):
        collector = MetricsCollector(interval=0.01)
        SweepExecutor(jobs=1, probes=(collector,)).run(_specs()[:2])
        experiment = collector.experiment("unit")
        rows = list(flatten_rows(experiment))
        assert rows, "expected at least one sample row"
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        path = write_metrics_csv(experiment, tmp_path / "series.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rows) + 1
        assert lines[1].startswith("point count=3,0,")
