"""Causality properties of packet-lifecycle traces.

A fig3a-style flood sweep runs with tracing armed; every traced packet
must come back as a *well-formed span tree*: exactly one root, unique
span ids, every parent present in the same trace, parents starting no
later than their children in virtual time, and one trace id end-to-end.
And because trace snapshots ride the same ordered-collection machinery
as metrics, ``jobs=1`` and ``jobs=N`` must produce identical traces.
"""

import importlib
import sys

import pytest

from repro.core.methodology import MeasurementSettings
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.core.testbed import DeviceKind
from repro.experiments.fig3a_flood import _flood_point
from repro.experiments.results import serialize
from repro.obs.tracing import TraceCollector, TraceConfig

SETTINGS = MeasurementSettings(duration=0.2, flood_lead=0.05, repetitions=1)

#: A reduced Figure-3a-style grid: an allowed-traffic baseline and a
#: flooded ADF point (the flood exercises deny events and queue drops).
PLANS = (
    (DeviceKind.STANDARD, 0.0),
    (DeviceKind.ADF, 20_000.0),
)


def _specs():
    return [
        SweepPointSpec(
            label=f"trace-test: {device.name} flood={rate:.0f}",
            fn=_flood_point,
            kwargs={
                "device": device,
                "rate": rate,
                "vpg_count": 0,
                "settings": SETTINGS,
            },
        )
        for device, rate in PLANS
    ]


def _run_collect(jobs: int) -> TraceCollector:
    collector = TraceCollector(TraceConfig(spans=True, sample_every=5, flight=True))
    SweepExecutor(jobs=jobs, probes=(collector,)).run(_specs())
    return collector


def test_span_histograms_bridge_whatever_the_probe_order():
    from repro.obs import MetricsCollector

    for order in ("trace-first", "metrics-first"):
        tracer = TraceCollector(TraceConfig(sample_every=5))
        metrics = MetricsCollector()
        probes = (tracer, metrics) if order == "trace-first" else (metrics, tracer)
        SweepExecutor(jobs=1, probes=probes).run(_specs()[:1])
        [snapshot] = metrics.points[0].snapshots
        assert any(series.name == "trace_span_ms" for series in snapshot.series), order


@pytest.fixture(scope="module")
def serial_collector() -> TraceCollector:
    return _run_collect(jobs=1)


def _trees(snapshot):
    """Group a snapshot's spans into {trace_id: [spans]}."""
    trees = {}
    for span in snapshot.spans:
        trees.setdefault(span.trace_id, []).append(span)
    return trees


class TestSpanTreeWellFormedness:
    def test_sweep_produced_traces(self, serial_collector):
        assert len(serial_collector) == len(PLANS)
        total = sum(
            len(snapshot.spans)
            for point in serial_collector.points
            for snapshot in point.snapshots
        )
        assert total > 0

    def test_every_tree_has_exactly_one_root(self, serial_collector):
        for point in serial_collector.points:
            for snapshot in point.snapshots:
                for trace_id, spans in _trees(snapshot).items():
                    roots = [s for s in spans if s.parent_id is None]
                    assert len(roots) == 1, (
                        f"trace {trace_id} in {point.label} has {len(roots)} roots"
                    )
                    assert roots[0].name in ("app.send", "nic.send")

    def test_span_ids_unique_and_parents_in_same_trace(self, serial_collector):
        for point in serial_collector.points:
            for snapshot in point.snapshots:
                for trace_id, spans in _trees(snapshot).items():
                    ids = [s.span_id for s in spans]
                    assert len(ids) == len(set(ids))
                    id_set = set(ids)
                    for span in spans:
                        assert span.trace_id == trace_id
                        if span.parent_id is not None:
                            assert span.parent_id in id_set, (
                                f"span {span.span_id} ({span.name}) parents "
                                f"{span.parent_id}, not part of trace {trace_id}"
                            )

    def test_parents_precede_children_in_virtual_time(self, serial_collector):
        for point in serial_collector.points:
            for snapshot in point.snapshots:
                for spans in _trees(snapshot).values():
                    by_id = {s.span_id: s for s in spans}
                    for span in spans:
                        assert span.start <= span.end + 1e-12
                        if span.parent_id is None:
                            continue
                        parent = by_id[span.parent_id]
                        assert parent.start <= span.start + 1e-12, (
                            f"child {span.name} starts at {span.start} before "
                            f"its parent {parent.name} at {parent.start}"
                        )

    def test_delivered_packets_span_the_full_pipeline(self, serial_collector):
        delivered_trees = 0
        for point in serial_collector.points:
            for snapshot in point.snapshots:
                for spans in _trees(snapshot).values():
                    names = {s.name for s in spans}
                    if "app.deliver" not in names:
                        continue
                    delivered_trees += 1
                    # An end-to-end delivery crossed the NIC and the wire.
                    assert "link.tx" in names
                    assert "nic.tx" in names or "nic.rx" in names
        assert delivered_trees > 0


class TestWorkerCountEquivalence:
    def test_jobs_1_and_jobs_2_trace_identically(self, serial_collector):
        parallel_collector = _run_collect(jobs=2)
        serial = serialize(serial_collector.experiment("trace-test"))
        parallel = serialize(parallel_collector.experiment("trace-test"))
        assert serial == parallel


class TestLegacyShim:
    def test_sim_trace_shim_is_gone(self):
        # The repro.sim.trace forwarding shim was removed after its
        # one-release grace period; it must not silently reappear.
        sys.modules.pop("repro.sim.trace", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.trace")

    def test_package_alias_matches_new_home(self):
        import repro.sim as sim
        from repro.obs.tracing import PacketTracer

        assert sim.Tracer is PacketTracer
