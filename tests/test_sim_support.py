"""Tests for RNG registry, tracer and unit helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import units
from repro.sim.rng import RngRegistry
from repro.obs.tracing import PacketTracer as Tracer


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        registry = RngRegistry(seed=7)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_deterministic_across_registries(self):
        first = RngRegistry(seed=7).stream("flood").random()
        second = RngRegistry(seed=7).stream("flood").random()
        assert first == second

    def test_different_names_are_independent(self):
        registry = RngRegistry(seed=7)
        a = [registry.stream("a").random() for _ in range(5)]
        b = [registry.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_drawing_from_one_stream_does_not_disturb_another(self):
        reference = RngRegistry(seed=9)
        expected = [reference.stream("b").random() for _ in range(3)]
        registry = RngRegistry(seed=9)
        registry.stream("a").random()  # interleaved draw on another stream
        observed = [registry.stream("b").random() for _ in range(3)]
        assert observed == expected

    def test_names_sorted(self):
        registry = RngRegistry()
        registry.stream("zeta")
        registry.stream("alpha")
        assert registry.names() == ["alpha", "zeta"]


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, "src", "event")
        assert len(tracer) == 0

    def test_records_and_filters(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1.0, "nic", "drop", reason="full")
        tracer.emit(2.0, "tcp", "retransmit")
        assert len(tracer.records(source="nic")) == 1
        assert len(tracer.records(event="retransmit")) == 1
        assert tracer.records(source="nic")[0].fields["reason"] == "full"

    def test_ring_bound(self):
        tracer = Tracer(enabled=True, max_records=3)
        for index in range(10):
            tracer.emit(float(index), "s", "e")
        assert len(tracer) == 3
        assert tracer.records()[0].time == 7.0

    def test_sink_receives_records(self):
        tracer = Tracer(enabled=True)
        seen = []
        tracer.add_sink(seen.append)
        tracer.emit(1.0, "s", "e")
        assert len(seen) == 1

    def test_clear(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1.0, "s", "e")
        tracer.clear()
        assert len(tracer) == 0

    def test_str_rendering(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1.5, "nic", "drop", count=3)
        assert "nic drop count=3" in str(tracer.records()[0])


class TestUnits:
    def test_time_conversions(self):
        assert units.milliseconds(5) == pytest.approx(0.005)
        assert units.microseconds(5) == pytest.approx(5e-6)
        assert units.nanoseconds(5) == pytest.approx(5e-9)

    def test_bandwidth_conversions(self):
        assert units.mbps(100) == pytest.approx(100e6)
        assert units.gbps(1) == pytest.approx(1e9)
        assert units.to_mbps(5e7) == pytest.approx(50)

    def test_transmission_delay(self):
        # 1518 bytes on 100 Mbps: 121.44 us.
        delay = units.transmission_delay(1518, units.mbps(100))
        assert math.isclose(delay, 1518 * 8 / 100e6)

    def test_transmission_delay_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            units.transmission_delay(100, 0)

    def test_canonical_frame_rates(self):
        # RFC 2544 numbers for 100 Mbps Ethernet.
        assert round(units.MAX_FRAME_RATE_64B) == 148810
        assert round(units.MAX_FRAME_RATE_1518B) == 8127

    def test_max_frame_rate_rejects_runt_frames(self):
        with pytest.raises(ValueError):
            units.max_frame_rate(units.mbps(100), 32)

    @given(st.integers(min_value=64, max_value=9000))
    def test_frame_rate_decreases_with_size(self, size):
        faster = units.max_frame_rate(units.mbps(100), size)
        slower = units.max_frame_rate(units.mbps(100), size + 1)
        assert slower < faster

    @given(
        st.integers(min_value=1, max_value=100_000),
        st.floats(min_value=1e3, max_value=1e10),
    )
    def test_transmission_delay_scales_linearly(self, nbytes, bandwidth):
        single = units.transmission_delay(nbytes, bandwidth)
        double = units.transmission_delay(2 * nbytes, bandwidth)
        assert math.isclose(double, 2 * single, rel_tol=1e-9)
