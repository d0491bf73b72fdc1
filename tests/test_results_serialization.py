"""Tests for experiment-result JSON serialization."""

import dataclasses
import json
import math

import pytest

from repro.core.methodology import MinimumFloodResult
from repro.core.testbed import DeviceKind
from repro.experiments.fig2_bandwidth import Fig2Result
from repro.experiments.results import (
    RESULTS_SCHEMA_VERSION,
    deserialize,
    from_json,
    read_json,
    serialize,
    to_json,
    write_json,
)
from repro.net.addresses import Ipv4Address, MacAddress


class TestSerialize:
    def test_dataclass_becomes_tagged_dict(self):
        result = MinimumFloodResult(rule_depth=64, flood_allowed=True, rate_pps=4500.0)
        record = serialize(result)
        assert record["_type"] == "MinimumFloodResult"
        assert record["rule_depth"] == 64
        assert record["rate_pps"] == 4500.0

    def test_enum_becomes_value(self):
        assert serialize(DeviceKind.EFW) == "efw"

    def test_nan_and_inf_become_null(self):
        assert serialize(float("nan")) is None
        assert serialize(float("inf")) is None

    def test_addresses_serialize_as_text(self):
        # Addresses are int subclasses; they must not come out as numbers
        # (that would change envelopes and checkpoint spec keys).
        @dataclasses.dataclass
        class Endpoint:
            ip: Ipv4Address
            mac: MacAddress

        ip = Ipv4Address("10.0.0.4")
        mac = MacAddress("02:00:00:00:00:2a")
        record = serialize(Endpoint(ip=ip, mac=mac))
        assert record["ip"] == "10.0.0.4"
        assert record["mac"] == "02:00:00:00:00:2a"
        assert serialize({ip: 3, mac: 4}) == {"10.0.0.4": 3, "02:00:00:00:00:2a": 4}
        assert serialize([ip]) == ["10.0.0.4"]
        assert '"10.0.0.4"' in to_json(Endpoint(ip=ip, mac=mac))

    def test_tuples_become_lists(self):
        assert serialize(((1, 2.5), (3, 4.5))) == [[1, 2.5], [3, 4.5]]

    def test_nested_result_round_trips_through_json(self):
        result = Fig2Result(series={"EFW": [(1, 94.8), (64, 47.8)]})
        parsed = json.loads(to_json(result))
        assert parsed["schema_version"] == RESULTS_SCHEMA_VERSION
        assert parsed["result"]["series"]["EFW"] == [[1, 94.8], [64, 47.8]]
        assert parsed["result"]["_type"] == "Fig2Result"

    def test_non_string_dict_keys_stringified(self):
        assert serialize({64: "deep"}) == {"64": "deep"}

    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": (1, 2)}, str(path))
        assert json.loads(path.read_text()) == {
            "schema_version": RESULTS_SCHEMA_VERSION,
            "result": {"a": [1, 2]},
        }

    def test_plain_object_falls_back_to_dict(self):
        class Plain:
            def __init__(self):
                self.x = 7

        record = serialize(Plain())
        assert record == {"_type": "Plain", "x": 7}


class TestDeserialize:
    def test_dataclass_round_trip(self):
        result = MinimumFloodResult(rule_depth=64, flood_allowed=True, rate_pps=4500.0)
        rebuilt = deserialize(serialize(result))
        assert isinstance(rebuilt, MinimumFloodResult)
        assert rebuilt == result

    def test_nested_result_round_trip_reserializes_identically(self):
        result = Fig2Result(series={"EFW": [(1, 94.8), (64, 47.8)]})
        payload = serialize(result)
        rebuilt = deserialize(payload)
        assert isinstance(rebuilt, Fig2Result)
        # Tuples come back as lists; re-serializing reproduces the payload.
        assert serialize(rebuilt) == payload

    def test_from_json_accepts_envelope(self):
        result = Fig2Result(series={"ADF": [(1, 90.0)]})
        rebuilt = from_json(to_json(result))
        assert isinstance(rebuilt, Fig2Result)
        assert to_json(rebuilt) == to_json(result)

    def test_read_json_inverts_write_json(self, tmp_path):
        path = tmp_path / "archive.json"
        result = MinimumFloodResult(rule_depth=8, flood_allowed=False, rate_pps=9000.0)
        write_json(result, str(path))
        assert read_json(str(path)) == result

    def test_future_schema_version_rejected(self):
        with pytest.raises(ValueError):
            deserialize({"schema_version": RESULTS_SCHEMA_VERSION + 1, "result": {}})

    def test_unknown_type_tag_survives_as_dict(self):
        payload = {"_type": "NotARealResult", "x": 1}
        assert deserialize(payload) == payload

    def test_extra_keys_from_newer_revisions_ignored(self):
        payload = serialize(MinimumFloodResult(rule_depth=1, flood_allowed=True))
        payload["added_in_v2"] = "surprise"
        rebuilt = deserialize(payload)
        assert isinstance(rebuilt, MinimumFloodResult)
        assert rebuilt.rule_depth == 1

    def test_metrics_snapshot_round_trip(self):
        from repro.obs.collect import ExperimentMetrics, PointMetrics
        from repro.obs.sampler import MetricSeries, MetricsSnapshot

        snapshot = MetricsSnapshot(
            interval=0.01,
            series=[
                MetricSeries(
                    name="queue_depth",
                    kind="gauge",
                    labels={"queue": "target.efw.proc"},
                    points=[(0.0, 0.0), (0.01, 3.0)],
                    final=3.0,
                )
            ],
        )
        experiment = ExperimentMetrics(
            experiment_id="fig3a",
            interval=0.01,
            points=[PointMetrics(label="p", snapshots=[snapshot])],
        )
        rebuilt = deserialize(serialize(experiment))
        assert isinstance(rebuilt, ExperimentMetrics)
        assert rebuilt.points[0].snapshots[0].series[0].name == "queue_depth"
        assert serialize(rebuilt) == serialize(experiment)
