"""Acceptance tests for the mitigation experiment (repro.experiments.mitigation)."""

import warnings

import pytest

from repro.core.methodology import MeasurementSettings
from repro.core.testbed import DeviceKind
from repro.experiments import RunConfig, mitigation
from repro.experiments.presets import Preset
from repro.experiments.results import deserialize, serialize

#: Short windows keep the three-window timeline affordable in CI.
SETTINGS = MeasurementSettings(duration=0.25)


def tiny_preset(**overrides) -> Preset:
    defaults = dict(
        name="tiny",
        settings=SETTINGS,
        defense_modes=("off", "quarantine"),
        fleet_defense_modes=(),
        fleet_sizes=(),
    )
    defaults.update(overrides)
    return Preset(**defaults)


@pytest.fixture(scope="module")
def tiny_result():
    return mitigation.run(RunConfig(preset=tiny_preset()))


class TestRecoveryPhysics:
    def point(self, result, device, mode):
        return next(
            p for p in result.points if p.device == device and p.mode == mode
        )

    def test_undefended_efw_collapses(self, tiny_result):
        # The paper's §4.3 outcome: deny flood, no defense, goodput ~0.
        point = self.point(tiny_result, "efw", "off")
        assert point.baseline_mbps > 5.0
        assert point.recovery_fraction < 0.2
        assert point.wedged_at_end

    def test_quarantine_restores_goodput(self, tiny_result):
        point = self.point(tiny_result, "efw", "quarantine")
        assert point.quarantined
        assert point.recovery_fraction >= 0.8
        assert not point.wedged_at_end
        assert point.time_to_detect is not None
        assert point.time_to_mitigate is not None
        assert point.time_to_mitigate >= point.time_to_detect
        assert point.time_to_mitigate < 0.2

    def test_rate_limit_restores_goodput(self):
        point = mitigation._mitigation_point(DeviceKind.EFW, "rate-limit", SETTINGS)
        assert point.recovery_fraction >= 0.8
        assert point.limiter_dropped > 1_000
        assert not point.wedged_at_end

    def test_deny_rule_is_futile_on_the_efw(self):
        # Denying the flood still feeds the deny-rate lockup: the card
        # re-wedges as fast as the restart sweep revives it (the paper's
        # "no solution was found", §4.3).
        point = mitigation._mitigation_point(DeviceKind.EFW, "deny-rule", SETTINGS)
        assert point.agent_restarts >= 3
        assert point.pushes_acked > point.agent_restarts  # every restart re-pushed

    def test_deny_rule_is_decisive_on_the_adf(self):
        point = mitigation._mitigation_point(DeviceKind.ADF, "deny-rule", SETTINGS)
        assert point.recovery_fraction >= 0.8
        assert point.agent_restarts == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(KeyError):
            mitigation.actions_for_mode("nope")


class TestFleetLeg:
    def test_fleet_quarantine_recovers_the_aggregate(self):
        preset = tiny_preset(
            defense_modes=(),
            fleet_defense_modes=("off", "quarantine"),
            fleet_sizes=(2,),
        )
        result = mitigation.run(RunConfig(preset=preset))
        assert result.points == []
        off, quarantine = result.fleet_points
        assert off.mode == "off" and quarantine.mode == "quarantine"
        assert off.recovery_fraction < quarantine.recovery_fraction
        assert quarantine.recovery_fraction >= 0.8
        assert quarantine.dos_fraction_recovery == 0.0
        assert quarantine.pushes_acked == 2


class TestRunContract:
    def test_results_identical_for_any_jobs_value(self, tiny_result):
        parallel = mitigation.run(RunConfig(preset=tiny_preset(), jobs=2))
        assert parallel.points == tiny_result.points
        assert parallel.fleet_points == tiny_result.fleet_points

    def test_legacy_keywords_warn_but_work(self):
        # The name predates the end of the deprecation cycle: run(preset=...)
        # is now a TypeError, and the RunConfig form runs without a warning.
        preset = tiny_preset(defense_modes=("off",))
        with pytest.raises(TypeError):
            mitigation.run(preset=preset)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = mitigation.run(RunConfig(preset=preset))
        assert [p.mode for p in result.points] == ["off", "off"]

    def test_registered_with_the_runner(self):
        from repro.experiments import runner

        assert "mitigation" in runner.experiment_ids()
        assert runner.REGISTRY["mitigation"].entry is mitigation.run

    def test_table_renders_both_legs(self, tiny_result):
        text = tiny_result.table()
        assert "recovery" in text
        assert "efw" in text and "adf" in text

    def test_envelope_roundtrip(self, tiny_result):
        rebuilt = deserialize(serialize(tiny_result))
        assert isinstance(rebuilt, mitigation.MitigationResult)
        assert rebuilt.points == tiny_result.points
        assert rebuilt.fleet_points == tiny_result.fleet_points
