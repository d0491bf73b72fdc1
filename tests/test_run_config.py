"""Tests for the unified RunConfig run API."""

import warnings
from dataclasses import replace

import pytest

from repro.core.methodology import MeasurementSettings
from repro.core.parallel import ON_FAILURE_RAISE, ON_FAILURE_RECORD
from repro.experiments import FULL, QUICK, Preset, RunConfig, fig2_bandwidth, runner
from repro.experiments.results import to_json

TINY = Preset(
    name="tiny",
    settings=MeasurementSettings(duration=0.3),
    depths=(1, 16),
    vpg_counts=(1,),
)


def _recording_spec(calls):
    def entry(config):
        calls.append(config)
        return "ran"

    return runner.ExperimentSpec("fig2", "t", entry)


class TestCoerce:
    """How a run() entry point normalizes its one argument."""

    def test_no_arguments_yields_the_default_config(self):
        calls = []
        _recording_spec(calls).run()
        assert calls == [replace(RunConfig(), preset=FULL)]
        assert calls[0].retries == 0 and calls[0].probes == ()

    def test_config_passes_through_unchanged(self):
        calls = []
        config = RunConfig(preset=TINY, jobs=2)
        _recording_spec(calls).run(config)
        assert calls == [config]

    def test_config_and_kwargs_together_rejected(self):
        with pytest.raises(TypeError):
            _recording_spec([]).run(RunConfig(), jobs=2)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            _recording_spec([]).run(job=2)

    def test_legacy_kwargs_warn_by_default(self):
        # The name predates the end of the deprecation cycle: RunConfig.coerce
        # and its DeprecationWarning are gone, and known keywords are now
        # rejected like unknown ones.
        assert not hasattr(RunConfig, "coerce")
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(TypeError):
                _recording_spec(calls).run(jobs=2)
        assert calls == []

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            RunConfig().jobs = 4


class TestResolution:
    def test_none_preset_resolves_to_full(self):
        assert RunConfig().resolved_preset("fig2") is FULL

    def test_name_resolves_per_experiment(self):
        assert RunConfig(preset="quick").resolved_preset("fig3a") is QUICK["fig3a"]

    def test_preset_instance_passes_through(self):
        assert RunConfig(preset=TINY).resolved_preset("fig2") is TINY

    def test_executor_carries_the_fault_tolerance_fields(self):
        executor = RunConfig(
            jobs=1, retries=3, point_timeout=5.0, on_failure="record"
        ).executor()
        assert executor.retries == 3
        assert executor.point_timeout == 5.0
        assert executor.on_failure == ON_FAILURE_RECORD
        assert RunConfig(jobs=1).executor().on_failure == ON_FAILURE_RAISE


class TestLegacyEquivalence:
    def test_legacy_and_config_runs_serialize_to_identical_bytes(self):
        """The runner's config= path serializes exactly like a direct run().

        It took over from the deleted keyword form, so it must not change
        results in any way.
        """
        direct = fig2_bandwidth.run(RunConfig(preset=TINY, jobs=1))
        via_runner = runner.run_experiment_result(
            "fig2", config=RunConfig(preset=TINY, jobs=1)
        )
        assert to_json(via_runner) == to_json(direct)
