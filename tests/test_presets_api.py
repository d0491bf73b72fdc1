"""Tests for the shared Preset contract and the unified run API."""

import warnings

import pytest

from repro.core.methodology import MeasurementSettings
from repro.experiments import RunConfig, runner
from repro.experiments.presets import (
    FULL,
    QUICK,
    Preset,
    preset_for,
    resolve_preset,
)


class TestPreset:
    def test_full_defers_every_knob_to_module_defaults(self):
        assert FULL.name == "full"
        assert FULL.grid("depths", (1, 2)) == (1, 2)
        assert isinstance(FULL.measurement(), MeasurementSettings)

    def test_grid_prefers_the_preset_value(self):
        preset = Preset(name="tiny", depths=(4,))
        assert preset.grid("depths", (1, 2)) == (4,)
        assert preset.grid("vpg_counts", (1, 8)) == (1, 8)

    def test_measurement_returns_the_preset_settings(self):
        settings = MeasurementSettings(duration=0.25)
        assert Preset(name="t", settings=settings).measurement() is settings

    def test_presets_are_frozen(self):
        with pytest.raises(Exception):
            FULL.depths = (9,)

    def test_quick_grids_cover_every_registered_experiment(self):
        assert set(QUICK) == set(runner.experiment_ids())
        assert all(preset.name == "quick" for preset in QUICK.values())


class TestResolvePreset:
    def test_none_means_full(self):
        assert resolve_preset("fig2", None) is FULL

    def test_names_resolve_per_experiment(self):
        assert resolve_preset("fig2", "full") is FULL
        assert resolve_preset("fig3a", "quick") is QUICK["fig3a"]

    def test_preset_instances_pass_through(self):
        preset = Preset(name="custom")
        assert resolve_preset("fig2", preset) is preset

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            preset_for("fig2", "fast")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_preset("fig2", 3)


def _recording_entry(calls):
    def entry(config):
        calls.append(config)
        return "ran"

    return entry


class TestExperimentSpecRun:
    def test_run_resolves_the_preset_and_forwards_one_config(self):
        calls = []
        spec = runner.ExperimentSpec("fig3a", "t", _recording_entry(calls))
        sentinel_progress = lambda line: None  # noqa: E731
        sentinel_probes = (object(), object())
        sentinel_checkpoint = object()
        config = RunConfig(
            preset="quick", progress=sentinel_progress, jobs=3,
            probes=sentinel_probes,
            checkpoint=sentinel_checkpoint, retries=2, point_timeout=30.0,
            on_failure="record",
        )
        result = spec.run(config)
        assert result == "ran"
        [forwarded] = calls
        assert isinstance(forwarded, RunConfig)
        assert forwarded.preset is QUICK["fig3a"]
        assert forwarded.progress is sentinel_progress
        assert forwarded.jobs == 3
        assert forwarded.probes is sentinel_probes
        assert forwarded.checkpoint is sentinel_checkpoint
        assert forwarded.retries == 2
        assert forwarded.point_timeout == 30.0
        assert forwarded.on_failure == "record"

    def test_legacy_keywords_are_rejected(self):
        # The per-keyword run() form finished its deprecation cycle.
        calls = []
        spec = runner.ExperimentSpec("fig3a", "t", _recording_entry(calls))
        with pytest.raises(TypeError):
            spec.run(preset="quick")
        assert calls == []

    def test_run_accepts_legacy_keywords_with_a_warning(self, monkeypatch):
        # The name predates the end of the deprecation cycle: the keywords
        # are now a TypeError on run_experiment_result too, with no warning,
        # and the config= form forwards the same settings.
        calls = []
        spec = runner.ExperimentSpec("fig3a", "t", _recording_entry(calls))
        monkeypatch.setitem(runner.REGISTRY, "fig3a", spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(TypeError):
                runner.run_experiment_result("fig3a", preset="quick", jobs=3)
            assert calls == []
            runner.run_experiment_result(
                "fig3a", config=RunConfig(preset="quick", jobs=3)
            )
        [forwarded] = calls
        assert forwarded.preset is QUICK["fig3a"]
        assert forwarded.jobs == 3

    def test_run_defaults_to_full(self):
        calls = []
        runner.ExperimentSpec("fig2", "t", _recording_entry(calls)).run()
        assert calls[0].preset is FULL

    def test_deprecated_shims_are_gone(self):
        # run_full/run_quick were removed once every caller migrated to
        # run(preset=...); they must not silently reappear.
        spec = runner.ExperimentSpec("fig3a", "t", _recording_entry([]))
        assert not hasattr(spec, "run_full")
        assert not hasattr(spec, "run_quick")

    def test_registry_entries_use_module_run_functions(self):
        for experiment_id, spec in runner.REGISTRY.items():
            assert spec.experiment_id == experiment_id
            assert callable(spec.entry)


class TestRunExperimentResult:
    @pytest.fixture()
    def stub_registry(self, monkeypatch):
        calls = []
        spec = runner.ExperimentSpec("stub", "a stub", _recording_entry(calls))
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        return calls

    def test_quick_flag_selects_the_quick_preset(self, stub_registry):
        runner.run_experiment_result("stub", quick=True)
        assert stub_registry[0].preset.name == "quick"

    def test_explicit_preset_wins_over_quick(self, stub_registry):
        custom = Preset(name="custom", depths=(2,))
        runner.run_experiment_result(
            "stub", quick=True, config=RunConfig(preset=custom)
        )
        assert stub_registry[0].preset is custom

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            runner.run_experiment_result("nope")
