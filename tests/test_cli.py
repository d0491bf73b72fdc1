"""Tests for the ``python -m repro.experiments`` command-line interface."""

import pytest

#: Full end-to-end regenerations; excluded from the default fast tier
#: (see [tool.pytest.ini_options] in pyproject.toml).
pytestmark = pytest.mark.slow

from repro.experiments import __main__ as cli
from repro.experiments import runner


def _stub_entry(output="FULL-OUTPUT", quick_output="QUICK-OUTPUT"):
    """An ExperimentSpec entry following the RunConfig contract."""

    def entry(config):
        quick = config.preset is not None and config.preset.name == "quick"
        return quick_output if quick else output

    return entry


def _recording_run(seen):
    """A run_experiment_result stand-in that records its RunConfig."""

    def fake_run(experiment_id, quick=False, config=None, **legacy):
        seen.append((experiment_id, config))
        return "output"

    return fake_run


class TestCli:
    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            runner.run_experiment("nonsense")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "fig2" in capsys.readouterr().out

    def test_single_experiment_via_stubbed_registry(self, monkeypatch, capsys):
        spec = runner.ExperimentSpec("stub", "a stub", _stub_entry())
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        monkeypatch.setattr(cli, "run_experiment_result", runner.run_experiment_result)
        monkeypatch.setattr(cli, "experiment_ids", runner.experiment_ids)
        assert cli.main(["stub", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "FULL-OUTPUT" in out

    def test_quick_flag_selects_quick_runner(self, monkeypatch, capsys):
        spec = runner.ExperimentSpec("stub", "a stub", _stub_entry())
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        monkeypatch.setattr(cli, "run_experiment_result", runner.run_experiment_result)
        monkeypatch.setattr(cli, "experiment_ids", runner.experiment_ids)
        assert cli.main(["stub", "--quick", "--no-progress"]) == 0
        assert "QUICK-OUTPUT" in capsys.readouterr().out

    def test_all_expands_to_every_experiment(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_experiment_result", _recording_run(seen))
        assert cli.main(["all", "--no-progress"]) == 0
        assert [experiment_id for experiment_id, _ in seen] == runner.experiment_ids()

    def test_progress_goes_to_stderr(self, monkeypatch, capsys):
        def fake_run(experiment_id, quick=False, config=None, **legacy):
            if config.progress is not None:
                config.progress("step one")
            return "output"

        monkeypatch.setattr(cli, "run_experiment_result", fake_run)
        monkeypatch.setattr(cli, "experiment_ids", lambda: ["stub"])
        cli.main(["stub"])
        captured = capsys.readouterr()
        assert "step one" in captured.err
        assert "step one" not in captured.out

    def test_registry_titles_are_unique_and_nonempty(self):
        titles = [spec.title for spec in runner.REGISTRY.values()]
        assert all(titles)
        assert len(set(titles)) == len(titles)

    def test_json_flag_archives_results(self, monkeypatch, capsys, tmp_path):
        import dataclasses
        import json

        @dataclasses.dataclass
        class StubResult:
            value: int = 7

            def table(self):
                return "STUB-TABLE"

        spec = runner.ExperimentSpec("stub", "a stub", lambda config: StubResult())
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        monkeypatch.setattr(cli, "run_experiment_result", runner.run_experiment_result)
        monkeypatch.setattr(cli, "experiment_ids", runner.experiment_ids)
        out_dir = tmp_path / "results"
        assert cli.main(["stub", "--no-progress", "--json", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "STUB-TABLE" in captured.out
        payload = json.loads((out_dir / "stub.json").read_text())
        assert payload == {
            "schema_version": 1,
            "result": {"_type": "StubResult", "value": 7},
        }

    def test_render_result_handles_lists_and_strings(self):
        class WithTable:
            def table(self):
                return "T"

        assert runner.render_result("plain") == "plain"
        assert runner.render_result([WithTable(), WithTable()]) == "T\n\nT"

    def test_jobs_flag_reaches_runner(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_experiment_result", _recording_run(seen))
        monkeypatch.setattr(cli, "experiment_ids", lambda: ["stub"])
        assert cli.main(["stub", "--no-progress", "--jobs", "3"]) == 0
        assert seen[0][1].jobs == 3

    def test_jobs_defaults_from_env_var(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_experiment_result", _recording_run(seen))
        monkeypatch.setattr(cli, "experiment_ids", lambda: ["stub"])
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert cli.main(["stub", "--no-progress"]) == 0
        assert seen[0][1].jobs == 5

    def test_no_compiled_matcher_flag_is_gone(self, monkeypatch, capsys):
        # The compiled classifier is the only runtime matcher; there is no
        # switch back to the linear walk.
        monkeypatch.setattr(cli, "run_experiment_result", lambda *a, **k: "output")
        monkeypatch.setattr(cli, "experiment_ids", lambda: ["stub"])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["stub", "--no-progress", "--no-compiled-matcher"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-compiled-matcher" in capsys.readouterr().err

    def test_metrics_flag_writes_series_files(self, monkeypatch, capsys, tmp_path):
        import json

        spec = runner.ExperimentSpec("stub", "a stub", _stub_entry())
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        monkeypatch.setattr(cli, "run_experiment_result", runner.run_experiment_result)
        monkeypatch.setattr(cli, "experiment_ids", runner.experiment_ids)
        out_dir = tmp_path / "metrics"
        assert cli.main(["stub", "--no-progress", "--metrics", str(out_dir)]) == 0
        payload = json.loads((out_dir / "stub_metrics.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["result"]["_type"] == "ExperimentMetrics"
        assert (out_dir / "stub_metrics.csv").read_text().startswith("point,run,")


def _profiled_sweep_entry(config):
    """A stub entry that actually sweeps, so profiles have content."""
    from repro.core.parallel import SweepPointSpec

    executor = config.executor()
    executor.run([SweepPointSpec(label="p", fn=_profiled_point, kwargs={})])
    return "PROFILED-OUTPUT"


def _cli_tick():
    pass


def _profiled_point() -> bool:
    from repro.core import probe
    from repro.obs.profiling import NULL_PROFILER
    from repro.sim.engine import Simulator

    sim = Simulator()
    probe.attach_simulator(sim)
    sim.schedule(0.01, _cli_tick)
    sim.run(until=0.02)
    return sim.profiler is not NULL_PROFILER


class TestProfileFlag:
    def _patch_stub(self, monkeypatch, entry):
        spec = runner.ExperimentSpec("stub", "a stub", entry)
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        monkeypatch.setattr(cli, "run_experiment_result", runner.run_experiment_result)
        monkeypatch.setattr(cli, "experiment_ids", runner.experiment_ids)

    def test_profile_flag_writes_profile_files(self, monkeypatch, capsys, tmp_path):
        import json

        self._patch_stub(monkeypatch, _profiled_sweep_entry)
        out_dir = tmp_path / "profiles"
        assert (
            cli.main(
                ["stub", "--no-progress", "--jobs", "1", "--profile", str(out_dir)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "PROFILED-OUTPUT" in captured.out
        # The hotspot table lands on stderr, not in the table stream.
        assert "Hotspots" in captured.err
        assert "Hotspots" not in captured.out
        payload = json.loads((out_dir / "stub_profile.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["result"]["_type"] == "ExperimentProfile"
        assert payload["result"]["points"][0]["label"] == "p"
        collapsed = (out_dir / "stub_profile.collapsed").read_text()
        assert collapsed.startswith("sim.run ")

    def test_profile_top_limits_the_table(self, monkeypatch, capsys, tmp_path):
        self._patch_stub(monkeypatch, _profiled_sweep_entry)
        out_dir = tmp_path / "profiles"
        assert (
            cli.main(
                [
                    "stub",
                    "--no-progress",
                    "--jobs",
                    "1",
                    "--profile",
                    str(out_dir),
                    "--profile-top",
                    "1",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "more component(s)" in err

    def test_profile_top_validated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["stub", "--profile-top", "0"])
        assert excinfo.value.code == 2
        assert "--profile-top" in capsys.readouterr().err

    def test_without_the_flag_no_profiling_happens(self, monkeypatch, capsys, tmp_path):
        self._patch_stub(monkeypatch, _profiled_sweep_entry)
        assert cli.main(["stub", "--no-progress", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "Hotspots" not in captured.err
        assert list(tmp_path.iterdir()) == []
