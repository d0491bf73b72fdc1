"""Tests for the experiment modules (reduced grids so they stay fast).

The paper-shape checks live in :mod:`repro.experiments.claims`, which
evaluates them on the quick-preset envelopes; these tests check that
each experiment runs, renders and registers.
"""

import pytest

#: Full end-to-end regenerations; excluded from the default fast tier
#: (see [tool.pytest.ini_options] in pyproject.toml).
pytestmark = pytest.mark.slow

from repro.core.methodology import MeasurementSettings
from repro.experiments import Preset, RunConfig, experiment_ids, run_experiment
from repro.experiments import (
    ablations,
    fig2_bandwidth,
    fig3a_flood,
    fig3b_minflood,
    fleet_flood,
    table1_http,
)

TINY = MeasurementSettings(duration=0.3, http_duration=0.6)


def tiny(**grid) -> Preset:
    """A Preset over the TINY measurement windows with the given grid."""
    return Preset(name="tiny", settings=TINY, **grid)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for expected in ("fig2", "fig3a", "fig3b", "table1", "ablations"):
            assert expected in ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFig2:
    def test_reduced_run_series(self):
        result = fig2_bandwidth.run(RunConfig(preset=tiny(depths=(1, 64), vpg_counts=(1,))))
        assert set(result.series) == {"EFW", "ADF", "iptables", "ADF (VPG)"}

    def test_table_rendering(self):
        result = fig2_bandwidth.run(RunConfig(preset=tiny(depths=(1,), vpg_counts=(1,))))
        table = result.table()
        assert "Figure 2" in table
        assert "EFW" in table and "ADF (VPG)" in table


class TestFig3a:
    def test_table_rendering(self):
        result = fig3a_flood.run(RunConfig(preset=tiny(flood_rates=(0,), repetitions=1)))
        assert "Figure 3a" in result.table()


class TestFig3b:
    def test_reduced_run_reports_lockup_for_efw_deny(self):
        result = fig3b_minflood.run(RunConfig(preset=tiny(depths=(64,), probe_duration=0.3)))
        assert "LOCKUP" in result.table()


class TestTable1:
    def test_reduced_run_renders(self):
        result = table1_http.run(RunConfig(preset=tiny(depths=(1, 64), vpg_counts=(1,))))
        assert result.standard_nic.fetches_per_second > 0
        table = result.table()
        assert "HTTP Fetches/s" in table and "ms/connect" in table


class TestAblations:
    def test_lazy_decrypt_ablation_renders(self):
        result = ablations.lazy_decrypt(settings=TINY, vpg_counts=(1, 8))
        assert "Ablation" in result.table()

    def test_ring_size_ablation_runs(self):
        result = ablations.ring_size(settings=TINY, ring_sizes=(16, 256))
        assert len(result.outcomes) == 2


class TestFleet:
    def test_fleet_run_renders(self):
        result = fleet_flood.run(
            RunConfig(preset=tiny(fleet_sizes=(4,), flood_shares=(0.0, 0.5)))
        )
        assert "Fleet flood tolerance" in result.table()
