"""Tests for the paper-claims table and its evaluator."""

import math

from repro.experiments import experiment_ids
from repro.experiments.claims import CLAIMS, main
from repro.experiments.fig2_bandwidth import Fig2Result
from repro.experiments.results import write_json


def _fig2_dir(path, iptables_at_64: float):
    """A directory holding one Figure 2 envelope shaped like the quick preset's."""
    path.mkdir()
    result = Fig2Result(
        series={
            "EFW": [(1, 94.8), (8, 94.8), (16, 84.7), (64, 47.5)],
            "ADF": [(1, 94.8), (8, 86.1), (16, 68.9), (64, 31.3)],
            "iptables": [(1, 94.8), (16, 94.8), (64, iptables_at_64)],
            "ADF (VPG)": [(2, 38.3), (8, 35.2)],
        }
    )
    write_json(result, str(path / "fig2.json"))
    return str(path)


def test_every_row_names_a_registered_experiment_and_parses():
    assert {claim.experiment for claim in CLAIMS} <= set(experiment_ids())
    assert {claim.verdict(math.nan) for claim in CLAIMS} <= {"deviation", "FAIL"}


def test_a_broken_row_is_flagged_and_fails_the_run(tmp_path, capsys):
    # The 16-rule knee row is a declared deviation: reported, not fatal.
    assert main([_fig2_dir(tmp_path / "healthy", iptables_at_64=94.8)]) == 0
    assert "deviation: fig2 / lowest of EFW/ADF at 16 rules" in capsys.readouterr().out

    assert main([_fig2_dir(tmp_path / "broken", iptables_at_64=60.0)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: fig2 / iptables at 64 rules (Mbps)"
    ]
    assert "not evaluated (no envelope): fig3a" in out
    assert main([str(tmp_path)]) == 2  # no envelope at all
