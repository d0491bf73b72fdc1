"""The benchmark scripts' shared A/B leg, gate table and summary merge.

``benchmarks/parallel_bench.py`` times everything through ``ab_leg``.
These tests swap its experiment runner for a stub that returns chosen
wall times and tables instantly, so the leg's bookkeeping — interleaving
order, the identical-table check, the budget maths and the reporting of
every failed gate — is checked without running a simulation.
"""

import importlib
import json
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("parallel_bench")


def _stub_runner(monkeypatch, bench, wall_of, table_of=lambda config: "table"):
    """Replace the runner; ``wall_of``/``table_of`` map a config to results."""
    calls = []

    def run(experiment_id, config):
        calls.append((experiment_id, config))
        return wall_of(config), table_of(config)

    monkeypatch.setattr(bench, "_timed_run", run)
    return calls


class TestAbLeg:
    def test_sides_interleave_round_by_round(self, bench, monkeypatch):
        calls = _stub_runner(monkeypatch, bench, lambda config: 1.0)
        sides = {label: (lambda label=label: label) for label in ("a", "b", "c")}
        bench.ab_leg("fig2", sides, runs=3)
        assert [config for _, config in calls] == ["a", "b", "c"] * 3
        assert {experiment_id for experiment_id, _ in calls} == {"fig2"}

    def test_each_side_keeps_its_best_run(self, bench, monkeypatch):
        walls = iter([5.0, 8.0, 4.0, 9.0, 6.0, 7.5])
        _stub_runner(monkeypatch, bench, lambda config: next(walls))
        sides = {"off": lambda: "off", "on": lambda: "on"}
        record, configs = bench.ab_leg("fig2", sides, runs=3)
        assert record["sides"] == {
            "off": {"wall_s": 4.0, "overhead_pct": 0.0},
            "on": {"wall_s": 7.5, "overhead_pct": 87.5},
        }
        assert record["runs"] == 3
        assert configs == {"off": "off", "on": "on"}

    def test_a_side_that_changes_the_table_is_rejected(self, bench, monkeypatch):
        _stub_runner(
            monkeypatch,
            bench,
            lambda config: 1.0,
            table_of=lambda config: "changed" if config == "on" else "table",
        )
        sides = {"off": lambda: "off", "on": lambda: "on"}
        with pytest.raises(AssertionError, match="'on' changed the rendered table"):
            bench.ab_leg("fig2", sides, runs=1)


def _leg(reference_s=None, scopes=None, priced=None, **walls):
    leg = {"sides": {side: {"wall_s": wall} for side, wall in walls.items()}}
    if reference_s is not None:
        leg["reference_s"] = reference_s
    if scopes is not None:
        leg["scopes_entered"] = scopes
    if priced is not None:
        leg["checks_run"], leg["check_s"], leg["check_reference_s"] = priced
    return leg


class _FakeClock:
    """Stands in for the ``time`` module: only :meth:`sleep` moves it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _run_checks(bench, count):
    """What a warn-mode run does to the (patched) monitor checks."""
    for _ in range(count):
        bench.InvariantMonitor.check(None)


class TestGates:
    @staticmethod
    def _legs(bench, trace_off, profile_off, profile_on, check_s):
        return {
            "trace": _leg(off=trace_off),
            "profile": _leg(
                bench.REFERENCE_NOMINAL_S, 1_000_000, off=profile_off, on=profile_on
            ),
            "invariants": _leg(
                priced=(1000, check_s, 1000 * bench.REFERENCE_NOMINAL_S), off=10.0, warn=10.0
            ),
        }

    def test_budget_maths(self, bench):
        budget_s = bench.PROFILE_SCOPE_BUDGET_NS * 1e-9 * 1_000_000
        legs = self._legs(
            bench,
            trace_off=bench.PRE_TRACE_BASELINE_S * 1.03,  # exactly at budget
            profile_off=bench.PRE_PROFILE_BASELINE_S * 1.031,  # just over
            profile_on=bench.PRE_PROFILE_BASELINE_S * 1.031 + budget_s,  # at budget
            check_s=bench.CHECK_BUDGET_NS * 1e-9 * 1000 * 1.1,  # 10% over
        )
        gates = {(g["leg"], g["side"]): g for g in bench.check_gates(legs)}
        assert gates[("trace", "off")]["value"] == 3.0
        assert gates[("trace", "off")]["unit"] == "%"
        assert gates[("trace", "off")]["passed"]
        assert gates[("profile", "off")]["value"] == 3.1
        assert not gates[("profile", "off")]["passed"]
        assert gates[("profile", "on")]["reference"] == "off"
        assert gates[("profile", "on")]["unit"] == "ns/scope"
        assert gates[("profile", "on")]["value"] == pytest.approx(bench.PROFILE_SCOPE_BUDGET_NS, abs=0.1)
        assert gates[("invariants", "warn")]["unit"] == "ns/check"
        assert gates[("invariants", "warn")]["value"] == pytest.approx(1.1 * bench.CHECK_BUDGET_NS, abs=0.1)
        assert not gates[("invariants", "warn")]["passed"]

    def test_scope_cost_is_rescaled_to_the_nominal_host_speed(self, bench):
        nominal = bench.REFERENCE_NOMINAL_S
        # 0.5 s over 1,000,000 scopes is 500 ns each on a nominal host;
        # a host twice as slow takes twice as long for the same work.
        fast = _leg(nominal, 1_000_000, off=5.0, on=5.5)
        slow = _leg(2 * nominal, 1_000_000, off=10.0, on=11.0)
        assert bench.scope_cost_ns(fast, "on", "off") == 500.0
        assert bench.scope_cost_ns(slow, "on", "off") == 500.0
        assert bench.scope_cost_ns(_leg(nominal, 0, off=5.0, on=5.5), "on", "off") is None

    @pytest.mark.parametrize("host_speed", [0.5, 1.0, 2.0])
    def test_a_profiler_whose_scopes_do_fixed_extra_work_fails(self, bench, monkeypatch, host_speed):
        # The stub runner plays a fig2 leg whose profiler enters 500,000
        # scopes, each doing 1.5x the budgeted work on top of a profiler
        # that costs half the budget; both sides and the reference scale
        # with the host's speed.  Only the slowed profiler fails.
        scopes = 500_000
        nominal_s = 1e-9 * bench.PROFILE_SCOPE_BUDGET_NS * scopes

        def legs_for(extra_budgets):
            on_s = 6.0 + nominal_s * (0.5 + extra_budgets)
            _stub_runner(monkeypatch, bench, lambda config: (on_s if config.probes else 6.0) / host_speed)
            monkeypatch.setattr(
                bench, "_reference_sample", lambda: bench.REFERENCE_NOMINAL_S / host_speed
            )
            sides, _summary = bench.OVERHEAD_LEGS["profile"]
            monkeypatch.setitem(
                bench.OVERHEAD_LEGS, "profile", (sides, lambda configs: {"scopes_entered": scopes})
            )
            return bench.overhead_legs(["profile"], runs=2)

        (plain,) = [g for g in bench.check_gates(legs_for(0.0)) if g["side"] == "on"]
        (slowed,) = [g for g in bench.check_gates(legs_for(1.5)) if g["side"] == "on"]
        assert plain["passed"]
        assert plain["value"] == pytest.approx(0.5 * bench.PROFILE_SCOPE_BUDGET_NS, rel=0.01)
        assert not slowed["passed"]
        assert slowed["value"] == pytest.approx(2.0 * bench.PROFILE_SCOPE_BUDGET_NS, rel=0.01)

    def test_check_cost_is_rescaled_to_the_nominal_host_speed(self, bench):
        nominal = bench.REFERENCE_NOMINAL_S
        # 0.05 s inside 1,000 checks is 50,000 ns each on a nominal host,
        # and on a host twice as slow, whose reference calls take twice
        # as long too.
        fast = _leg(priced=(1000, 0.05, 1000 * nominal), off=5.0, warn=5.0)
        slow = _leg(priced=(1000, 0.1, 2000 * nominal), off=10.0, warn=10.0)
        assert bench.check_cost_ns(fast) == 50_000.0
        assert bench.check_cost_ns(slow) == 50_000.0
        assert bench.check_cost_ns(_leg(off=5.0, warn=5.0)) is None

    def test_the_check_clock_times_each_check_and_its_reference(self, bench, monkeypatch):
        # Each fake records how long its sleep actually took, so the
        # bounds hold on a loaded host, where a 2 ms sleep may take 4.
        slept = {"check": [], "reference": [], "outside": []}

        def sleep(kind, seconds):
            start = time.perf_counter()
            time.sleep(seconds)
            slept[kind].append(time.perf_counter() - start)

        monkeypatch.setattr(bench.InvariantMonitor, "check", lambda monitor: sleep("check", 0.002))
        monkeypatch.setattr(bench, "reference_work", lambda: sleep("reference", 0.001))
        original = bench.InvariantMonitor.check
        with bench.CheckClock() as clock:
            sleep("outside", 0.01)  # outside every check: not counted
            _run_checks(bench, 3)
        assert bench.InvariantMonitor.check is original  # uninstalled
        assert clock.calls == 3
        # The clock adds only its own bookkeeping to the sleeps it times,
        # far less than half the sleep outside the checks.
        margin = slept["outside"][0] / 2
        checks, references = sum(slept["check"]), sum(slept["reference"])
        assert checks <= clock.seconds < checks + margin
        assert references <= clock.reference_s < references + margin

    @pytest.mark.parametrize("extra_s", [0.0, 0.002])
    def test_monitors_whose_checks_do_extra_work_fail(self, bench, monkeypatch, extra_s):
        # The stub runner plays a fig2 leg whose warn side runs five
        # checks per run, on a host where a reference call takes its
        # nominal time; only checks that do extra work fail the budget.
        # The clock is fake: real sleeps overshoot by varying amounts,
        # and a reference sleep that overshot more than the check's
        # priced the check below its 2 ms.
        clock = _FakeClock()
        monkeypatch.setattr(bench, "time", clock)
        monkeypatch.setattr(
            bench.InvariantMonitor, "check", lambda monitor: extra_s and clock.sleep(extra_s)
        )
        monkeypatch.setattr(bench, "reference_work", lambda: clock.sleep(bench.REFERENCE_NOMINAL_S))

        def wall_of(config):
            if config.probes:
                _run_checks(bench, 5)
            return 1.0

        _stub_runner(monkeypatch, bench, wall_of)
        legs = bench.overhead_legs(["invariants"], runs=2)
        # Only the extra priced run is timed: 5 checks, not the leg's 15.
        assert legs["invariants"]["checks_run"] == 5
        (gate,) = bench.check_gates(legs)
        assert gate["passed"] == (extra_s == 0.0), gate
        if extra_s:
            assert gate["value"] >= 1e9 * extra_s

    def test_a_profiler_that_entered_no_scope_fails(self, bench):
        legs = {"profile": _leg(bench.REFERENCE_NOMINAL_S, 0, off=6.0, on=6.0)}
        (gate,) = [g for g in bench.check_gates(legs) if g["side"] == "on"]
        assert gate["value"] is None and not gate["passed"]

    def test_only_gates_whose_leg_ran_are_checked(self, bench):
        legs = {"invariants": _leg(priced=(1, 0.0, 0.003), off=1.0, warn=1.0)}
        assert [g["leg"] for g in bench.check_gates(legs)] == ["invariants"]

    def test_every_failed_gate_is_reported(self, bench, monkeypatch, tmp_path, capsys):
        # Every instrumented side costs double, and the off sides are far
        # over their recorded baselines: all four gates fail (the stub's
        # profiler enters no scope and its monitors run no check, which
        # fails those two gates too).
        _stub_runner(monkeypatch, bench, lambda config: 200.0 if config.probes else 100.0)
        output = tmp_path / "summary.json"
        assert bench.main(["--gates", "-o", str(output)]) == 1
        err = capsys.readouterr().err
        assert err.count("FAIL:") == len(bench.GATES) == 4
        gates = json.loads(output.read_text())["gates"]
        assert [(g["leg"], g["side"], g["passed"]) for g in gates] == [
            ("trace", "off", False),
            ("profile", "off", False),
            ("profile", "on", False),
            ("invariants", "warn", False),
        ]

    def test_passing_gates_exit_zero(self, bench, monkeypatch, tmp_path):
        monkeypatch.setattr(bench.InvariantMonitor, "check", lambda monitor: None)

        def wall_of(config):
            _run_checks(bench, 5)
            return 1.0

        _stub_runner(monkeypatch, bench, wall_of)
        sides, _summary = bench.OVERHEAD_LEGS["profile"]
        monkeypatch.setitem(
            bench.OVERHEAD_LEGS, "profile", (sides, lambda configs: {"scopes_entered": 1000})
        )
        assert bench.main(["--gates", "-o", str(tmp_path / "summary.json")]) == 0


class TestSummaryMerge:
    def test_full_run_keeps_other_scripts_sections(self, bench, monkeypatch, tmp_path):
        output = tmp_path / "BENCH_parallel.json"
        fleet = {"gate": {"pass": True}}
        output.write_text(json.dumps({"fleet": fleet, "mitigation": {"smoke": True}}))
        _stub_runner(monkeypatch, bench, lambda *_: 1.0)
        assert bench.main(["fig3a", "-j", "2", "-o", str(output)]) == 0
        summary = json.loads(output.read_text())
        assert summary["fleet"] == fleet
        assert summary["mitigation"] == {"smoke": True}
        assert summary["experiments"]["fig3a"] == {
            "serial_s": 1.0,
            "parallel_s": 1.0,
            "speedup": 1.0,
        }

    def test_merge_sections_replaces_only_its_keys(self, bench, tmp_path):
        from summary import merge_sections

        path = tmp_path / "summary.json"
        merge_sections(str(path), {"a": 1, "b": 2})
        merge_sections(str(path), {"b": 3})
        assert json.loads(path.read_text()) == {"a": 1, "b": 3}
