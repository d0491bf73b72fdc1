"""Tests for the chaos subsystem: faults, schedules, invariants, runtime."""

import pytest

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.chaos import (
    AgentCrash,
    ChaosInjector,
    ChaosSchedule,
    InvariantMonitor,
    InvariantViolationError,
    LinkFlap,
    PacketCorruption,
    PolicyServerOutage,
    SwitchPortFail,
    build_scenario,
    note_flood,
)
from repro.chaos.runtime import ChaosCollector, ChaosConfig
from repro.chaos.faults import resolve_station
from repro.core import probe
from repro.core.fleet import FleetSpec, FleetTestbed
from repro.core.methodology import MeasurementSettings
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all
from repro.policy.audit import AuditEventKind


@pytest.fixture(autouse=True)
def _no_leaked_activation():
    """Every test starts and ends with no probe session open."""
    if probe.active():
        probe.finish(ok=False)
    yield
    if probe.active():
        probe.finish(ok=False)


def _efw_bed(seed=1, defended=False):
    bed = Testbed(device=DeviceKind.EFW, seed=seed, efw_lockup_enabled=False)
    bed.install_target_policy(allow_all())
    if defended:
        bed.enable_defense()
    return bed


# ---------------------------------------------------------------------------
# Fault units
# ---------------------------------------------------------------------------


class TestFaults:
    def test_link_flap_down_blackholes_then_restores(self):
        bed = _efw_bed()
        fault = LinkFlap(station="client", mode="down")
        link = bed.topology.link_for("client")
        fault.inject(bed)
        assert link.impairment is not None and link.impairment.down
        before = bed.target.nic.frames_received
        flood = FloodGenerator(bed.client, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
        flood.start(bed.target.ip, 2000)
        bed.run(0.05)
        assert bed.target.nic.frames_received == before
        fault.clear(bed)
        assert link.impairment is None
        bed.run(0.05)
        assert bed.target.nic.frames_received > before
        flood.stop()

    def test_link_flap_loss_and_latency_modes(self):
        bed = _efw_bed()
        link = bed.topology.link_for("client")
        lossy = LinkFlap(station="client", mode="loss", loss_rate=0.5)
        lossy.inject(bed)
        assert link.impairment.loss_rate == 0.5
        lossy.clear(bed)
        slow = LinkFlap(station="client", mode="latency", extra_delay=0.004)
        slow.inject(bed)
        assert link.impairment.extra_delay == 0.004
        slow.clear(bed)
        assert link.impairment is None
        with pytest.raises(ValueError):
            LinkFlap(mode="sideways")

    def test_switch_port_fail_on_star_topology(self):
        bed = _efw_bed()
        fault = SwitchPortFail(station="client")
        fault.inject(bed)
        assert bed.topology.station_port_failed("client")
        fault.clear(bed)
        assert not bed.topology.station_port_failed("client")

    def test_switch_port_fail_on_fleet_fabric_via_alias(self):
        fleet = FleetTestbed(FleetSpec(targets=1, attackers=1), seed=3)
        assert resolve_station(fleet, "client") == "c000"
        fault = SwitchPortFail(station="client")
        fault.inject(fleet)
        assert fleet.topology.station_port_failed("c000")
        fault.clear(fleet)
        assert not fleet.topology.station_port_failed("c000")

    def test_unknown_station_is_rejected(self):
        bed = _efw_bed()
        with pytest.raises(ValueError):
            LinkFlap(station="nonesuch").inject(bed)

    def test_corruption_exercises_the_checksum_drop_path(self):
        bed = _efw_bed()
        fault = PacketCorruption(station="target")
        fault.inject(bed)
        flood = FloodGenerator(bed.client, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
        flood.start(bed.target.ip, 5000)
        bed.run(0.05)
        flood.stop()
        fault.clear(bed)
        assert bed.target.nic.checksum_drops > 0

    def test_policy_outage_blocks_pushes_until_cleared(self):
        bed = _efw_bed()
        fault = PolicyServerOutage()
        fault.inject(bed)
        outcome = bed.policy_server.push_policy(
            "target", inline=False, retries=20, ack_timeout=0.03
        )
        bed.run(0.12)
        assert outcome.status == "pending"
        assert outcome.attempts > 1
        fault.clear(bed)
        bed.run(0.3)
        assert outcome.status == "acked"

    def test_agent_crash_fails_pushes_until_restarted(self):
        bed = _efw_bed()
        server = bed.policy_server
        AgentCrash(station="target").inject(bed)
        assert server.agent_crashed("target")
        outcome = server.push_policy("target", inline=True)
        assert outcome.failed
        events = server.audit.events(AuditEventKind.PUSH_FAILED, "target")
        assert events[-1].details["reason"] == "agent-crashed"
        server.restart_agent("target")
        assert not server.agent_crashed("target")
        assert bed.target.nic.policy is not None

    def test_defense_restart_sweep_revives_a_crashed_agent(self):
        bed = _efw_bed(defended=True)
        AgentCrash(station="target").inject(bed)
        bed.defense._restart_if_wedged("target")
        assert not bed.policy_server.agent_crashed("target")
        assert bed.defense.agent_restarts == 1


# ---------------------------------------------------------------------------
# Schedules and the injector
# ---------------------------------------------------------------------------


class TestInjector:
    def test_schedule_rejects_non_faults(self):
        with pytest.raises(TypeError):
            ChaosSchedule(name="bad", faults=("not a fault",))

    def test_build_scenario_names(self):
        assert build_scenario("none").faults == ()
        compound = build_scenario("compound", start=0.02, duration=0.05)
        assert [fault.kind for fault in compound.faults] == [
            "link-flap",
            "policy-outage",
        ]
        with pytest.raises(ValueError):
            build_scenario("nonesuch")

    def test_injector_fires_clears_and_audits(self):
        bed = _efw_bed()
        injector = ChaosInjector(bed, build_scenario("link-flap", start=0.02, duration=0.05))
        injector.arm()
        bed.run(0.04)
        assert not injector.quiescent
        assert bed.topology.link_for("client").impairment is not None
        bed.run(0.06)
        assert injector.quiescent
        assert (injector.injected, injector.cleared) == (1, 1)
        assert [(t.action, t.kind) for t in injector.log] == [
            ("inject", "link-flap"),
            ("clear", "link-flap"),
        ]
        audit = bed.policy_server.audit
        injected = audit.events(AuditEventKind.CHAOS_FAULT_INJECTED, "client")
        cleared = audit.events(AuditEventKind.CHAOS_FAULT_CLEARED, "client")
        assert len(injected) == 1 and injected[0].details["fault"] == "link-flap"
        assert len(cleared) == 1
        assert injector.last_cleared_at == pytest.approx(0.07)

    def test_disarm_clears_active_faults(self):
        bed = _efw_bed()
        injector = ChaosInjector(bed, build_scenario("link-flap", start=0.0, duration=5.0))
        injector.arm()
        bed.run(0.02)
        assert not injector.quiescent
        injector.disarm()
        assert injector.quiescent
        assert bed.topology.link_for("client").impairment is None

    def test_double_arm_raises(self):
        bed = _efw_bed()
        injector = ChaosInjector(bed, build_scenario("none"))
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()


# ---------------------------------------------------------------------------
# Invariant monitors
# ---------------------------------------------------------------------------


class TestInvariants:
    def test_clean_defended_flood_run_has_no_violations(self):
        bed = _efw_bed(defended=True)
        monitor = InvariantMonitor(bed, mode="warn")
        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=7777)
        )
        flood.start(bed.target.ip, 20000)
        bed.run(0.6)
        flood.stop()
        violations = monitor.finalize()
        assert violations == []
        assert monitor.checks_run > 5

    def test_seeded_counter_corruption_is_caught(self):
        bed = _efw_bed()
        monitor = InvariantMonitor(bed, mode="warn", check_interval=0.02)
        bed.target.nic.packets_delivered += 1000
        bed.run(0.05)
        violations = monitor.finalize()
        assert violations
        assert violations[0].invariant == "packet-conservation"
        assert violations[0].subject == bed.target.nic.name

    def test_fail_fast_raises_out_of_the_run(self):
        bed = _efw_bed()
        monitor = InvariantMonitor(bed, mode="fail-fast", check_interval=0.02)
        bed.target.nic.packets_delivered += 1000
        with pytest.raises(InvariantViolationError) as excinfo:
            bed.run(0.05)
        assert excinfo.value.violation.invariant == "packet-conservation"
        monitor.finalize(strict=False)

    def test_acked_but_uninstalled_policy_violates_convergence(self):
        bed = _efw_bed()  # install_target_policy acked the inline push
        monitor = InvariantMonitor(bed, mode="warn", check_interval=0.02)
        bed.target.nic.clear_policy()
        bed.run(0.05)
        violations = monitor.finalize()
        assert any(v.invariant == "policy-convergence" for v in violations)

    def test_active_fault_suspends_convergence(self):
        bed = _efw_bed()
        injector = ChaosInjector(bed, build_scenario("link-flap", start=0.0, duration=5.0))
        injector.arm()
        monitor = InvariantMonitor(bed, mode="fail-fast", check_interval=0.02)
        bed.target.nic.clear_policy()
        bed.run(0.05)  # does not raise: the fault window suspends the check
        injector.disarm()
        monitor.finalize(strict=False)

    def test_undetected_sustained_flood_violates_liveness(self):
        bed = _efw_bed(defended=True)
        # Lobotomise the detector so the flood can never be noticed.
        bed.defense.detector._timer.stop()
        monitor = InvariantMonitor(bed, mode="warn", liveness_window=0.2)
        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=7777)
        )
        flood.start(bed.target.ip, 30000)
        bed.run(0.6)
        flood.stop()
        violations = monitor.finalize()
        assert any(v.invariant == "defense-liveness" for v in violations)
        # Settled: the violation files once, not once per tick.
        assert sum(1 for v in violations if v.invariant == "defense-liveness") == 1

    def test_note_flood_without_monitors_is_a_noop(self):
        bed = _efw_bed()
        note_flood(bed.sim, "target", 1000.0)  # must not raise

    def test_invalid_mode_rejected(self):
        bed = _efw_bed()
        with pytest.raises(ValueError):
            InvariantMonitor(bed, mode="explode")


# ---------------------------------------------------------------------------
# Runtime activation (the sweep-worker surface)
# ---------------------------------------------------------------------------


class TestRuntime:
    def test_activation_arms_every_new_testbed(self):
        probe.start({"chaos": ChaosConfig(scenario="link-flap", invariants="warn")})
        bed = _efw_bed()
        assert bed.chaos is not None
        assert bed.invariant_monitor is not None
        bed.run(0.3)
        [snapshot] = probe.finish()["chaos"]
        assert (snapshot.faults_injected, snapshot.faults_cleared) == (1, 1)
        assert snapshot.clean
        assert snapshot.scenario == "link-flap"

    def test_double_activation_raises(self):
        probe.start({"chaos": ChaosConfig(invariants="warn")})
        with pytest.raises(RuntimeError):
            probe.start({"chaos": ChaosConfig(invariants="warn")})

    def test_unknown_scenario_and_mode_rejected(self):
        with pytest.raises(ValueError):
            ChaosCollector(scenario="nonesuch")
        with pytest.raises(ValueError):
            ChaosCollector(invariants="nonesuch")
        assert not probe.active()

    def test_inactive_attach_is_a_noop(self):
        bed = _efw_bed()
        assert getattr(bed, "chaos", None) is None
        assert getattr(bed, "invariant_monitor", None) is None

    def test_deactivate_without_window_returns_none(self):
        assert probe.finish() == {}

    def test_fail_fast_violation_in_finish_tears_down_every_probe(self):
        from repro.obs.collect import MetricsConfig
        from repro.obs.profiling import core as profiling_core
        from repro.obs.profiling.collect import ProfileConfig

        probe.start(
            {
                "profile": ProfileConfig(),
                "metrics": MetricsConfig(),
                "chaos": ChaosConfig(invariants="fail-fast"),
            }
        )
        bed = _efw_bed()
        bed.run(0.05)
        # Break conservation behind the periodic check's back: only the
        # final check in finish() can see it.
        bed.invariant_monitor._timer.stop()
        bed.target.nic.packets_delivered = bed.target.nic.frames_received + 10
        with pytest.raises(InvariantViolationError):
            probe.finish()
        assert not probe.active()
        assert profiling_core.ACTIVE is None
        # The process is reusable: a fresh session opens and closes cleanly.
        probe.start({"chaos": ChaosConfig(invariants="fail-fast")})
        _efw_bed().run(0.05)
        assert probe.finish()["chaos"][0].clean


def _probe_point(seed):
    """A picklable sweep point: flood an EFW bed, return its counters."""
    bed = Testbed(device=DeviceKind.EFW, seed=seed, efw_lockup_enabled=False)
    bed.install_target_policy(allow_all())
    flood = FloodGenerator(bed.client, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
    flood.start(bed.target.ip, 3000)
    bed.run(0.2)
    flood.stop()
    nic = bed.target.nic
    return (nic.frames_received, nic.packets_delivered, nic.rx_allowed)


def _violating_at_finish_point():
    """Break packet conservation where only the final check sees it."""
    bed = _efw_bed()
    bed.run(0.05)
    bed.invariant_monitor._timer.stop()
    bed.target.nic.packets_delivered = bed.target.nic.frames_received + 10
    return "ran"


class TestExecutorWiring:
    def _specs(self):
        return [
            SweepPointSpec(label=f"probe {seed}", fn=_probe_point, kwargs={"seed": seed})
            for seed in (1, 2)
        ]

    def test_invariants_leave_results_identical(self):
        plain = SweepExecutor(jobs=1).run(self._specs())
        watched = SweepExecutor(
            jobs=1, probes=(ChaosCollector(invariants="warn"),)
        ).run(self._specs())
        assert watched == plain

    def test_chaos_scenario_actually_perturbs_the_sweep(self):
        plain = SweepExecutor(jobs=1).run(self._specs())
        flapped = SweepExecutor(
            jobs=1, probes=(ChaosCollector(scenario="link-flap"),)
        ).run(self._specs())
        # The client link goes down mid-flood: fewer frames arrive.
        assert flapped[0][0] < plain[0][0]

    def test_worker_deactivates_between_points(self):
        collector = ChaosCollector(scenario="link-flap", invariants="warn")
        SweepExecutor(jobs=1, probes=(collector,)).run(self._specs())
        assert not probe.active()
        # Every point's snapshot is kept, in spec order.
        assert [point.label for point in collector.points] == ["probe 1", "probe 2"]
        assert [len(point.snapshots) for point in collector.points] == [1, 1]
        assert collector.snapshots()[0].faults_injected == 1

    def test_fail_fast_in_finish_leaves_pooled_workers_reusable(self):
        specs = [SweepPointSpec(label="broken", fn=_violating_at_finish_point)] + [
            SweepPointSpec(label=f"probe {seed}", fn=_probe_point, kwargs={"seed": seed})
            for seed in (1, 2, 3)
        ]
        collector = ChaosCollector(invariants="fail-fast")
        executor = SweepExecutor(jobs=2, probes=(collector,), on_failure="record")
        results = executor.run(specs)
        assert results[0].kind == "error"
        assert "InvariantViolationError" in results[0].error
        assert results[1:] == SweepExecutor(jobs=1).run(specs[1:])
        assert executor.stats.worker_deaths == 0
        assert [len(point.snapshots) for point in collector.points] == [0, 1, 1, 1]


# ---------------------------------------------------------------------------
# The chaos experiment
# ---------------------------------------------------------------------------


def _mini_preset(scenarios=("none", "compound"), duration=0.1, slices=3):
    from repro.experiments.presets import Preset

    return Preset(
        name="quick",
        settings=MeasurementSettings(duration=duration),
        chaos_scenarios=scenarios,
        recovery_slices=slices,
    )


@pytest.fixture(scope="module")
def mini_grid():
    """One serial run of the trimmed chaos grid, shared across tests."""
    from repro.experiments import chaos_faults
    from repro.experiments.config import RunConfig

    return chaos_faults.run(RunConfig(preset=_mini_preset(), jobs=1))


class TestChaosExperiment:
    def test_compound_faults_measurably_degrade_the_defended_run(self, mini_grid):
        clean = mini_grid.point_for("none", "efw", defended=True)
        compound = mini_grid.point_for("compound", "efw", defended=True)
        # The faulted window is measurably worse than the clean flood...
        assert compound.faulted_mbps < 0.5 * clean.faulted_mbps
        # ...yet the defense still converges once the faults clear.
        assert compound.goodput_retention >= 0.8
        assert compound.time_to_recover is not None
        assert compound.faults_injected == 2
        assert compound.faults_cleared == 2

    def test_outage_scenarios_record_the_repush_backoff_chain(self, mini_grid):
        compound = mini_grid.point_for("compound", "efw", defended=False)
        # The chain was exercised: waits were armed and a status recorded
        # ("pending" is legitimate — a wedged card never acks).
        assert compound.outage_push_status in ("acked", "failed", "pending")
        assert compound.outage_push_backoff_s
        assert compound.outage_push_backoff_s == sorted(compound.outage_push_backoff_s)
        clean = mini_grid.point_for("none", "efw", defended=False)
        assert clean.outage_push_status is None

    def test_undefended_efw_stays_locked_up(self, mini_grid):
        undefended = mini_grid.point_for("none", "efw", defended=False)
        assert undefended.goodput_retention == 0.0
        assert undefended.wedged_at_end

    def test_results_identical_for_any_jobs_value(self, mini_grid):
        from repro.experiments import chaos_faults, results
        from repro.experiments.config import RunConfig

        parallel = chaos_faults.run(RunConfig(preset=_mini_preset(), jobs=2))
        assert results.to_json(parallel) == results.to_json(mini_grid)

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        from repro.experiments import chaos_faults, results
        from repro.experiments.config import RunConfig

        preset = _mini_preset(scenarios=("compound",), duration=0.08, slices=2)
        path = str(tmp_path / "chaos.ckpt")
        first = chaos_faults.run(RunConfig(preset=preset, jobs=1, checkpoint=path))
        resumed = chaos_faults.run(RunConfig(preset=preset, jobs=1, checkpoint=path))
        assert results.to_json(resumed) == results.to_json(first)

    def test_collector_counts_the_points_own_faults(self):
        from repro.experiments.chaos_faults import _chaos_point

        spec = SweepPointSpec(
            label="chaos: link-flap efw",
            fn=_chaos_point,
            kwargs={
                "scenario": "link-flap",
                "device": DeviceKind.EFW,
                "defended": False,
                "settings": MeasurementSettings(duration=0.08),
                "recovery_slices": 2,
            },
        )
        collector = ChaosCollector(invariants="warn")
        [point] = SweepExecutor(jobs=1, probes=(collector,)).run([spec])
        [snapshot] = collector.snapshots()
        assert point.faults_injected == point.faults_cleared == 1
        assert snapshot.faults_injected == point.faults_injected
        assert snapshot.faults_cleared == point.faults_cleared
        assert "faults injected=1 cleared=1" in collector.summary()

    def test_quick_preset_passes_fail_fast_invariants(self):
        from repro.experiments import chaos_faults
        from repro.experiments.config import RunConfig

        preset = _mini_preset(scenarios=("link-flap",), duration=0.08, slices=2)
        result = chaos_faults.run(
            RunConfig(
                preset=preset, jobs=1, probes=(ChaosCollector(invariants="fail-fast"),)
            )
        )
        assert len(result.points) == 4
        assert not probe.active()


def _violating_point():
    """A point whose target NIC claims more deliveries than arrivals."""
    bed = _efw_bed()
    bed.run(0.05)
    bed.target.nic.packets_delivered = bed.target.nic.frames_received + 10
    bed.run(0.1)
    return "ran"


def _violating_entry(config):
    config.executor().run([SweepPointSpec(label="p", fn=_violating_point)])
    return "STUB-OUTPUT"


class TestCliFlags:
    def test_warn_violations_and_fault_counts_reach_stderr(self, monkeypatch, capsys):
        from repro.experiments import __main__ as cli
        from repro.experiments import runner

        spec = runner.ExperimentSpec("stub", "a stub", _violating_entry)
        monkeypatch.setattr(runner, "REGISTRY", {"stub": spec})
        monkeypatch.setattr(cli, "run_experiment_result", runner.run_experiment_result)
        monkeypatch.setattr(cli, "experiment_ids", runner.experiment_ids)
        argv = ["stub", "--no-progress", "--jobs", "1", "--invariants", "warn"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert "STUB-OUTPUT" in captured.out
        assert "chaos: scenario=- invariants=warn faults injected=0 cleared=0" in captured.err
        violations = [line for line in captured.err.splitlines() if "!!" in line]
        assert violations
        assert all("target" in line for line in violations)
        assert "chaos:" not in captured.out

    def test_unknown_chaos_scenario_rejected_at_parse_time(self, capsys):
        from repro.experiments import __main__ as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["chaos", "--chaos", "nonesuch"])
        assert excinfo.value.code == 2

    def test_preset_conflicting_with_quick_rejected(self, capsys):
        from repro.experiments import __main__ as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig2", "--quick", "--preset", "full"])
        assert excinfo.value.code == 2
