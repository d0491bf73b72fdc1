"""Chaos — compound-fault resilience: recovery time and goodput retention.

The mitigation experiment measures how the closed defense loop recovers
from a *clean* flood.  Real outages are rarely that polite: links flap,
switch ports die, the policy server itself drops off the network while
the flood is running.  This experiment injects the named fault
scenarios from :mod:`repro.chaos.schedule` *during* the Figure 3a-style
deny flood and quantifies what the faults cost:

* **time-to-recover** — virtual seconds from the moment the last fault
  clears until client goodput is back above 80 % of the pre-flood
  baseline (``None`` if it never recovers within the measured slices),
* **goodput retention** — the final recovery slice as a fraction of
  baseline.

The grid is ``scenarios x {EFW, ADF} x {defense off, on}``.  The
``"none"`` scenario is the clean-flood control: comparing ``compound``
(client link flap + policy-server outage, both spanning the flood's
first window) against ``none`` on the same device isolates the cost of
the faults themselves.  During policy-server outages the point also
issues a mid-outage networked re-push with jittered exponential backoff
(:class:`~repro.policy.push.PushBackoff`), exercising the retry chain
against a black-holed server and recording the resulting partial
outcome.

Faults are injected through a per-point
:class:`~repro.chaos.schedule.ChaosInjector`, so every transition lands
in the policy server's audit trail; run with ``--invariants fail-fast``
to assert the cross-layer invariant suite on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.iperf import IperfServer
from repro.chaos.schedule import ChaosInjector, armed_injectors, build_scenario
from repro.core.methodology import MeasurementSettings
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.core.testbed import DeviceKind, Testbed
from repro.defense import DefenseConfig
from repro.experiments.config import RunConfig
from repro.experiments.mitigation import (
    DEFAULT_FLOOD_RATE_PPS,
    DEFAULT_RULESET_DEPTH,
    DEFENDED_DEVICES,
    MITIGATION_SETTLE,
    _goodput_window,
    actions_for_mode,
)
from repro.policy.push import PushBackoff

#: Fault scenarios swept by default (the full grid).
DEFAULT_SCENARIOS = (
    "none",
    "link-flap",
    "port-fail",
    "corruption",
    "policy-outage",
    "agent-crash",
    "compound",
)

#: Post-settle goodput windows measured per point.
DEFAULT_RECOVERY_SLICES = 6

#: Goodput fraction of baseline that counts as "recovered".
RECOVERY_THRESHOLD = 0.8

#: Faults start this long after the flood does.
FAULT_START_OFFSET = 0.01

#: Mid-outage re-push retry chain (exercised by the outage scenarios).
OUTAGE_PUSH_RETRIES = 6
OUTAGE_PUSH_BACKOFF = PushBackoff(base=0.02, multiplier=2.0, jitter=0.1, max_elapsed=2.0)


@dataclass
class ChaosPoint:
    """One (scenario, device, defended) run."""

    scenario: str
    device: str
    defended: bool
    baseline_mbps: float
    faulted_mbps: float
    recovery_mbps: float
    goodput_retention: float
    time_to_recover: Optional[float] = None
    recovery_slices_mbps: List[float] = field(default_factory=list)
    faults_injected: int = 0
    faults_cleared: int = 0
    detections: int = 0
    agent_restarts: int = 0
    pushes_acked: int = 0
    pushes_failed: int = 0
    #: Mid-outage re-push outcome ("acked"/"failed"/"pending"), outage
    #: scenarios only.
    outage_push_status: Optional[str] = None
    #: The re-push's armed resend waits (the jittered backoff chain).
    outage_push_backoff_s: List[float] = field(default_factory=list)
    wedged_at_end: bool = False


def _fmt_seconds(value: Optional[float]) -> str:
    return f"{value * 1e3:.1f}" if value is not None else "-"


@dataclass
class ChaosResult:
    """The full scenario grid."""

    points: List[ChaosPoint] = field(default_factory=list)

    def point_for(
        self, scenario: str, device: str, defended: bool
    ) -> Optional[ChaosPoint]:
        for point in self.points:
            if (
                point.scenario == scenario
                and point.device == device
                and point.defended == defended
            ):
                return point
        return None

    def table(self) -> str:
        rows = [
            [
                point.scenario,
                point.device,
                "on" if point.defended else "off",
                f"{point.baseline_mbps:.1f}",
                f"{point.faulted_mbps:.1f}",
                f"{point.recovery_mbps:.1f}",
                f"{point.goodput_retention:.2f}",
                _fmt_seconds(point.time_to_recover),
                point.faults_injected,
                point.agent_restarts,
            ]
            for point in self.points
        ]
        return format_table(
            [
                "scenario",
                "device",
                "defense",
                "baseline (Mbps)",
                "faulted (Mbps)",
                "recovery (Mbps)",
                "retained",
                "recover (ms)",
                "faults",
                "restarts",
            ],
            rows,
            title="Chaos: recovery under compound faults during a deny flood",
        )


def _chaos_point(
    scenario: str,
    device: DeviceKind,
    defended: bool,
    settings: MeasurementSettings,
    recovery_slices: int,
) -> ChaosPoint:
    """One point: flood, inject the scenario's faults, measure recovery."""
    from repro.firewall.builders import padded_ruleset, service_rule
    from repro.firewall.rules import Action, IpProtocol

    bed = Testbed(device=device, seed=settings.seed)
    ruleset = padded_ruleset(
        DEFAULT_RULESET_DEPTH,
        action_rule=service_rule(
            Action.ALLOW, IpProtocol.UDP, settings.iperf_port, dst=bed.target.ip
        ),
        name="chaos-policy",
    )
    bed.install_target_policy(ruleset)
    controller = None
    if defended:
        controller = bed.enable_defense(
            DefenseConfig(actions=actions_for_mode("rate-limit"))
        )
    bed.run(0.05)

    window = settings.duration
    server = IperfServer(bed.target, settings.iperf_port)
    baseline = _goodput_window(bed, server, window)

    flood = FloodGenerator(
        bed.attacker,
        FloodSpec(kind=FloodKind.UDP, dst_port=settings.denied_flood_port),
    )
    flood.start(bed.target.ip, DEFAULT_FLOOD_RATE_PPS)

    # Faults span the flood's first measured window, then clear (except
    # agent-crash, which stays down until the defense restarts it).
    schedule = build_scenario(scenario, start=FAULT_START_OFFSET, duration=window)
    injector = ChaosInjector(bed, schedule)
    injector.arm()

    outage_outcome = None
    if scenario in ("policy-outage", "compound"):
        # Step into the outage window, then re-push the (already
        # installed) policy over the network: the datagrams black-hole
        # against the dead server link and the backoff chain carries
        # the push until the outage clears or max_elapsed cuts it off.
        bed.run(FAULT_START_OFFSET + 0.01)
        outage_outcome = bed.policy_server.push_policy(
            "target",
            retries=OUTAGE_PUSH_RETRIES,
            backoff=OUTAGE_PUSH_BACKOFF,
        )

    faulted = _goodput_window(bed, server, window)
    bed.run(MITIGATION_SETTLE)

    # The reference instant recovery is measured from: the last fault
    # on the bed clearing (a --chaos probe may have armed its own), or
    # injection for never-clearing faults, or flood onset for the
    # clean-flood control.
    cleared = [
        armed.last_cleared_at
        for armed in armed_injectors(bed)
        if armed.last_cleared_at is not None
    ]
    if cleared:
        fault_reference = max(cleared)
    elif injector.log:
        fault_reference = injector.log[0].time
    else:
        fault_reference = flood.started_at

    slices: List[float] = []
    time_to_recover = None
    for _ in range(recovery_slices):
        mbps = _goodput_window(bed, server, window)
        slices.append(mbps)
        if time_to_recover is None and mbps >= RECOVERY_THRESHOLD * baseline:
            time_to_recover = bed.sim.now - fault_reference
    flood.stop()
    injector.disarm()

    recovery = slices[-1] if slices else 0.0
    nic = bed.target.nic
    point = ChaosPoint(
        scenario=scenario,
        device=device.value,
        defended=defended,
        baseline_mbps=baseline,
        faulted_mbps=faulted,
        recovery_mbps=recovery,
        goodput_retention=recovery / baseline if baseline > 0 else 0.0,
        time_to_recover=time_to_recover,
        recovery_slices_mbps=slices,
        faults_injected=injector.injected,
        faults_cleared=injector.cleared,
        pushes_acked=bed.policy_server.pushes_acked,
        pushes_failed=bed.policy_server.pushes_failed,
        wedged_at_end=bool(getattr(nic, "wedged", False)),
    )
    if outage_outcome is not None:
        point.outage_push_status = outage_outcome.status
        point.outage_push_backoff_s = list(outage_outcome.backoff_s)
    if controller is not None:
        report = controller.report()
        point.detections = len(report.detections)
        point.agent_restarts = report.agent_restarts
    return point


def run(config: Optional[RunConfig] = None) -> ChaosResult:
    """Run the chaos sweep (grid knobs: ``chaos_scenarios``,
    ``recovery_slices``).

    Every point is an isolated deterministic simulation; the result is
    identical for any ``jobs`` value and resumes byte-identically from a
    checkpoint.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("chaos")
    scenarios = preset.grid("chaos_scenarios", DEFAULT_SCENARIOS)
    recovery_slices = preset.grid("recovery_slices", DEFAULT_RECOVERY_SLICES)
    settings = preset.measurement()

    plans = [
        (scenario, device, defended)
        for scenario in scenarios
        for device in DEFENDED_DEVICES
        for defended in (False, True)
    ]
    specs = [
        SweepPointSpec(
            label=(
                f"chaos: {scenario} {device.value} "
                f"defense={'on' if defended else 'off'}"
            ),
            fn=_chaos_point,
            kwargs={
                "scenario": scenario,
                "device": device,
                "defended": defended,
                "settings": settings,
                "recovery_slices": recovery_slices,
            },
        )
        for scenario, device, defended in plans
    ]
    values = config.executor().run(specs)
    return ChaosResult(points=list(values))
