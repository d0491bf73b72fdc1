"""Mitigation — closed-loop flood defense and recovery measurement.

The paper's flood experiments stop at diagnosis: the EFW wedges under a
deny flood and an operator restarts the agent by hand (§4.3, "No
solution was found").  This experiment closes the loop and *measures*
the closure.  Each point runs the Figure 3a-style UDP deny flood against
a protected target and measures goodput in three equal windows —
baseline (pre-flood), flooded (the flood starts as the window opens),
and recovery (after the defense has had time to act) — with the flood
still running throughout:

* ``off`` — no defense: the paper's observed behaviour (the EFW
  collapses to ≈0 and stays there),
* ``deny-rule`` — push a targeted deny for the flooder: decisive on the
  ADF, futile on the EFW (denying still feeds the deny-rate lockup, so
  the card re-wedges as fast as the restart sweep revives it — the
  paper-faithful negative result),
* ``rate-limit`` — install a source-scoped ingress token bucket: sheds
  the flood before the slow path and keeps the deny rate under the
  lockup threshold,
* ``quarantine`` — block the flooder's switch port.

Every defended mode also runs the agent-restart recovery sweep.  The
result records goodput recovery fraction, time-to-detect and
time-to-mitigate (from flood onset), restart/detection counts, and the
push accounting.  A second leg repeats the sweep on the fleet fabric
(grid knobs: ``defense_modes``, ``fleet_defense_modes``,
``fleet_sizes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.fleet import FleetSpec, FleetTestbed
from repro.core.methodology import MeasurementSettings
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.core.testbed import DeviceKind, Testbed
from repro.defense import (
    DefenseConfig,
    EnableRateLimiter,
    QuarantinePort,
    RestartAgent,
    TargetedDenyRule,
)
from repro.experiments.config import RunConfig

#: Defense modes swept on the single testbed, in presentation order.
DEFAULT_DEFENSE_MODES = ("off", "deny-rule", "rate-limit", "quarantine")

#: Defense modes swept on the fleet fabric.
DEFAULT_FLEET_DEFENSE_MODES = ("off", "rate-limit", "quarantine")

#: Protected-target counts for the fleet leg.
DEFAULT_FLEET_SIZES = (4,)

#: Devices carrying a defendable (embedded) enforcement point.
DEFENDED_DEVICES = (DeviceKind.EFW, DeviceKind.ADF)

#: The Figure 3a mid-sweep flood rate: comfortably above every
#: detection threshold and the EFW lockup rate.
DEFAULT_FLOOD_RATE_PPS = 20_000.0

#: Rule-table depth of the protected policy (the paper's default).
DEFAULT_RULESET_DEPTH = 32

#: Pause between the flooded and recovery windows, giving the slowest
#: defense (detect -> push -> restart) time to converge.
MITIGATION_SETTLE = 0.3

#: Legitimate UDP goodput stream (matches the fleet clients).
CLIENT_RATE_PPS = 500.0
CLIENT_PAYLOAD_SIZE = 1470


def actions_for_mode(mode: str) -> Tuple[object, ...]:
    """The controller's action tuple for one named defense mode."""
    if mode == "deny-rule":
        return (TargetedDenyRule(), RestartAgent())
    if mode == "rate-limit":
        return (EnableRateLimiter(rate_pps=CLIENT_RATE_PPS), RestartAgent())
    if mode == "quarantine":
        return (QuarantinePort(), RestartAgent())
    if mode == "full":
        return (
            QuarantinePort(),
            EnableRateLimiter(rate_pps=CLIENT_RATE_PPS),
            TargetedDenyRule(),
            RestartAgent(),
        )
    raise KeyError(f"unknown defense mode {mode!r}")


@dataclass
class MitigationPoint:
    """One (device, mode) run on the four-host testbed."""

    device: str
    mode: str
    baseline_mbps: float
    flooded_mbps: float
    recovery_mbps: float
    recovery_fraction: float
    time_to_detect: Optional[float] = None
    time_to_mitigate: Optional[float] = None
    detections: int = 0
    mitigations: int = 0
    agent_restarts: int = 0
    limiter_dropped: int = 0
    quarantined: bool = False
    pushes_acked: int = 0
    pushes_failed: int = 0
    wedged_at_end: bool = False


@dataclass
class FleetMitigationPoint:
    """One (fleet size, mode) run on the multi-switch fabric."""

    targets: int
    attackers: int
    mode: str
    baseline_mbps: float
    flooded_mbps: float
    recovery_mbps: float
    recovery_fraction: float
    dos_fraction_recovery: float
    time_to_detect: Optional[float] = None
    time_to_mitigate: Optional[float] = None
    detections: int = 0
    mitigations: int = 0
    agent_restarts: int = 0
    pushes_acked: int = 0
    pushes_retried: int = 0
    pushes_failed: int = 0


def _seconds(value: Optional[float]) -> str:
    return f"{value * 1e3:.1f}" if value is not None else "-"


@dataclass
class MitigationResult:
    """Both sweeps: single-testbed points plus the fleet leg."""

    points: List[MitigationPoint] = field(default_factory=list)
    fleet_points: List[FleetMitigationPoint] = field(default_factory=list)

    def table(self) -> str:
        rows = [
            [
                point.device,
                point.mode,
                f"{point.baseline_mbps:.1f}",
                f"{point.flooded_mbps:.1f}",
                f"{point.recovery_mbps:.1f}",
                f"{point.recovery_fraction:.2f}",
                _seconds(point.time_to_detect),
                _seconds(point.time_to_mitigate),
                point.agent_restarts,
            ]
            for point in self.points
        ]
        text = format_table(
            [
                "device",
                "defense",
                "baseline (Mbps)",
                "flooded (Mbps)",
                "recovery (Mbps)",
                "recovered",
                "detect (ms)",
                "mitigate (ms)",
                "restarts",
            ],
            rows,
            title="Mitigation: goodput recovery under a sustained deny flood",
        )
        if not self.fleet_points:
            return text
        fleet_rows = [
            [
                point.targets,
                point.attackers,
                point.mode,
                f"{point.baseline_mbps:.1f}",
                f"{point.recovery_mbps:.1f}",
                f"{point.recovery_fraction:.2f}",
                f"{point.dos_fraction_recovery:.2f}",
                _seconds(point.time_to_detect),
                point.agent_restarts,
            ]
            for point in self.fleet_points
        ]
        text += "\n\n" + format_table(
            [
                "targets",
                "attackers",
                "defense",
                "baseline (Mbps)",
                "recovery (Mbps)",
                "recovered",
                "DoS frac",
                "detect (ms)",
                "restarts",
            ],
            fleet_rows,
            title="Mitigation at fleet scale (aggregate goodput)",
        )
        return text


def _goodput_window(testbed: Testbed, server: IperfServer, window: float) -> float:
    """One client->target UDP goodput window (Mbps)."""
    session = IperfClient(testbed.client).start_udp(
        server,
        rate_pps=CLIENT_RATE_PPS,
        payload_size=CLIENT_PAYLOAD_SIZE,
        duration=window,
    )
    testbed.run(window + 0.02)
    return session.result().mbps


def _mitigation_point(
    device: DeviceKind,
    mode: str,
    settings: MeasurementSettings,
) -> MitigationPoint:
    """One sweep point: baseline/flooded/recovery windows on a fresh testbed."""
    from repro.firewall.builders import padded_ruleset, service_rule
    from repro.firewall.rules import Action, IpProtocol

    bed = Testbed(device=device, seed=settings.seed)
    ruleset = padded_ruleset(
        DEFAULT_RULESET_DEPTH,
        action_rule=service_rule(
            Action.ALLOW, IpProtocol.UDP, settings.iperf_port, dst=bed.target.ip
        ),
        name="mitigation-policy",
    )
    bed.install_target_policy(ruleset)
    controller = None
    if mode != "off":
        controller = bed.enable_defense(DefenseConfig(actions=actions_for_mode(mode)))
    bed.run(0.05)

    window = settings.duration
    server = IperfServer(bed.target, settings.iperf_port)
    baseline = _goodput_window(bed, server, window)

    flood = FloodGenerator(
        bed.attacker,
        FloodSpec(kind=FloodKind.UDP, dst_port=settings.denied_flood_port),
    )
    flood.start(bed.target.ip, DEFAULT_FLOOD_RATE_PPS)
    flooded = _goodput_window(bed, server, window)
    bed.run(MITIGATION_SETTLE)
    recovery = _goodput_window(bed, server, window)
    flood.stop()

    nic = bed.target.nic
    point = MitigationPoint(
        device=device.value,
        mode=mode,
        baseline_mbps=baseline,
        flooded_mbps=flooded,
        recovery_mbps=recovery,
        recovery_fraction=recovery / baseline if baseline > 0 else 0.0,
        limiter_dropped=getattr(nic, "ratelimited_drops", 0),
        quarantined=bed.topology.station_is_quarantined("attacker"),
        pushes_acked=bed.policy_server.pushes_acked,
        pushes_failed=bed.policy_server.pushes_failed,
        wedged_at_end=bool(getattr(nic, "wedged", False)),
    )
    if controller is not None:
        report = controller.report()
        point.time_to_detect = report.time_to_detect(flood.started_at)
        point.time_to_mitigate = report.time_to_mitigate(flood.started_at)
        point.detections = len(report.detections)
        point.mitigations = sum(
            1 for record in report.mitigations if "skipped" not in record.detail
        )
        point.agent_restarts = report.agent_restarts
    return point


def _fleet_mitigation_point(
    targets: int,
    mode: str,
    settings: MeasurementSettings,
) -> FleetMitigationPoint:
    """One fleet point: same three-window timeline on the fabric."""
    attacked_fraction = 0.5
    attackers = max(1, int(math.ceil(attacked_fraction * targets)))
    spec = FleetSpec(
        targets=targets,
        attackers=attackers,
        device=DeviceKind.EFW,
        ruleset_depth=DEFAULT_RULESET_DEPTH,
        attacked_fraction=attacked_fraction,
        flood_rate_pps=DEFAULT_FLOOD_RATE_PPS,
    )
    bed = FleetTestbed(spec, seed=settings.seed)
    report = bed.distribute_policies(retries=2, ack_timeout=0.05)
    controller = None
    if mode != "off":
        controller = bed.enable_defense(DefenseConfig(actions=actions_for_mode(mode)))
    bed.run(0.05)

    window = settings.duration
    baseline = bed.measure_goodput(window)
    flood_started_at = bed.sim.now
    bed.start_floods()
    flooded = bed.measure_goodput(window)
    bed.run(MITIGATION_SETTLE)
    recovery = bed.measure_goodput(window)

    from repro.core import metrics as core_metrics

    baseline_total = sum(baseline.values())
    recovery_total = sum(recovery.values())
    denied = sum(
        1 for mbps in recovery.values() if core_metrics.is_denial_of_service(mbps)
    )
    point = FleetMitigationPoint(
        targets=targets,
        attackers=attackers,
        mode=mode,
        baseline_mbps=baseline_total,
        flooded_mbps=sum(flooded.values()),
        recovery_mbps=recovery_total,
        recovery_fraction=recovery_total / baseline_total if baseline_total > 0 else 0.0,
        dos_fraction_recovery=denied / len(recovery) if recovery else 0.0,
        pushes_acked=report.acked,
        pushes_retried=report.retried,
        pushes_failed=report.failed,
    )
    if controller is not None:
        defense = controller.report()
        point.time_to_detect = defense.time_to_detect(flood_started_at)
        point.time_to_mitigate = defense.time_to_mitigate(flood_started_at)
        point.detections = len(defense.detections)
        point.mitigations = sum(
            1 for record in defense.mitigations if "skipped" not in record.detail
        )
        point.agent_restarts = defense.agent_restarts
    return point


def run(config: Optional[RunConfig] = None) -> MitigationResult:
    """Run the mitigation sweep (grid knobs: ``defense_modes``,
    ``fleet_defense_modes``, ``fleet_sizes``).

    ``config`` is a :class:`~repro.experiments.RunConfig`; every point is
    an isolated deterministic simulation, so the result is identical for
    any ``jobs`` value and with or without probes.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("mitigation")
    modes = preset.grid("defense_modes", DEFAULT_DEFENSE_MODES)
    fleet_modes = preset.grid("fleet_defense_modes", DEFAULT_FLEET_DEFENSE_MODES)
    fleet_sizes = preset.grid("fleet_sizes", DEFAULT_FLEET_SIZES)
    settings = preset.measurement()

    single_plans = [
        (device, mode) for device in DEFENDED_DEVICES for mode in modes
    ]
    fleet_plans = [
        (targets, mode) for targets in fleet_sizes for mode in fleet_modes
    ]
    specs = [
        SweepPointSpec(
            label=f"mitigation: {device.value} defense={mode}",
            fn=_mitigation_point,
            kwargs={"device": device, "mode": mode, "settings": settings},
        )
        for device, mode in single_plans
    ] + [
        SweepPointSpec(
            label=f"mitigation: fleet targets={targets} defense={mode}",
            fn=_fleet_mitigation_point,
            kwargs={"targets": targets, "mode": mode, "settings": settings},
        )
        for targets, mode in fleet_plans
    ]
    values = config.executor().run(specs)
    result = MitigationResult()
    result.points = list(values[: len(single_plans)])
    result.fleet_points = list(values[len(single_plans):])
    return result
