"""Fleet flood tolerance — aggregate goodput and per-host DoS fraction.

The paper answers "can one NIC-resident firewall tolerate a flood?" on a
four-host star.  This workload asks the fleet-scale question its
distributed-firewall premise implies: with M protected hosts on a
multi-switch fabric and N attackers flooding a *share* of them, how much
aggregate goodput survives, what fraction of the fleet is denied
service, and does the central policy server still get its per-NIC
rule-sets delivered (with retry) under load?

Each sweep point builds a fresh :class:`~repro.core.fleet.FleetTestbed`
(one attacker per attacked target), distributes per-NIC policies over
real UDP with ack/retry, runs the measurement window, and reports the
fleet aggregate.  The EFW's deny-rate lockup (paper §4.3) is the
dominant failure mode: attacked hosts wedge and their goodput collapses,
while unattacked hosts ride out the fabric load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.fleet import FleetSpec, FleetTestbed
from repro.core.methodology import MeasurementSettings
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.core.testbed import DeviceKind
from repro.experiments.config import RunConfig

#: Protected-target counts measured (stations ~ 2x targets + attackers).
DEFAULT_FLEET_SIZES = (4, 8, 16, 32)

#: Fractions of the fleet under attack.
DEFAULT_FLOOD_SHARES = (0.0, 0.25, 0.5, 1.0)

#: Per-attacker flood rate: comfortably above the EFW's classification
#: capacity at the default depth, so an attacked card wedges (§4.3).
DEFAULT_FLOOD_RATE_PPS = 30_000.0

#: Rule-table depth of every per-NIC policy.
DEFAULT_RULESET_DEPTH = 32


@dataclass
class FleetPoint:
    """One (fleet size, flood share) measurement."""

    targets: int
    flood_share: float
    attackers: int
    aggregate_goodput_mbps: float
    dos_fraction: float
    policy_pushes_retried: int
    policy_pushes_failed: int


@dataclass
class FleetFloodResult:
    """The whole sweep: aggregate goodput and DoS fraction per point."""

    points: List[FleetPoint] = field(default_factory=list)

    def table(self) -> str:
        """The sweep as an aligned text table (one row per point)."""
        rows = [
            [
                point.targets,
                f"{point.flood_share:.2f}",
                point.attackers,
                f"{point.aggregate_goodput_mbps:.1f}",
                f"{point.dos_fraction:.2f}",
                point.policy_pushes_retried,
                point.policy_pushes_failed,
            ]
            for point in self.points
        ]
        return format_table(
            [
                "targets",
                "flood share",
                "attackers",
                "aggregate goodput (Mbps)",
                "DoS fraction",
                "push retries",
                "push failures",
            ],
            rows,
            title="Fleet flood tolerance: goodput and DoS vs. fleet size and flood share",
        )


def _fleet_point(
    targets: int,
    flood_share: float,
    settings: MeasurementSettings,
    depth: int = DEFAULT_RULESET_DEPTH,
    flood_rate_pps: float = DEFAULT_FLOOD_RATE_PPS,
) -> Tuple[float, float, int, int]:
    """One sweep point: (aggregate Mbps, DoS fraction, retries, failures)."""
    attackers = int(math.ceil(flood_share * targets))
    spec = FleetSpec(
        targets=targets,
        attackers=attackers,
        device=DeviceKind.EFW,
        ruleset_depth=depth,
        attacked_fraction=flood_share,
        flood_rate_pps=flood_rate_pps,
    )
    bed = FleetTestbed(spec, seed=settings.seed)
    bed.distribute_policies(retries=2, ack_timeout=0.05)
    result = bed.measure(duration=settings.duration)
    return (
        result.aggregate_goodput_mbps,
        result.dos_fraction,
        result.policy_pushes_retried,
        result.policy_pushes_failed,
    )


def run(config: Optional[RunConfig] = None) -> FleetFloodResult:
    """Run the fleet sweep (grid knobs: ``fleet_sizes``, ``flood_shares``).

    ``config`` is a :class:`~repro.experiments.RunConfig`; results are
    identical for any ``jobs`` value and with or without probes.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("fleet")
    settings = preset.measurement()
    fleet_sizes = preset.grid("fleet_sizes", DEFAULT_FLEET_SIZES)
    flood_shares = preset.grid("flood_shares", DEFAULT_FLOOD_SHARES)
    plans = [(targets, share) for targets in fleet_sizes for share in flood_shares]
    specs = [
        SweepPointSpec(
            label=f"fleet: targets={targets} share={share:.2f}",
            fn=_fleet_point,
            kwargs={"targets": targets, "flood_share": share, "settings": settings},
        )
        for targets, share in plans
    ]
    values = config.executor().run(specs)
    result = FleetFloodResult()
    for (targets, share), (aggregate, dos, retried, failed) in zip(plans, values):
        result.points.append(
            FleetPoint(
                targets=targets,
                flood_share=share,
                attackers=int(math.ceil(share * targets)),
                aggregate_goodput_mbps=aggregate,
                dos_fraction=dos,
                policy_pushes_retried=retried,
                policy_pushes_failed=failed,
            )
        )
    return result
