"""Figure 2 — Available bandwidth as rules are added to the rule-set.

iperf TCP bandwidth between client and target with the action rule at
increasing depth, for the EFW, the ADF, the ADF with VPG rule-sets, and
iptables.  Paper shape: no significant loss below ~20 rules; at 64 rules
the EFW drops to ~50 Mbps (−45 %) and the ADF to ~33 Mbps (−65 %);
iptables is flat; VPGs cost a large constant hit but *additional
non-matching VPGs are nearly free* (lazy decryption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.core.testbed import DeviceKind
from repro.experiments.config import RunConfig

#: Action-rule depths measured (the paper's x-axis reaches 64).
DEFAULT_DEPTHS = (1, 2, 4, 8, 16, 24, 32, 48, 64)

#: VPG counts measured (each VPG occupies two rule-table entries).
DEFAULT_VPG_COUNTS = (1, 2, 4, 8)


@dataclass
class Fig2Result:
    """All series of Figure 2: device/variant -> [(depth, Mbps)]."""

    series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    def table(self) -> str:
        """The figure as an aligned text table (one row per depth)."""
        depths = sorted({x for points in self.series.values() for x, _ in points})
        names = list(self.series)
        rows = []
        for depth in depths:
            row: List[object] = [depth]
            for name in names:
                value = dict(self.series[name]).get(depth)
                row.append(f"{value:.1f}" if value is not None else "-")
            rows.append(row)
        return format_table(
            ["rules traversed"] + [f"{name} (Mbps)" for name in names],
            rows,
            title="Figure 2: available bandwidth vs. rule-set depth",
        )


def _depth_point(device: DeviceKind, depth: int, settings: MeasurementSettings) -> float:
    """One sweep point: available bandwidth (Mbps) at a rule depth."""
    return FloodToleranceValidator(device, settings).available_bandwidth(depth=depth).mbps


def _vpg_point(vpg_count: int, settings: MeasurementSettings) -> float:
    """One sweep point: ADF bandwidth (Mbps) with a VPG rule-set."""
    validator = FloodToleranceValidator(DeviceKind.ADF, settings)
    return validator.available_bandwidth(vpg_count=vpg_count).mbps


def run(config: Optional[RunConfig] = None) -> Fig2Result:
    """Regenerate Figure 2 (grid knobs: ``depths``, ``vpg_counts``).

    ``config`` is a :class:`~repro.experiments.RunConfig`; results are
    identical for any ``jobs`` value and with or without probes.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("fig2")
    settings = preset.measurement()
    depths = preset.grid("depths", DEFAULT_DEPTHS)
    vpg_counts = preset.grid("vpg_counts", DEFAULT_VPG_COUNTS)
    plans = [
        ("EFW", DeviceKind.EFW),
        ("ADF", DeviceKind.ADF),
        ("iptables", DeviceKind.IPTABLES),
    ]
    specs = [
        SweepPointSpec(
            label=f"fig2: {label} depth={depth}",
            fn=_depth_point,
            kwargs={"device": device, "depth": depth, "settings": settings},
        )
        for label, device in plans
        for depth in depths
    ]
    specs.extend(
        SweepPointSpec(
            label=f"fig2: ADF(VPG) vpgs={vpg_count}",
            fn=_vpg_point,
            kwargs={"vpg_count": vpg_count, "settings": settings},
        )
        for vpg_count in vpg_counts
    )
    values = config.executor().run(specs)
    result = Fig2Result()
    cursor = iter(values)
    for label, _device in plans:
        result.series[label] = [(depth, next(cursor)) for depth in depths]
    # Each VPG is a pair of rule entries: depth = 2 * count.
    result.series["ADF (VPG)"] = [(2 * vpg_count, next(cursor)) for vpg_count in vpg_counts]
    return result
