"""Figure 3(b) — Minimum denial-of-service flood rate vs. rule-set depth.

For action-rule depths 1, 8, 16, 32 and 64, find the smallest flood rate
that drives measured bandwidth to ≈0 Mbps, for flood packets *allowed*
and *denied* by the policy, on the EFW and the ADF.  Paper shape: the
minimum rate falls steeply with depth (≈4.5 k pps at 64 rules, allowed);
denying the flood roughly doubles the required rate (no response traffic
crosses the card); and the EFW Deny series is **unmeasurable** — the card
wedges above ~1000 denied packets/s and only an agent restart recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.methodology import (
    FloodToleranceValidator,
    MeasurementSettings,
    MinimumFloodResult,
)
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.experiments.config import RunConfig
from repro.core.testbed import DeviceKind

#: Action-rule depths of the paper's Figure 3b.
DEFAULT_DEPTHS = (1, 8, 16, 32, 64)


@dataclass
class Fig3bResult:
    """All series: label -> [(depth, MinimumFloodResult)]."""

    series: Dict[str, List[Tuple[int, MinimumFloodResult]]] = field(default_factory=dict)

    def table(self) -> str:
        """The figure as an aligned text table (one row per depth)."""
        depths = sorted({x for points in self.series.values() for x, _ in points})
        names = list(self.series)
        rows = []
        for depth in depths:
            row: List[object] = [depth]
            for name in names:
                entry = dict(self.series[name]).get(depth)
                row.append(_cell(entry))
            rows.append(row)
        return format_table(
            ["rule depth"] + [f"{name} (pps)" for name in names],
            rows,
            title="Figure 3b: minimum DoS flood rate vs. rule-set depth",
        )


def _cell(entry: Optional[MinimumFloodResult]) -> str:
    if entry is None:
        return "-"
    if entry.lockup:
        return f"LOCKUP@{entry.lockup_rate_pps:,.0f}"
    if entry.not_achievable:
        return "no DoS"
    return f"{entry.rate_pps:,.0f}"


def _minflood_point(
    device: DeviceKind,
    depth: int,
    flood_allowed: bool,
    probe_duration: float,
    settings: MeasurementSettings,
) -> MinimumFloodResult:
    """One sweep point: the minimum-DoS-rate search at one depth."""
    validator = FloodToleranceValidator(device, settings)
    return validator.minimum_flood_rate(
        depth, flood_allowed=flood_allowed, probe_duration=probe_duration
    )


def run(config: Optional[RunConfig] = None) -> Fig3bResult:
    """Regenerate Figure 3b (grid knobs: ``depths``, ``probe_duration``).

    ``probe_duration`` shortens each bandwidth probe inside the rate
    search; the DoS verdict is insensitive to the window length.
    ``config`` is a :class:`~repro.experiments.RunConfig`; results are
    identical for any ``jobs`` value.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("fig3b")
    settings = preset.measurement()
    depths = preset.grid("depths", DEFAULT_DEPTHS)
    probe_duration = preset.grid("probe_duration", 0.6)
    plans = [
        ("EFW (Allow)", DeviceKind.EFW, True),
        ("ADF (Allow)", DeviceKind.ADF, True),
        ("ADF (Deny)", DeviceKind.ADF, False),
        # The paper could not capture EFW (Deny): the card locks up above
        # ~1000 denied packets/s.  We run it anyway and report the lockup.
        ("EFW (Deny)", DeviceKind.EFW, False),
    ]
    specs = [
        SweepPointSpec(
            label=f"fig3b: {label} depth={depth}",
            fn=_minflood_point,
            kwargs={
                "device": device,
                "depth": depth,
                "flood_allowed": flood_allowed,
                "probe_duration": probe_duration,
                "settings": settings,
            },
        )
        for label, device, flood_allowed in plans
        for depth in depths
    ]
    searches = config.executor().run(specs)
    result = Fig3bResult()
    cursor = iter(searches)
    for label, _device, _flood_allowed in plans:
        result.series[label] = [(depth, next(cursor)) for depth in depths]
    return result
