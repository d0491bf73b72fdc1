"""Extension — the paper's future-work device, evaluated.

"It is our hope that this research encourages the development of new
embedded firewall devices that have sufficient tolerance to simple packet
flood attacks."  (Paper §5.)

This experiment takes the hypothetical hardened NIC of
:mod:`repro.nic.hardened` (TCAM-class parallel rule lookup, a fast
filtering path, no firmware lockup) through the same validation
methodology as the paper's devices and through the RFC 2544-style direct
throughput search the paper could not run:

* bandwidth vs. rule depth — flat to 64 rules,
* minimum DoS flood rate — denial of service requires saturating the
  100 Mbps wire itself (~148 k pps), the same bound as a bare NIC; the
  card is never the weaker link,
* direct 64-byte throughput — wire-limited even at 64 rules.
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
from repro.core.throughput import ThroughputTester
from repro.sim import units

DEFAULT_DEPTHS = (1, 16, 64)


@dataclass
class HardenedResult:
    """Everything the extension measures, EFW vs. hardened."""

    bandwidth: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    min_flood: Dict[str, List[Tuple[int, MinimumFloodResult]]] = field(default_factory=dict)
    throughput_64b: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    def table(self) -> str:
        """All three comparisons as text tables."""
        blocks = []
        depths = sorted({d for pts in self.bandwidth.values() for d, _ in pts})
        rows = []
        for depth in depths:
            row: List[object] = [depth]
            for name in self.bandwidth:
                row.append(f"{dict(self.bandwidth[name]).get(depth, float('nan')):.1f}")
            rows.append(row)
        blocks.append(
            format_table(
                ["depth"] + [f"{name} (Mbps)" for name in self.bandwidth],
                rows,
                title="Extension: available bandwidth vs. depth",
            )
        )
        rows = []
        for depth in depths:
            row = [depth]
            for name in self.min_flood:
                entry = dict(self.min_flood[name]).get(depth)
                if entry is None:
                    row.append("-")
                elif entry.lockup:
                    row.append(f"LOCKUP@{entry.lockup_rate_pps:,.0f}")
                elif entry.not_achievable:
                    row.append("no DoS")
                else:
                    row.append(f"{entry.rate_pps:,.0f}")
            rows.append(row)
        blocks.append(
            format_table(
                ["depth"] + [f"{name} min flood (pps)" for name in self.min_flood],
                rows,
                title="Extension: minimum DoS flood rate (allowed flood)",
            )
        )
        rows = []
        for depth in depths:
            row = [depth]
            for name in self.throughput_64b:
                row.append(f"{dict(self.throughput_64b[name]).get(depth, float('nan')):,.0f}")
            rows.append(row)
        blocks.append(
            format_table(
                ["depth"] + [f"{name} 64B tput (pps)" for name in self.throughput_64b],
                rows,
                title="Extension: direct RFC2544-style 64-byte throughput",
            )
        )
        return "\n\n".join(blocks)


def _hardened_point(
    device: DeviceKind, depth: int, settings: MeasurementSettings
) -> Tuple[float, MinimumFloodResult, float]:
    """One sweep point: (bandwidth Mbps, min-flood search, 64B tput pps)."""
    validator = FloodToleranceValidator(device, settings)
    bandwidth = validator.available_bandwidth(depth=depth).mbps
    flood = validator.minimum_flood_rate(depth, flood_allowed=True, probe_duration=0.4)
    tester = ThroughputTester(
        device, frame_bytes=units.ETHERNET_MIN_FRAME, rule_depth=depth
    )
    return bandwidth, flood, tester.search().rate_pps


def run(config: Optional[RunConfig] = None) -> HardenedResult:
    """Run the extension comparison (grid knob: ``depths``).

    ``config`` is a :class:`~repro.experiments.RunConfig`; results are
    identical for any ``jobs`` value and with or without probes.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("extension")
    settings = preset.measurement()
    depths = preset.grid("depths", DEFAULT_DEPTHS)
    plans = [("EFW", DeviceKind.EFW), ("hardened", DeviceKind.HARDENED)]
    specs = [
        SweepPointSpec(
            label=f"extension: {label} depth={depth}",
            fn=_hardened_point,
            kwargs={"device": device, "depth": depth, "settings": settings},
        )
        for label, device in plans
        for depth in depths
    ]
    points = config.executor().run(specs)
    result = HardenedResult()
    cursor = iter(points)
    for label, _device in plans:
        bandwidth_points = []
        flood_points = []
        throughput_points = []
        for depth in depths:
            bandwidth, flood, throughput = next(cursor)
            bandwidth_points.append((depth, bandwidth))
            flood_points.append((depth, flood))
            throughput_points.append((depth, throughput))
        result.bandwidth[label] = bandwidth_points
        result.min_flood[label] = flood_points
        result.throughput_64b[label] = throughput_points
    return result
