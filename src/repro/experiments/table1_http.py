"""Table 1 — HTTP performance of an Apache web server protected by an ADF.

http_load (one connection at a time, unlimited rate) against the Apache
model behind (a) a standard NIC, (b) an ADF with standard rule-sets of
increasing depth, and (c) an ADF with VPG rule-sets.  Metrics:
fetches/second, ms/connect, ms/first-response.  Paper shape: throughput
falls as the action rule moves deeper (worst case −41 % vs. the standard
NIC); both latency metrics grow with depth but stay small in absolute
terms; adding the first VPG costs a lot, additional non-matching VPGs
almost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.methodology import (
    FloodToleranceValidator,
    HttpMeasurement,
    MeasurementSettings,
)
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.experiments.config import RunConfig
from repro.core.testbed import DeviceKind

#: Rule depths for the ADF standard-rules columns.
DEFAULT_DEPTHS = (1, 16, 32, 64)

#: VPG counts for the ADF VPG columns.
DEFAULT_VPG_COUNTS = (1, 2, 4)


@dataclass
class Table1Result:
    """Columns of Table 1."""

    standard_nic: Optional[HttpMeasurement] = None
    adf_standard: List[HttpMeasurement] = field(default_factory=list)
    adf_vpg: List[HttpMeasurement] = field(default_factory=list)

    def table(self) -> str:
        """The table in the paper's row layout."""
        columns = ["Standard NIC"]
        measurements = [self.standard_nic]
        for measurement in self.adf_standard:
            columns.append(f"ADF d={measurement.rule_depth}")
            measurements.append(measurement)
        for measurement in self.adf_vpg:
            columns.append(f"ADF {measurement.vpg_count} VPG")
            measurements.append(measurement)
        rows = [
            ["HTTP Fetches/s"]
            + [f"{m.fetches_per_second:.0f}" if m else "-" for m in measurements],
            ["ms/connect"]
            + [f"{m.mean_connect_ms:.2f}" if m else "-" for m in measurements],
            ["ms/first-response"]
            + [f"{m.mean_first_response_ms:.2f}" if m else "-" for m in measurements],
        ]
        return format_table(
            ["Experiment"] + columns,
            rows,
            title="Table 1: HTTP performance of Apache behind an ADF",
        )


def _http_point(
    device: DeviceKind,
    depth: int,
    vpg_count: int,
    settings: MeasurementSettings,
) -> HttpMeasurement:
    """One sweep point: HTTP load measurement behind one configuration."""
    validator = FloodToleranceValidator(device, settings)
    return validator.http_performance(depth=depth, vpg_count=vpg_count)


def run(config: Optional[RunConfig] = None) -> Table1Result:
    """Regenerate Table 1 (grid knobs: ``depths``, ``vpg_counts``).

    ``config`` is a :class:`~repro.experiments.RunConfig`; results are
    identical for any ``jobs`` value and with or without probes.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("table1")
    settings = preset.measurement()
    depths = preset.grid("depths", DEFAULT_DEPTHS)
    vpg_counts = preset.grid("vpg_counts", DEFAULT_VPG_COUNTS)

    def spec(label, device, depth=1, vpg_count=0):
        return SweepPointSpec(
            label=label,
            fn=_http_point,
            kwargs={
                "device": device,
                "depth": depth,
                "vpg_count": vpg_count,
                "settings": settings,
            },
        )

    specs = [spec("table1: standard NIC baseline", DeviceKind.STANDARD)]
    specs.extend(
        spec(f"table1: ADF standard rules depth={depth}", DeviceKind.ADF, depth=depth)
        for depth in depths
    )
    specs.extend(
        spec(f"table1: ADF VPG count={vpg_count}", DeviceKind.ADF, vpg_count=vpg_count)
        for vpg_count in vpg_counts
    )
    measurements = config.executor().run(specs)
    result = Table1Result()
    result.standard_nic = measurements[0]
    result.adf_standard = measurements[1 : 1 + len(depths)]
    result.adf_vpg = measurements[1 + len(depths) :]
    return result
