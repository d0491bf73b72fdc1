"""Figure 3(a) — Available bandwidth during a packet flood (1-rule rule-set).

A 64-byte-frame TCP flood is directed at the target at each of nine
rates; iperf bandwidth between client and target is then measured (the
paper averaged three runs per point).  Paper shape: the standard NIC and
iptables keep delivering (≈77 Mbps in the paper; the residual loss is
pure link sharing), while the EFW and ADF lose a major portion of
bandwidth mid-range and hit ≈0 — a successful denial of service — near
30 % of the maximum frame rate; the single-VPG ADF declines near-linearly
and reaches zero earliest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.core.testbed import DeviceKind
from repro.experiments.config import RunConfig

#: The nine flood rates (packets/second) of the paper's sweep.
DEFAULT_FLOOD_RATES = (0, 5000, 10000, 15000, 20000, 25000, 30000, 40000, 50000)

#: The paper averaged three bandwidth measurements per flood rate.
DEFAULT_REPETITIONS = 3


@dataclass
class Fig3aResult:
    """All series of Figure 3a: device -> [(flood pps, Mbps)]."""

    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def table(self) -> str:
        """The figure as an aligned text table (one row per flood rate)."""
        rates = sorted({x for points in self.series.values() for x, _ in points})
        names = list(self.series)
        rows = []
        for rate in rates:
            row: List[object] = [f"{rate:,.0f}"]
            for name in names:
                value = dict(self.series[name]).get(rate)
                row.append(f"{value:.1f}" if value is not None else "-")
            rows.append(row)
        return format_table(
            ["flood (pps)"] + [f"{name} (Mbps)" for name in names],
            rows,
            title="Figure 3a: available bandwidth during flood (single-rule rule-set)",
        )


def _flood_point(
    device: DeviceKind,
    rate: float,
    vpg_count: int,
    settings: MeasurementSettings,
) -> float:
    """One sweep point: available bandwidth (Mbps) under a flood."""
    validator = FloodToleranceValidator(device, settings)
    return validator.bandwidth_under_flood(rate, vpg_count=vpg_count).mbps


def run(config: Optional[RunConfig] = None) -> Fig3aResult:
    """Regenerate Figure 3a (grid knobs: ``flood_rates``, ``repetitions``).

    ``config`` is a :class:`~repro.experiments.RunConfig`; every point is
    an isolated deterministic simulation, so the result is identical for
    any ``jobs`` value and with or without probes.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("fig3a")
    flood_rates = preset.grid("flood_rates", DEFAULT_FLOOD_RATES)
    repetitions = preset.grid("repetitions", DEFAULT_REPETITIONS)
    base = preset.measurement()
    settings = MeasurementSettings(
        duration=base.duration,
        flood_lead=base.flood_lead,
        iperf_port=base.iperf_port,
        denied_flood_port=base.denied_flood_port,
        seed=base.seed,
        repetitions=repetitions,
        http_duration=base.http_duration,
        http_page_size=base.http_page_size,
    )
    plans = [
        ("No Firewall", DeviceKind.STANDARD, 0),
        ("iptables", DeviceKind.IPTABLES, 0),
        ("EFW", DeviceKind.EFW, 0),
        ("ADF", DeviceKind.ADF, 0),
        ("ADF (VPG)", DeviceKind.ADF, 1),
    ]
    specs = [
        SweepPointSpec(
            label=f"fig3a: {label} flood={rate:,.0f} pps",
            fn=_flood_point,
            kwargs={
                "device": device,
                "rate": rate,
                "vpg_count": vpg_count,
                "settings": settings,
            },
        )
        for label, device, vpg_count in plans
        for rate in flood_rates
    ]
    values = config.executor().run(specs)
    result = Fig3aResult()
    cursor = iter(values)
    for label, _device, _vpg_count in plans:
        result.series[label] = [(rate, next(cursor)) for rate in flood_rates]
    return result
