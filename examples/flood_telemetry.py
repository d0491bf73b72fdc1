#!/usr/bin/env python3
"""Telemetry: watch the EFW's processing queue fill up during a flood.

Re-runs a trimmed Figure 3a sweep with a metrics collector attached, then
plots the firewall's processing-queue occupancy over (virtual) time for a
quiet run vs. a 50,000 packets/s flood.  The queue sitting pinned at its
capacity — while the drop counter climbs — is the paper's denial-of-
service mechanism made visible.

Run:  python examples/flood_telemetry.py
"""

from repro.core.methodology import MeasurementSettings
from repro.core.reports import ascii_plot
from repro.experiments import RunConfig, fig3a_flood
from repro.experiments.presets import Preset
from repro.obs import MetricsCollector

#: The EFW offloads filtering to the card; its processing queue is the
#: choke point the flood saturates.
QUEUE = "target.efw.proc"


def main() -> None:
    rates = (0, 50_000)
    collector = MetricsCollector(interval=0.005)
    preset = Preset(
        name="telemetry",
        settings=MeasurementSettings(duration=0.5),
        flood_rates=rates,
        repetitions=1,
    )
    result = fig3a_flood.run(RunConfig(preset=preset, probes=(collector,)))

    print("== Available bandwidth (EFW) ==")
    for rate, mbps in result.series["EFW"]:
        print(f"  flood {rate:6,.0f} pps: {mbps:6.1f} Mbps")

    print("\n== EFW processing-queue occupancy over time ==")
    plotted = []
    for rate in rates:
        label = f"fig3a: EFW flood={rate:,.0f} pps"
        point = next(p for p in collector.points if p.label == label)
        depth = point.snapshots[0].find("queue_depth", queue=QUEUE)
        plotted.append((f"{'quiet' if rate == 0 else 'flood'} ({rate:,.0f} pps)", depth.points))
        dropped = point.snapshots[0].find("queue_dropped", queue=QUEUE, reason="full")
        drops = dropped.final if dropped is not None else 0.0
        print(
            f"  {rate:6,.0f} pps: peak depth {max(v for _, v in depth.points):.0f}, "
            f"{drops:,.0f} packets dropped queue-full"
        )

    print()
    print(ascii_plot(plotted, x_label="virtual time (s)", y_label="queue depth"))


if __name__ == "__main__":
    main()
