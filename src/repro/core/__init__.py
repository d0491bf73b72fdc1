"""The paper's primary contribution: a flood-tolerance validation methodology.

Public API:

* :class:`~repro.core.testbed.Testbed` — the four-host Figure 1 network,
* :class:`~repro.core.fleet.FleetTestbed` — the same wiring scaled to a
  fleet on a spine/leaf fabric (:class:`~repro.core.fleet.FleetSpec`),
* :class:`~repro.core.methodology.FloodToleranceValidator` — the
  measurement methodology (bandwidth vs. depth, bandwidth under flood,
  minimum DoS flood rate, HTTP impact, deployability verdict),
* :mod:`~repro.core.metrics` — DoS criteria,
* :mod:`~repro.core.reports` — text tables and ASCII plots,
* :mod:`~repro.core.parallel` — process-pool execution of independent
  sweep points (``--jobs``/``REPRO_JOBS``),
* ``repro.core.calibration`` — re-export of the cost-model constants.
"""

from repro import _lazy

__all__ = [
    "BandwidthMeasurement",
    "CompletedPoint",
    "DeviceKind",
    "FleetResult",
    "FleetSpec",
    "FleetTestbed",
    "FloodToleranceValidator",
    "HttpMeasurement",
    "MeasurementSettings",
    "MinimumFloodResult",
    "PointFailure",
    "STATIONS",
    "SweepCheckpoint",
    "SweepError",
    "SweepExecutor",
    "SweepPointSpec",
    "SweepStats",
    "Testbed",
    "ThroughputResult",
    "ThroughputTester",
    "TrialResult",
    "VPG_MSS",
    "ValidationReport",
    "calibration",
    "derive_seed",
    "metrics",
    "reports",
    "resolve_jobs",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    "repro.calibration": None,
    ".metrics": None,
    ".reports": None,
    ".checkpoint": ("SweepCheckpoint",),
    ".fleet": ("FleetResult", "FleetSpec", "FleetTestbed"),
    ".methodology": (
        "BandwidthMeasurement",
        "FloodToleranceValidator",
        "HttpMeasurement",
        "MeasurementSettings",
        "MinimumFloodResult",
        "ValidationReport",
        "VPG_MSS",
    ),
    ".parallel": (
        "CompletedPoint",
        "PointFailure",
        "SweepError",
        "SweepExecutor",
        "SweepPointSpec",
        "SweepStats",
        "derive_seed",
        "resolve_jobs",
    ),
    ".throughput": ("ThroughputResult", "ThroughputTester", "TrialResult"),
    ".testbed": ("STATIONS", "DeviceKind", "Testbed"),
})
