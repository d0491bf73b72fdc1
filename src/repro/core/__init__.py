"""The paper's primary contribution: a flood-tolerance validation methodology.

Public API:

* :class:`~repro.core.testbed.Testbed` — the four-host Figure 1 network,
* :class:`~repro.core.fleet.FleetTestbed` — the same wiring scaled to a
  fleet on a spine/leaf fabric (:class:`~repro.core.fleet.FleetSpec`),
* :class:`~repro.core.methodology.FloodToleranceValidator` — the
  measurement methodology (bandwidth vs. depth, bandwidth under flood,
  minimum DoS flood rate, HTTP impact, deployability verdict),
* :mod:`~repro.core.metrics` — DoS criteria and statistics,
* :mod:`~repro.core.sweeps` and :mod:`~repro.core.reports` — experiment
  plumbing,
* :mod:`~repro.core.parallel` — process-pool execution of independent
  sweep points (``--jobs``/``REPRO_JOBS``),
* ``repro.core.calibration`` — re-export of the cost-model constants.
"""

from repro import calibration
from repro.core import metrics, reports
from repro.core.checkpoint import SweepCheckpoint
from repro.core.fleet import FleetResult, FleetSpec, FleetTestbed
from repro.core.methodology import (
    BandwidthMeasurement,
    FloodToleranceValidator,
    HttpMeasurement,
    LatencyMeasurement,
    MeasurementSettings,
    MinimumFloodResult,
    ValidationReport,
    VPG_MSS,
)
from repro.core.parallel import (
    CompletedPoint,
    PointFailure,
    SweepError,
    SweepExecutor,
    SweepPointSpec,
    SweepStats,
    derive_seed,
    resolve_jobs,
)
from repro.core.sweeps import Sweep, SweepPoint
from repro.core.throughput import ThroughputResult, ThroughputTester, TrialResult
from repro.core.testbed import STATIONS, DeviceKind, Testbed

__all__ = [
    "BandwidthMeasurement",
    "CompletedPoint",
    "DeviceKind",
    "FleetResult",
    "FleetSpec",
    "FleetTestbed",
    "FloodToleranceValidator",
    "HttpMeasurement",
    "LatencyMeasurement",
    "MeasurementSettings",
    "MinimumFloodResult",
    "PointFailure",
    "STATIONS",
    "Sweep",
    "SweepCheckpoint",
    "SweepError",
    "SweepExecutor",
    "SweepPoint",
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
