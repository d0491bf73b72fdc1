"""repro — a simulation-based reproduction of "Barbarians in the Gate"
(Ihde & Sanders, DSN 2006): NIC-based distributed firewall performance
and flood tolerance.

The package builds, from first principles, everything the paper's
testbed contained — a 100 Mbps switched Ethernet segment, end-host
TCP/IP stacks, the 3Com EFW and Adventium ADF embedded-firewall NIC
models, an iptables host-firewall baseline, a central policy server,
and the measurement tools (iperf, http_load/Apache, a packet flooder) —
and reproduces every figure and table of the paper's evaluation.

Quickstart::

    from repro import DeviceKind, FloodToleranceValidator

    validator = FloodToleranceValidator(DeviceKind.EFW)
    print(validator.available_bandwidth(depth=64).mbps)   # ~50 Mbps
    print(validator.minimum_flood_rate(depth=64).rate_pps)  # ~4.5k pps

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro import calibration
from repro.core import (
    BandwidthMeasurement,
    DeviceKind,
    FloodToleranceValidator,
    HttpMeasurement,
    MeasurementSettings,
    MinimumFloodResult,
    Testbed,
    ValidationReport,
)

__version__ = "1.0.0"

__all__ = [
    "BandwidthMeasurement",
    "DeviceKind",
    "FloodToleranceValidator",
    "HttpMeasurement",
    "MeasurementSettings",
    "MinimumFloodResult",
    "Testbed",
    "ValidationReport",
    "__version__",
    "calibration",
]
