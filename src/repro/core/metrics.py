"""Measurement metrics and denial-of-service criteria.

RFC 2647's definition drives the DoS criterion: "DoS describes any state
in which a firewall is offered rejected traffic that prohibits it from
forwarding some or all allowed traffic."  The paper operationalised it as
the measured bandwidth falling to approximately 0 Mbps; we use an
explicit threshold.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Measured bandwidth below this is "approximately 0 Mbps" (a successful
#: denial of service).
DOS_BANDWIDTH_THRESHOLD_MBPS = 1.0

#: Bandwidth loss below this fraction of the baseline counts as "no
#: significant performance loss" (paper §4.1 phrasing).
SIGNIFICANT_LOSS_FRACTION = 0.10


def is_denial_of_service(mbps: float) -> bool:
    """The paper's DoS criterion: bandwidth approximately zero."""
    return mbps < DOS_BANDWIDTH_THRESHOLD_MBPS


def loss_fraction(baseline_mbps: float, measured_mbps: float) -> float:
    """Fractional bandwidth loss relative to a baseline."""
    if baseline_mbps <= 0:
        raise ValueError(f"baseline must be positive, got {baseline_mbps}")
    return max(0.0, 1.0 - measured_mbps / baseline_mbps)


def is_significant_loss(baseline_mbps: float, measured_mbps: float) -> bool:
    """True when the loss crosses the significance threshold."""
    return loss_fraction(baseline_mbps, measured_mbps) > SIGNIFICANT_LOSS_FRACTION


# ---------------------------------------------------------------------------
# Small statistics helpers (no numpy dependency in the core path)
# ---------------------------------------------------------------------------


def sum_in_order(values: Iterable[float]) -> float:
    """Sum left to right, one rounding per addition, as ``sum()`` did
    before CPython 3.12 began compensating float sums: a result summed
    here has the same bits on every supported Python."""
    total = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for empty input."""
    if not values:
        return float("nan")
    return sum_in_order(values) / len(values)
