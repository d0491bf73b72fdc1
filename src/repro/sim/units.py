"""Unit helpers and physical constants for the network models.

Everything in the simulator uses SI base units internally:

* time     -- seconds (``float``)
* data     -- bytes (``int``)
* bandwidth -- bits per second (``float``)

These helpers keep conversions explicit and self-documenting at call sites
(``milliseconds(5)`` instead of ``0.005``).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time conversions
# ---------------------------------------------------------------------------


def seconds(value: float) -> float:
    """Identity helper; documents that ``value`` is already in seconds."""
    return float(value)


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) * 1e-3


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return float(value) * 1e-6


def nanoseconds(value: float) -> float:
    """Convert nanoseconds to seconds."""
    return float(value) * 1e-9


# ---------------------------------------------------------------------------
# Bandwidth conversions
# ---------------------------------------------------------------------------


def mbps(value: float) -> float:
    """Convert megabits-per-second to bits-per-second."""
    return float(value) * 1e6


def gbps(value: float) -> float:
    """Convert gigabits-per-second to bits-per-second."""
    return float(value) * 1e9


def to_mbps(bits_per_second: float) -> float:
    """Convert bits-per-second to megabits-per-second."""
    return float(bits_per_second) / 1e6


def bits(num_bytes: int) -> int:
    """Convert a byte count to a bit count."""
    return int(num_bytes) * 8


def transmission_delay(num_bytes: int, bandwidth_bps: float) -> float:
    """Serialization delay of ``num_bytes`` on a ``bandwidth_bps`` link."""
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    return bits(num_bytes) / float(bandwidth_bps)


# ---------------------------------------------------------------------------
# Ethernet constants (IEEE 802.3, 100BASE-TX)
# ---------------------------------------------------------------------------

#: Minimum Ethernet frame size on the wire (bytes), excluding preamble.
ETHERNET_MIN_FRAME = 64

#: Maximum standard Ethernet frame size on the wire (bytes).
ETHERNET_MAX_FRAME = 1518

#: Ethernet header (dst MAC, src MAC, ethertype).
ETHERNET_HEADER = 14

#: Frame check sequence (CRC32) trailer.
ETHERNET_FCS = 4

#: Preamble + start-of-frame delimiter, transmitted before each frame.
ETHERNET_PREAMBLE = 8

#: Minimum inter-frame gap in byte-times.
ETHERNET_IFG = 12

#: Per-frame overhead on the wire that is *not* part of the frame itself.
ETHERNET_WIRE_OVERHEAD = ETHERNET_PREAMBLE + ETHERNET_IFG

#: 100BASE-TX nominal bandwidth (bits per second).
FAST_ETHERNET_BPS = mbps(100)


def max_frame_rate(bandwidth_bps: float, frame_bytes: int) -> float:
    """Maximum frames-per-second for back-to-back frames of a given size.

    Accounts for the preamble and minimum inter-frame gap, matching the
    canonical figures quoted in RFC 2544 benchmarking discussions:
    148,809 fps for 64-byte frames and 8,127 fps for 1518-byte frames on
    100 Mbps Ethernet.
    """
    if frame_bytes < ETHERNET_MIN_FRAME:
        raise ValueError(
            f"frame_bytes {frame_bytes} below Ethernet minimum {ETHERNET_MIN_FRAME}"
        )
    wire_bytes = frame_bytes + ETHERNET_WIRE_OVERHEAD
    return float(bandwidth_bps) / bits(wire_bytes)


#: Maximum 64-byte frame rate on 100 Mbps Ethernet (~148,809 pps).
MAX_FRAME_RATE_64B = max_frame_rate(FAST_ETHERNET_BPS, ETHERNET_MIN_FRAME)

#: Maximum 1518-byte frame rate on 100 Mbps Ethernet (~8,127 fps).
MAX_FRAME_RATE_1518B = max_frame_rate(FAST_ETHERNET_BPS, ETHERNET_MAX_FRAME)
