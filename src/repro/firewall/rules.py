"""Stateless packet-filter rules.

A rule matches on the classic 5-tuple — protocol, source/destination
address prefixes, source/destination port ranges — plus traffic
direction, and carries an ALLOW or DENY action.  This mirrors the EFW's
stateless filtering model (and the subset of iptables the paper
exercises).

VPG rules (:class:`VpgRule`) extend the base rule with a VPG identifier:
on the wire they match the encrypted VPG channel (protocol 50 + SPI); on
the plaintext side they match the protected flow's selector and trigger
encryption.  The paper treats "the pair of rules that fully define one
VPG" as a single action rule; :class:`VpgRule` is that pair, and its
``rule_cost`` of 2 accounts for both entries when rule-set depth is
computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import Ipv4Address
from repro.net.packet import IpProtocol, Ipv4Packet


class Action(enum.Enum):
    """Verdict a rule renders."""

    ALLOW = "allow"
    DENY = "deny"


class Direction(enum.Enum):
    """Traffic direction relative to the protected host."""

    INBOUND = "in"
    OUTBOUND = "out"
    BOTH = "both"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality, and a flow-cache probe hashes the
    # direction in C instead of calling ``Enum.__hash__``.
    __hash__ = object.__hash__

    def covers(self, other: "Direction") -> bool:
        """True if a rule with this direction applies to ``other`` traffic."""
        return self == Direction.BOTH or self == other


@dataclass(frozen=True)
class PortRange:
    """An inclusive TCP/UDP port range.  ``PortRange.any()`` matches all."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not (0 <= self.low <= self.high <= 0xFFFF):
            raise ValueError(f"invalid port range [{self.low}, {self.high}]")

    @classmethod
    def any(cls) -> "PortRange":
        """The full port range."""
        return cls(0, 0xFFFF)

    @classmethod
    def single(cls, port: int) -> "PortRange":
        """A single port."""
        return cls(port, port)

    def contains(self, port: int) -> bool:
        """True if ``port`` is inside the range."""
        return self.low <= port <= self.high

    def overlaps(self, other: "PortRange") -> bool:
        """True if the two ranges share any port."""
        return self.low <= other.high and other.low <= self.high

    def is_subset_of(self, other: "PortRange") -> bool:
        """True if every port here is inside ``other``."""
        return other.low <= self.low and self.high <= other.high

    @property
    def is_any(self) -> bool:
        """True for the full range."""
        return self.low == 0 and self.high == 0xFFFF


@dataclass(frozen=True)
class AddressPattern:
    """An IPv4 prefix pattern.  ``AddressPattern.any()`` matches all."""

    network: Ipv4Address
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"invalid prefix length {self.prefix_len}")

    @classmethod
    def any(cls) -> "AddressPattern":
        """The 0.0.0.0/0 pattern."""
        return cls(Ipv4Address(0), 0)

    @classmethod
    def host(cls, address: Ipv4Address) -> "AddressPattern":
        """A /32 single-host pattern."""
        return cls(address, 32)

    def matches(self, address: Ipv4Address) -> bool:
        """True if ``address`` falls inside the prefix."""
        return address.in_subnet(self.network, self.prefix_len)

    def is_subset_of(self, other: "AddressPattern") -> bool:
        """True if this prefix is wholly contained in ``other``."""
        if other.prefix_len > self.prefix_len:
            return False
        return self.network.in_subnet(other.network, other.prefix_len)

    @property
    def is_any(self) -> bool:
        """True for 0.0.0.0/0."""
        return self.prefix_len == 0

    def __str__(self) -> str:
        if self.is_any:
            return "any"
        return f"{self.network}/{self.prefix_len}"


@dataclass(frozen=True)
class Rule:
    """One stateless filter rule."""

    action: Action
    protocol: Optional[IpProtocol] = None  # None matches any protocol
    src: AddressPattern = AddressPattern.any()
    dst: AddressPattern = AddressPattern.any()
    src_ports: PortRange = PortRange.any()
    dst_ports: PortRange = PortRange.any()
    direction: Direction = Direction.BOTH
    name: str = ""

    #: EFW policy rules conventionally describe a bidirectional service
    #: session: when True, the rule also matches packets whose endpoint
    #: pattern is the mirror image (src/dst swapped) of the one written —
    #: so a rule for "traffic to port 5001" also matches the responses
    #: coming back from port 5001 at the same rule-set depth.
    symmetric: bool = False

    #: How many rule-table entries this rule occupies (VPG pairs occupy 2).
    rule_cost: int = 1

    def matches(self, packet: Ipv4Packet, direction: Direction) -> bool:
        """True if the rule applies to ``packet`` travelling ``direction``."""
        if not self.direction.covers(direction):
            return False
        protocol, src, src_port, dst, dst_port = packet.flow()
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self._endpoints_match(protocol, src, src_port, dst, dst_port):
            return True
        if self.symmetric:
            return self._endpoints_match(protocol, dst, dst_port, src, src_port)
        return False

    def _endpoints_match(self, protocol, src, src_port, dst, dst_port) -> bool:
        if not self.src.matches(src) or not self.dst.matches(dst):
            return False
        if protocol in (IpProtocol.TCP, IpProtocol.UDP):
            if not self.src_ports.contains(src_port):
                return False
            if not self.dst_ports.contains(dst_port):
                return False
        return True

    def describe(self) -> str:
        """Human-readable one-liner."""
        proto = self.protocol.name if self.protocol is not None else "any"
        label = f" ({self.name})" if self.name else ""
        return (
            f"{self.action.value} {proto} {self.src}:{_ports(self.src_ports)} -> "
            f"{self.dst}:{_ports(self.dst_ports)} [{self.direction.value}]{label}"
        )


@dataclass(frozen=True)
class VpgRule(Rule):
    """A Virtual Private Group rule (a matched pair of entries).

    ``vpg_id`` doubles as the on-wire SPI.  The selector fields describe
    the *plaintext* traffic the VPG protects; encrypted VPG packets are
    matched by SPI (see :meth:`matches_encrypted`).
    """

    vpg_id: int = 0
    rule_cost: int = 2
    #: VPGs protect both directions of the flow by construction.
    symmetric: bool = True

    def matches_encrypted(self, spi: int) -> bool:
        """True if an encrypted VPG packet with ``spi`` belongs to this group."""
        return spi == self.vpg_id

    def describe(self) -> str:
        """Human-readable one-liner (prefixed with the group id)."""
        return f"vpg#{self.vpg_id} " + super().describe()


def _ports(port_range: PortRange) -> str:
    if port_range.is_any:
        return "any"
    if port_range.low == port_range.high:
        return str(port_range.low)
    return f"{port_range.low}-{port_range.high}"
