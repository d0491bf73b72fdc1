"""MAC and IPv4 address value types.

Both types are immutable, hashable, ordered, and convert cleanly to and
from their canonical text and integer representations, so they can be used
as dictionary keys in forwarding tables and firewall rules.

Each is an ``int`` subclass holding the address's integer value: every
switch, ARP and flow-cache probe hashes and compares addresses in C, and
bit tests (``mac & (1 << 40)``) need no conversion.  Only the text forms
(``str``/``repr``), the constructors and :meth:`to_bytes` are Python.
An address equals the plain ``int`` of the same value, and its hash is
that int's hash, which does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Union


class MacAddress(int):
    """A 48-bit IEEE 802 MAC address."""

    __slots__ = ()

    MAX = (1 << 48) - 1

    def __new__(cls, value: Union[int, str, "MacAddress"]):
        if isinstance(value, MacAddress):
            return value
        if isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {value!r}")
            try:
                octets = [int(part, 16) for part in parts]
            except ValueError as exc:
                raise ValueError(f"malformed MAC address: {value!r}") from exc
            if any(octet < 0 or octet > 255 for octet in octets):
                raise ValueError(f"malformed MAC address: {value!r}")
            value = int.from_bytes(bytes(octets), "big")
        else:
            value = int(value)
            if value < 0 or value > cls.MAX:
                raise ValueError(f"MAC address out of range: {value}")
        return int.__new__(cls, value)

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered address for host ``index``."""
        if index < 0 or index > 0xFFFFFF:
            raise ValueError(f"host index out of range: {index}")
        return cls(0x02_00_00_000000 | index)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        """Big-endian 6-byte wire representation."""
        return int.to_bytes(self, 6, "big")

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self == self.MAX

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set."""
        return bool(self & (1 << 40))

    def __str__(self) -> str:
        return ":".join(f"{octet:02x}" for octet in self.to_bytes())

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


#: The Ethernet broadcast address.
BROADCAST_MAC = MacAddress((1 << 48) - 1)


class Ipv4Address(int):
    """A 32-bit IPv4 address."""

    __slots__ = ()

    MAX = (1 << 32) - 1

    def __new__(cls, value: Union[int, str, "Ipv4Address"]):
        if isinstance(value, Ipv4Address):
            return value
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            try:
                octets = [int(part) for part in parts]
            except ValueError as exc:
                raise ValueError(f"malformed IPv4 address: {value!r}") from exc
            if any(octet < 0 or octet > 255 for octet in octets):
                raise ValueError(f"malformed IPv4 address: {value!r}")
            value = int.from_bytes(bytes(octets), "big")
        else:
            value = int(value)
            if value < 0 or value > cls.MAX:
                raise ValueError(f"IPv4 address out of range: {value}")
        return int.__new__(cls, value)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        """Big-endian 4-byte wire representation."""
        return int.to_bytes(self, 4, "big")

    def in_subnet(self, network: "Ipv4Address", prefix_len: int) -> bool:
        """True if this address falls inside ``network``/``prefix_len``."""
        if prefix_len < 0 or prefix_len > 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        if prefix_len == 0:
            return True
        mask = (self.MAX << (32 - prefix_len)) & self.MAX
        return (self & mask) == (network & mask)

    def __add__(self, offset: int) -> "Ipv4Address":
        return Ipv4Address(int(self) + int(offset))

    def __str__(self) -> str:
        return ".".join(str(octet) for octet in self.to_bytes())

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"
