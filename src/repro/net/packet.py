"""Packet model: Ethernet, IPv4, TCP, UDP and ICMP.

Design notes
------------

* Headers are modelled exactly (field-for-field, correct wire sizes,
  binary serialization with real checksums).  *Payload bytes* may be
  modelled size-only (``payload_size`` with ``data=b""``): an iperf stream
  does not need 100 MB of real bytes, only their sizes and timing.  When
  serialized, size-only payload bytes are emitted as zeros.
* Packets are slotted dataclasses: no instance ``__dict__``, and an
  undeclared attribute is an error.  The tracing stamps (``trace_ctx``,
  ``trace_parent``, ``trace_t0``) are declared slots that stay unset until
  the tracer writes them, so readers use ``getattr(..., None)``.  The
  simulator passes object references, so a packet must never be mutated
  after transmission; the stack and NIC models build new packets with
  :func:`dataclasses.replace` when they rewrite one (only the VPG
  encapsulation path rewrites anything).
* ``size`` on :class:`Ipv4Packet` and ``wire_size`` on
  :class:`EthernetFrame` are computed once at construction, which is
  sound because packets are never mutated after transmission (above).
  ``wire_size`` includes the 14-byte header, the 4-byte FCS, and
  minimum-frame padding -- it is the number that the link serialization
  delay and the NIC per-byte cost are computed from.
* :class:`TcpSegment`, :class:`UdpDatagram`, :class:`Ipv4Packet` and
  :class:`EthernetFrame` define their own ``__init__`` (the dataclass
  keeps it): building one validates it and, for the packet and the
  frame, computes ``size``/``wire_size`` in that one call.  Its
  parameters are the fields in field order, so
  :func:`dataclasses.replace` rebuilds, revalidates and resizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from enum import IntEnum, IntFlag
from typing import Optional, Tuple, Union

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.checksum import internet_checksum
from repro.sim import units


class IpProtocol(IntEnum):
    """IP protocol numbers used by the simulator."""

    ICMP = 1
    TCP = 6
    UDP = 17
    #: ESP, used for the ADF's encrypted Virtual Private Group channels.
    VPG = 50


class TcpFlags(IntFlag):
    """TCP header flags."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


# Flag tests read these plain-int bits off ``int(flags)``: ``&`` between
# two IntFlag values builds a new enum member on every call (~1 us).
_FIN = int(TcpFlags.FIN)
_SYN = int(TcpFlags.SYN)
_RST = int(TcpFlags.RST)
_ACK = int(TcpFlags.ACK)


def _slotted(*extra: str):
    """``@dataclass`` with ``__slots__`` on every supported Python
    (``dataclass(slots=True)`` needs 3.10): the dataclass is rebuilt with
    one slot per field plus the ``extra`` slots, which are not fields."""

    def wrap(cls):
        cls = dataclass(cls)
        names = tuple(f.name for f in fields(cls)) + extra
        namespace = {
            key: value
            for key, value in cls.__dict__.items()
            if key not in names and key not in ("__dict__", "__weakref__")
        }
        namespace["__slots__"] = names
        return type(cls)(cls.__name__, cls.__bases__, namespace)

    return wrap


@_slotted()
class RawPayload:
    """An opaque payload of a given size (optionally with real bytes)."""

    size: int
    data: bytes = b""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"payload size must be >= 0, got {self.size}")
        if self.data and len(self.data) > self.size:
            raise ValueError("payload data longer than declared size")

    def to_bytes(self) -> bytes:
        """Real bytes followed by zero padding up to ``size``."""
        return self.data + b"\x00" * (self.size - len(self.data))


@_slotted()
class UdpDatagram:
    """A UDP datagram (8-byte header plus payload)."""

    HEADER_SIZE = 8

    src_port: int
    dst_port: int
    payload_size: int = 0
    data: bytes = b""

    def __init__(self, src_port: int, dst_port: int, payload_size: int = 0, data: bytes = b""):
        if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
            raise ValueError(f"port out of range: {src_port} -> {dst_port}")
        if payload_size < 0:
            raise ValueError(f"payload size must be >= 0, got {payload_size}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload_size = payload_size
        self.data = data

    @property
    def size(self) -> int:
        """Total datagram size in bytes (header + payload)."""
        return self.HEADER_SIZE + self.payload_size

    def to_bytes(self) -> bytes:
        """Wire representation with a zero checksum field (checksum optional in IPv4)."""
        payload = self.data + b"\x00" * (self.payload_size - len(self.data))
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.size, 0) + payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "UdpDatagram":
        """Parse a datagram; payload is retained as real bytes."""
        if len(raw) < cls.HEADER_SIZE:
            raise ValueError("truncated UDP datagram")
        src_port, dst_port, length, _checksum = struct.unpack("!HHHH", raw[:8])
        payload = raw[8:length]
        return cls(src_port=src_port, dst_port=dst_port, payload_size=len(payload), data=payload)


@_slotted()
class TcpSegment:
    """A TCP segment (20-byte header; SACK is the one option modelled).

    ``sack_blocks`` carries up to three (start, end) selective-ack ranges.
    Real SACK options add 8n+2 header bytes; we fold that into the fixed
    header size (the era's stacks padded options to word boundaries and
    the few bytes are immaterial next to the frame minimum).
    """

    HEADER_SIZE = 20

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TcpFlags = TcpFlags.NONE
    window: int = 65535
    payload_size: int = 0
    data: bytes = b""
    sack_blocks: tuple = ()

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: TcpFlags = TcpFlags.NONE,
        window: int = 65535,
        payload_size: int = 0,
        data: bytes = b"",
        sack_blocks: tuple = (),
    ):
        if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
            raise ValueError(f"port out of range: {src_port} -> {dst_port}")
        if payload_size < 0:
            raise ValueError(f"payload size must be >= 0, got {payload_size}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload_size = payload_size
        self.data = data
        self.sack_blocks = sack_blocks

    @property
    def size(self) -> int:
        """Total segment size in bytes (header + payload)."""
        return self.HEADER_SIZE + self.payload_size

    @property
    def syn(self) -> bool:
        """True when the SYN flag is set."""
        return bool(int(self.flags) & _SYN)

    @property
    def ack_flag(self) -> bool:
        """True when the ACK flag is set (named to avoid clashing with ``ack``)."""
        return bool(int(self.flags) & _ACK)

    @property
    def fin(self) -> bool:
        """True when the FIN flag is set."""
        return bool(int(self.flags) & _FIN)

    @property
    def rst(self) -> bool:
        """True when the RST flag is set."""
        return bool(int(self.flags) & _RST)

    def to_bytes(self) -> bytes:
        """Wire representation (checksum field zero; see Ipv4Packet.to_bytes)."""
        payload = self.data + b"\x00" * (self.payload_size - len(self.data))
        offset_flags = (5 << 12) | int(self.flags)
        header = struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            offset_flags,
            self.window,
            0,  # checksum (filled at IP layer when serializing full packets)
            0,  # urgent pointer
        )
        return header + payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TcpSegment":
        """Parse a segment; payload is retained as real bytes."""
        if len(raw) < cls.HEADER_SIZE:
            raise ValueError("truncated TCP segment")
        (src_port, dst_port, seq, ack, offset_flags, window, _checksum, _urg) = struct.unpack(
            "!HHIIHHHH", raw[:20]
        )
        data_offset = (offset_flags >> 12) * 4
        flags = TcpFlags(offset_flags & 0x3F)
        payload = raw[data_offset:]
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            payload_size=len(payload),
            data=payload,
        )


class IcmpType(IntEnum):
    """ICMP message types used by the simulator."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8


#: ICMP "port unreachable" code under DEST_UNREACHABLE.
ICMP_CODE_PORT_UNREACHABLE = 3


@_slotted()
class IcmpMessage:
    """An ICMP message (8-byte header plus payload)."""

    HEADER_SIZE = 8

    icmp_type: IcmpType
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    payload_size: int = 0
    data: bytes = b""

    @property
    def size(self) -> int:
        """Total message size in bytes (header + payload)."""
        return self.HEADER_SIZE + self.payload_size

    def to_bytes(self) -> bytes:
        """Wire representation with a valid ICMP checksum."""
        payload = self.data + b"\x00" * (self.payload_size - len(self.data))
        header = struct.pack(
            "!BBHHH", int(self.icmp_type), self.code, 0, self.identifier, self.sequence
        )
        checksum = internet_checksum(header + payload)
        header = struct.pack(
            "!BBHHH", int(self.icmp_type), self.code, checksum, self.identifier, self.sequence
        )
        return header + payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IcmpMessage":
        """Parse a message; payload is retained as real bytes."""
        if len(raw) < cls.HEADER_SIZE:
            raise ValueError("truncated ICMP message")
        icmp_type, code, _checksum, identifier, sequence = struct.unpack("!BBHHH", raw[:8])
        payload = raw[8:]
        return cls(
            icmp_type=IcmpType(icmp_type),
            code=code,
            identifier=identifier,
            sequence=sequence,
            payload_size=len(payload),
            data=payload,
        )


#: Union of payload types an IPv4 packet may carry.
L4Payload = Union[TcpSegment, UdpDatagram, IcmpMessage, RawPayload]

_PROTOCOL_FOR_TYPE = {
    TcpSegment: IpProtocol.TCP,
    UdpDatagram: IpProtocol.UDP,
    IcmpMessage: IpProtocol.ICMP,
}


@_slotted("trace_ctx", "trace_parent")
class Ipv4Packet:
    """An IPv4 packet (20-byte header, no options)."""

    HEADER_SIZE = 20

    src: Ipv4Address
    dst: Ipv4Address
    payload: L4Payload
    protocol: Optional[IpProtocol] = None
    ttl: int = 64
    identification: int = 0
    #: Total packet size in bytes (header + L4 payload).  Computed once
    #: at construction (:func:`dataclasses.replace` recomputes it): every
    #: hop and cost model reads it.
    size: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        src: Ipv4Address,
        dst: Ipv4Address,
        payload: L4Payload,
        protocol: Optional[IpProtocol] = None,
        ttl: int = 64,
        identification: int = 0,
    ):
        if protocol is None:
            protocol = _PROTOCOL_FOR_TYPE.get(type(payload))
            if protocol is None:
                raise ValueError("protocol must be given explicitly for raw payloads")
        if not 0 < ttl <= 255:
            raise ValueError(f"ttl out of range: {ttl}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.protocol = protocol
        self.ttl = ttl
        self.identification = identification
        self.size = self.HEADER_SIZE + payload.size

    @property
    def tcp(self) -> Optional[TcpSegment]:
        """The TCP segment, if this packet carries one."""
        return self.payload if isinstance(self.payload, TcpSegment) else None

    @property
    def udp(self) -> Optional[UdpDatagram]:
        """The UDP datagram, if this packet carries one."""
        return self.payload if isinstance(self.payload, UdpDatagram) else None

    @property
    def icmp(self) -> Optional[IcmpMessage]:
        """The ICMP message, if this packet carries one."""
        return self.payload if isinstance(self.payload, IcmpMessage) else None

    def flow(self) -> Tuple[IpProtocol, Ipv4Address, int, Ipv4Address, int]:
        """The 5-tuple used by firewall rules: (proto, src, sport, dst, dport).

        Ports are 0 for protocols without ports (ICMP, raw).
        """
        src_port = dst_port = 0
        payload = self.payload
        if isinstance(payload, (TcpSegment, UdpDatagram)):
            src_port = payload.src_port
            dst_port = payload.dst_port
        return (self.protocol, self.src, src_port, self.dst, dst_port)

    def to_bytes(self) -> bytes:
        """Full wire representation with valid IPv4 header checksum."""
        payload_bytes = self.payload.to_bytes()
        total_length = self.HEADER_SIZE + len(payload_bytes)
        header_wo_checksum = struct.pack(
            "!BBHHHBBH4s4s",
            0x45,  # version 4, IHL 5
            0,  # DSCP/ECN
            total_length,
            self.identification & 0xFFFF,
            0,  # flags/fragment offset
            self.ttl,
            int(self.protocol),
            0,  # checksum placeholder
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        checksum = internet_checksum(header_wo_checksum)
        header = struct.pack(
            "!BBHHHBBH4s4s",
            0x45,
            0,
            total_length,
            self.identification & 0xFFFF,
            0,
            self.ttl,
            int(self.protocol),
            checksum,
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        return header + payload_bytes

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Ipv4Packet":
        """Parse a packet; known L4 protocols are parsed structurally.

        Raises :class:`ValueError` for an IP protocol number that
        :class:`IpProtocol` does not name, rather than relabel it.
        """
        if len(raw) < cls.HEADER_SIZE:
            raise ValueError("truncated IPv4 packet")
        (version_ihl, _tos, total_length, identification, _frag, ttl, protocol, _checksum,
         src_raw, dst_raw) = struct.unpack("!BBHHHBBH4s4s", raw[:20])
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ihl = (version_ihl & 0x0F) * 4
        body = raw[ihl:total_length]
        protocol_enum = IpProtocol._value2member_map_.get(protocol)
        if protocol_enum is None:
            raise ValueError(f"unknown IP protocol {protocol}")
        payload: L4Payload
        if protocol_enum is IpProtocol.TCP:
            payload = TcpSegment.from_bytes(body)
        elif protocol_enum is IpProtocol.UDP:
            payload = UdpDatagram.from_bytes(body)
        elif protocol_enum is IpProtocol.ICMP:
            payload = IcmpMessage.from_bytes(body)
        else:
            payload = RawPayload(size=len(body), data=body)
        return cls(
            src=Ipv4Address(int.from_bytes(src_raw, "big")),
            dst=Ipv4Address(int.from_bytes(dst_raw, "big")),
            payload=payload,
            protocol=protocol_enum,
            ttl=ttl,
            identification=identification,
        )

    def describe(self) -> str:
        """Human-readable one-liner for traces."""
        proto, src, sport, dst, dport = self.flow()
        return f"{proto.name} {src}:{sport} -> {dst}:{dport} ({self.size}B)"


#: Ethernet header plus FCS, the bytes a frame adds to its payload.
_FRAME_OVERHEAD = units.ETHERNET_HEADER + units.ETHERNET_FCS
_MIN_FRAME = units.ETHERNET_MIN_FRAME

#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800


@_slotted("trace_t0", "trace_parent")
class EthernetFrame:
    """An Ethernet II frame.

    ``wire_size`` accounts for the 14-byte header, the 4-byte FCS and
    padding to the 64-byte minimum; it deliberately excludes the preamble
    and inter-frame gap, which are accounted for separately by the link
    model (see :func:`repro.sim.units.max_frame_rate`).
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    payload: Union[Ipv4Packet, RawPayload]
    ethertype: int = ETHERTYPE_IPV4
    #: Bit-flipped serialized IPv4 header carried by the copy of a
    #: frame that an in-flight corruption fault transmits
    #: (:class:`repro.net.link.LinkImpairment`); a receiving NIC
    #: re-verifies the RFC 1071 checksum over it and discards the frame
    #: when verification fails.  None on the healthy path.
    corrupt_header: Optional[bytes] = field(default=None, compare=False)
    #: Frame size on the wire in bytes, including FCS and min-frame
    #: padding.  Computed once at construction: every link hop reads it,
    #: and nothing mutates a payload after framing (rewrites build new
    #: packets with :func:`dataclasses.replace`).
    wire_size: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        payload: Union[Ipv4Packet, RawPayload],
        ethertype: int = ETHERTYPE_IPV4,
        corrupt_header: Optional[bytes] = None,
    ):
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.payload = payload
        self.ethertype = ethertype
        self.corrupt_header = corrupt_header
        size = payload.size + _FRAME_OVERHEAD
        self.wire_size = size if size > _MIN_FRAME else _MIN_FRAME

    @property
    def ip(self) -> Optional[Ipv4Packet]:
        """The IPv4 packet, if this frame carries one."""
        return self.payload if isinstance(self.payload, Ipv4Packet) else None

    def describe(self) -> str:
        """Human-readable one-liner for traces."""
        inner = self.payload.describe() if isinstance(self.payload, Ipv4Packet) else (
            f"raw {self.payload.size}B"
        )
        return f"[{self.src_mac} -> {self.dst_mac}] {inner}"
