"""Packet model: Ethernet, IPv4, TCP, UDP and ICMP.

Design notes
------------

* Headers are modelled exactly (field-for-field, correct wire sizes,
  binary serialization with real checksums).  *Payload bytes* may be
  modelled size-only (``payload_size`` with ``data=b""``): an iperf stream
  does not need 100 MB of real bytes, only their sizes and timing.  When
  serialized, size-only payload bytes are emitted as zeros.
* Packets are ordinary mutable dataclasses.  The simulator passes object
  references, so a packet must never be mutated after transmission; the
  stack and NIC models copy headers when they rewrite them (only the VPG
  encapsulation path rewrites anything).
* ``wire_size`` on :class:`EthernetFrame` includes the 14-byte header, the
  4-byte FCS, and minimum-frame padding -- it is the number that the link
  serialization delay and the NIC per-byte cost are computed from.  It is
  computed once when the frame is built, which is sound because packets
  are never mutated after transmission (above).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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


@dataclass
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


@dataclass
class UdpDatagram:
    """A UDP datagram (8-byte header plus payload)."""

    HEADER_SIZE = 8

    src_port: int
    dst_port: int
    payload_size: int = 0
    data: bytes = b""

    def __post_init__(self) -> None:
        _check_port(self.src_port)
        _check_port(self.dst_port)
        if self.payload_size < 0:
            raise ValueError(f"payload size must be >= 0, got {self.payload_size}")

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


@dataclass
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

    def __post_init__(self) -> None:
        _check_port(self.src_port)
        _check_port(self.dst_port)
        if self.payload_size < 0:
            raise ValueError(f"payload size must be >= 0, got {self.payload_size}")

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


@dataclass
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


@dataclass
class Ipv4Packet:
    """An IPv4 packet (20-byte header, no options)."""

    HEADER_SIZE = 20

    src: Ipv4Address
    dst: Ipv4Address
    payload: L4Payload
    protocol: Optional[IpProtocol] = None
    ttl: int = 64
    identification: int = 0

    def __post_init__(self) -> None:
        if self.protocol is None:
            inferred = _PROTOCOL_FOR_TYPE.get(type(self.payload))
            if inferred is None:
                raise ValueError(
                    "protocol must be given explicitly for raw payloads"
                )
            self.protocol = inferred
        if not 0 < self.ttl <= 255:
            raise ValueError(f"ttl out of range: {self.ttl}")

    @property
    def size(self) -> int:
        """Total packet size in bytes (header + L4 payload)."""
        return self.HEADER_SIZE + self.payload.size

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
        """Parse a packet; known L4 protocols are parsed structurally."""
        if len(raw) < cls.HEADER_SIZE:
            raise ValueError("truncated IPv4 packet")
        (version_ihl, _tos, total_length, identification, _frag, ttl, protocol, _checksum,
         src_raw, dst_raw) = struct.unpack("!BBHHHBBH4s4s", raw[:20])
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ihl = (version_ihl & 0x0F) * 4
        body = raw[ihl:total_length]
        protocol_enum = IpProtocol(protocol) if protocol in IpProtocol._value2member_map_ else None
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
            protocol=protocol_enum if protocol_enum is not None else IpProtocol.UDP,
            ttl=ttl,
            identification=identification,
        )

    def describe(self) -> str:
        """Human-readable one-liner for traces."""
        proto, src, sport, dst, dport = self.flow()
        return f"{proto.name} {src}:{sport} -> {dst}:{dport} ({self.size}B)"


#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800

#: EtherType for ARP.
ETHERTYPE_ARP = 0x0806


class ArpOp(IntEnum):
    """ARP operation codes."""

    REQUEST = 1
    REPLY = 2


@dataclass
class ArpMessage:
    """An ARP request or reply (RFC 826, Ethernet/IPv4 only)."""

    SIZE = 28

    op: ArpOp
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_mac: MacAddress
    target_ip: Ipv4Address

    @property
    def size(self) -> int:
        """Wire size of the ARP body."""
        return self.SIZE

    def to_bytes(self) -> bytes:
        """Wire representation (hardware type 1, protocol 0x0800)."""
        return (
            struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, int(self.op))
            + self.sender_mac.to_bytes()
            + self.sender_ip.to_bytes()
            + self.target_mac.to_bytes()
            + self.target_ip.to_bytes()
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ArpMessage":
        """Parse an ARP body."""
        if len(raw) < cls.SIZE:
            raise ValueError("truncated ARP message")
        _htype, _ptype, _hlen, _plen, op = struct.unpack("!HHBBH", raw[:8])
        return cls(
            op=ArpOp(op),
            sender_mac=MacAddress(int.from_bytes(raw[8:14], "big")),
            sender_ip=Ipv4Address(int.from_bytes(raw[14:18], "big")),
            target_mac=MacAddress(int.from_bytes(raw[18:24], "big")),
            target_ip=Ipv4Address(int.from_bytes(raw[24:28], "big")),
        )

    def describe(self) -> str:
        """Human-readable one-liner."""
        if self.op == ArpOp.REQUEST:
            return f"ARP who-has {self.target_ip} tell {self.sender_ip}"
        return f"ARP {self.sender_ip} is-at {self.sender_mac}"


@dataclass
class EthernetFrame:
    """An Ethernet II frame.

    ``wire_size`` accounts for the 14-byte header, the 4-byte FCS and
    padding to the 64-byte minimum; it deliberately excludes the preamble
    and inter-frame gap, which are accounted for separately by the link
    model (see :func:`repro.sim.units.max_frame_rate`).
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    payload: Union[Ipv4Packet, ArpMessage, RawPayload]
    ethertype: int = ETHERTYPE_IPV4
    #: Monotonic frame id assigned by the sender, for tracing.
    frame_id: int = field(default=0, compare=False)
    #: Bit-flipped serialized IPv4 header attached by an in-flight
    #: corruption fault (:class:`repro.net.link.LinkImpairment`); a
    #: receiving NIC re-verifies the RFC 1071 checksum over it and
    #: discards the frame when verification fails.  None on the healthy
    #: path.
    corrupt_header: Optional[bytes] = field(default=None, compare=False)
    #: Frame size on the wire in bytes, including FCS and min-frame
    #: padding.  Computed once at construction: every link hop reads it,
    #: and nothing mutates a payload after framing (rewrites build new
    #: packets with :func:`dataclasses.replace`).
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = units.ETHERNET_HEADER + self.payload.size + units.ETHERNET_FCS
        self.wire_size = max(raw, units.ETHERNET_MIN_FRAME)

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


def _check_port(port: int) -> None:
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"port out of range: {port}")
