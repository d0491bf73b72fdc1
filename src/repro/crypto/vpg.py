"""Virtual Private Group (VPG) packet encapsulation.

A VPG is an encrypted host-to-host channel enforced by the ADF NIC
(Carney et al.; Markham et al.).  Our encapsulation is ESP-like:

    outer IPv4 (protocol 50)
      | SPI (4) | sequence (4) |          -- clear header
      | ciphertext of inner headers + real payload bytes |
      | size-only inner payload tail (zeros on the wire) |
      | 8-byte truncated-HMAC tag |

The inner packet's *headers* (and any real payload bytes, e.g. HTTP
headers) are genuinely encrypted with the group key; payload bytes that
the simulation models size-only are represented by an explicit
``inner payload tail`` length, carried in the clear header, so the outer
packet has the correct wire size without materialising buffers.  The tag
covers the clear header and the ciphertext, giving integrity and sender
authentication; confidentiality of the headers hides the protected flow's
ports from on-path observers, as the real VPGs do.

The plaintext is the inner packet's wire form (20-byte IPv4 header with
its checksum, then the L4 header and the real payload bytes).  A TCP
inner packet, nearly every VPG packet a run carries, is serialized with
one precompiled ``struct`` pack and parsed back with one ``unpack_from``
when the decrypted bytes have the layout the pack writes; every other
plaintext goes through :meth:`Ipv4Packet.to_bytes` and
:meth:`Ipv4Packet.from_bytes`.  Either way the bytes are those of
``Ipv4Packet.to_bytes`` on the inner packet with its size-only tail
removed.  The TCP header is written without options, so SACK blocks do
not cross a VPG: the opened segment carries none.

The *time cost* of the cryptography is not modelled here: the ADF NIC
charges ``c_vpg0 + c_vpg_byte * inner_bytes`` of simulated service time
per VPG packet (see :mod:`repro.calibration`).

The inner packet must carry a structurally-modelled L4 payload (TCP, UDP
or ICMP): decapsulation re-parses the decrypted header bytes, and a raw
payload that does not decode as its declared protocol raises
:class:`VpgDecodeError`.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import field, replace

from repro.crypto.cipher import KeystreamCipher
from repro.crypto.mac import TAG_SIZE, compute_tag
from repro.net.addresses import Ipv4Address
from repro.net.packet import IpProtocol, Ipv4Packet, RawPayload, TcpFlags, TcpSegment, _slotted
from repro.obs.profiling import core as _profiling

#: SPI + sequence number.
VPG_CLEAR_HEADER = 8

#: Clear trailer carrying the size-only payload tail length.
VPG_TAIL_FIELD = 2

#: Sealed-payload bytes besides the ciphertext and the size-only tail.
_FIXED_SIZE = VPG_CLEAR_HEADER + VPG_TAIL_FIELD + TAG_SIZE

#: The clear header: SPI, sequence, size-only tail length.
_CLEAR_HEADER = struct.Struct("!IIH")

# The keystream nonce is the sender's address and its packet sequence,
# ``(outer src << 32) | sequence``: every member numbers its packets from
# 1 under the shared group key, so the sequence alone would repeat a
# keystream across senders.

#: A TCP inner packet's IPv4 and TCP headers: version/IHL, total length,
#: identification, TTL, protocol, header checksum, source, destination;
#: then ports, sequence, acknowledgement, data offset, flags and window.
#: Type of service, fragment offset, TCP checksum and urgent pointer are
#: zero, as :meth:`Ipv4Packet.to_bytes` writes them.
_TCP_HEADERS = struct.Struct("!BxHH2xBBHIIHHIIBBH4x")
_TCP_HEADERS_SIZE = _TCP_HEADERS.size

_MASK32 = 0xFFFFFFFF
_VERSION_IHL = 0x45
_DATA_OFFSET = 0x50
_TCP = IpProtocol.TCP
_VPG = IpProtocol.VPG

#: TcpFlags by the header's low six flag bits, without an enum call.
_TCP_FLAGS = tuple(TcpFlags(bits) for bits in range(64))

#: An unpacked 32-bit field is always a valid address, so the opened
#: packet's addresses skip ``Ipv4Address.__new__``'s parsing and checks.
_new_int = int.__new__
_compare_digest = hmac.compare_digest


class VpgError(Exception):
    """Base class for VPG processing failures."""


class VpgAuthError(VpgError):
    """Authentication tag verification failed (tamper or wrong key)."""


class VpgDecodeError(VpgError):
    """Malformed VPG payload."""


@_slotted()
class VpgSealedPayload:
    """The L4 payload of an encrypted VPG packet."""

    spi: int
    sequence: int
    ciphertext: bytes
    #: Size-only inner payload bytes not present in the ciphertext.
    inner_tail: int
    tag: bytes
    #: Wire size of the sealed payload, computed once at construction
    #: (a sealed payload is never resized after it is built).
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size = _FIXED_SIZE + len(self.ciphertext) + self.inner_tail

    def header_bytes(self) -> bytes:
        """The clear header (covered by the tag)."""
        return _CLEAR_HEADER.pack(self.spi, self.sequence & _MASK32, self.inner_tail)

    def to_bytes(self) -> bytes:
        """Wire representation (size-only tail as zeros)."""
        return (
            self.header_bytes()
            + self.ciphertext
            + b"\x00" * self.inner_tail
            + self.tag
        )

    def describe(self) -> str:
        """Human-readable one-liner."""
        return f"VPG spi={self.spi} seq={self.sequence} ({self.size}B)"


class VpgContext:
    """Encrypt/decrypt state for one VPG membership.

    Parameters
    ----------
    vpg_id:
        The group identifier, doubling as the on-wire SPI.
    key:
        The shared group key (distributed by the policy server).
    """

    def __init__(self, vpg_id: int, key: bytes):
        if vpg_id < 0 or vpg_id > 0xFFFFFFFF:
            raise ValueError(f"vpg_id out of range: {vpg_id}")
        self.vpg_id = vpg_id
        self.key = bytes(key)
        self.cipher = KeystreamCipher(self.key)
        self._tx_sequence = 0
        # Counters
        self.packets_sealed = 0
        self.packets_opened = 0
        self.auth_failures = 0

    # ------------------------------------------------------------------

    def seal(self, inner: Ipv4Packet, outer_src: Ipv4Address, outer_dst: Ipv4Address) -> Ipv4Packet:
        """Encrypt ``inner`` into an outer VPG packet."""
        # Seal and open run inside the NIC's processor event; their own
        # profiling scope splits the cipher out of "nic.adf.proc".
        profiler = _profiling.ACTIVE
        if profiler is None:
            return self._seal(inner, outer_src, outer_dst)
        profiler.enter("crypto.vpg")
        try:
            return self._seal(inner, outer_src, outer_dst)
        finally:
            profiler.exit()

    def _seal(self, inner: Ipv4Packet, outer_src: Ipv4Address, outer_dst: Ipv4Address) -> Ipv4Packet:
        self._tx_sequence = sequence = self._tx_sequence + 1
        payload = inner.payload
        if type(payload) is TcpSegment:
            data = payload.data
            tail = payload.payload_size - len(data)
            src = inner.src
            dst = inner.dst
            ttl = inner.ttl
            protocol = inner.protocol
            total = _TCP_HEADERS_SIZE + len(data)
            identification = inner.identification & 0xFFFF
            # RFC 1071 over the ten header words, the checksum word zero.
            checksum = (
                (_VERSION_IHL << 8) + total + identification + (ttl << 8) + protocol
                + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
            )
            checksum = (checksum & 0xFFFF) + (checksum >> 16)
            checksum = (checksum & 0xFFFF) + (checksum >> 16)
            plaintext = _TCP_HEADERS.pack(
                _VERSION_IHL, total, identification, ttl, protocol, ~checksum & 0xFFFF, src, dst,
                payload.src_port, payload.dst_port, payload.seq & _MASK32, payload.ack & _MASK32,
                _DATA_OFFSET, payload.flags, payload.window,
            ) + data
        else:
            real = len(payload.data)
            tail = _payload_length(payload) - real
            plaintext = (_with_payload_length(inner, real) if tail else inner).to_bytes()
        ciphertext = self.cipher.encrypt(plaintext, (outer_src << 32) | (sequence & _MASK32))
        spi = self.vpg_id
        tag = compute_tag(self.key, _CLEAR_HEADER.pack(spi, sequence & _MASK32, tail) + ciphertext)
        self.packets_sealed += 1
        return Ipv4Packet(
            outer_src, outer_dst, VpgSealedPayload(spi, sequence, ciphertext, tail, tag),
            _VPG, 64, inner.identification,
        )

    def open(self, outer: Ipv4Packet) -> Ipv4Packet:
        """Authenticate and decrypt an outer VPG packet back to the inner one."""
        profiler = _profiling.ACTIVE
        if profiler is None:
            return self._open(outer)
        profiler.enter("crypto.vpg")
        try:
            return self._open(outer)
        finally:
            profiler.exit()

    def _open(self, outer: Ipv4Packet) -> Ipv4Packet:
        sealed = outer.payload
        if not isinstance(sealed, VpgSealedPayload):
            raise VpgDecodeError("packet does not carry a VPG payload")
        spi = sealed.spi
        if spi != self.vpg_id:
            raise VpgDecodeError(
                f"SPI mismatch: packet {spi}, context {self.vpg_id}"
            )
        ciphertext = sealed.ciphertext
        sequence = sealed.sequence
        tail = sealed.inner_tail
        tag = compute_tag(self.key, _CLEAR_HEADER.pack(spi, sequence & _MASK32, tail) + ciphertext)
        if not _compare_digest(tag, sealed.tag):
            self.auth_failures += 1
            raise VpgAuthError(f"authentication failed for spi={spi}")
        try:
            plaintext = self.cipher.decrypt(ciphertext, (outer.src << 32) | (sequence & _MASK32))
        except ValueError as exc:
            raise VpgDecodeError(f"inner packet decode failed: {exc}") from exc
        end = len(plaintext)
        if end >= _TCP_HEADERS_SIZE:
            (version_ihl, total, identification, ttl, protocol, _checksum, src, dst,
             src_port, dst_port, seq, ack, offset, flags, window) = _TCP_HEADERS.unpack_from(plaintext)
            if (
                version_ihl == _VERSION_IHL and protocol == _TCP and total == end and ttl
                and offset & 0xF0 == _DATA_OFFSET
            ):
                self.packets_opened += 1
                return Ipv4Packet(
                    _new_int(Ipv4Address, src),
                    _new_int(Ipv4Address, dst),
                    TcpSegment(
                        src_port, dst_port, seq, ack, _TCP_FLAGS[flags & 0x3F], window,
                        total - _TCP_HEADERS_SIZE + tail, plaintext[_TCP_HEADERS_SIZE:],
                    ),
                    _TCP,
                    ttl,
                    identification,
                )
        try:
            inner = Ipv4Packet.from_bytes(plaintext)
        except ValueError as exc:
            raise VpgDecodeError(f"inner packet decode failed: {exc}") from exc
        self.packets_opened += 1
        if tail:
            inner = _with_payload_length(inner, _payload_length(inner.payload) + tail)
        return inner


def _payload_length(payload) -> int:
    """Payload bytes an L4 payload declares (headers excluded)."""
    if type(payload) is RawPayload:
        return payload.size
    return payload.payload_size


def _with_payload_length(inner: Ipv4Packet, length: int) -> Ipv4Packet:
    """A copy of ``inner`` whose L4 payload declares ``length`` bytes."""
    payload = inner.payload
    if type(payload) is RawPayload:
        payload = replace(payload, size=length)
    else:
        payload = replace(payload, payload_size=length)
    return replace(inner, payload=payload)
