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

The *time cost* of the cryptography is not modelled here: the ADF NIC
charges ``c_vpg0 + c_vpg_byte * inner_bytes`` of simulated service time
per VPG packet (see :mod:`repro.calibration`).

The inner packet must carry a structurally-modelled L4 payload (TCP, UDP
or ICMP): decapsulation re-parses the decrypted header bytes, and a raw
payload that does not decode as its declared protocol raises
:class:`VpgDecodeError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.cipher import KeystreamCipher
from repro.crypto.mac import TAG_SIZE, compute_tag, verify_tag
from repro.net.addresses import Ipv4Address
from repro.net.packet import IcmpMessage, IpProtocol, Ipv4Packet, RawPayload, TcpSegment, UdpDatagram
from repro.obs.profiling import core as _profiling

#: SPI + sequence number.
VPG_CLEAR_HEADER = 8

#: Clear trailer carrying the size-only payload tail length.
VPG_TAIL_FIELD = 2


class VpgError(Exception):
    """Base class for VPG processing failures."""


class VpgAuthError(VpgError):
    """Authentication tag verification failed (tamper or wrong key)."""


class VpgDecodeError(VpgError):
    """Malformed VPG payload."""


@dataclass
class VpgSealedPayload:
    """The L4 payload of an encrypted VPG packet."""

    spi: int
    sequence: int
    ciphertext: bytes
    #: Size-only inner payload bytes not present in the ciphertext.
    inner_tail: int
    tag: bytes

    @property
    def size(self) -> int:
        """Wire size of the sealed payload."""
        return (
            VPG_CLEAR_HEADER
            + VPG_TAIL_FIELD
            + len(self.ciphertext)
            + self.inner_tail
            + TAG_SIZE
        )

    def header_bytes(self) -> bytes:
        """The clear header (covered by the tag)."""
        return struct.pack("!IIH", self.spi, self.sequence & 0xFFFFFFFF, self.inner_tail)

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
        self._tx_sequence += 1
        sequence = self._tx_sequence
        trimmed, tail = _split_size_only_tail(inner)
        plaintext = trimmed.to_bytes()
        ciphertext = self.cipher.encrypt(plaintext, _nonce(outer_src, sequence))
        sealed = VpgSealedPayload(
            spi=self.vpg_id,
            sequence=sequence,
            ciphertext=ciphertext,
            inner_tail=tail,
            tag=b"\x00" * TAG_SIZE,
        )
        sealed.tag = compute_tag(self.key, sealed.header_bytes() + ciphertext)
        self.packets_sealed += 1
        return Ipv4Packet(
            src=outer_src,
            dst=outer_dst,
            payload=sealed,
            protocol=IpProtocol.VPG,
            identification=inner.identification,
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
        if sealed.spi != self.vpg_id:
            raise VpgDecodeError(
                f"SPI mismatch: packet {sealed.spi}, context {self.vpg_id}"
            )
        if not verify_tag(self.key, sealed.header_bytes() + sealed.ciphertext, sealed.tag):
            self.auth_failures += 1
            raise VpgAuthError(f"authentication failed for spi={sealed.spi}")
        try:
            plaintext = self.cipher.decrypt(
                sealed.ciphertext, _nonce(outer.src, sealed.sequence)
            )
            inner = Ipv4Packet.from_bytes(plaintext)
        except ValueError as exc:
            raise VpgDecodeError(f"inner packet decode failed: {exc}") from exc
        self.packets_opened += 1
        return _restore_size_only_tail(inner, sealed.inner_tail)


def _nonce(outer_src: Ipv4Address, sequence: int) -> int:
    """The keystream nonce: the sender's address and its packet sequence.

    Every member numbers its packets from 1 under the shared group key,
    so the sequence alone would repeat a keystream across senders.
    """
    return (int(outer_src) << 32) | (sequence & 0xFFFFFFFF)


def _split_size_only_tail(inner: Ipv4Packet):
    """Separate the size-only payload tail from the bytes to encrypt.

    Returns ``inner`` itself when every payload byte is real (no tail),
    else a copy whose L4 payload length covers only the real data bytes;
    plus the number of size-only tail bytes removed.
    """
    payload = inner.payload
    real = len(payload.data)
    tail = _payload_length(payload) - real
    if tail == 0:
        return inner, 0
    return _with_payload_length(inner, real), tail


def _restore_size_only_tail(inner: Ipv4Packet, tail: int) -> Ipv4Packet:
    """Re-extend the inner packet's payload by the size-only tail."""
    if tail == 0:
        return inner
    return _with_payload_length(inner, _payload_length(inner.payload) + tail)


def _payload_length(payload) -> int:
    """Payload bytes an L4 payload declares (headers excluded)."""
    if type(payload) is RawPayload:
        return payload.size
    return payload.payload_size


def _with_payload_length(inner: Ipv4Packet, length: int) -> Ipv4Packet:
    """A copy of ``inner`` whose L4 payload declares ``length`` bytes.

    Direct positional constructors, in field order: this runs for every
    VPG packet that carries size-only bytes.
    """
    old = inner.payload
    kind = type(old)
    if kind is TcpSegment:
        payload = TcpSegment(
            old.src_port, old.dst_port, old.seq, old.ack, old.flags, old.window, length, old.data,
            old.sack_blocks,
        )
    elif kind is UdpDatagram:
        payload = UdpDatagram(old.src_port, old.dst_port, length, old.data)
    elif kind is IcmpMessage:
        payload = IcmpMessage(old.icmp_type, old.code, old.identifier, old.sequence, length, old.data)
    else:
        payload = RawPayload(length, old.data)
    return Ipv4Packet(inner.src, inner.dst, payload, inner.protocol, inner.ttl, inner.identification)
