"""Tests for the crypto substrate: keystream cipher, MAC, VPG encapsulation."""

import dataclasses
import hashlib
import hmac
import struct

import pytest
from hypothesis import given, strategies as st

from repro.crypto.cipher import BLOCK_SIZE, KeystreamCipher
from repro.crypto.keys import KEY_SIZE, VpgKeyStore
from repro.crypto.mac import TAG_SIZE, compute_tag, verify_tag
from repro.crypto.vpg import (
    VpgAuthError,
    VpgContext,
    VpgDecodeError,
    VpgSealedPayload,
)
from repro.net.addresses import Ipv4Address
from repro.net.packet import (
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    RawPayload,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)

SRC = Ipv4Address("10.0.0.2")
DST = Ipv4Address("10.0.0.3")
KEY = b"0123456789abcdef01234567"
KNOWN_ANSWER_HEX = "db31d161d33d5309a74f10f88066e5a788f2c8614f4c3583"


class TestKeystreamCipher:
    def test_cbc_roundtrip(self):
        cipher = KeystreamCipher(KEY)
        plaintext = b"The quick brown fox jumps over the lazy dog"
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_cbc_output_is_block_aligned(self):
        cipher = KeystreamCipher(KEY)
        assert len(cipher.encrypt(b"x")) % BLOCK_SIZE == 0

    def test_different_keys_give_different_ciphertexts(self):
        plaintext = b"same plaintext bytes"
        a = KeystreamCipher(b"key-a").encrypt(plaintext)
        b = KeystreamCipher(b"key-b").encrypt(plaintext)
        assert a != b

    def test_sequence_binds_iv(self):
        cipher = KeystreamCipher(KEY)
        plaintext = b"identical plaintext"
        assert cipher.encrypt(plaintext, 1) != cipher.encrypt(plaintext, 2)

    def test_wrong_key_fails_to_decrypt(self):
        ciphertext = KeystreamCipher(b"key-a").encrypt(b"secret payload here!")
        wrong = KeystreamCipher(b"key-b")
        try:
            recovered = wrong.decrypt(ciphertext)
        except ValueError:
            return  # padding check caught it
        assert recovered != b"secret payload here!"

    def test_bad_ciphertext_length_rejected(self):
        cipher = KeystreamCipher(KEY)
        with pytest.raises(ValueError):
            cipher.decrypt(b"12345")
        with pytest.raises(ValueError):
            cipher.decrypt(b"")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCipher(b"")

    @given(st.binary(max_size=512), st.integers(0, 2**64 - 1))
    def test_roundtrip_property(self, plaintext, nonce):
        cipher = KeystreamCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(plaintext, nonce), nonce) == plaintext

    def test_known_answer(self):
        cipher = KeystreamCipher(KEY)
        ciphertext = cipher.encrypt(b"VPG known-answer", 0x0A00000200000001)
        assert ciphertext.hex() == KNOWN_ANSWER_HEX

    def test_ciphertext_length_is_the_padded_block_length(self):
        # The wire-size contract: a ciphertext is exactly as long as an
        # 8-byte-block cipher with PKCS#7 padding would make it.
        cipher = KeystreamCipher(KEY)
        for length in range(65):
            plaintext = bytes(range(length))
            assert len(cipher.encrypt(plaintext)) == (length // BLOCK_SIZE + 1) * BLOCK_SIZE


class TestMac:
    def test_tag_length(self):
        assert len(compute_tag(KEY, b"data")) == TAG_SIZE

    def test_verify_accepts_valid_tag(self):
        tag = compute_tag(KEY, b"data")
        assert verify_tag(KEY, b"data", tag)

    def test_verify_rejects_tampered_data(self):
        tag = compute_tag(KEY, b"data")
        assert not verify_tag(KEY, b"dato", tag)

    def test_verify_rejects_wrong_key(self):
        tag = compute_tag(b"key-a", b"data")
        assert not verify_tag(b"key-b", b"data", tag)

    def test_verify_rejects_wrong_length_tag(self):
        assert not verify_tag(KEY, b"data", b"short")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            compute_tag(b"", b"data")

    @given(st.binary(max_size=256))
    def test_tag_is_deterministic(self, data):
        assert compute_tag(KEY, data) == compute_tag(KEY, data)

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=256))
    def test_tag_is_truncated_hmac_sha256(self, key, data):
        assert compute_tag(key, data) == hmac.new(key, data, hashlib.sha256).digest()[:TAG_SIZE]


class TestVpgContext:
    def _context_pair(self, vpg_id=7):
        store = VpgKeyStore()
        return store.context_for(vpg_id), store.context_for(vpg_id)

    def test_tcp_seal_open_roundtrip(self):
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=TcpSegment(src_port=1000, dst_port=80, seq=42, payload_size=1400, data=b"GET /"),
        )
        outer = sealer.seal(inner, SRC, DST)
        assert outer.protocol == IpProtocol.VPG
        opened = opener.open(outer)
        assert opened.flow() == inner.flow()
        assert opened.tcp.seq == 42
        assert opened.tcp.payload_size == 1400
        assert opened.tcp.data == b"GET /"

    def test_udp_and_icmp_roundtrip(self):
        sealer, opener = self._context_pair()
        for payload in (
            UdpDatagram(src_port=53, dst_port=53, payload_size=120),
            IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, payload_size=56),
        ):
            inner = Ipv4Packet(src=SRC, dst=DST, payload=payload)
            opened = opener.open(sealer.seal(inner, SRC, DST))
            assert opened.payload.size == payload.size

    def test_raw_payload_without_parseable_header_rejected_on_open(self):
        # The decapsulation side re-parses the decrypted inner headers;
        # a raw payload that does not decode as its declared protocol is
        # reported as a decode failure, not silently accepted.
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=RawPayload(size=500, data=b"prefix"),
            protocol=IpProtocol.UDP,
        )
        with pytest.raises(VpgDecodeError):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_unknown_inner_protocol_rejected_on_open(self):
        # Parsed back as UDP, it would be matched against UDP rules.
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(src=SRC, dst=DST, payload=RawPayload(size=8, data=b"x" * 8), protocol=99)
        with pytest.raises(VpgDecodeError, match="unknown IP protocol 99"):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_outer_size_accounts_for_overhead_not_payload_blowup(self):
        sealer, _ = self._context_pair()
        inner = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2, payload_size=1400)
        )
        outer = sealer.seal(inner, SRC, DST)
        overhead = outer.size - inner.size
        assert 0 < overhead < 120  # clear header + cipher padding + tag

    def test_headers_are_encrypted_on_the_wire(self):
        sealer, _ = self._context_pair()
        inner = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=4567, dst_port=8901)
        )
        outer = sealer.seal(inner, SRC, DST)
        wire = outer.payload.to_bytes()
        # The inner ports must not appear in clear anywhere in the payload.
        import struct

        assert struct.pack("!H", 4567) not in wire[:12]
        assert outer.flow()[2] == 0 and outer.flow()[4] == 0  # no ports visible

    def test_tampered_ciphertext_rejected(self):
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=32))
        outer = sealer.seal(inner, SRC, DST)
        sealed = outer.payload
        sealed.ciphertext = bytes(byte ^ 0xFF for byte in sealed.ciphertext)
        with pytest.raises(VpgAuthError):
            opener.open(outer)
        assert opener.auth_failures == 1

    def test_wrong_group_key_rejected(self):
        sealer = VpgKeyStore(b"master-a").context_for(7)
        opener = VpgKeyStore(b"master-b").context_for(7)
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        with pytest.raises(VpgAuthError):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_spi_mismatch_rejected(self):
        store = VpgKeyStore()
        sealer = store.context_for(7)
        opener = store.context_for(8)
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        with pytest.raises(VpgDecodeError):
            opener.open(sealer.seal(inner, SRC, DST))

    def test_non_vpg_packet_rejected(self):
        _, opener = self._context_pair()
        plain = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        with pytest.raises(VpgDecodeError):
            opener.open(plain)

    def test_sequence_increments_per_packet(self):
        sealer, _ = self._context_pair()
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        first = sealer.seal(inner, SRC, DST)
        second = sealer.seal(inner, SRC, DST)
        assert second.payload.sequence == first.payload.sequence + 1
        assert first.payload.ciphertext != second.payload.ciphertext

    def test_keystream_is_bound_to_the_sender(self):
        # Every member numbers its packets from 1 under the shared group
        # key; two senders' first packets must still use different
        # keystreams, or their XOR would leak the XOR of the plaintexts.
        store = VpgKeyStore()
        first, second = store.context_for(7), store.context_for(7)
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=32))
        a = first.seal(inner, SRC, DST).payload
        b = second.seal(inner, DST, SRC).payload
        assert a.sequence == b.sequence == 1
        assert a.ciphertext != b.ciphertext

    def test_rewritten_source_rejected(self):
        sealer, opener = self._context_pair()
        inner = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=32))
        outer = sealer.seal(inner, SRC, DST)
        outer.src = Ipv4Address("10.0.0.9")
        with pytest.raises(VpgDecodeError):
            opener.open(outer)

    @given(
        payload_size=st.integers(0, 1460),
        data=st.binary(max_size=64),
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
    )
    def test_seal_open_roundtrip_property(self, payload_size, data, sport, dport):
        store = VpgKeyStore()
        sealer = store.context_for(3)
        opener = store.context_for(3)
        size = max(payload_size, len(data))
        inner = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=TcpSegment(src_port=sport, dst_port=dport, payload_size=size, data=data),
        )
        opened = opener.open(sealer.seal(inner, SRC, DST))
        assert opened.flow() == inner.flow()
        assert opened.tcp.payload_size == size
        assert opened.tcp.data[: len(data)] == data


class TestKeyStore:
    def test_keys_are_deterministic(self):
        assert VpgKeyStore(b"m").key_for(1) == VpgKeyStore(b"m").key_for(1)

    def test_keys_differ_per_group(self):
        store = VpgKeyStore()
        assert store.key_for(1) != store.key_for(2)

    def test_keys_differ_per_master(self):
        assert VpgKeyStore(b"a").key_for(1) != VpgKeyStore(b"b").key_for(1)

    def test_key_length(self):
        assert len(VpgKeyStore().key_for(9)) == KEY_SIZE

    def test_known_vpgs_sorted(self):
        store = VpgKeyStore()
        store.key_for(5)
        store.key_for(2)
        assert store.known_vpgs() == [2, 5]

    def test_empty_master_rejected(self):
        with pytest.raises(ValueError):
            VpgKeyStore(b"")

    def test_bad_vpg_id_rejected(self):
        with pytest.raises(ValueError):
            VpgContext(-1, KEY)


def _golden_inner_packets():
    """Inner packets whose sealed wire form is pinned by :class:`TestVpgGolden`."""
    flags = TcpFlags
    http = b"HTTP/1.0 200 OK\r\nContent-Length: 1400\r\n\r\n"

    def tcp(seq=1, ack=0, flag=flags.ACK, size=0, data=b"", ttl=64, ident=0):
        segment = TcpSegment(1025, 80, seq, ack, flag, 65535, size, data)
        return Ipv4Packet(SRC, DST, segment, ttl=ttl, identification=ident)

    return [
        ("tcp-data", tcp(flag=flags.PSH | flags.ACK, size=5, data=b"GET /")),
        ("tcp-tail", tcp(size=1400)),
        ("tcp-data-tail", tcp(flag=flags.PSH | flags.ACK, size=1400, data=http)),
        ("tcp-syn", tcp(seq=2**32 + 5, flag=flags.SYN)),
        ("tcp-fin", tcp(seq=77, ack=2**33 + 9, flag=flags.FIN | flags.ACK)),
        ("tcp-rst", tcp(seq=99, flag=flags.RST)),
        ("tcp-ttl1", tcp(flag=flags.PSH | flags.ACK, size=3, data=b"abc", ttl=1)),
        ("tcp-ttl255-ident", tcp(size=600, data=b"z" * 17, ttl=255, ident=0x1ABCD)),
        # Header words whose one's-complement sum carries twice.
        ("tcp-checksum-carry", Ipv4Packet(
            Ipv4Address("255.255.255.255"), Ipv4Address("255.255.255.254"),
            TcpSegment(1025, 80, 1, 0, flags.ACK, 65535, 3, b"abc"), ttl=255, identification=0xBBCF,
        )),
        ("udp", Ipv4Packet(SRC, DST, UdpDatagram(53, 5353, 120, b"query"), identification=9)),
        ("icmp", Ipv4Packet(SRC, DST, IcmpMessage(IcmpType.ECHO_REQUEST, 0, 7, 3, 56, b"ping"))),
        ("raw", Ipv4Packet(SRC, DST, RawPayload(300, b"opaque"), protocol=IpProtocol.VPG)),
        ("raw-empty", Ipv4Packet(SRC, DST, RawPayload(0), protocol=IpProtocol.VPG, ttl=3)),
        # As long as a TCP packet, with a TCP data offset where one would be.
        ("raw-tcp-sized", Ipv4Packet(
            SRC, DST, RawPayload(20, bytes(12) + b"\x50" + bytes(7)), protocol=IpProtocol.VPG
        )),
    ]


def _fingerprint(value):
    """A version-independent description of a packet: type names and plain values."""
    if isinstance(value, (bytes, str)) or value is None:
        return value
    if isinstance(value, int):
        return (type(value).__name__, int(value))
    if isinstance(value, tuple):
        return tuple(_fingerprint(item) for item in value)
    names = [name for name in type(value).__slots__ if not name.startswith("trace_")]
    return (type(value).__name__,) + tuple(
        (name, _fingerprint(getattr(value, name))) for name in names
    )


def _seal_plaintext(context, plaintext):
    """An outer packet (sequence 1, no size-only tail) carrying ``plaintext``
    under a valid tag, whatever it holds."""
    ciphertext = context.cipher.encrypt(plaintext, (int(SRC) << 32) | 1)
    header = struct.pack("!IIH", context.vpg_id, 1, 0)
    tag = compute_tag(context.key, header + ciphertext)
    sealed = VpgSealedPayload(context.vpg_id, 1, ciphertext, 0, tag)
    return Ipv4Packet(SRC, DST, sealed, protocol=IpProtocol.VPG)


class TestVpgGolden:
    """The codec's wire bytes and its decoding, pinned.  The digests were taken
    with the plaintext built by ``Ipv4Packet.to_bytes`` on the inner packet
    less its size-only tail, and parsed back by ``Ipv4Packet.from_bytes``."""

    #: sha256 over (name, outer size, SPI, sequence, inner tail, ciphertext, tag).
    WIRE_DIGEST = "87a74ced4efb9d321506b0dc482b52240fd8301498221339452f34b376cfc18c"
    #: sha256 over each opened packet's :func:`_fingerprint`.
    OPENED_DIGEST = "5602da74fc46f49fbc21040ee8c2f1215b0e03b9cf93af3c0966844ac0adfab2"

    def _sealed_all(self):
        store = VpgKeyStore(b"golden-master")
        sealer, opener = store.context_for(11), store.context_for(11)
        cases = _golden_inner_packets()
        return [(name, inner, sealer.seal(inner, SRC, DST)) for name, inner in cases], opener

    def test_wire_bytes(self):
        sealed_all, _ = self._sealed_all()
        digest = hashlib.sha256()
        for name, _inner, outer in sealed_all:
            sealed = outer.payload
            assert outer.protocol == IpProtocol.VPG
            digest.update(repr((
                name, outer.size, sealed.spi, sealed.sequence, sealed.inner_tail,
                sealed.ciphertext.hex(), sealed.tag.hex(),
            )).encode())
        assert digest.hexdigest() == self.WIRE_DIGEST

    def test_opened_packets(self):
        sealed_all, opener = self._sealed_all()
        digest = hashlib.sha256()
        for name, inner, outer in sealed_all:
            opened = opener.open(outer)
            digest.update(repr((name, _fingerprint(opened))).encode())
            # Sequence numbers wrap to 32 bits and the identification to 16.
            payload = inner.payload
            if type(payload) is TcpSegment:
                payload = dataclasses.replace(
                    payload, seq=payload.seq & 0xFFFFFFFF, ack=payload.ack & 0xFFFFFFFF
                )
            expected = dataclasses.replace(
                inner, payload=payload, identification=inner.identification & 0xFFFF
            )
            assert opened == expected, name
            assert opened.size == inner.size, name
        assert digest.hexdigest() == self.OPENED_DIGEST

    @pytest.mark.xfail(
        strict=True,
        reason="the inner TCP header is serialized without options, so SACK blocks "
        "do not cross a VPG and a tunnelled flow recovers without SACK",
    )
    def test_sack_blocks_cross_the_vpg(self):
        store = VpgKeyStore()
        sealer, opener = store.context_for(3), store.context_for(3)
        segment = TcpSegment(1025, 80, 1, 1000, TcpFlags.ACK, 65535, 0, b"", ((3000, 4000),))
        opened = opener.open(sealer.seal(Ipv4Packet(SRC, DST, segment), SRC, DST))
        assert opened.tcp.sack_blocks == ((3000, 4000),)

    def _tcp_plaintext(self):
        return Ipv4Packet(SRC, DST, TcpSegment(1025, 80, 5, 6, TcpFlags.ACK, 100, 4, b"data")).to_bytes()

    def _open_altered(self, offset, value):
        context = VpgKeyStore().context_for(5)
        plaintext = bytearray(self._tcp_plaintext())
        plaintext[offset] = value
        return context.open(_seal_plaintext(context, bytes(plaintext)))

    def test_bad_padding_rejected(self):
        context = VpgKeyStore().context_for(5)
        outer = _seal_plaintext(context, self._tcp_plaintext())
        sealed = outer.payload
        sealed.ciphertext = sealed.ciphertext[:-1] + bytes([sealed.ciphertext[-1] ^ 0xFF])
        sealed.tag = compute_tag(context.key, sealed.header_bytes() + sealed.ciphertext)
        with pytest.raises(VpgDecodeError):
            context.open(outer)

    def test_non_ipv4_version_rejected(self):
        with pytest.raises(VpgDecodeError):
            self._open_altered(0, 0x65)

    def test_zero_ttl_rejected(self):
        with pytest.raises(VpgDecodeError):
            self._open_altered(8, 0)

    def test_total_length_past_the_plaintext_keeps_the_bytes_present(self):
        # Parsing stops at the plaintext's end, as Ipv4Packet.from_bytes does.
        opened = self._open_altered(3, 44 + 10)
        assert opened.tcp.data == b"data"
        assert opened.tcp.payload_size == 4

    def test_data_offset_past_the_fixed_header_is_read_as_options(self):
        # Ipv4Packet.from_bytes skips a longer TCP header, options unread.
        opened = self._open_altered(32, 0x60)
        assert opened.tcp.data == b""
        assert opened.tcp.payload_size == 0

    def test_truncated_tcp_header_rejected(self):
        context = VpgKeyStore().context_for(5)
        with pytest.raises(VpgDecodeError):
            context.open(_seal_plaintext(context, self._tcp_plaintext()[:30]))
