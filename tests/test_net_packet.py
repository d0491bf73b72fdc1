"""Tests for the packet model: sizes, flow tuples, serialization."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.packet import (
    EthernetFrame,
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    RawPayload,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)

SRC = Ipv4Address("10.0.0.1")
DST = Ipv4Address("10.0.0.2")


class TestSizes:
    def test_udp_size(self):
        assert UdpDatagram(src_port=1, dst_port=2, payload_size=100).size == 108

    def test_tcp_size(self):
        assert TcpSegment(src_port=1, dst_port=2, payload_size=1460).size == 1480

    def test_icmp_size(self):
        assert IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, payload_size=56).size == 64

    def test_ipv4_size(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=8))
        assert packet.size == 20 + 8 + 8

    def test_frame_wire_size_includes_header_and_fcs(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2, payload_size=1460)
        )
        frame = EthernetFrame(
            src_mac=MacAddress.from_index(1), dst_mac=MacAddress.from_index(2), payload=packet
        )
        assert frame.wire_size == 1518  # full-size frame

    def test_frame_minimum_padding(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2))
        frame = EthernetFrame(
            src_mac=MacAddress.from_index(1), dst_mac=MacAddress.from_index(2), payload=packet
        )
        # 18 + 40 = 58 < 64: padded to the Ethernet minimum.
        assert frame.wire_size == 64

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            UdpDatagram(src_port=1, dst_port=2, payload_size=-1)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            TcpSegment(src_port=70000, dst_port=1)

    def test_raw_payload_data_longer_than_size_rejected(self):
        with pytest.raises(ValueError):
            RawPayload(size=2, data=b"abc")


def _one_of_each():
    """An instance of each of the six packet and frame classes."""
    tcp = TcpSegment(src_port=1, dst_port=2)
    packet = Ipv4Packet(src=SRC, dst=DST, payload=tcp)
    return [
        RawPayload(size=4),
        UdpDatagram(src_port=1, dst_port=2),
        tcp,
        IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST),
        packet,
        EthernetFrame(MacAddress.from_index(1), MacAddress.from_index(2), packet),
    ]


class TestSlots:
    """Slotted on every supported Python (no ``dataclass(slots=True)``)."""

    @pytest.mark.parametrize("obj", _one_of_each(), ids=lambda obj: type(obj).__name__)
    def test_no_instance_dict_and_no_undeclared_attribute(self, obj):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.undeclared = 1

    def test_tracing_stamps_are_declared(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2))
        frame = EthernetFrame(MacAddress.from_index(1), MacAddress.from_index(2), packet)
        assert getattr(packet, "trace_ctx", None) is None  # unset until traced
        packet.trace_ctx = packet.trace_parent = 7
        frame.trace_t0 = frame.trace_parent = 0.5
        assert dataclasses.replace(packet) == packet  # stamps are not fields

    def test_replace_recomputes_the_packet_size(self):
        # The VPG seal/open path rewrites packets with dataclasses.replace.
        packet = Ipv4Packet(src=SRC, dst=DST, payload=TcpSegment(1, 2))
        bigger = dataclasses.replace(packet, payload=TcpSegment(1, 2, payload_size=100))
        assert (packet.size, bigger.size) == (40, 140)
        assert dataclasses.replace(bigger, ttl=3).size == 140


MAC_A, MAC_B = MacAddress.from_index(1), MacAddress.from_index(2)


class TestConstruction:
    """The constructors validate, and compute the sizes, in one call;
    every check, message, default and computed size is pinned from the
    tree whose dataclass-generated ``__init__`` ran a ``__post_init__``."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TcpSegment(70000, 1), "port out of range: 70000 -> 1"),
            (lambda: TcpSegment(1, -1), "port out of range: 1 -> -1"),
            (lambda: TcpSegment(1, 2, payload_size=-1), "payload size must be >= 0, got -1"),
            # The port check comes first.
            (lambda: TcpSegment(70000, 2, payload_size=-1), "port out of range: 70000 -> 2"),
            (lambda: UdpDatagram(1, 70000), "port out of range: 1 -> 70000"),
            (lambda: UdpDatagram(1, 2, -3), "payload size must be >= 0, got -3"),
            (lambda: Ipv4Packet(SRC, DST, RawPayload(4)),
             "protocol must be given explicitly for raw payloads"),
            (lambda: Ipv4Packet(SRC, DST, UdpDatagram(1, 2), ttl=0), "ttl out of range: 0"),
            (lambda: Ipv4Packet(SRC, DST, UdpDatagram(1, 2), ttl=256), "ttl out of range: 256"),
            # The protocol check comes first.
            (lambda: Ipv4Packet(SRC, DST, RawPayload(4), ttl=0),
             "protocol must be given explicitly for raw payloads"),
        ],
    )
    def test_validation_errors_and_messages(self, build, message):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TcpSegment(1),
            lambda: TcpSegment(1, 2, wrong=3),
            lambda: TcpSegment(1, 2, 3, 4, TcpFlags.ACK, 5, 6, b"", (), "extra"),
            lambda: UdpDatagram(1, 2, size=3),
            lambda: Ipv4Packet(SRC, DST),
            lambda: Ipv4Packet(SRC, DST, UdpDatagram(1, 2), size=3),
            lambda: EthernetFrame(MAC_A, MAC_B),
            lambda: EthernetFrame(MAC_A, MAC_B, RawPayload(4), wire_size=64),
        ],
    )
    def test_missing_extra_and_computed_arguments_are_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_positional_arguments_follow_field_order(self):
        segment = TcpSegment(1, 2, 3, 4, TcpFlags.ACK, 100, 10, b"ab", ((5, 6),))
        assert segment == TcpSegment(
            src_port=1, dst_port=2, seq=3, ack=4, flags=TcpFlags.ACK, window=100,
            payload_size=10, data=b"ab", sack_blocks=((5, 6),),
        )
        packet = Ipv4Packet(SRC, DST, segment, IpProtocol.TCP, 7, 9)
        assert (packet.protocol, packet.ttl, packet.identification) == (IpProtocol.TCP, 7, 9)
        frame = EthernetFrame(MAC_A, MAC_B, packet, 0x86DD, b"\x45")
        assert (frame.ethertype, frame.corrupt_header) == (0x86DD, b"\x45")
        assert UdpDatagram(5, 6, 7, b"x") == UdpDatagram(
            src_port=5, dst_port=6, payload_size=7, data=b"x"
        )

    def test_defaults(self):
        segment = TcpSegment(1, 2)
        assert (segment.seq, segment.ack, segment.flags, segment.window, segment.payload_size,
                segment.data, segment.sack_blocks) == (0, 0, TcpFlags.NONE, 65535, 0, b"", ())
        datagram = UdpDatagram(1, 2)
        assert (datagram.payload_size, datagram.data, datagram.size) == (0, b"", 8)
        packet = Ipv4Packet(SRC, DST, datagram)
        assert (packet.protocol, packet.ttl, packet.identification) == (IpProtocol.UDP, 64, 0)
        frame = EthernetFrame(MAC_A, MAC_B, packet)
        assert (frame.ethertype, frame.corrupt_header) == (0x0800, None)

    def test_explicit_protocol_is_kept_and_raw_payload_sized(self):
        packet = Ipv4Packet(SRC, DST, RawPayload(30), protocol=IpProtocol.VPG)
        assert (packet.protocol, packet.size) == (IpProtocol.VPG, 50)
        relabelled = Ipv4Packet(SRC, DST, UdpDatagram(1, 2), protocol=IpProtocol.ICMP)
        assert relabelled.protocol is IpProtocol.ICMP
        assert EthernetFrame(MAC_A, MAC_B, RawPayload(46)).wire_size == 64
        assert EthernetFrame(MAC_A, MAC_B, RawPayload(47)).wire_size == 65

    def test_replace_recomputes_every_size(self):
        packet = Ipv4Packet(SRC, DST, TcpSegment(1, 2))
        frame = EthernetFrame(MAC_A, MAC_B, packet)
        bigger = dataclasses.replace(packet, payload=TcpSegment(1, 2, payload_size=1000))
        assert (frame.wire_size, dataclasses.replace(frame, payload=bigger).wire_size) == (
            64, 1058,
        )
        segment = dataclasses.replace(TcpSegment(1, 2), payload_size=30)
        assert segment.size == 50
        assert dataclasses.replace(UdpDatagram(1, 2), payload_size=30).size == 38
        with pytest.raises(ValueError, match="ttl out of range: 0"):
            dataclasses.replace(packet, ttl=0)
        with pytest.raises(ValueError, match="port out of range"):
            dataclasses.replace(segment, dst_port=-1)

    def test_equality_ignores_the_computed_sizes_and_corrupt_header(self):
        segment = TcpSegment(1, 2, payload_size=10)
        assert segment == TcpSegment(1, 2, payload_size=10) != TcpSegment(1, 2, payload_size=11)
        packet = Ipv4Packet(SRC, DST, segment)
        assert packet == Ipv4Packet(SRC, DST, TcpSegment(1, 2, payload_size=10))
        assert packet != Ipv4Packet(SRC, DST, segment, ttl=63)
        frame = EthernetFrame(MAC_A, MAC_B, packet)
        assert frame == EthernetFrame(MAC_A, MAC_B, packet, corrupt_header=b"\x00")
        assert frame != EthernetFrame(MAC_B, MAC_A, packet)
        assert UdpDatagram(1, 2, 3) == UdpDatagram(1, 2, 3) != UdpDatagram(1, 2, 4)

    def test_repr_is_unchanged(self):
        segment = TcpSegment(1, 2, 3, 4, TcpFlags.ACK, 100, 10, b"ab", ((5, 6),))
        packet = Ipv4Packet(SRC, DST, segment, None, 7, 9)
        frame = EthernetFrame(MAC_A, MAC_B, packet)
        segment_repr = (
            "TcpSegment(src_port=1, dst_port=2, seq=3, ack=4, flags=<TcpFlags.ACK: 16>, "
            "window=100, payload_size=10, data=b'ab', sack_blocks=((5, 6),))"
        )
        packet_repr = (
            "Ipv4Packet(src=Ipv4Address('10.0.0.1'), dst=Ipv4Address('10.0.0.2'), "
            f"payload={segment_repr}, protocol=<IpProtocol.TCP: 6>, ttl=7, identification=9)"
        )
        assert repr(segment) == segment_repr
        assert repr(packet) == packet_repr
        assert repr(frame) == (
            "EthernetFrame(src_mac=MacAddress('02:00:00:00:00:01'), "
            "dst_mac=MacAddress('02:00:00:00:00:02'), "
            f"payload={packet_repr}, ethertype=2048, corrupt_header=None)"
        )
        assert repr(UdpDatagram(5, 6, 7, b"x")) == (
            "UdpDatagram(src_port=5, dst_port=6, payload_size=7, data=b'x')"
        )


class TestFlowAndAccessors:
    def test_flow_tuple_tcp(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=TcpSegment(src_port=4000, dst_port=80)
        )
        assert packet.flow() == (IpProtocol.TCP, SRC, 4000, DST, 80)

    def test_flow_tuple_icmp_has_zero_ports(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST)
        )
        assert packet.flow() == (IpProtocol.ICMP, SRC, 0, DST, 0)

    def test_protocol_inferred_from_payload(self):
        assert Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2)).protocol == IpProtocol.UDP

    def test_raw_payload_requires_explicit_protocol(self):
        with pytest.raises(ValueError):
            Ipv4Packet(src=SRC, dst=DST, payload=RawPayload(size=10))

    def test_typed_accessors(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=TcpSegment(src_port=1, dst_port=2))
        assert packet.tcp is packet.payload
        assert packet.udp is None
        assert packet.icmp is None

    def test_tcp_flag_properties(self):
        syn_ack = TcpSegment(src_port=1, dst_port=2, flags=TcpFlags.SYN | TcpFlags.ACK)
        assert syn_ack.syn and syn_ack.ack_flag
        assert not syn_ack.fin and not syn_ack.rst

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2), ttl=0)

    def test_describe_mentions_endpoints(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(5, 7))
        assert "10.0.0.1:5" in packet.describe()
        assert "UDP" in packet.describe()


class TestSerialization:
    def test_ipv4_header_checksum_is_valid(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=4))
        assert verify_checksum(packet.to_bytes()[:20])

    def test_udp_roundtrip(self):
        packet = Ipv4Packet(
            src=SRC, dst=DST, payload=UdpDatagram(53, 1053, payload_size=11, data=b"hello world")
        )
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.flow() == packet.flow()
        assert parsed.udp.data == b"hello world"

    def test_tcp_roundtrip_preserves_header_fields(self):
        segment = TcpSegment(
            src_port=1024,
            dst_port=80,
            seq=12345,
            ack=67890,
            flags=TcpFlags.PSH | TcpFlags.ACK,
            window=4096,
            payload_size=3,
            data=b"GET",
        )
        packet = Ipv4Packet(src=SRC, dst=DST, payload=segment)
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        tcp = parsed.tcp
        assert (tcp.seq, tcp.ack, tcp.window) == (12345, 67890, 4096)
        assert tcp.flags == TcpFlags.PSH | TcpFlags.ACK
        assert tcp.data == b"GET"

    def test_icmp_roundtrip_and_checksum(self):
        message = IcmpMessage(
            icmp_type=IcmpType.ECHO_REQUEST, identifier=7, sequence=3, payload_size=8
        )
        raw = message.to_bytes()
        assert verify_checksum(raw)
        parsed = IcmpMessage.from_bytes(raw)
        assert (parsed.identifier, parsed.sequence) == (7, 3)

    def test_size_only_payload_serializes_as_zeros(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2, payload_size=10))
        assert packet.to_bytes()[-10:] == b"\x00" * 10

    def test_truncated_input_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Packet.from_bytes(b"\x45\x00\x00")

    def test_non_ipv4_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Packet.from_bytes(b"\x60" + b"\x00" * 30)

    def test_unknown_protocol_rejected_not_relabelled(self):
        packet = Ipv4Packet(src=SRC, dst=DST, payload=RawPayload(size=8, data=b"x" * 8), protocol=99)
        with pytest.raises(ValueError, match="unknown IP protocol 99"):
            Ipv4Packet.from_bytes(packet.to_bytes())

    @given(
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        seq=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=64),
        extra=st.integers(0, 512),
    )
    def test_tcp_roundtrip_property(self, src_port, dst_port, seq, payload, extra):
        segment = TcpSegment(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            payload_size=len(payload) + extra,
            data=payload,
        )
        packet = Ipv4Packet(src=SRC, dst=DST, payload=segment)
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.tcp.seq == seq
        assert parsed.tcp.payload_size == len(payload) + extra
        assert parsed.tcp.data[: len(payload)] == payload

    @given(payload=st.binary(max_size=128))
    def test_udp_roundtrip_property(self, payload):
        packet = Ipv4Packet(
            src=SRC,
            dst=DST,
            payload=UdpDatagram(9, 10, payload_size=len(payload), data=payload),
        )
        parsed = Ipv4Packet.from_bytes(packet.to_bytes())
        assert parsed.udp.data == payload


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        checksum = internet_checksum(data)
        assert checksum == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF)

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verify_accepts_valid(self):
        data = b"\x12\x34\x56\x78"
        checksum = internet_checksum(data)
        stamped = data + checksum.to_bytes(2, "big")
        assert verify_checksum(stamped)

    def test_verify_rejects_corruption(self):
        data = b"\x12\x34\x56\x78"
        checksum = internet_checksum(data)
        stamped = bytearray(data + checksum.to_bytes(2, "big"))
        stamped[0] ^= 0xFF
        assert not verify_checksum(bytes(stamped))

    @given(st.binary(min_size=2, max_size=256).filter(lambda b: len(b) % 2 == 0))
    def test_checksum_self_verifies_property(self, data):
        # The Internet checksum self-verifies only when the checksum field
        # lands on a 16-bit word boundary, as real protocol headers ensure.
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))
