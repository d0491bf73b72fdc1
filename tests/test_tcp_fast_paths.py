"""Tests for the early exits on the TCP per-segment path.

The buffers skip their chunk and reassembly walks when there is nothing
to walk, the IP layer matches protocols by value, and a golden hash pins
every segment a lossy transfer emits, so a faster path that changes one
segment (its time, numbers, flags or SACK blocks) fails here.
"""

import hashlib

import pytest

from repro.host.tcp import MSS, ReceiveBuffer, SendBuffer
from repro.net.packet import Ipv4Packet, TcpFlags, TcpSegment


class TestSendBufferSlice:
    def test_size_only_buffer_slices_to_empty_bytes(self):
        buffer = SendBuffer()
        buffer.write(10_000)
        assert buffer.slice(0, 1460) == b""
        assert buffer.slice(8_540, 10_000) == b""

    def test_size_only_buffer_still_checks_the_range(self):
        buffer = SendBuffer()
        buffer.write(100)
        with pytest.raises(ValueError):
            buffer.slice(50, 101)
        with pytest.raises(ValueError):
            buffer.slice(-1, 10)
        with pytest.raises(ValueError):
            buffer.slice(20, 10)


class TestReceiveBufferOffer:
    def test_in_order_segment_with_nothing_buffered_is_one_piece(self):
        buffer = ReceiveBuffer(1000)
        assert buffer.offer(1000, 500, b"") == [(500, b"")]
        assert buffer.rcv_nxt == 1500

    def test_filled_hole_still_pulls_buffered_segments(self):
        buffer = ReceiveBuffer(0)
        assert buffer.offer(100, 100, b"") == []
        assert buffer.offer(200, 50, b"xy") == []
        assert buffer.out_of_order_count == 2
        assert buffer.offer(0, 100, b"") == [(100, b""), (100, b""), (50, b"xy")]
        assert buffer.rcv_nxt == 250
        assert buffer.out_of_order_count == 0


def test_plain_int_protocol_reaches_tcp(mininet):
    alice, bob = mininet["alice"], mininet["bob"]
    packet = Ipv4Packet(
        src=alice.ip,
        dst=bob.ip,
        payload=TcpSegment(src_port=4000, dst_port=9, seq=7, flags=TcpFlags.SYN),
        protocol=6,
    )
    bob.ip_layer.packet_arrived(packet)
    assert bob.tcp.segments_received == 1
    assert bob.tcp.rst_sent == 1  # nothing listens on port 9


#: SHA-256 of the segment log of :func:`lossy_transfer_log`.
GOLDEN_SEGMENT_LOG = "e504890f0838b724150f8d654ab90dbf918796c69323e750367169489e9b110b"


def lossy_transfer_log(mininet):
    """Every TCP segment both hosts emit while alice sends 300 kB to bob.

    Bob's NIC drops the first copy of data segments 40-44 (a burst that
    SACK recovery repairs) and of every segment in the last two MSS of
    the stream (nothing but the FIN follows them, so only the
    retransmission timer repairs them).  Each entry is
    ``(host, time, seq, ack, flags, payload_size, sack_blocks)``.
    """
    alice, bob = mininet["alice"], mininet["bob"]
    total = 300_000
    log = []
    for host in (alice, bob):
        send_packet = host.ip_layer.send_packet

        def record(packet, host=host, send_packet=send_packet):
            segment = packet.payload
            log.append(
                (
                    host.name,
                    mininet.sim.now,
                    segment.seq,
                    segment.ack,
                    int(segment.flags),
                    segment.payload_size,
                    segment.sack_blocks,
                )
            )
            send_packet(packet)

        host.ip_layer.send_packet = record

    received = []

    def on_accept(conn):
        conn.on_data = lambda c, data, size: received.append(size)

    bob.tcp.listen(5001, on_accept)
    conn = alice.tcp.connect(bob.ip, 5001)
    conn.on_connected = lambda c: (c.send(total), c.close())
    tail = conn.iss + 1 + total - 2 * MSS
    seen = set()
    receive_frame = bob.nic.receive_frame

    def drop_first_copies(frame, port):
        segment = frame.ip.payload
        if segment.payload_size and segment.seq not in seen:
            seen.add(segment.seq)
            if 40 <= len(seen) <= 44 or segment.seq + segment.payload_size > tail:
                return
        receive_frame(frame, port)

    bob.nic.receive_frame = drop_first_copies
    mininet.run(5.0)
    assert sum(received) == total
    return log


def test_lossy_transfer_emits_the_pinned_segments(mininet):
    log = lossy_transfer_log(mininet)
    sender = [entry for entry in log if entry[0] == "alice"]
    # SACK recovery ran: bob reported out-of-order ranges.
    assert any(entry[6] for entry in log if entry[0] == "bob")
    # The retransmission timer fired: alice fell silent for at least
    # the minimum RTO before repairing the tail.
    assert max(b[1] - a[1] for a, b in zip(sender, sender[1:])) >= 0.2
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert digest == GOLDEN_SEGMENT_LOG
