"""Tests for TCP connection lifecycle over the simulated network."""

import gc

import pytest

from repro.apps.iperf import IperfClient, IperfServer
from repro.core.testbed import DeviceKind, Testbed
from repro.host.tcp import TcpConnection, TcpState
from repro.sim.engine import Simulator


def start_echo_listener(host, port=5001, sink=None):
    """Listen and collect received bytes into ``sink`` (a list)."""
    accepted = []

    def on_accept(conn):
        accepted.append(conn)
        if sink is not None:
            conn.on_data = lambda c, data, size: sink.append((data, size))

    host.tcp.listen(port, on_accept)
    return accepted


class TestHandshake:
    def test_connect_establishes_both_ends(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        accepted = start_echo_listener(bob)
        conn = alice.tcp.connect(bob.ip, 5001)
        done = []
        conn.on_connected = lambda c: done.append(mininet.sim.now)
        mininet.run(1.0)
        assert done and done[0] < 0.01  # LAN handshake is sub-10ms
        assert conn.state == TcpState.ESTABLISHED
        assert accepted[0].state == TcpState.ESTABLISHED

    def test_connect_to_closed_port_is_refused(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        conn = alice.tcp.connect(bob.ip, 9999)
        refused = []
        conn.on_refused = lambda c: refused.append(True)
        mininet.run(1.0)
        assert refused
        assert conn.state == TcpState.CLOSED
        assert bob.tcp.rst_sent == 1

    def test_connect_with_no_peer_times_out(self, mininet):
        alice = mininet["alice"]
        from repro.net.addresses import Ipv4Address

        conn = alice.tcp.connect(Ipv4Address("192.168.1.99"), 5001)
        refused = []
        conn.on_refused = lambda c: refused.append(mininet.sim.now)
        mininet.run(60.0)
        assert refused  # SYN retries exhausted
        assert conn.state == TcpState.CLOSED

    def test_backlog_bounds_half_open_connections(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        listener = bob.tcp.listen(5001, lambda conn: None, backlog=2)
        # Raw SYNs from spoofed sources never complete the handshake.
        from repro.net.packet import Ipv4Packet, TcpFlags, TcpSegment
        from repro.net.addresses import Ipv4Address

        for index in range(10):
            syn = Ipv4Packet(
                src=Ipv4Address(f"172.16.0.{index + 1}"),
                dst=bob.ip,
                payload=TcpSegment(src_port=1000 + index, dst_port=5001, flags=TcpFlags.SYN),
            )
            alice.ip_layer.send_packet(syn)
        mininet.run(0.5)
        assert listener.half_open == 2
        assert listener.dropped_syn_backlog == 8

    def test_backlog_slot_released_by_handshake_and_by_giving_up(self, mininet):
        from repro.net.addresses import Ipv4Address
        from repro.net.packet import Ipv4Packet, TcpFlags, TcpSegment

        alice, bob = mininet["alice"], mininet["bob"]
        accepted = []
        listener = bob.tcp.listen(5001, accepted.append, backlog=2)
        conn = alice.tcp.connect(bob.ip, 5001)
        mininet.run(0.5)
        assert conn.state == TcpState.ESTABLISHED
        assert listener.half_open == 0
        # A spoofed SYN holds a slot until the SYN-ACK retries give up.
        syn = Ipv4Packet(
            src=Ipv4Address("172.16.0.1"),
            dst=bob.ip,
            payload=TcpSegment(src_port=1000, dst_port=5001, flags=TcpFlags.SYN),
        )
        alice.ip_layer.send_packet(syn)
        mininet.run(1.0)
        assert listener.half_open == 1
        mininet.run(120.0)
        assert accepted[-1].state == TcpState.CLOSED
        assert listener.half_open == 0

    def test_stop_listening_refuses_new_connections(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        listener = bob.tcp.listen(5001, lambda conn: None)
        listener.close()
        conn = alice.tcp.connect(bob.ip, 5001)
        refused = []
        conn.on_refused = lambda c: refused.append(True)
        mininet.run(1.0)
        assert refused

    def test_duplicate_listen_rejected(self, mininet):
        bob = mininet["bob"]
        bob.tcp.listen(5001, lambda conn: None)
        with pytest.raises(RuntimeError):
            bob.tcp.listen(5001, lambda conn: None)

    def test_flooded_backlog_without_cookies_locks_clients_out(self, trinet):
        from repro.net.addresses import Ipv4Address
        from repro.net.packet import Ipv4Packet, TcpFlags, TcpSegment

        alice, bob, mallory = trinet["alice"], trinet["bob"], trinet["mallory"]
        listener = bob.tcp.listen(5001, lambda conn: None, backlog=8)
        # Raw SYNs from addresses that will never complete a handshake.
        for index in range(40):
            syn = Ipv4Packet(
                src=Ipv4Address(f"172.16.1.{index % 250 + 1}"),
                dst=bob.ip,
                payload=TcpSegment(src_port=1000 + index, dst_port=5001, flags=TcpFlags.SYN),
            )
            mallory.ip_layer.send_packet(syn)
        trinet.run(0.2)
        assert listener.half_open == 8
        # A legitimate client's SYN now hits the full backlog and is
        # dropped; the connect stalls into retries.
        conn = alice.tcp.connect(bob.ip, 5001)
        connected = []
        conn.on_connected = lambda c: connected.append(True)
        trinet.run(0.5)
        assert not connected
        assert listener.dropped_syn_backlog > 40 - 8


class TestDataTransfer:
    def test_bulk_transfer_delivers_exact_byte_count(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        received = []
        start_echo_listener(bob, sink=received)
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.send(500_000)
        mininet.run(2.0)
        assert sum(size for _, size in received) == 500_000

    def test_real_data_arrives_in_order(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        received = []
        start_echo_listener(bob, sink=received)
        conn = alice.tcp.connect(bob.ip, 5001)

        def on_connected(c):
            c.send(5, b"hello")
            c.send(1000)
            c.send(5, b"world")

        conn.on_connected = on_connected
        mininet.run(1.0)
        stream = b"".join(data for data, _ in received)
        assert stream.startswith(b"hello")
        assert stream.endswith(b"world")
        assert sum(size for _, size in received) == 1010

    def test_throughput_reaches_line_rate(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        received = []
        start_echo_listener(bob, sink=received)
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.send(50_000_000)
        mininet.run(1.0)
        mbps = sum(size for _, size in received) * 8 / 1.0 / 1e6
        assert mbps > 90  # ~94 Mbps goodput on 100 Mbps Ethernet

    def test_send_before_close_only(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        start_echo_listener(bob)
        conn = alice.tcp.connect(bob.ip, 5001)

        def on_connected(c):
            c.send(10)
            c.close()
            with pytest.raises(RuntimeError):
                c.send(10)

        conn.on_connected = on_connected
        mininet.run(1.0)

    def test_custom_mss_bounds_segment_size(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        alice.tcp.default_mss = 500
        received = []

        def on_accept(conn):
            conn.on_data = lambda c, data, size: received.append(size)

        bob.tcp.listen(5001, on_accept)
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.send(5000)
        mininet.run(1.0)
        assert max(received) <= 500
        assert sum(received) == 5000

    def test_loss_free_bulk_transfer_cancels_almost_no_kernel_entry(self, monkeypatch):
        # Every new ACK restarts the retransmission timer and every
        # second segment stops the delayed-ACK timer; both only move a
        # deadline.  What cancels: the retransmission timer re-armed
        # after the handshake's RTT sample, earlier than the initial 1 s
        # RTO entry still queued, and the teardown closing the timers
        # whose entries are still queued (three here).
        cancels = []
        cancel = Simulator.cancel
        monkeypatch.setattr(
            Simulator, "cancel", lambda sim, handle: cancels.append(handle) or cancel(sim, handle)
        )
        bed = Testbed(DeviceKind.STANDARD)
        IperfServer(bed.target)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.2)
        bed.run(0.25)
        connection = session.connection
        assert connection.bytes_acked > 2_000_000  # about 1,600 full segments
        assert connection.segments_retransmitted == 0
        assert len(cancels) <= 4


class TestTeardown:
    def test_closed_connections_are_freed_without_the_cycle_collector(self, mininet):
        # Each connection holds timers whose callbacks are its own bound
        # methods; teardown closes them, so nothing is left for the
        # cyclic collector once both ends reach CLOSED.
        alice, bob = mininet["alice"], mininet["bob"]
        bob.tcp.listen(5001, lambda conn: setattr(conn, "on_data", lambda c, data, size: c.close()))
        closed = []
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            conn = alice.tcp.connect(bob.ip, 5001)
            conn.on_connected = lambda c: (c.send(100), c.close())
            conn.on_closed = lambda c: closed.append(c.state)
            del conn
            mininet.run(3.0)
            live = [obj for obj in gc.get_objects() if type(obj) is TcpConnection]
        finally:
            if enabled:
                gc.enable()
        assert closed == [TcpState.CLOSED]
        assert live == []

    def test_graceful_close_reaches_closed_on_both_ends(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server_conns = start_echo_listener(bob)
        closed = []
        conn = alice.tcp.connect(bob.ip, 5001)

        def on_connected(c):
            c.send(100)
            c.close()

        conn.on_connected = on_connected
        conn.on_closed = lambda c: closed.append("client")

        mininet.run(0.2)
        # Server sees EOF (on_data with size 0) and closes its side.
        server = server_conns[0]
        assert server.state in (TcpState.CLOSE_WAIT, TcpState.CLOSED)
        if server.state == TcpState.CLOSE_WAIT:
            server.close()
        mininet.run(2.0)
        assert conn.state == TcpState.CLOSED
        assert server.state == TcpState.CLOSED

    def test_fin_wait_1_lasts_until_the_fin_itself_is_acked(self, mininet):
        from repro.net.packet import TcpFlags, TcpSegment

        alice, bob = mininet["alice"], mininet["bob"]
        start_echo_listener(bob)
        conn = alice.tcp.connect(bob.ip, 5001)
        mininet.run(0.5)
        conn.send(1000)
        conn.close()  # the data and the FIN leave at once, both unacked
        assert conn.state == TcpState.FIN_WAIT_1 and conn.snd_una < conn.fin_seq

        def ack(number):
            conn.segment_arrived(TcpSegment(
                conn.remote_port, conn.local_port, conn.receive_buffer.rcv_nxt, number,
                TcpFlags.ACK,
            ))

        ack(conn.fin_seq)  # covers the data, not the FIN
        assert conn.state == TcpState.FIN_WAIT_1 and conn.snd_una == conn.fin_seq
        ack(conn.fin_seq + 1)
        assert conn.state == TcpState.FIN_WAIT_2

    def test_abort_sends_rst(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server_conns = start_echo_listener(bob)
        reset = []
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.abort()
        mininet.run(0.5)
        server = server_conns[0]
        server.on_closed = lambda c: reset.append(True)
        mininet.run(0.5)
        assert conn.state == TcpState.CLOSED
        assert server.state == TcpState.CLOSED

    def test_connection_forgotten_after_close(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        start_echo_listener(bob)
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.abort()
        mininet.run(1.0)
        assert alice.tcp.connection_count == 0

    def test_eof_delivered_to_server_application(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        events = []

        def on_accept(conn):
            conn.on_data = lambda c, data, size: events.append(size)

        bob.tcp.listen(5001, on_accept)
        conn = alice.tcp.connect(bob.ip, 5001)

        def on_connected(c):
            c.send(10)
            c.close()

        conn.on_connected = on_connected
        mininet.run(1.0)
        assert events[-1] == 0  # EOF marker
