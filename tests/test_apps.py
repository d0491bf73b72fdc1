"""Tests for the measurement applications: iperf, httpd/http_load, flood."""

import math

import pytest

#: Full end-to-end regenerations; excluded from the default fast tier
#: (see [tool.pytest.ini_options] in pyproject.toml).
pytestmark = pytest.mark.slow

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.http_load import HttpLoadClient
from repro.apps.httpd import HttpServer
from repro.apps.iperf import IperfClient, IperfServer
from repro.net.addresses import Ipv4Address
from tests.conftest import record_arrivals


class TestIperfTcp:
    def test_measures_line_rate_goodput(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server = IperfServer(bob)
        session = IperfClient(alice).start_tcp(bob.ip, duration=1.0)
        mininet.run(1.1)
        result = session.result()
        assert 90 < result.mbps < 96
        assert not result.connect_failed

    def test_result_before_window_end_rejected(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        IperfServer(bob)
        session = IperfClient(alice).start_tcp(bob.ip, duration=1.0)
        mininet.run(0.3)
        with pytest.raises(RuntimeError):
            session.result()

    def test_connect_failure_reports_zero_bandwidth(self, mininet):
        alice = mininet["alice"]
        # No server anywhere: connect is refused by RST.
        session = IperfClient(alice).start_tcp(mininet["bob"].ip, duration=0.5)
        mininet.run(0.6)
        result = session.result()
        assert result.connect_failed
        assert result.mbps == 0.0

    def test_server_counts_connections(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server = IperfServer(bob)
        session = IperfClient(alice).start_tcp(bob.ip, duration=0.3)
        mininet.run(0.4)
        assert server.connections_accepted == 1
        assert server.tcp_bytes_received > 0


class TestIperfUdp:
    def test_rate_and_loss_accounting(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server = IperfServer(bob)
        session = IperfClient(alice).start_udp(server, rate_pps=1000, duration=1.0)
        mininet.run(1.1)
        result = session.result()
        assert result.datagrams_sent == pytest.approx(1000, rel=0.02)
        assert result.loss_ratio < 0.01
        # 1470-byte payloads at 1000 pps ~ 11.8 Mbps of payload.
        assert result.mbps == pytest.approx(1470 * 8 * 1000 / 1e6, rel=0.05)

    def test_bad_rate_rejected(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server = IperfServer(bob)
        with pytest.raises(ValueError):
            IperfClient(alice).start_udp(server, rate_pps=0)

    def test_server_close_releases_ports(self, mininet):
        bob = mininet["bob"]
        server = IperfServer(bob)
        server.close()
        IperfServer(bob)  # rebind works


class TestHttp:
    def test_single_fetch_roundtrip(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        HttpServer(bob, pages={"/": 4096})
        session = HttpLoadClient(alice).start(bob.ip, duration=0.5)
        mininet.run(0.6)
        result = session.result()
        assert result.completed > 10
        assert result.failures == 0
        first = result.fetches[0]
        assert first.bytes_received > 4096  # header + body
        assert first.connect_time < 0.005
        assert first.first_response_time > first.connect_time

    def test_fetch_rate_scales_with_page_size(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        HttpServer(bob, port=80, pages={"/": 1024})
        HttpServer(bob, port=8080, pages={"/": 65536})
        small = HttpLoadClient(alice).start(bob.ip, port=80, duration=0.5)
        mininet.run(0.6)
        big = HttpLoadClient(alice).start(bob.ip, port=8080, duration=0.5)
        mininet.run(0.7)
        assert small.result().fetches_per_second > big.result().fetches_per_second

    def test_unknown_path_counts_404(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server = HttpServer(bob)
        session = HttpLoadClient(alice).start(bob.ip, path="/missing", duration=0.3)
        mininet.run(0.4)
        assert server.requests_not_found > 0
        # 404s still complete as fetches (http_load counts bytes).
        assert session.result().completed > 0

    def test_requests_served_counter(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        server = HttpServer(bob)
        session = HttpLoadClient(alice).start(bob.ip, duration=0.3)
        mininet.run(0.4)
        assert server.requests_served == session.result().completed

    def test_one_connection_at_a_time(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        HttpServer(bob)
        session = HttpLoadClient(alice).start(bob.ip, duration=0.3)
        mininet.run(0.4)
        fetches = session.result().fetches
        # Each fetch starts only after the previous completed.
        for earlier, later in zip(fetches, fetches[1:]):
            assert later.started_at >= earlier.completed_at

    def test_mean_latency_metrics_are_finite(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        HttpServer(bob)
        session = HttpLoadClient(alice).start(bob.ip, duration=0.3)
        mininet.run(0.4)
        result = session.result()
        assert math.isfinite(result.mean_connect_ms)
        assert math.isfinite(result.mean_first_response_ms)
        assert result.mean_first_response_ms > result.mean_connect_ms


class TestFloodGenerator:
    def test_rate_achieved(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        flood = FloodGenerator(mallory)
        flood.start(bob.ip, rate_pps=5000, duration=0.5)
        trinet.run(0.6)
        assert flood.packets_sent == pytest.approx(2500, rel=0.02)
        assert not flood.running

    def test_default_packets_are_minimum_frames(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        arrivals = record_arrivals(bob.nic)
        flood = FloodGenerator(mallory)
        flood.start(bob.ip, rate_pps=1000, duration=0.1)
        trinet.run(0.2)
        assert len(arrivals) == flood.packets_sent
        assert all(frame.wire_size == 64 for _, frame in arrivals)

    def test_tcp_flood_elicits_rst_responses(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001))
        flood.start(bob.ip, rate_pps=1000, duration=0.1)
        trinet.run(0.2)
        assert bob.tcp.rst_sent == flood.packets_sent

    def test_udp_flood_elicits_rate_limited_icmp(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.UDP, dst_port=9999))
        flood.start(bob.ip, rate_pps=1000, duration=0.2)
        trinet.run(0.3)
        assert bob.icmp.errors_sent < flood.packets_sent
        assert bob.icmp.errors_suppressed > 0

    def test_syn_flood_fills_listener_backlog(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        listener = bob.tcp.listen(5001, lambda conn: None, backlog=16)
        flood = FloodGenerator(
            mallory,
            FloodSpec(kind=FloodKind.TCP_SYN, dst_port=5001, randomize_src=True),
        )
        flood.start(bob.ip, rate_pps=2000, duration=0.2)
        trinet.run(0.3)
        assert listener.half_open == 16
        assert listener.dropped_syn_backlog > 0

    def test_icmp_echo_flood_answered(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.ICMP_ECHO))
        flood.start(bob.ip, rate_pps=500, duration=0.1)
        trinet.run(0.2)
        assert bob.icmp.echo_requests_received == flood.packets_sent

    def test_fixed_spoofed_source(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        seen = []
        original = bob.deliver_packet
        bob.deliver_packet = lambda packet: (seen.append(packet.src), original(packet))
        spec = FloodSpec(kind=FloodKind.UDP, spoof_src=Ipv4Address("1.1.1.1"))
        flood = FloodGenerator(mallory, spec)
        flood.start(bob.ip, rate_pps=100, duration=0.05)
        trinet.run(0.1)
        assert set(seen) == {Ipv4Address("1.1.1.1")}

    def test_randomized_sources_vary(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        seen = []
        original = bob.deliver_packet
        bob.deliver_packet = lambda packet: (seen.append(packet.src), original(packet))
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.UDP, randomize_src=True))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len(set(seen)) > 10

    def test_start_twice_rejected(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        flood = FloodGenerator(mallory)
        flood.start(bob.ip, rate_pps=100)
        with pytest.raises(RuntimeError):
            flood.start(bob.ip, rate_pps=100)
        flood.stop()

    def test_bad_rate_rejected(self, trinet):
        flood = FloodGenerator(trinet["mallory"])
        with pytest.raises(ValueError):
            flood.start(trinet["bob"].ip, rate_pps=0)

    def test_achieved_rate_bounded_by_wire(self, trinet):
        # Ask for 1M pps; the 100 Mbps link caps near 148.8k pps.
        mallory, bob = trinet["mallory"], trinet["bob"]
        # Only the flood direction: bob's NIC receives, it does not see
        # its own RST responses.
        arrivals = record_arrivals(bob.nic)
        flood = FloodGenerator(mallory)
        flood.start(bob.ip, rate_pps=1_000_000, duration=0.1)
        trinet.run(0.25)
        start, end = 0.02, 0.1  # steady-state window
        delivered = sum(1 for time, _ in arrivals if start <= time < end)
        delivered_rate = delivered / (end - start)
        assert 100_000 < delivered_rate < 150_000
