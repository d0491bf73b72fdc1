"""Tests for UDP sockets, ICMP behaviour, and host plumbing."""

import pytest

from repro.host.icmp import ICMP_ERROR_BURST
from repro.net.addresses import Ipv4Address
from repro.net.packet import IcmpMessage, IcmpType, Ipv4Packet, UdpDatagram


class TestUdp:
    def test_datagram_delivery(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        got = []
        bob.udp.bind(7000, lambda src, sport, size, data: got.append((src, sport, size, data)))
        sender = alice.udp.bind(0)
        sender.send(bob.ip, 7000, size=11, data=b"hello world")
        mininet.run(0.1)
        assert got == [(alice.ip, sender.port, 11, b"hello world")]

    def test_ephemeral_ports_are_unique(self, mininet):
        alice = mininet["alice"]
        a = alice.udp.bind(0)
        b = alice.udp.bind(0)
        assert a.port != b.port

    def test_duplicate_bind_rejected(self, mininet):
        alice = mininet["alice"]
        alice.udp.bind(5353)
        with pytest.raises(RuntimeError):
            alice.udp.bind(5353)

    def test_close_releases_port(self, mininet):
        alice = mininet["alice"]
        sock = alice.udp.bind(5353)
        sock.close()
        alice.udp.bind(5353)  # no error

    def test_unbound_port_triggers_port_unreachable(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        sender = alice.udp.bind(0)
        sender.send(bob.ip, 9999, size=10)
        mininet.run(0.1)
        assert bob.udp.unreachable_sent == 1
        assert bob.icmp.errors_sent == 1

    def test_socket_counters(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        sock = bob.udp.bind(7000)
        sender = alice.udp.bind(0)
        for _ in range(3):
            sender.send(bob.ip, 7000, size=100)
        mininet.run(0.1)
        assert sock.datagrams_received == 3
        assert sock.bytes_received == 300


class TestIcmp:
    def test_ping_round_trip(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        seen = []
        original = alice.deliver_packet
        alice.deliver_packet = lambda packet: (seen.append(packet), original(packet))
        request = IcmpMessage(
            icmp_type=IcmpType.ECHO_REQUEST, identifier=7, sequence=5, payload_size=56
        )
        alice.ip_layer.send(bob.ip, request)
        mininet.run(0.1)
        [reply] = seen
        assert reply.src == bob.ip
        assert (reply.icmp.icmp_type, reply.icmp.identifier, reply.icmp.sequence) == (
            IcmpType.ECHO_REPLY, 7, 5
        )
        assert bob.icmp.echo_requests_received == 1
        assert alice.icmp.echo_replies_received == 1

    def test_icmp_error_rate_limit(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        sender = alice.udp.bind(0)
        for _ in range(100):
            sender.send(bob.ip, 9999, size=10)
        mininet.run(0.2)
        # Token bucket: burst then suppression.
        assert bob.icmp.errors_sent <= ICMP_ERROR_BURST + 3
        assert bob.icmp.errors_suppressed > 0

    def test_icmp_error_tokens_refill(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        sender = alice.udp.bind(0)
        for _ in range(20):
            sender.send(bob.ip, 9999, size=10)
        mininet.run(0.1)
        sent_after_burst = bob.icmp.errors_sent
        mininet.run(2.0)  # refill window
        sender.send(bob.ip, 9999, size=10)
        mininet.run(0.1)
        assert bob.icmp.errors_sent == sent_after_burst + 1


class TestHostPlumbing:
    def test_packets_to_other_hosts_are_ignored(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        stranger = Ipv4Address("203.0.113.5")
        packet = Ipv4Packet(src=alice.ip, dst=stranger, payload=UdpDatagram(1, 2))
        # Force-deliver to bob's stack entry point.
        bob.deliver_packet(packet)
        assert bob.ip_layer.packets_received == 0

    def test_arp_fallback_is_broadcast(self, mininet):
        alice = mininet["alice"]
        from repro.net.addresses import BROADCAST_MAC

        assert alice.ip_layer.resolve(Ipv4Address("203.0.113.77")) == BROADCAST_MAC

    def test_double_nic_attach_rejected(self, mininet):
        from repro.nic.standard import StandardNic

        alice = mininet["alice"]
        with pytest.raises(RuntimeError):
            alice.attach_nic(StandardNic(mininet.sim))

    def test_ip_identification_increments(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        seen = []
        bob.udp.bind(7000, lambda *args: None)
        original = bob.deliver_packet
        bob.deliver_packet = lambda packet: (seen.append(packet.identification), original(packet))
        sender = alice.udp.bind(0)
        sender.send(bob.ip, 7000, size=1)
        sender.send(bob.ip, 7000, size=1)
        mininet.run(0.1)
        assert seen[1] == seen[0] + 1

    def test_raw_send_allows_spoofed_source(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        got = []
        bob.udp.bind(7000, lambda src, sport, size, data: got.append(src))
        spoofed = Ipv4Packet(
            src=Ipv4Address("1.2.3.4"), dst=bob.ip, payload=UdpDatagram(1, 7000)
        )
        alice.ip_layer.send_packet(spoofed)
        mininet.run(0.1)
        assert got == [Ipv4Address("1.2.3.4")]
