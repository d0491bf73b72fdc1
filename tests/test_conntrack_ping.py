"""Tests for connection tracking and the stateful iptables."""

import pytest

from repro.firewall.builders import deny_all, padded_ruleset
from repro.firewall.conntrack import (
    ConnState,
    ConnectionTracker,
    StatefulIptablesFilter,
    flow_key,
)
from repro.firewall.rules import Action, PortRange, Rule
from repro.net.addresses import Ipv4Address
from repro.net.packet import (
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)

A = Ipv4Address("10.0.0.1")
B = Ipv4Address("10.0.0.2")


def tcp(src, dst, sport, dport, flags=TcpFlags.ACK):
    return Ipv4Packet(
        src=src, dst=dst, payload=TcpSegment(src_port=sport, dst_port=dport, flags=flags)
    )


class TestFlowKey:
    def test_both_directions_share_a_key(self):
        forward = tcp(A, B, 4000, 80)
        backward = tcp(B, A, 80, 4000)
        assert flow_key(forward) == flow_key(backward)

    def test_distinct_flows_differ(self):
        assert flow_key(tcp(A, B, 4000, 80)) != flow_key(tcp(A, B, 4001, 80))

    def test_icmp_keys_on_identifier(self):
        request = Ipv4Packet(
            src=A, dst=B, payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, identifier=7)
        )
        reply = Ipv4Packet(
            src=B, dst=A, payload=IcmpMessage(icmp_type=IcmpType.ECHO_REPLY, identifier=7)
        )
        assert flow_key(request) == flow_key(reply)


class TestConnectionTracker:
    def test_new_then_established(self, sim):
        tracker = ConnectionTracker(sim)
        syn = tcp(A, B, 4000, 80, TcpFlags.SYN)
        assert tracker.classify(syn) == ConnState.NEW
        tracker.note(syn, initiating=True)
        response = tcp(B, A, 80, 4000, TcpFlags.SYN | TcpFlags.ACK)
        assert tracker.classify(response) == ConnState.ESTABLISHED

    def test_non_initiating_packets_create_nothing(self, sim):
        tracker = ConnectionTracker(sim)
        tracker.note(tcp(A, B, 4000, 80), initiating=False)
        assert len(tracker) == 0

    def test_udp_flows_tracked(self, sim):
        tracker = ConnectionTracker(sim)
        datagram = Ipv4Packet(src=A, dst=B, payload=UdpDatagram(4000, 53))
        tracker.note(datagram, initiating=True)
        reply = Ipv4Packet(src=B, dst=A, payload=UdpDatagram(53, 4000))
        assert tracker.classify(reply) == ConnState.ESTABLISHED

    def test_syn_entries_expire_faster_than_established(self, sim):
        tracker = ConnectionTracker(sim)
        syn_only = tcp(A, B, 4000, 80, TcpFlags.SYN)
        tracker.note(syn_only, initiating=True)
        established = tcp(A, B, 4001, 80, TcpFlags.SYN)
        tracker.note(established, initiating=True)
        tracker.note(tcp(B, A, 80, 4001, TcpFlags.ACK), initiating=False)
        sim.run(until=30.0)  # past SYN timeout, below established timeout
        assert tracker.classify(tcp(A, B, 4000, 80)) == ConnState.NEW
        assert tracker.classify(tcp(A, B, 4001, 80)) == ConnState.ESTABLISHED

    def test_fin_accelerates_expiry(self, sim):
        tracker = ConnectionTracker(sim)
        tracker.note(tcp(A, B, 4000, 80, TcpFlags.SYN), initiating=True)
        tracker.note(tcp(B, A, 80, 4000, TcpFlags.ACK), initiating=False)
        tracker.note(tcp(A, B, 4000, 80, TcpFlags.FIN | TcpFlags.ACK), initiating=False)
        sim.run(until=5.0)
        assert tracker.classify(tcp(A, B, 4000, 80)) == ConnState.NEW

    def test_table_bound_drops_new_flows(self, sim):
        tracker = ConnectionTracker(sim, max_entries=3)
        for port in range(4000, 4005):
            tracker.note(tcp(A, B, port, 80, TcpFlags.SYN), initiating=True)
        assert len(tracker) == 3
        assert tracker.dropped_table_full == 2

    def test_sweep_reclaims_expired_entries(self, sim):
        tracker = ConnectionTracker(sim, max_entries=2)
        tracker.note(tcp(A, B, 4000, 80, TcpFlags.SYN), initiating=True)
        tracker.note(tcp(A, B, 4001, 80, TcpFlags.SYN), initiating=True)
        sim.run(until=25.0)  # both SYN entries stale
        state = tracker.note(tcp(A, B, 4002, 80, TcpFlags.SYN), initiating=True)
        assert state == ConnState.NEW
        assert tracker.expired >= 2

    def test_bad_bound_rejected(self, sim):
        with pytest.raises(ValueError):
            ConnectionTracker(sim, max_entries=0)


class TestStatefulIptables:
    def _install(self, mininet, chain, **kwargs):
        bob = mininet["bob"]
        filt = StatefulIptablesFilter(mininet.sim, input_chain=chain, **kwargs)
        bob.install_iptables(filt)
        return filt

    def test_responses_recognised_as_established(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        # Bob may initiate anything; inbound NEW traffic is denied.
        filt = self._install(mininet, deny_all())
        got = []
        alice.udp.bind(7000, lambda src, sport, size, data: got.append(size))

        def echo(src, sport, size, data):
            # Reply from bob; the response flow must be allowed back in.
            bob_sock.send(src, sport, size=size)

        bob_sock = bob.udp.bind(0)
        # Bob initiates: outbound commits the flow; alice's reply returns.
        reply = []
        alice_sock = alice.udp.bind(7001, lambda src, sport, size, data: alice_sock.send(src, sport, size=2))
        bob_sock2 = bob.udp.bind(7002, lambda src, sport, size, data: reply.append(size))
        bob.udp.send_from(7002, alice.ip, 7001, size=5)
        mininet.run(0.1)
        assert reply == [2]
        assert filt.accepted_established >= 1

    def test_unsolicited_inbound_denied(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        filt = self._install(mininet, deny_all())
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        alice.udp.bind(0).send(bob.ip, 7000, size=4)
        mininet.run(0.1)
        assert got == []
        assert filt.dropped_in == 1

    def test_deep_chain_costs_once_per_connection(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        allow = Rule(
            action=Action.ALLOW,
            protocol=IpProtocol.TCP,
            dst_ports=PortRange.single(5001),
            symmetric=True,
        )
        filt = self._install(mininet, padded_ruleset(64, action_rule=allow))
        received = []

        def on_accept(conn):
            conn.on_data = lambda c, data, size: received.append(size)

        bob.tcp.listen(5001, on_accept)
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.send(500_000)
        mininet.run(1.0)
        assert sum(received) == 500_000
        # Nearly every packet took the conntrack fast path.
        assert filt.accepted_established > 0.9 * filt.accepted_in

    def test_conntrack_full_drops_new_flows(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        allow = Rule(action=Action.ALLOW, protocol=IpProtocol.UDP)
        filt = self._install(mininet, padded_ruleset(1, action_rule=allow), max_entries=8)
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        sender = alice.udp.bind(0)
        # 20 distinct spoofed flows against an 8-entry table.
        for index in range(20):
            spoofed = Ipv4Packet(
                src=Ipv4Address(f"172.16.0.{index + 1}"),
                dst=bob.ip,
                payload=UdpDatagram(1000 + index, 7000),
            )
            alice.ip_layer.send_packet(spoofed)
        mininet.run(0.2)
        assert filt.dropped_conntrack_full > 0
        assert len(got) < 20
