"""Tests for the iptables host-firewall model."""

import pytest

from repro import calibration
from repro.firewall.builders import allow_all, deny_all, padded_ruleset
from repro.firewall.iptables import IptablesFilter
from repro.firewall.rules import Action, Direction, PortRange, Rule
from repro.firewall.ruleset import RuleSet
from repro.net.packet import IpProtocol
from tests.conftest import MiniNet


def udp_to(host, target, port, size=10):
    from repro.net.packet import Ipv4Packet, UdpDatagram

    packet = Ipv4Packet(
        src=host.ip, dst=target.ip, payload=UdpDatagram(4000, port, payload_size=size)
    )
    host.ip_layer.send_packet(packet)


class TestIptablesFiltering:
    def test_allowed_traffic_delivered(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        bob.install_iptables(IptablesFilter(mininet.sim, input_chain=allow_all()))
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        mininet.run(0.1)
        assert len(got) == 1
        assert bob.iptables.accepted_in == 1

    def test_denied_traffic_dropped(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        bob.install_iptables(IptablesFilter(mininet.sim, input_chain=deny_all()))
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        mininet.run(0.1)
        assert got == []
        assert bob.iptables.dropped_in == 1

    def test_output_chain_filters_egress(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        output_deny = RuleSet(
            [Rule(action=Action.DENY, protocol=IpProtocol.UDP)],
            default_action=Action.ALLOW,
        )
        bob.install_iptables(
            IptablesFilter(mininet.sim, input_chain=allow_all(), output_chain=output_deny)
        )
        got = []
        alice.udp.bind(7000, lambda *args: got.append(args))
        sock = bob.udp.bind(0)
        sock.send(alice.ip, 7000, size=4)
        mininet.run(0.1)
        assert got == []
        assert bob.iptables.dropped_out == 1

    def test_default_output_chain_allows(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        bob.install_iptables(IptablesFilter(mininet.sim, input_chain=allow_all()))
        got = []
        alice.udp.bind(7000, lambda *args: got.append(args))
        sock = bob.udp.bind(0)
        sock.send(alice.ip, 7000, size=4)
        mininet.run(0.1)
        assert len(got) == 1

    def test_depth_costs_host_cpu_time(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        deep = padded_ruleset(64, action_rule=Rule(action=Action.ALLOW))
        filt = IptablesFilter(mininet.sim, input_chain=deep)
        bob.install_iptables(filt)
        bob.udp.bind(7000, lambda *args: None)
        for _ in range(100):
            udp_to(alice, bob, 7000)
        mininet.run(0.5)
        expected_min = 100 * calibration.IPTABLES_COST_MODEL.service_time(38, 64)
        assert filt.utilisation_time >= expected_min * 0.9

    def test_service_time_is_the_cost_models_to_the_bit(self, sim, rng):
        # One packet at a time: the busy time is its service time, which
        # must equal NicCostModel.service_time exactly (same float order).
        model = calibration.IPTABLES_COST_MODEL
        for depth in (1, 3, 7, 64):
            for size in (0, 10, 333, 1472):
                net = MiniNet(sim, rng)
                alice, bob = net["alice"], net["bob"]
                chain = padded_ruleset(depth, action_rule=Rule(action=Action.ALLOW))
                filt = IptablesFilter(sim, input_chain=chain)
                bob.install_iptables(filt)
                bob.udp.bind(7000, lambda *args: None)
                udp_to(alice, bob, 7000, size=size)
                net.run(0.1)
                assert filt.accepted_in == 1
                assert filt.utilisation_time == model.service_time(28 + size, depth), (depth, size)

    def test_backlog_bound_drops(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        slow_model = calibration.NicCostModel(c0=0.01, c_rule=0, c_byte=0)
        filt = IptablesFilter(
            mininet.sim, input_chain=allow_all(), cost_model=slow_model, backlog=4
        )
        bob.install_iptables(filt)
        bob.udp.bind(7000, lambda *args: None)
        for _ in range(50):
            udp_to(alice, bob, 7000)
        mininet.run(1.0)
        assert filt.dropped_backlog > 0

    def test_iptables_is_orders_of_magnitude_cheaper_than_nic(self):
        nic_cost = calibration.EFW_COST_MODEL.service_time(64, 64)
        host_cost = calibration.IPTABLES_COST_MODEL.service_time(64, 64)
        assert nic_cost / host_cost > 20
