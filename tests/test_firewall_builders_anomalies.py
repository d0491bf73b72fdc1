"""Tests for the rule-set builders."""

import pytest

from repro.firewall.builders import (
    allow_all,
    deny_all,
    oracle_ruleset,
    padded_ruleset,
    padding_rule,
    service_rule,
    vpg_ruleset,
)
from repro.firewall.rules import Action, Direction, PortRange, VpgRule
from repro.net.addresses import Ipv4Address
from repro.net.packet import IpProtocol, Ipv4Packet, TcpSegment

TARGET = Ipv4Address("10.0.0.3")


def tcp_packet(dport=5001):
    return Ipv4Packet(
        src=Ipv4Address("10.0.0.2"),
        dst=TARGET,
        payload=TcpSegment(src_port=40000, dst_port=dport),
    )


class TestBuilders:
    def test_allow_all_matches_at_depth_one(self):
        result = allow_all().evaluate(tcp_packet(), Direction.INBOUND)
        assert result.allowed and result.rules_traversed == 1

    def test_deny_all_denies(self):
        result = deny_all().evaluate(tcp_packet(), Direction.INBOUND)
        assert not result.allowed

    def test_padded_ruleset_places_action_at_exact_depth(self):
        action = service_rule(Action.ALLOW, IpProtocol.TCP, 5001)
        for depth in (1, 8, 16, 32, 64):
            ruleset = padded_ruleset(depth, action_rule=action)
            result = ruleset.evaluate(tcp_packet(), Direction.INBOUND)
            assert result.allowed
            assert result.rules_traversed == depth
            assert ruleset.table_size == depth

    def test_padding_rules_never_match_testbed_traffic(self):
        for index in range(64):
            rule = padding_rule(index)
            assert not rule.matches(tcp_packet(), Direction.INBOUND)
            assert not rule.matches(tcp_packet(), Direction.OUTBOUND)

    def test_padded_depth_must_fit_action_rule(self):
        vpg = VpgRule(action=Action.ALLOW, vpg_id=1)
        with pytest.raises(ValueError):
            padded_ruleset(1, action_rule=vpg)  # pair needs depth >= 2
        with pytest.raises(ValueError):
            padded_ruleset(0)

    def test_vpg_ruleset_only_last_vpg_matches(self):
        matching = VpgRule(
            action=Action.ALLOW,
            protocol=IpProtocol.TCP,
            dst_ports=PortRange.single(5001),
            vpg_id=500,
        )
        ruleset = vpg_ruleset(4, matching)
        assert ruleset.table_size == 8  # 4 pairs
        result = ruleset.evaluate_encrypted(500)
        assert result.allowed
        assert result.rules_traversed == 8
        # The padding VPGs carry distinct ids that never match.
        for rule in ruleset.rules[:-1]:
            assert not rule.matches_encrypted(500)

    def test_vpg_ruleset_requires_at_least_one(self):
        with pytest.raises(ValueError):
            vpg_ruleset(0, VpgRule(action=Action.ALLOW, vpg_id=1))

    def test_oracle_ruleset_needs_at_least_31_rules(self):
        ruleset = oracle_ruleset(TARGET)
        assert ruleset.table_size >= 31

    def test_oracle_ruleset_allows_tns_listener(self):
        ruleset = oracle_ruleset(TARGET)
        result = ruleset.evaluate(tcp_packet(dport=1521), Direction.INBOUND)
        assert result.allowed

    def test_oracle_ruleset_denies_random_port(self):
        ruleset = oracle_ruleset(TARGET)
        result = ruleset.evaluate(tcp_packet(dport=2222), Direction.INBOUND)
        assert not result.allowed

