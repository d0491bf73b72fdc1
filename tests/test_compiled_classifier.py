"""Differential tests: compiled classifier vs. the linear reference matcher.

The compiled fast path (:mod:`repro.firewall.compiled`) must agree with
the linear first-match walk on *everything* the simulation consumes:
verdict, charged ``rules_traversed``, the identity of the matching rule,
and the VPG flag — for plaintext packets in both directions, encrypted
SPI lookups, and the default-action case.  Rule-sets and packets are
drawn from overlapping small pools so matches are common, with wildcard
protocols, symmetric rules, general port ranges and VPG pairs all in
the mix.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.firewall.rules import (
    Action,
    AddressPattern,
    Direction,
    PortRange,
    Rule,
    VpgRule,
)
from repro.firewall.ruleset import MatchResult, RuleSet
from repro.net.addresses import Ipv4Address
from repro.net.packet import (
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    TcpSegment,
    UdpDatagram,
)

# Small overlapping pools so rules frequently match packets; a couple of
# far-away values keep the miss paths exercised too.
ADDRESS_POOL = [Ipv4Address("10.0.0.0") + offset for offset in range(6)] + [
    Ipv4Address("203.0.113.9"),
    Ipv4Address("8.8.8.8"),
]
PORT_POOL = [0, 1, 80, 443, 5001, 40000, 65535]

addresses = st.sampled_from(ADDRESS_POOL)
pool_ports = st.sampled_from(PORT_POOL)
actions = st.sampled_from([Action.ALLOW, Action.DENY])
rule_protocols = st.sampled_from([None, IpProtocol.TCP, IpProtocol.UDP, IpProtocol.ICMP])
rule_directions = st.sampled_from([Direction.INBOUND, Direction.OUTBOUND, Direction.BOTH])
packet_directions = st.sampled_from([Direction.INBOUND, Direction.OUTBOUND])
vpg_ids = st.integers(0, 3)


@st.composite
def port_ranges(draw):
    """Any / single / general range, all hit regularly."""
    kind = draw(st.sampled_from(["any", "single", "range"]))
    if kind == "any":
        return PortRange.any()
    if kind == "single":
        return PortRange.single(draw(pool_ports))
    low = draw(pool_ports)
    high = draw(st.sampled_from([p for p in PORT_POOL if p >= low]))
    return PortRange(low, high)


@st.composite
def patterns(draw):
    return AddressPattern(draw(addresses), draw(st.sampled_from([0, 8, 24, 29, 31, 32])))


@st.composite
def plain_rules(draw):
    return Rule(
        action=draw(actions),
        protocol=draw(rule_protocols),
        src=draw(patterns()),
        dst=draw(patterns()),
        src_ports=draw(port_ranges()),
        dst_ports=draw(port_ranges()),
        direction=draw(rule_directions),
        symmetric=draw(st.booleans()),
    )


@st.composite
def vpg_rules(draw):
    return VpgRule(
        action=draw(actions),
        protocol=draw(st.sampled_from([None, IpProtocol.TCP, IpProtocol.UDP])),
        src=draw(patterns()),
        dst=draw(patterns()),
        src_ports=draw(port_ranges()),
        dst_ports=draw(port_ranges()),
        vpg_id=draw(vpg_ids),
    )


rules = st.one_of(plain_rules(), vpg_rules())
rule_lists = st.lists(rules, max_size=12)


@st.composite
def packets(draw):
    protocol = draw(st.sampled_from([IpProtocol.TCP, IpProtocol.UDP, IpProtocol.ICMP]))
    if protocol == IpProtocol.TCP:
        payload = TcpSegment(src_port=draw(pool_ports), dst_port=draw(pool_ports))
    elif protocol == IpProtocol.UDP:
        payload = UdpDatagram(src_port=draw(pool_ports), dst_port=draw(pool_ports))
    else:
        payload = IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST)
    return Ipv4Packet(src=draw(addresses), dst=draw(addresses), payload=payload)


def assert_same_result(compiled, linear):
    assert compiled.action == linear.action
    assert compiled.rules_traversed == linear.rules_traversed
    assert compiled.rule is linear.rule
    assert compiled.is_vpg == linear.is_vpg


class TestDifferentialEquivalence:
    @given(rule_list=rule_lists, default=actions, packet=packets(), direction=packet_directions)
    @settings(max_examples=300)
    def test_plaintext_agreement(self, rule_list, default, packet, direction):
        ruleset = RuleSet(rule_list, default_action=default)
        compiled = ruleset.compiled_classifier.lookup(packet.flow(), direction)
        linear = ruleset.evaluate_linear(packet, direction)
        assert_same_result(compiled, linear)

    @given(rule_list=rule_lists, default=actions, spi=st.integers(0, 5))
    def test_encrypted_agreement(self, rule_list, default, spi):
        ruleset = RuleSet(rule_list, default_action=default)
        compiled = ruleset.compiled_classifier.lookup_encrypted(spi)
        linear = ruleset.evaluate_encrypted_linear(spi)
        assert_same_result(compiled, linear)

    @given(rule_list=rule_lists, packet=packets(), direction=packet_directions)
    def test_both_directions_from_one_classifier(self, rule_list, packet, direction):
        # Direction tables are built lazily per direction; probing one
        # direction must not corrupt the other.
        ruleset = RuleSet(rule_list)
        classifier = ruleset.compiled_classifier
        for probe in (direction, Direction.INBOUND, Direction.OUTBOUND):
            assert_same_result(
                classifier.lookup(packet.flow(), probe),
                ruleset.evaluate_linear(packet, probe),
            )

    @given(default=actions, packet=packets(), direction=packet_directions)
    def test_empty_ruleset_charges_one_entry(self, default, packet, direction):
        ruleset = RuleSet([], default_action=default)
        compiled = ruleset.compiled_classifier.lookup(packet.flow(), direction)
        linear = ruleset.evaluate_linear(packet, direction)
        assert_same_result(compiled, linear)
        assert compiled.rules_traversed == 1
        assert compiled.rule is None


class TestEvaluateRouting:
    def test_evaluate_uses_compiled_path_and_counts_hits(self):
        ruleset = RuleSet([Rule(action=Action.ALLOW, protocol=IpProtocol.TCP)])
        packet = Ipv4Packet(
            src=ADDRESS_POOL[0],
            dst=ADDRESS_POOL[1],
            payload=TcpSegment(src_port=40000, dst_port=80),
        )
        result = ruleset.evaluate(packet, Direction.INBOUND)
        assert result.allowed
        assert ruleset.compiled_stats.compiles == 1
        assert ruleset.compiled_stats.hits == 1

    def test_mutation_forces_recompile(self):
        ruleset = RuleSet([Rule(action=Action.ALLOW)])
        packet = Ipv4Packet(
            src=ADDRESS_POOL[0],
            dst=ADDRESS_POOL[1],
            payload=TcpSegment(src_port=40000, dst_port=80),
        )
        assert ruleset.evaluate(packet, Direction.INBOUND).allowed
        with ruleset.mutate() as edit:
            edit.insert(0, Rule(action=Action.DENY, protocol=IpProtocol.TCP))
        assert not ruleset.evaluate(packet, Direction.INBOUND).allowed
        assert ruleset.compiled_stats.compiles == 2


class TestAllowedField:
    """``MatchResult.allowed`` is set once at construction; it must equal
    ``action is Action.ALLOW`` on every kind of result."""

    RULES = [
        Rule(action=Action.DENY, protocol=IpProtocol.UDP, name="deny-udp"),
        Rule(action=Action.ALLOW, protocol=IpProtocol.TCP, dst_ports=PortRange.single(80)),
        VpgRule(
            action=Action.ALLOW,
            src=AddressPattern.host(ADDRESS_POOL[0]),
            dst=AddressPattern.host(ADDRESS_POOL[1]),
            vpg_id=7,
        ),
    ]

    @staticmethod
    def _packet(payload):
        return Ipv4Packet(src=ADDRESS_POOL[2], dst=ADDRESS_POOL[3], payload=payload)

    def _results(self, default_action):
        ruleset = RuleSet(self.RULES, default_action=default_action)
        tcp = self._packet(TcpSegment(src_port=40000, dst_port=80))
        udp = self._packet(UdpDatagram(src_port=40000, dst_port=53))
        icmp = self._packet(IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST))
        results = {}
        for name, packet in (("tcp", tcp), ("udp", udp), ("default", icmp)):
            results[f"compiled-{name}"] = ruleset.evaluate(packet, Direction.INBOUND)
            assert ruleset.last_engine == "compiled"
            results[f"linear-{name}"] = ruleset.evaluate_linear(packet, Direction.INBOUND)
        results["encrypted"] = ruleset.evaluate_encrypted(7)
        results["encrypted-default"] = ruleset.evaluate_encrypted(99)
        results["encrypted-linear"] = ruleset.evaluate_encrypted_linear(7)
        return results

    @pytest.mark.parametrize("default_action", [Action.ALLOW, Action.DENY])
    def test_allowed_is_action_is_allow(self, default_action):
        results = self._results(default_action)
        for name, result in results.items():
            assert result.allowed is (result.action is Action.ALLOW), name
        assert results["compiled-tcp"].allowed and not results["compiled-udp"].allowed
        assert results["encrypted"].allowed and results["encrypted"].is_vpg
        default = default_action is Action.ALLOW
        assert results["compiled-default"].rule is None
        assert results["compiled-default"].allowed is default
        assert results["encrypted-default"].allowed is default

    def test_allowed_is_derived_not_compared_or_shown(self):
        result = MatchResult(action=Action.ALLOW, rules_traversed=1, rule=None)
        assert result.allowed
        assert "allowed" not in repr(result)
        denied = dataclasses.replace(result, action=Action.DENY)
        assert not denied.allowed
        assert result == MatchResult(Action.ALLOW, 1, None)
        with pytest.raises(TypeError):
            MatchResult(Action.ALLOW, 1, None, False, True)
