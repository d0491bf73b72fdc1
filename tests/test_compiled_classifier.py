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
from repro.firewall.ruleset import RuleSet
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
