"""Pinned outcomes of the embedded card's processor path.

One scripted mix of work items crosses an EFW or an ADF in both
directions: allowed, denied, VPG (matched, unknown key, failed
authentication, spoofed plaintext), control traffic, no policy, and the
eager-decrypt ablation, each with the tracer off and on.  The counters,
the processor's busy time, every delivery and transmission instant and
(traced) every span and event the card records are pinned from the
tree in which the classifiers and completions were separate helpers.
"""

import hashlib

import pytest

from repro import policy_ports
from repro.crypto.keys import VpgKeyStore
from repro.firewall.rules import Action, PortRange, Rule, VpgRule
from repro.firewall.ruleset import RuleSet
from repro.net.packet import EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram
from repro.nic.adf import AdfNic
from repro.nic.efw import EfwNic
from repro.sim.engine import Simulator
from tests.conftest import record_arrivals
from tests.test_nic_models import build_pair


def _udp(src, dst, sport, dport, size=10):
    return Ipv4Packet(src=src, dst=dst, payload=UdpDatagram(sport, dport, payload_size=size))


def _tcp(src, dst, sport, dport, size=0):
    return Ipv4Packet(src=src, dst=dst, payload=TcpSegment(sport, dport, payload_size=size))


def _policy(vpg: bool) -> RuleSet:
    rules = [
        Rule(action=Action.DENY, protocol=IpProtocol.UDP, dst_ports=PortRange.single(9000 + i))
        for i in range(3)
    ]
    if vpg:
        rules += [
            VpgRule(action=Action.ALLOW, protocol=IpProtocol.UDP,
                    dst_ports=PortRange.single(8000 + i), vpg_id=41 + i)
            for i in range(3)
        ]
    rules += [
        Rule(action=Action.ALLOW, protocol=IpProtocol.UDP, dst_ports=PortRange.single(7000),
             symmetric=True),
        Rule(action=Action.DENY, protocol=IpProtocol.UDP, dst_ports=PortRange.single(7001)),
    ]
    return RuleSet(rules)


def _items(alice, bob, vpg: bool):
    """(direction, packet) work items, in offer order."""
    a, b = alice.ip, bob.ip
    items = [
        ("rx", _udp(a, b, 4000, 7000)),
        ("rx", _udp(a, b, 4000, 7001, size=200)),
        ("rx", _tcp(a, b, 4000, 80, size=1460)),
        ("rx", _udp(a, b, 4000, policy_ports.AGENT_PORT)),
        ("tx", _udp(b, a, 7000, 4000, size=900)),
        ("tx", _udp(b, a, 4000, 7001)),
        ("tx", _udp(b, a, policy_ports.AGENT_PORT, 4000)),
        ("tx", _tcp(b, a, 80, 4000)),
    ]
    if vpg:
        store = VpgKeyStore()
        forged = VpgKeyStore(b"another-master-secret")
        items += [
            ("rx", store.context_for(41).seal(_udp(a, b, 4000, 8000), a, b)),
            ("rx", store.context_for(42).seal(_udp(a, b, 4000, 8001, size=700), a, b)),
            ("rx", forged.context_for(41).seal(_udp(a, b, 4000, 8000), a, b)),
            ("rx", store.context_for(43).seal(_udp(a, b, 4000, 8002), a, b)),
            ("rx", store.context_for(99).seal(_udp(a, b, 4000, 8000), a, b)),
            ("rx", _udp(a, b, 4000, 8000)),
            ("tx", _udp(b, a, 4000, 8000, size=300)),
            ("tx", _udp(b, a, 4000, 8002)),
        ]
    return items


def _drive(card: str, traced: bool, lazy: bool = True, policy: bool = True):
    """Run the item mix through bob's card and describe what it did."""
    sim = Simulator()
    factory = (lambda: AdfNic(sim)) if card == "adf" else (lambda: EfwNic(sim))
    alice, bob = build_pair(sim, factory)
    nic = bob.nic
    vpg = card == "adf"
    if traced:
        sim.tracer.configure(spans=True)
    if policy:
        nic.install_policy(_policy(vpg), key_store=VpgKeyStore() if vpg else None)
        if vpg:
            del nic.vpg_contexts[43]  # a VPG rule whose key the card lacks
    nic.lazy_decrypt = lazy
    delivered = []
    bob.deliver_packet = lambda packet: delivered.append((sim.now, packet.describe()))
    alice.deliver_packet = lambda packet: None  # no replies back through the card
    arrivals = record_arrivals(alice.nic)
    items = _items(alice, bob, vpg)

    def offer(direction, packet):
        if direction == "tx":
            nic.send_packet(packet, alice.mac)
            return
        if traced:
            sim.tracer.begin(packet)
        nic.receive_frame(EthernetFrame(alice.mac, bob.mac, packet), nic.port)

    # A burst that queues behind the processor, then one item at a time.
    for direction, packet in items:
        offer(direction, packet)
    for index, (direction, packet) in enumerate(items, start=1):
        sim.schedule_at(0.01 * index, offer, direction, packet)
    sim.run(until=1.0)
    counters = {
        name: getattr(nic, name)
        for name in ("rx_allowed", "rx_denied", "tx_allowed", "tx_denied", "rules_evaluated",
                     "vpg_opened", "vpg_auth_failures", "frames_sent", "packets_delivered")
    }
    processor = nic.processor
    counters["queue"] = (processor.accepted, processor.completed, processor.dropped_full)
    counters["busy_time"] = repr(processor.busy_time)
    timeline = [
        delivered,
        [(t, frame.wire_size, frame.ip.describe()) for t, frame in arrivals],
        [
            (s.trace_id, s.span_id, s.parent_id, s.name, s.track, s.start, s.end,
             sorted(s.attrs.items()))
            for s in sim.tracer.spans()
        ],
        [(r.time, r.source, r.event, sorted(r.fields.items()), r.trace_id)
         for r in sim.tracer.records()],
    ]
    return counters, hashlib.sha256(repr(timeline).encode()).hexdigest()[:16]


_ADF = {
    "rx_allowed": 8, "rx_denied": 10, "tx_allowed": 6, "tx_denied": 6, "rules_evaluated": 240,
    "vpg_opened": 4, "vpg_auth_failures": 2, "frames_sent": 6, "packets_delivered": 8,
    "queue": (32, 32, 0),
}
_EFW = {
    "rx_allowed": 4, "rx_denied": 4, "tx_allowed": 4, "tx_denied": 4, "rules_evaluated": 56,
    "vpg_opened": 0, "vpg_auth_failures": 0, "frames_sent": 4, "packets_delivered": 4,
    "queue": (16, 16, 0),
}
_NO_POLICY = {
    "rx_allowed": 8, "rx_denied": 0, "tx_allowed": 8, "tx_denied": 0, "rules_evaluated": 0,
    "vpg_opened": 0, "vpg_auth_failures": 0, "frames_sent": 8, "packets_delivered": 8,
    "queue": (16, 16, 0),
}

#: (card, traced, lazy, policy) -> (counters, busy time, timeline digest).
PINS = {
    ("adf", False, True, True): (_ADF, "0.0019060799999999999", "7f77ab7b34e56081"),
    ("adf", True, True, True): (_ADF, "0.0019060799999999999", "03b3720d973b0b76"),
    ("adf", False, False, True): (_ADF, "0.0023040799999999996", "53455b270ed7a0e2"),
    ("adf", True, False, True): (_ADF, "0.0023040799999999996", "57e86d5078a8fdb9"),
    ("efw", False, True, True): (_EFW, "0.00053712", "26aa62af34c3bcb5"),
    ("efw", True, True, True): (_EFW, "0.00053712", "1141956679fdf324"),
    ("efw", False, True, False): (_NO_POLICY, "0.00045479999999999994", "0a354643b9e800de"),
    ("efw", True, True, False): (_NO_POLICY, "0.00045479999999999994", "94750f84820e71df"),
}


@pytest.mark.parametrize("card, traced, lazy, policy", sorted(PINS), ids=str)
def test_processor_path_is_pinned(card, traced, lazy, policy):
    counters, digest = _drive(card, traced, lazy, policy)
    expected, busy_time, timeline = PINS[card, traced, lazy, policy]
    assert counters.pop("busy_time") == busy_time
    assert counters == expected
    assert digest == timeline


def test_tracing_changes_no_counter_or_time():
    for card, lazy, policy in (("adf", True, True), ("adf", False, True), ("efw", True, False)):
        off, _ = _drive(card, False, lazy, policy)
        on, _ = _drive(card, True, lazy, policy)
        assert off == on


def test_eager_decryption_costs_more_processor_time():
    lazy, _ = _drive("adf", False, lazy=True)
    eager, _ = _drive("adf", False, lazy=False)
    assert float(eager["busy_time"]) > float(lazy["busy_time"])
