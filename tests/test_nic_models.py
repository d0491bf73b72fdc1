"""Tests for the NIC models: standard, embedded cost engine, EFW, ADF."""

import pytest

from repro import calibration
from repro.crypto.keys import VpgKeyStore
from repro.firewall.builders import allow_all, deny_all, padded_ruleset, service_rule
from repro.firewall.rules import Action, PortRange, Rule, VpgRule
from repro.firewall.ruleset import RuleSet
from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.link import Link, LinkImpairment
from repro.net.packet import IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram
from repro.net.topology import FabricTopology
from repro.nic.adf import AdfNic
from repro.nic.efw import EfwNic
from repro.nic.standard import StandardNic
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from tests.conftest import record_arrivals


def build_pair(sim, target_nic_factory):
    """alice (standard NIC) talking to bob (NIC under test)."""
    rng = RngRegistry(1)
    topo = FabricTopology(sim, leaf_count=0)
    hosts = {}
    for index, (name, factory) in enumerate(
        [("alice", lambda: StandardNic(sim)), ("bob", target_nic_factory)], start=1
    ):
        host = Host(sim, name, Ipv4Address(f"10.0.0.{index}"), MacAddress.from_index(index), rng)
        nic = factory()
        nic.attach(topo.add_station(name))
        host.attach_nic(nic)
        hosts[name] = host
    for a in hosts.values():
        for b in hosts.values():
            if a is not b:
                a.ip_layer.arp_table[b.ip] = b.mac
    return hosts["alice"], hosts["bob"]


def _impaired_pair(sim, extra_delay):
    """alice and bob, both with standard NICs, on one link whose
    impairment adds ``extra_delay`` to every frame."""
    link = Link(sim, "wire")
    link.impairment = LinkImpairment(extra_delay=extra_delay)
    hosts = []
    for index, port in enumerate((link.port_a, link.port_b), start=1):
        host = Host(sim, f"h{index}", Ipv4Address(f"10.0.0.{index}"), MacAddress.from_index(index))
        nic = StandardNic(sim, name=f"h{index}.nic")
        nic.attach(port)
        host.attach_nic(nic)
        hosts.append(host)
    alice, bob = hosts
    alice.ip_layer.arp_table[bob.ip] = bob.mac
    return link, alice, bob


def _arrival(link, sender, extra_delay):
    """Arrival of the first 64-byte frame ``sender`` sent at time 0."""
    slot_end = sender.nic.latency + link.serialization_delay(64)
    return slot_end + (link.propagation_delay + extra_delay)


def udp_to(host, target, port, size=10):
    packet = Ipv4Packet(src=host.ip, dst=target.ip, payload=UdpDatagram(4000, port, payload_size=size))
    host.ip_layer.send_packet(packet)


class TestStandardNic:
    def test_passthrough_delivery(self, sim):
        alice, bob = build_pair(sim, lambda: StandardNic(sim))
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        assert len(got) == 1

    def test_frames_for_other_macs_ignored(self, sim):
        alice, bob = build_pair(sim, lambda: StandardNic(sim))
        from repro.net.packet import EthernetFrame

        packet = Ipv4Packet(src=alice.ip, dst=bob.ip, payload=UdpDatagram(1, 2))
        frame = EthernetFrame(
            src_mac=alice.mac, dst_mac=MacAddress.from_index(77), payload=packet
        )
        bob.nic.receive_frame(frame, None)
        assert bob.packets_delivered == 0


class TestStandardNicFixedLatency:
    def test_egress_books_the_wire_slot_without_an_event(self, sim):
        alice, bob = build_pair(sim, lambda: StandardNic(sim))
        arrivals = []
        bob.udp.bind(7000, lambda *args: arrivals.append(sim.now))
        udp_to(alice, bob, 7000)
        udp_to(alice, bob, 7000)
        # Framed and counted as the host hands the packet down.
        assert alice.nic.frames_sent == 2
        sim.run(until=0.1)
        # Recorded when the link delivered the frame, a latency after it
        # arrived (the delivery event carries the NIC's ingress latency).
        assert arrivals == [2.144e-05, 2.816e-05]
        # Per packet: two link deliveries and the switch's deferred flood
        # (bob has not spoken yet); bob's host receives inside the second
        # delivery.
        assert sim.events_executed == 2 * 3

    def test_ingress_latency_rides_on_the_delivery_event(self, sim):
        link, alice, bob = _impaired_pair(sim, extra_delay=1.0e-3)
        arrivals = []
        bob.udp.bind(7000, lambda *args: arrivals.append(sim.now))
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        arrival = _arrival(link, alice, extra_delay=1.0e-3)
        # The host receives exactly when a hand-off event scheduled at
        # arrival would have fired, inside the one delivery event.
        assert arrivals == [arrival + bob.nic.latency]
        assert sim.events_executed == 1

    def test_traced_spans_split_at_the_arrival(self, sim):
        sim.tracer.configure(spans=True)
        link, alice, bob = _impaired_pair(sim, extra_delay=1.0e-3)
        bob.udp.bind(7000, lambda *args: None)
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        arrival = _arrival(link, alice, extra_delay=1.0e-3)
        [link_tx] = sim.tracer.spans(name="link.tx")
        [nic_rx] = sim.tracer.spans(name="nic.rx", track=bob.nic.name)
        [deliver] = sim.tracer.spans(name="app.deliver")
        # The delivery event fires a latency after the arrival; the link
        # recovers the arrival as ``now - latency``, exact to one rounding.
        assert link_tx.end == pytest.approx(arrival, rel=1e-15, abs=0.0)
        assert (nic_rx.start, nic_rx.end) == (link_tx.end, arrival + bob.nic.latency)
        assert nic_rx.parent_id == link_tx.span_id
        assert deliver.start == nic_rx.end and deliver.parent_id == nic_rx.span_id


class TestEmbeddedPolicyEnforcement:
    def test_no_policy_passes_everything(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim))
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        assert len(got) == 1

    def test_allow_all_policy_delivers_and_counts(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim))
        bob.nic.install_policy(allow_all())
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        assert len(got) == 1
        assert bob.nic.rx_allowed == 1

    def test_deny_policy_drops_inbound(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim, lockup_enabled=False))
        bob.nic.install_policy(deny_all())
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        assert got == []
        assert bob.nic.rx_denied == 1

    def test_egress_filtering_applies(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim, lockup_enabled=False))
        # Allow inbound traffic to port 7000 only (asymmetric): bob's
        # outbound reply must be denied by the default.
        rule = Rule(
            action=Action.ALLOW,
            protocol=IpProtocol.UDP,
            dst_ports=PortRange.single(7000),
            symmetric=False,
        )
        bob.nic.install_policy(RuleSet([rule]))
        bob.udp.bind(7000, lambda *args: None)
        sock = bob.udp.bind(0)
        sock.send(alice.ip, 9999, size=4)
        sim.run(until=0.1)
        assert bob.nic.tx_denied == 1

    def test_symmetric_rule_allows_response_out(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim, lockup_enabled=False))
        rule = Rule(
            action=Action.ALLOW,
            protocol=IpProtocol.TCP,
            dst_ports=PortRange.single(5001),
            symmetric=True,
        )
        bob.nic.install_policy(RuleSet([rule]))
        # A bare TCP segment to a closed-but-allowed port elicits a RST,
        # which the symmetric rule lets back out.
        packet = Ipv4Packet(
            src=alice.ip, dst=bob.ip, payload=TcpSegment(src_port=4444, dst_port=5001)
        )
        alice.ip_layer.send_packet(packet)
        sim.run(until=0.1)
        assert bob.nic.tx_allowed == 1
        assert bob.nic.tx_denied == 0

    def test_efw_rejects_vpg_rules(self, sim):
        _, bob = build_pair(sim, lambda: EfwNic(sim))
        vpg_policy = RuleSet([VpgRule(action=Action.ALLOW, vpg_id=1)])
        with pytest.raises(ValueError):
            bob.nic.install_policy(vpg_policy, key_store=VpgKeyStore())

    def test_vpg_rules_require_key_store(self, sim):
        _, bob = build_pair(sim, lambda: AdfNic(sim))
        vpg_policy = RuleSet([VpgRule(action=Action.ALLOW, vpg_id=1)])
        with pytest.raises(ValueError):
            bob.nic.install_policy(vpg_policy)

    def test_clear_policy_restores_passthrough(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim, lockup_enabled=False))
        bob.nic.install_policy(deny_all())
        bob.nic.clear_policy()
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        sim.run(until=0.1)
        assert len(got) == 1


class TestEmbeddedCostModel:
    def test_service_time_formula(self):
        model = calibration.EFW_COST_MODEL
        base = model.service_time(frame_bytes=64, rules_traversed=1)
        deeper = model.service_time(frame_bytes=64, rules_traversed=64)
        bigger = model.service_time(frame_bytes=1518, rules_traversed=1)
        assert deeper - base == pytest.approx(63 * model.c_rule)
        assert bigger - base == pytest.approx((1518 - 64) * model.c_byte)

    def test_vpg_cost_only_when_matched(self):
        model = calibration.ADF_COST_MODEL
        plain = model.service_time(frame_bytes=1518, rules_traversed=2)
        crypto = model.service_time(
            frame_bytes=1518, rules_traversed=2, vpg_bytes=1500, vpg_matched=True
        )
        assert crypto - plain == pytest.approx(model.c_vpg0 + 1500 * model.c_vpg_byte)

    def test_adf_per_rule_cost_exceeds_efw(self):
        assert calibration.ADF_COST_MODEL.c_rule > calibration.EFW_COST_MODEL.c_rule

    def test_capacity_closed_form(self):
        model = calibration.EFW_COST_MODEL
        assert model.capacity_pps(64, 1) == pytest.approx(
            1.0 / model.service_time(64, 1)
        )

    def test_efw_sustains_line_rate_at_one_rule(self):
        # The paper: with one rule the EFW supports full bandwidth.
        from repro.sim import units

        capacity = calibration.EFW_COST_MODEL.capacity_pps(1518, 1)
        assert capacity > units.MAX_FRAME_RATE_1518B

    def test_efw_cannot_sustain_line_rate_at_64_rules(self):
        from repro.sim import units

        capacity = calibration.EFW_COST_MODEL.capacity_pps(1518, 64)
        assert capacity < units.MAX_FRAME_RATE_1518B

    def test_ring_overflow_under_burst(self, sim):
        alice, bob = build_pair(sim, lambda: EfwNic(sim, ring_size=8))
        bob.nic.install_policy(padded_ruleset(64, action_rule=Rule(action=Action.ALLOW)))
        bob.udp.bind(7000, lambda *args: None)
        for _ in range(200):
            udp_to(alice, bob, 7000, size=10)
        sim.run(until=0.5)
        assert bob.nic.ring_drops > 0

    def test_latency_grows_behind_deep_efw_ruleset(self):
        # Every rule the classifier walks costs processor time, so a
        # datagram whose allow rule sits deep in the table arrives later.
        def delivery_time(depth):
            sim = Simulator()
            alice, bob = build_pair(sim, lambda: EfwNic(sim))
            udp_allow = Rule(action=Action.ALLOW, protocol=IpProtocol.UDP)
            bob.nic.install_policy(padded_ruleset(depth, action_rule=udp_allow))
            delivered = []
            bob.udp.bind(7000, lambda *args: delivered.append(sim.now))
            udp_to(alice, bob, 7000)
            sim.run(until=0.1)
            [time] = delivered
            return time

        shallow, deep = delivery_time(1), delivery_time(64)
        assert deep - shallow == pytest.approx(63 * calibration.EFW_COST_MODEL.c_rule)


class TestVpgDataPath:
    def _vpg_pair(self, sim):
        alice, bob = build_pair(sim, lambda: AdfNic(sim))
        # alice needs an ADF too; rebuild with both embedded.
        return alice, bob

    def test_end_to_end_encrypted_channel(self, sim):
        rng = RngRegistry(1)
        topo = FabricTopology(sim, leaf_count=0)
        store = VpgKeyStore()
        hosts = {}
        for index, name in enumerate(["alice", "bob"], start=1):
            host = Host(sim, name, Ipv4Address(f"10.0.0.{index}"), MacAddress.from_index(index), rng)
            nic = AdfNic(sim, name=f"{name}.adf")
            nic.attach(topo.add_station(name))
            host.attach_nic(nic)
            hosts[name] = host
        for a in hosts.values():
            for b in hosts.values():
                if a is not b:
                    a.ip_layer.arp_table[b.ip] = b.mac
        alice, bob = hosts["alice"], hosts["bob"]
        vpg = VpgRule(
            action=Action.ALLOW,
            protocol=IpProtocol.UDP,
            dst_ports=PortRange.single(7000),
            vpg_id=42,
        )
        alice.nic.install_policy(RuleSet([vpg]), key_store=store)
        bob.nic.install_policy(RuleSet([vpg]), key_store=store)
        got = []
        bob.udp.bind(7000, lambda src, sport, size, data: got.append((size, data)))

        # Probe the wire: frames must be protocol-50 with no visible ports.
        arrivals = record_arrivals(bob.nic)

        sock = alice.udp.bind(0)
        sock.send(bob.ip, 7000, size=32, data=b"secret")
        sim.run(until=0.1)
        assert got == [(32, b"secret")]
        assert bob.nic.vpg_opened == 1
        assert alice.nic.tx_allowed == 1
        [(_, frame)] = arrivals
        wire_packet = frame.ip
        assert wire_packet.protocol == IpProtocol.VPG
        assert wire_packet.flow()[2] == 0 and wire_packet.flow()[4] == 0

    def test_unmatched_vpg_packet_dropped(self, sim):
        rng = RngRegistry(1)
        topo = FabricTopology(sim, leaf_count=0)
        store = VpgKeyStore()
        hosts = {}
        for index, name in enumerate(["alice", "bob"], start=1):
            host = Host(sim, name, Ipv4Address(f"10.0.0.{index}"), MacAddress.from_index(index), rng)
            nic = AdfNic(sim, name=f"{name}.adf")
            nic.attach(topo.add_station(name))
            host.attach_nic(nic)
            hosts[name] = host
        for a in hosts.values():
            for b in hosts.values():
                if a is not b:
                    a.ip_layer.arp_table[b.ip] = b.mac
        alice, bob = hosts["alice"], hosts["bob"]
        sender_vpg = VpgRule(action=Action.ALLOW, protocol=IpProtocol.UDP, vpg_id=42)
        receiver_vpg = VpgRule(action=Action.ALLOW, protocol=IpProtocol.UDP, vpg_id=43)
        alice.nic.install_policy(RuleSet([sender_vpg]), key_store=store)
        bob.nic.install_policy(RuleSet([receiver_vpg]), key_store=store)
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        sock = alice.udp.bind(0)
        sock.send(bob.ip, 7000, size=8)
        sim.run(until=0.1)
        assert got == []
        assert bob.nic.rx_denied == 1


class TestLockupFault:
    def _flooded_efw(self, sim, rate_pps, duration=1.0, lockup_enabled=True):
        alice, bob = build_pair(sim, lambda: EfwNic(sim, lockup_enabled=lockup_enabled))
        bob.nic.install_policy(deny_all())
        from repro.sim.timer import PeriodicTimer

        timer = PeriodicTimer(sim, 1.0 / rate_pps, lambda: udp_to(alice, bob, 9999, size=4))
        timer.start(0.0)
        sim.run(until=duration)
        timer.stop()
        return alice, bob

    def test_wedges_above_threshold(self, sim):
        _, bob = self._flooded_efw(sim, rate_pps=2000)
        assert bob.nic.wedged
        assert bob.nic.fault.lockups == 1

    def test_survives_below_threshold(self, sim):
        _, bob = self._flooded_efw(sim, rate_pps=500)
        assert not bob.nic.wedged

    def test_wedged_card_processes_nothing(self, sim):
        alice, bob = self._flooded_efw(sim, rate_pps=2000)
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        delivered_before = bob.nic.packets_delivered
        udp_to(alice, bob, 7000)
        sim.run(until=sim.now + 0.1)
        assert bob.nic.packets_delivered == delivered_before
        assert bob.nic.wedged_drops > 0

    def test_agent_restart_recovers(self, sim):
        alice, bob = self._flooded_efw(sim, rate_pps=2000)
        assert bob.nic.wedged
        bob.nic.restart_agent()
        assert not bob.nic.wedged
        bob.nic.install_policy(allow_all())
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        udp_to(alice, bob, 7000)
        sim.run(until=sim.now + 0.1)
        assert len(got) == 1
        assert bob.nic.agent_restarts == 1

    def test_ablation_disables_lockup(self, sim):
        _, bob = self._flooded_efw(sim, rate_pps=2000, lockup_enabled=False)
        assert not bob.nic.wedged

    def test_adf_has_no_lockup(self, sim):
        alice, bob = build_pair(sim, lambda: AdfNic(sim))
        bob.nic.install_policy(deny_all())
        from repro.sim.timer import PeriodicTimer

        timer = PeriodicTimer(sim, 1.0 / 2000, lambda: udp_to(alice, bob, 9999, size=4))
        timer.start(0.0)
        sim.run(until=1.0)
        timer.stop()
        assert not bob.nic.wedged

    def test_fault_parameters_validated(self, sim):
        from repro.nic.faults import DenyFloodLockupFault

        _, bob = build_pair(sim, lambda: EfwNic(sim))
        with pytest.raises(ValueError):
            DenyFloodLockupFault(bob.nic, rate_threshold=0)
        with pytest.raises(ValueError):
            DenyFloodLockupFault(bob.nic, window=0)
