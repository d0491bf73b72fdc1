"""Edge-case coverage across modules: error paths, counters, wrap-arounds."""

import pytest

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.packet import IpProtocol, Ipv4Packet, RawPayload, UdpDatagram


class TestNicEdges:
    def test_double_attach_rejected(self, sim, mininet):
        from repro.nic.standard import StandardNic

        nic = mininet["alice"].nic
        port = mininet.topology.add_station("spare")
        with pytest.raises(RuntimeError):
            nic.attach(port)

    def test_double_bind_host_rejected(self, sim, mininet):
        from repro.host.host import Host
        from repro.sim.rng import RngRegistry

        other = Host(
            mininet.sim,
            "other",
            Ipv4Address("192.168.1.99"),
            MacAddress.from_index(99),
            RngRegistry(1),
        )
        with pytest.raises(RuntimeError):
            mininet["alice"].nic.bind_host(other)


class TestIpDispatchEdges:
    def test_unhandled_vpg_packet_counted(self, mininet):
        # A VPG packet reaching a host's stack (no ADF decapsulated it)
        # is dropped and counted, not crashed on.
        alice, bob = mininet["alice"], mininet["bob"]
        packet = Ipv4Packet(
            src=alice.ip,
            dst=bob.ip,
            payload=RawPayload(size=64),
            protocol=IpProtocol.VPG,
        )
        alice.ip_layer.send_packet(packet)
        mininet.run(0.1)
        assert bob.ip_layer.packets_dropped_no_proto == 1

    def test_broadcast_destination_accepted(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        got = []
        bob.udp.bind(7000, lambda *args: got.append(args))
        packet = Ipv4Packet(
            src=alice.ip,
            dst=Ipv4Address("192.168.1.255"),
            payload=UdpDatagram(1, 7000, payload_size=4),
        )
        alice.ip_layer.send_packet(packet)
        mininet.run(0.1)
        assert len(got) == 1


class TestTcpManagerEdges:
    def test_listener_close_is_idempotent(self, mininet):
        bob = mininet["bob"]
        listener = bob.tcp.listen(5001, lambda conn: None)
        listener.close()
        listener.close()
        bob.tcp.listen(5001, lambda conn: None)  # port is free again

    def test_isn_is_within_31_bits(self, mininet):
        for _ in range(100):
            isn = mininet["alice"].tcp.next_isn()
            assert 0 <= isn < 2**31

    def test_connection_count_tracks_lifecycle(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        bob.tcp.listen(5001, lambda conn: None)
        conn = alice.tcp.connect(bob.ip, 5001)
        mininet.run(0.1)
        assert alice.tcp.connection_count == 1
        conn.abort()
        assert alice.tcp.connection_count == 0


class TestIcmpEdges:
    def test_quoted_error_payload_is_bounded(self, mininet):
        alice, bob = mininet["alice"], mininet["bob"]
        seen = []
        original = alice.deliver_packet
        alice.deliver_packet = lambda packet: (seen.append(packet), original(packet))
        sender = alice.udp.bind(0)
        sender.send(bob.ip, 9999, size=1400)  # big offending datagram
        mininet.run(0.1)
        errors = [p for p in seen if p.icmp is not None]
        assert errors
        # RFC 1122: header + 8 bytes quoted, not the whole datagram.
        assert errors[0].icmp.payload_size <= 28


class TestFloodEdges:
    def test_stop_is_idempotent(self, trinet):
        from repro.apps.flood import FloodGenerator

        flood = FloodGenerator(trinet["mallory"])
        flood.start(trinet["bob"].ip, rate_pps=100)
        flood.stop()
        flood.stop()
        assert not flood.running

    def test_restart_after_stop(self, trinet):
        from repro.apps.flood import FloodGenerator

        flood = FloodGenerator(trinet["mallory"])
        flood.start(trinet["bob"].ip, rate_pps=100, duration=0.05)
        trinet.run(0.1)
        flood.start(trinet["bob"].ip, rate_pps=100, duration=0.05)
        trinet.run(0.1)
        assert flood.packets_sent >= 8


class TestRulesetEdges:
    def test_empty_ruleset_uses_default_and_counts_one(self):
        from repro.firewall.rules import Action, Direction
        from repro.firewall.ruleset import RuleSet
        from repro.net.packet import TcpSegment

        ruleset = RuleSet([], default_action=Action.ALLOW)
        packet = Ipv4Packet(
            src=Ipv4Address("1.1.1.1"),
            dst=Ipv4Address("2.2.2.2"),
            payload=TcpSegment(src_port=1, dst_port=2),
        )
        result = ruleset.evaluate(packet, Direction.INBOUND)
        assert result.allowed
        assert result.rules_traversed == 1  # charged at least one entry

    def test_flow_cache_bounded(self):
        from repro.firewall.builders import allow_all
        from repro.firewall.rules import Direction
        from repro.net.packet import TcpSegment

        ruleset = allow_all()
        ruleset.FLOW_CACHE_LIMIT = 0  # simulate a full cache
        packet = Ipv4Packet(
            src=Ipv4Address("1.1.1.1"),
            dst=Ipv4Address("2.2.2.2"),
            payload=TcpSegment(src_port=1, dst_port=2),
        )
        first = ruleset.evaluate(packet, Direction.INBOUND)
        second = ruleset.evaluate(packet, Direction.INBOUND)
        assert ruleset.last_engine == "compiled"  # nothing cached
        assert first == second  # but equal verdicts


class TestFlowCacheLru:
    """Regression: the flow cache used to stop admitting entries once full.

    A randomized-source flood would fill it, after which *every* flow —
    including long-lived legitimate ones — paid the uncached rule walk
    forever.  The cache is now a bounded LRU: one-shot flood flows evict
    each other while hot flows stay resident.

    ``RuleSet.last_engine`` names the engine that answered the latest
    lookup, so ``"cache"`` marks a hit and ``"compiled"`` a miss.
    """

    @staticmethod
    def _packet(src_port):
        from repro.net.packet import TcpSegment

        return Ipv4Packet(
            src=Ipv4Address("1.1.1.1"),
            dst=Ipv4Address("2.2.2.2"),
            payload=TcpSegment(src_port=src_port, dst_port=80),
        )

    @classmethod
    def _hit(cls, ruleset, port):
        """Evaluate the flow from ``port``; True when the cache answered."""
        from repro.firewall.rules import Direction

        ruleset.evaluate(cls._packet(port), Direction.INBOUND)
        return ruleset.last_engine == "cache"

    def test_fresh_flows_still_cached_after_saturation(self):
        from repro.firewall.builders import allow_all

        ruleset = allow_all()
        ruleset.FLOW_CACHE_LIMIT = 16
        # Saturate: 3x the cache bound of one-shot flows.
        for port in range(1000, 1048):
            self._hit(ruleset, port)
        assert len(ruleset._flow_cache) == 16
        # A brand-new flow must still be admitted.
        assert not self._hit(ruleset, 5000)
        assert self._hit(ruleset, 5000)

    def test_hot_flow_survives_a_flood(self):
        from repro.firewall.builders import allow_all

        ruleset = allow_all()
        ruleset.FLOW_CACHE_LIMIT = 16
        assert not self._hit(ruleset, 22)
        # Interleave flood flows with re-use of the hot flow: the hit
        # refreshes its recency, so the flood evicts only its own flows.
        for port in range(2000, 2100):
            assert not self._hit(ruleset, port)
            assert self._hit(ruleset, 22)

    def test_cold_entries_are_the_ones_evicted(self):
        from repro.firewall.builders import allow_all

        ruleset = allow_all()
        ruleset.FLOW_CACHE_LIMIT = 4
        for port in (1, 2, 3, 4):
            assert not self._hit(ruleset, port)
        # Touch 1 and 2, then add two new flows: 3 and 4 get evicted.
        assert self._hit(ruleset, 1)
        assert self._hit(ruleset, 2)
        assert not self._hit(ruleset, 5)
        assert not self._hit(ruleset, 6)
        assert self._hit(ruleset, 1)
        assert self._hit(ruleset, 2)
        assert not self._hit(ruleset, 3)

    def test_encrypted_lookups_share_the_bound(self):
        from repro.firewall.builders import allow_all

        ruleset = allow_all()
        ruleset.FLOW_CACHE_LIMIT = 8
        for spi in range(100):
            ruleset.evaluate_encrypted(spi)
        assert len(ruleset._flow_cache) <= 8
