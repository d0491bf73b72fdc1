"""Tests for the multi-switch FabricTopology (and its single-switch case)."""

import pytest

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.packet import EthernetFrame, Ipv4Packet, UdpDatagram
from repro.net.topology import DEFAULT_TRUNK_BPS, FabricTopology
from repro.sim import units
from repro.sim.engine import Simulator


class Sink:
    """Collects delivered frames with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def receive_frame(self, frame, port):
        self.frames.append((self.sim.now, frame))


def make_frame(src_index, dst_index, payload_size=100):
    packet = Ipv4Packet(
        src=Ipv4Address("10.0.0.1"),
        dst=Ipv4Address("10.0.0.2"),
        payload=UdpDatagram(src_port=1, dst_port=2, payload_size=payload_size),
    )
    return EthernetFrame(
        src_mac=MacAddress.from_index(src_index),
        dst_mac=MacAddress.from_index(dst_index),
        payload=packet,
    )


def attach_stations(topology, count, sim):
    """Attach ``count`` sink stations; returns (sinks, ports)."""
    sinks, ports = [], []
    for index in range(count):
        sink = Sink(sim)
        port = topology.add_station(f"h{index}")
        port.attach(sink)
        sinks.append(sink)
        ports.append(port)
    return sinks, ports


class TestValidation:
    def test_degenerate_fabric_needs_one_spine(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="exactly one spine"):
            FabricTopology(sim, leaf_count=0, spine_count=2)

    def test_counts_must_be_sane(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FabricTopology(sim, spine_count=0)
        with pytest.raises(ValueError):
            FabricTopology(sim, leaf_count=-1)

    def test_shape_and_trunk_defaults(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=4, spine_count=2, queue_capacity=64)
        assert len(fabric.spines) == 2 and len(fabric.leaves) == 4
        # 1 spine-chain trunk + 4 leaf uplinks.
        assert len(fabric.trunks) == 5
        for trunk in fabric.trunks:
            assert trunk.bandwidth_bps == DEFAULT_TRUNK_BPS
            assert trunk.port_a.queue_capacity == 4 * 64
            assert trunk.port_b.queue_capacity == 4 * 64


class TestDegenerateStarEquivalence:
    def test_four_host_fabric_matches_star_event_for_event(self):
        """leaf_count=0 reproduces the paper's single-switch star exactly.

        The frame timings are the ones the dedicated star topology
        produced before the fabric replaced it.  The event count is one
        delivery per link hop (h0 to the switch, three flooded copies,
        the reply's two hops) plus the switch's one deferred forwarding
        event, for the unknown unicast; the learned reply is booked at
        ingress.
        """
        sim = Simulator()
        topology = FabricTopology(sim, name="lan", leaf_count=0)
        sinks, ports = attach_stations(topology, 4, sim)
        # h0 -> h2 unknown unicast (floods), then the learned reply.
        ports[0].send(make_frame(0, 2))
        sim.run(until=0.01)
        ports[2].send(make_frame(2, 0))
        sim.run(until=0.02)
        frames = [
            [(when, int(frame.src_mac), int(frame.dst_mac)) for when, frame in sink.frames]
            for sink in sinks
        ]
        h0, h2 = int(MacAddress.from_index(0)), int(MacAddress.from_index(2))
        assert frames == [
            [(0.01003256, h2, h0)],
            [(3.256e-05, h0, h2)],
            [(3.256e-05, h0, h2)],
            [(3.256e-05, h0, h2)],
        ]
        assert sim.events_executed == 7

    def test_single_switch_keeps_the_star_names(self):
        sim = Simulator()
        topology = FabricTopology(sim, name="lan", leaf_count=0)
        topology.add_station("target")
        assert topology.switches == [topology.switch]
        assert topology.switch.name == "lan.switch"
        assert topology.link_for("target").name == "lan.target"
        assert not topology.trunks


class TestMultiSwitchForwarding:
    def test_unknown_unicast_floods_across_switches(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=2, spine_count=1)
        sinks, ports = attach_stations(fabric, 4, sim)
        ports[0].send(make_frame(0, 3))
        sim.run(until=0.01)
        # Every other station sees the flooded frame; the sender does not.
        assert not sinks[0].frames
        for sink in sinks[1:]:
            assert len(sink.frames) == 1

    def test_learned_unicast_crosses_the_fabric_without_flooding(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=4, spine_count=2)
        sinks, ports = attach_stations(fabric, 8, sim)
        fabric.prime_mac_tables(
            {f"h{index}": MacAddress.from_index(index) for index in range(8)}
        )
        ports[0].send(make_frame(0, 7))
        sim.run(until=0.01)
        assert len(sinks[7].frames) == 1
        for index in range(1, 7):
            assert not sinks[index].frames
        assert all(switch.flooded_frames == 0 for switch in fabric.switches)

    def test_prime_installs_station_macs_on_every_switch(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=4, spine_count=2)
        attach_stations(fabric, 8, sim)
        macs = {f"h{index}": MacAddress.from_index(index) for index in range(8)}
        fabric.prime_mac_tables(macs)
        for switch in fabric.switches:
            assert set(switch.mac_table()) == set(macs.values())

    def test_stations_round_robin_across_leaves(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=2, spine_count=1)
        attach_stations(fabric, 4, sim)
        assert fabric.leaf_of("h0") is fabric.leaves[0]
        assert fabric.leaf_of("h1") is fabric.leaves[1]
        assert fabric.leaf_of("h2") is fabric.leaves[0]
        assert fabric.leaf_of("h3") is fabric.leaves[1]
        assert fabric.station_names() == ["h0", "h1", "h2", "h3"]

    def test_explicit_leaf_pins_the_station(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=3, spine_count=1)
        fabric.add_station("pinned", leaf=2)
        assert fabric.leaf_of("pinned") is fabric.leaves[2]

    def test_broadcast_reaches_every_station_once(self):
        sim = Simulator()
        fabric = FabricTopology(sim, leaf_count=4, spine_count=2)
        sinks, ports = attach_stations(fabric, 8, sim)
        broadcast = EthernetFrame(
            src_mac=MacAddress.from_index(0),
            dst_mac=MacAddress("ff:ff:ff:ff:ff:ff"),
            payload=Ipv4Packet(
                src=Ipv4Address("10.0.0.1"),
                dst=Ipv4Address("10.0.0.255"),
                payload=UdpDatagram(src_port=1, dst_port=2, payload_size=50),
            ),
        )
        ports[0].send(broadcast)
        sim.run(until=0.01)
        assert not sinks[0].frames
        for sink in sinks[1:]:
            assert len(sink.frames) == 1  # tree topology: no duplicates
