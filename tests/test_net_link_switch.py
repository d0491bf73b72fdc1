"""Tests for links, the learning switch, topology and capture taps."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.chaos import LinkFlap
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.capture import CaptureTap
from repro.net.link import Link
from repro.net.packet import (
    ArpMessage,
    ArpOp,
    EthernetFrame,
    IcmpMessage,
    IcmpType,
    IpProtocol,
    Ipv4Packet,
    RawPayload,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)
from repro.net.switch import EthernetSwitch
from repro.net.topology import FabricTopology
from repro.obs.registry import MetricsRegistry
from repro.sim import units


class Sink:
    """Collects delivered frames with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def receive_frame(self, frame, port):
        self.frames.append((self.sim.now, frame))


def make_frame(src_index=1, dst_index=2, payload_size=100):
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


class TestLink:
    def test_delivery_includes_serialization_and_propagation(self, sim):
        link = Link(sim, bandwidth_bps=units.mbps(100), propagation_delay=1e-6)
        sink = Sink(sim)
        link.port_b.attach(sink)
        frame = make_frame()
        link.port_a.send(frame)
        sim.run()
        wire_bytes = frame.wire_size + units.ETHERNET_WIRE_OVERHEAD
        expected = wire_bytes * 8 / 100e6 + 1e-6
        assert sink.frames[0][0] == pytest.approx(expected)

    def test_frames_deliver_in_fifo_order(self, sim):
        link = Link(sim)
        sink = Sink(sim)
        link.port_b.attach(sink)
        frames = [make_frame(payload_size=size) for size in (10, 500, 30)]
        for frame in frames:
            link.port_a.send(frame)
        sim.run()
        assert [f for _, f in sink.frames] == frames

    def test_queue_overflow_drops_and_counts(self, sim):
        link = Link(sim, queue_capacity=4)
        sink = Sink(sim)
        link.port_b.attach(sink)
        accepted = sum(link.port_a.send(make_frame()) for _ in range(20))
        sim.run()
        # One in service + 4 queued accepted at offer time.
        assert accepted == 5
        assert link.port_a.dropped_frames == 15
        assert len(sink.frames) == 5

    def test_full_duplex_directions_are_independent(self, sim):
        link = Link(sim)
        sink_a, sink_b = Sink(sim), Sink(sim)
        link.port_a.attach(sink_a)
        link.port_b.attach(sink_b)
        link.port_a.send(make_frame())
        link.port_b.send(make_frame())
        sim.run()
        assert len(sink_a.frames) == 1
        assert len(sink_b.frames) == 1

    def test_counters(self, sim):
        link = Link(sim)
        sink = Sink(sim)
        link.port_b.attach(sink)
        frame = make_frame()
        link.port_a.send(frame)
        sim.run()
        assert link.port_a.tx_frames == 1
        assert link.port_a.tx_bytes == frame.wire_size
        assert link.port_b.rx_frames == 1

    def test_double_attach_rejected(self, sim):
        link = Link(sim)
        link.port_a.attach(Sink(sim))
        with pytest.raises(RuntimeError):
            link.port_a.attach(Sink(sim))

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, propagation_delay=-1)


class TestSerializerExactness:
    """The per-size delay memo and the wire size carried through the
    transmit/deliver events reproduce the per-frame computation exactly."""

    # UDP payload sizes giving wire sizes 64 (padded), 1518, 64.
    PAYLOADS = (0, 1472, 0)

    def test_back_to_back_mixed_sizes_arrive_at_exact_sums(self, sim):
        link = Link(sim, bandwidth_bps=units.mbps(100), propagation_delay=1e-6)
        sink = Sink(sim)
        link.port_b.attach(sink)
        frames = [make_frame(payload_size=size) for size in self.PAYLOADS]
        assert [frame.wire_size for frame in frames] == [64, 1518, 64]
        for frame in frames:
            link.port_a.send(frame)
        sim.run()
        expected = []
        clock = 0.0
        for frame in frames:
            clock += units.transmission_delay(
                frame.wire_size + units.ETHERNET_WIRE_OVERHEAD, link.bandwidth_bps
            )
            expected.append(clock + link.propagation_delay)
        assert [when for when, _ in sink.frames] == expected
        assert [frame for _, frame in sink.frames] == frames
        total = sum(frame.wire_size for frame in frames)
        assert link.port_a.tx_bytes == total
        assert link.port_b.rx_bytes == total

    def test_memoised_delay_matches_units_for_both_ports(self, sim):
        link = Link(sim, bandwidth_bps=units.mbps(10))
        link.port_a.attach(Sink(sim))
        link.port_b.attach(Sink(sim))
        for size in self.PAYLOADS:
            link.port_a.send(make_frame(payload_size=size))
            link.port_b.send(make_frame(payload_size=size))
        sim.run()
        # Filled by the traffic itself, one entry per distinct wire size.
        assert sorted(link._tx_delays) == [64, 1518]
        for port in (link.port_a, link.port_b):
            assert port.tx_bytes == 64 + 1518 + 64
            for size in (64, 1518):
                assert port.link.serialization_delay(size) == units.transmission_delay(
                    size + units.ETHERNET_WIRE_OVERHEAD, link.bandwidth_bps
                )

    @staticmethod
    def _payloads():
        src, dst = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2")
        mac = MacAddress.from_index(1)
        return [
            Ipv4Packet(src, dst, TcpSegment(1, 2, flags=TcpFlags.SYN)),
            Ipv4Packet(src, dst, TcpSegment(1, 2, payload_size=1460)),
            Ipv4Packet(src, dst, UdpDatagram(1, 2, payload_size=18)),
            Ipv4Packet(src, dst, UdpDatagram(1, 2, payload_size=19)),
            Ipv4Packet(src, dst, IcmpMessage(IcmpType.ECHO_REQUEST, payload_size=56)),
            Ipv4Packet(src, dst, RawPayload(size=300), protocol=IpProtocol.VPG),
            ArpMessage(ArpOp.REQUEST, mac, src, MacAddress(0), dst),
            RawPayload(size=10),
        ]

    def test_cached_wire_size_matches_a_fresh_computation(self):
        sizes = []
        for payload in self._payloads():
            frame = EthernetFrame(MacAddress.from_index(1), BROADCAST_MAC, payload)
            fresh = max(
                units.ETHERNET_HEADER + payload.size + units.ETHERNET_FCS,
                units.ETHERNET_MIN_FRAME,
            )
            assert frame.wire_size == fresh
            assert dataclasses.replace(frame).wire_size == fresh
            sizes.append(frame.wire_size)
        # SYN, full TCP, UDP at and just past the 64-byte padding edge,
        # ICMP, raw IP, ARP (padded), raw Ethernet payload (padded).
        assert sizes == [64, 1518, 64, 65, 102, 338, 64, 64]

    def test_replace_recomputes_the_cached_size(self):
        small = make_frame(payload_size=10)
        packet = dataclasses.replace(
            small.payload, payload=UdpDatagram(src_port=1, dst_port=2, payload_size=1000)
        )
        assert dataclasses.replace(small, payload=packet).wire_size == 1046
        assert small.wire_size == 64

    def test_cache_field_leaves_equality_and_repr_alone(self):
        frame, twin = make_frame(), make_frame()
        assert frame == twin
        twin.wire_size = 9999  # not part of equality
        assert frame == twin
        assert "wire_size" not in repr(frame)
        assert repr(frame) == repr(twin)
        assert frame != make_frame(payload_size=101)


class TestImpairmentDropAccounting:
    def test_link_flap_drops_are_exported_apart_from_queue_overflow(self, sim):
        sim.metrics = MetricsRegistry()
        topology = FabricTopology(sim, leaf_count=0, queue_capacity=2)
        port = topology.add_station("client")
        port.attach(Sink(sim))
        bed = SimpleNamespace(hosts={"client": None}, topology=topology)
        fault = LinkFlap(station="client", mode="down")
        fault.inject(bed)
        assert not any(port.send(make_frame()) for _ in range(4))
        fault.clear(bed)
        # One frame on the wire plus two queued; the other five overflow.
        accepted = sum(port.send(make_frame()) for _ in range(8))
        sim.run()
        assert accepted == 3
        assert port.impairment_dropped_frames == 4
        assert port.dropped_frames == 4 + 5

        def series(reason):
            return sim.metrics.get("link_dropped_frames", port=port.name, reason=reason).read()

        assert series("impairment") == 4
        assert series("queue_full") == 5


class TestSwitch:
    def _wire(self, sim, count=3):
        switch = EthernetSwitch(sim)
        sinks = []
        for index in range(count):
            link = Link(sim, name=f"l{index}")
            switch.attach_port(link.port_a)
            sink = Sink(sim)
            link.port_b.attach(sink)
            sinks.append((link, sink))
        return switch, sinks

    def test_unknown_destination_floods(self, sim):
        switch, sinks = self._wire(sim)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=9))
        sim.run()
        assert len(sinks[1][1].frames) == 1
        assert len(sinks[2][1].frames) == 1
        assert len(sinks[0][1].frames) == 0  # never reflected to ingress
        assert switch.flooded_frames == 1

    def test_learned_destination_is_unicast(self, sim):
        switch, sinks = self._wire(sim)
        # Host 2 speaks first so the switch learns its port.
        sinks[1][0].port_b.send(make_frame(src_index=2, dst_index=1))
        sim.run()
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert len(sinks[1][1].frames) == 1
        assert len(sinks[2][1].frames) == 1  # only the initial flood
        assert switch.forwarded_frames == 1

    def test_broadcast_floods_all_but_ingress(self, sim):
        switch, sinks = self._wire(sim)
        packet = Ipv4Packet(
            src=Ipv4Address("10.0.0.1"),
            dst=Ipv4Address("255.255.255.255"),
            payload=UdpDatagram(1, 2),
        )
        frame = EthernetFrame(
            src_mac=MacAddress.from_index(1), dst_mac=BROADCAST_MAC, payload=packet
        )
        sinks[0][0].port_b.send(frame)
        sim.run()
        assert len(sinks[1][1].frames) == 1
        assert len(sinks[2][1].frames) == 1

    def test_frame_to_ingress_segment_not_forwarded(self, sim):
        switch, sinks = self._wire(sim)
        # Learn both hosts on port 0's segment (hub-like scenario).
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=9))
        sim.run()
        sinks[0][0].port_b.send(make_frame(src_index=9, dst_index=1))
        sim.run()
        # src 9 and dst 1 are both behind port 0 now.
        before = [len(s.frames) for _, s in sinks]
        sinks[0][0].port_b.send(make_frame(src_index=9, dst_index=1))
        sim.run()
        after = [len(s.frames) for _, s in sinks]
        assert before == after  # nothing delivered anywhere

    def test_mac_ageing_causes_reflood(self, sim):
        switch = EthernetSwitch(sim, mac_ageing_time=0.5)
        links = []
        for index in range(3):
            link = Link(sim, name=f"l{index}")
            switch.attach_port(link.port_a)
            sink = Sink(sim)
            link.port_b.attach(sink)
            links.append((link, sink))
        links[1][0].port_b.send(make_frame(src_index=2, dst_index=1))
        sim.run()
        # After the ageing time, the entry for host 2 is stale.
        sim.schedule(1.0, lambda: links[0][0].port_b.send(make_frame(src_index=1, dst_index=2)))
        sim.run()
        assert len(links[2][1].frames) >= 2  # initial flood + re-flood

    def test_drop_counting_on_egress_overflow(self, sim):
        # Two ingress ports converging on one same-speed egress port: the
        # 2-frame egress queue must overflow and the switch must count it.
        switch = EthernetSwitch(sim)
        ingress_1 = Link(sim, name="in1")
        ingress_2 = Link(sim, name="in2")
        egress = Link(sim, name="out", queue_capacity=2)
        for link in (ingress_1, ingress_2, egress):
            switch.attach_port(link.port_a)
        sink = Sink(sim)
        egress.port_b.attach(sink)
        # Teach the switch where dst 3 lives.
        egress.port_b.send(make_frame(src_index=3, dst_index=1))
        sim.run()
        for _ in range(30):
            ingress_1.port_b.send(make_frame(src_index=1, dst_index=3, payload_size=1400))
            ingress_2.port_b.send(make_frame(src_index=2, dst_index=3, payload_size=1400))
        sim.run()
        assert switch.dropped_frames > 0
        assert len(sink.frames) < 60

    def test_mac_table_snapshot(self, sim):
        switch, sinks = self._wire(sim)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        table = switch.mac_table()
        assert MacAddress.from_index(1) in table


class TestTopology:
    def test_star_connects_stations(self, sim):
        topo = FabricTopology(sim, leaf_count=0)
        port_a = topo.add_station("a")
        port_b = topo.add_station("b")
        sink_a, sink_b = Sink(sim), Sink(sim)
        port_a.attach(sink_a)
        port_b.attach(sink_b)
        port_a.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert len(sink_b.frames) == 1

    def test_duplicate_station_rejected(self, sim):
        topo = FabricTopology(sim, leaf_count=0)
        topo.add_station("a")
        with pytest.raises(ValueError):
            topo.add_station("a")

    def test_station_names_and_links(self, sim):
        topo = FabricTopology(sim, leaf_count=0)
        topo.add_station("x")
        topo.add_station("y")
        assert topo.station_names() == ["x", "y"]
        assert topo.link_for("x").name.endswith(".x")


class TestCaptureTap:
    def test_tap_records_frames_with_direction(self, sim):
        link = Link(sim)
        tap = CaptureTap()
        link.add_tap(tap)
        sink = Sink(sim)
        link.port_b.attach(sink)
        link.port_a.send(make_frame())
        sim.run()
        assert tap.total_frames == 1
        assert tap.frames[0].dst_port_name == link.port_b.name

    def test_filter_excludes_frames(self, sim):
        link = Link(sim)
        tap = CaptureTap(frame_filter=lambda frame: frame.wire_size > 1000)
        link.add_tap(tap)
        link.port_b.attach(Sink(sim))
        link.port_a.send(make_frame(payload_size=10))
        link.port_a.send(make_frame(payload_size=1400))
        sim.run()
        assert tap.total_frames == 1

    def test_window_queries_and_rate(self, sim):
        link = Link(sim)
        tap = CaptureTap()
        link.add_tap(tap)
        link.port_b.attach(Sink(sim))
        for delay in (0.1, 0.2, 0.9):
            sim.schedule(delay, link.port_a.send, make_frame())
        sim.run()
        assert len(tap.frames_between(0.0, 0.5)) == 2
        assert tap.rate_pps(0.0, 1.0) == pytest.approx(3.0)

    def test_rate_rejects_bad_window(self):
        tap = CaptureTap()
        with pytest.raises(ValueError):
            tap.rate_pps(1.0, 1.0)

    def test_clear(self, sim):
        link = Link(sim)
        tap = CaptureTap()
        link.add_tap(tap)
        link.port_b.attach(Sink(sim))
        link.port_a.send(make_frame())
        sim.run()
        tap.clear()
        assert tap.total_frames == 0
        assert len(tap) == 0
