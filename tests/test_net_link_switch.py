"""Tests for links, the learning switch and topology."""

import dataclasses
import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.chaos import LinkFlap
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.link import Link
from repro.net.packet import (
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
        with pytest.raises(ValueError):
            Link(sim, queue_capacity=0)


class TestSerializerExactness:
    """The per-size delay memo and the wire size carried through the
    delivery event reproduce the per-frame computation exactly."""

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
        return [
            Ipv4Packet(src, dst, TcpSegment(1, 2, flags=TcpFlags.SYN)),
            Ipv4Packet(src, dst, TcpSegment(1, 2, payload_size=1460)),
            Ipv4Packet(src, dst, UdpDatagram(1, 2, payload_size=18)),
            Ipv4Packet(src, dst, UdpDatagram(1, 2, payload_size=19)),
            Ipv4Packet(src, dst, IcmpMessage(IcmpType.ECHO_REQUEST, payload_size=56)),
            Ipv4Packet(src, dst, RawPayload(size=300), protocol=IpProtocol.VPG),
            RawPayload(size=46),
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
        # ICMP, raw IP, raw Ethernet payloads at and under the 64-byte
        # edge (the second padded).
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


class TestVirtualTimeSerializer:
    """``send`` books each frame's wire slot; one kernel event per hop."""

    def test_one_frame_over_one_link_is_one_kernel_event(self, sim):
        link = Link(sim)
        sink = Sink(sim)
        link.port_b.attach(sink)
        link.port_a.send(make_frame())
        sim.run()
        assert len(sink.frames) == 1
        assert sim.events_executed == 1

    def test_capacity_sends_at_one_instant_fill_the_queue(self, sim):
        link = Link(sim, queue_capacity=4)
        link.port_b.attach(Sink(sim))
        port = link.port_a
        assert port.send(make_frame())  # straight onto the wire
        assert port.queue_depth == 0
        assert all(port.send(make_frame()) for _ in range(port.queue_capacity))
        assert port.queue_depth == port.queue_capacity
        assert not port.send(make_frame())
        assert port.dropped_frames == 1

    def test_send_at_a_waiting_slots_start_is_accepted(self, sim):
        link = Link(sim, queue_capacity=1, propagation_delay=1e-6)
        sink = Sink(sim)
        link.port_b.attach(sink)
        port = link.port_a
        frames = [make_frame(payload_size=0) for _ in range(3)]
        assert port.send(frames[0]) and port.send(frames[1])
        assert not port.send(make_frame(payload_size=0))
        tx = link.serialization_delay(64)
        accepted = []
        # frames[1] leaves the queue for the wire at exactly tx.
        sim.schedule_at(tx, lambda: accepted.append(port.send(frames[2])))
        sim.run()
        assert accepted == [True]
        assert port.dropped_frames == 1
        assert [frame for _, frame in sink.frames] == frames
        end = 0.0
        expected = []
        for _ in frames:
            end += tx
            expected.append(end + link.propagation_delay)
        assert [when for when, _ in sink.frames] == expected

    def test_queue_depth_and_gauge_drain_without_a_further_send(self, sim):
        sim.metrics = MetricsRegistry()
        link = Link(sim)
        link.port_b.attach(Sink(sim))
        port = link.port_a
        for _ in range(4):
            port.send(make_frame())
        gauge = sim.metrics.get("link_queue_depth", port=port.name)
        assert port.queue_depth == 3
        assert gauge.read() == 3
        sim.run(until=10 * link.serialization_delay(make_frame().wire_size))
        # The gauge first: reading queue_depth must not be what refreshes it.
        assert gauge.read() == 0
        assert port.queue_depth == 0

    def test_peer_never_receives_more_than_was_sent(self, sim):
        link = Link(sim, queue_capacity=8)
        port, peer = link.port_a, link.port_b
        seen = []

        class Counting:
            def receive_frame(self, frame, at):
                seen.append((peer.rx_frames, port.tx_frames))

        peer.attach(Counting())
        for index in range(12):
            sim.schedule(index * 1e-6, port.send, make_frame(payload_size=index * 100))
        sim.run()
        assert port.dropped_frames > 0
        assert all(rx <= tx for rx, tx in seen)
        # Booked frames count as sent before they arrive.
        assert any(rx < tx for rx, tx in seen)
        assert peer.rx_frames == port.tx_frames == len(seen) == 12 - port.dropped_frames


class _ReferenceQueue:
    """The transmit-queue rule as a plain model: prune the slots that
    have started, then count the waiting slots that start after the
    frame's ``earliest``; depth leaves out frames still inside the
    sender."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.busy_until = 0.0
        self.waiting = deque()
        self.entering = deque()

    @staticmethod
    def _prune(queue, now):
        while queue and queue[0] <= now:
            queue.popleft()

    def send(self, now, earliest, tx_delay):
        earliest = max(earliest, now)
        start = self.busy_until
        if start > earliest:
            self._prune(self.waiting, now)
            if sum(1 for slot in self.waiting if slot > earliest) >= self.capacity:
                return False
            self.waiting.append(start)
            if earliest > now:
                self._prune(self.entering, now)
                self.entering.append(earliest)
        else:
            start = earliest
        self.busy_until = start + tx_delay
        return True

    def depth(self, now):
        self._prune(self.waiting, now)
        self._prune(self.entering, now)
        return len(self.waiting) - len(self.entering)


class TestQueueBookkeepingMatchesReference:
    """Random send sequences through a port and through the reference
    rule: the same accept/drop verdicts, the same ``queue_depth`` after
    every burst of sends and at probe times between them."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sends_match_the_reference(self, sim, seed):
        rnd = random.Random(seed)
        capacity = rnd.choice((1, 2, 3, 5))
        link = Link(sim, queue_capacity=capacity, propagation_delay=1e-6)
        link.port_b.attach(Sink(sim))
        port = link.port_a
        reference = _ReferenceQueue(capacity)
        slot = link.serialization_delay(64)
        # One sender per port, booking a fixed latency ahead: none, less
        # than a slot, or many slots (more frames inside the sender than
        # the queue holds).
        latency = rnd.choice((0.0, 0.4 * slot, 3 * slot, 9 * slot))
        seen = []

        def burst():
            for _ in range(rnd.randint(1, 4)):
                frame = make_frame(payload_size=rnd.choice((0, 0, 100, 700)))
                now = sim.now
                tx_delay = link.serialization_delay(frame.wire_size)
                expected = reference.send(now, now + latency, tx_delay)
                seen.append(("send", port.send(frame, now + latency), expected))
            seen.append(("depth", port.queue_depth, reference.depth(sim.now)))

        def probe():
            seen.append(("probe", port.queue_depth, reference.depth(sim.now)))

        gap = rnd.choice((1.0, 2.5)) * slot  # overload, or bursts that drain
        when = 0.0
        for _ in range(60):
            when += rnd.choice((0.0, 0.3, 0.9, 1.0, 1.7, 4.0)) * gap
            sim.schedule_at(when, burst)
            sim.schedule_at(when + rnd.random() * 3 * slot, probe)
        sim.run()
        assert all(got == expected for _, got, expected in seen), seen
        verdicts = [got for kind, got, _ in seen if kind == "send"]
        assert False in verdicts  # every sequence fills the queue at times
        assert port.queue_depth == reference.depth(sim.now) == 0


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


def wire_switch(sim, count=3):
    """A switch with ``count`` ports, each linked to a :class:`Sink`."""
    switch = EthernetSwitch(sim)
    sinks = []
    for index in range(count):
        link = Link(sim, name=f"l{index}")
        switch.attach_port(link.port_a)
        sink = Sink(sim)
        link.port_b.attach(sink)
        sinks.append((link, sink))
    return switch, sinks


class TestSwitch:
    def test_unknown_destination_floods(self, sim):
        switch, sinks = wire_switch(sim)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=9))
        sim.run()
        assert len(sinks[1][1].frames) == 1
        assert len(sinks[2][1].frames) == 1
        assert len(sinks[0][1].frames) == 0  # never reflected to ingress
        assert switch.flooded_frames == 1

    def test_learned_destination_is_unicast(self, sim):
        switch, sinks = wire_switch(sim)
        # Host 2 speaks first so the switch learns its port.
        sinks[1][0].port_b.send(make_frame(src_index=2, dst_index=1))
        sim.run()
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert len(sinks[1][1].frames) == 1
        assert len(sinks[2][1].frames) == 1  # only the initial flood
        assert switch.forwarded_frames == 1

    def test_broadcast_floods_all_but_ingress(self, sim):
        switch, sinks = wire_switch(sim)
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
        switch, sinks = wire_switch(sim)
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
        switch, sinks = wire_switch(sim)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        table = switch.mac_table()
        assert MacAddress.from_index(1) in table


class TestSwitchFold:
    """The switch books the egress slot at its ingress lookup.

    Every literal below was recorded with the switch that scheduled a
    forwarding event per frame, ``forwarding_latency`` after arrival.
    """

    def _fast_into_slow(self, sim, queue_capacity=128):
        """A 1 Gbps ingress port and a 100 Mbps egress port that knows host 3."""
        switch = EthernetSwitch(sim)
        fast = Link(sim, name="in", bandwidth_bps=units.mbps(1000))
        out = Link(sim, name="out", queue_capacity=queue_capacity)
        switch.attach_port(fast.port_a)
        switch.attach_port(out.port_a)
        sink = Sink(sim)
        out.port_b.attach(sink)
        switch.learn(MacAddress.from_index(3), out.port_a)
        return switch, fast, out, sink

    def test_known_unicast_hop_runs_no_forwarding_event(self, sim):
        switch, sinks = wire_switch(sim)
        switch.learn(MacAddress.from_index(2), sinks[1][0].port_a)
        for _ in range(2):
            sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert [when for when, _ in sinks[1][1].frames] == [3.256e-05, 4.584e-05]
        # Two link deliveries per frame; the forwarding events were two more.
        assert sim.events_executed == 4

    def test_destination_learned_inside_the_latency_is_unicast(self, sim):
        switch, sinks = wire_switch(sim)
        half = switch.forwarding_latency / 2
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        # Host 2's frame reaches the switch half a latency after host 1's.
        sim.schedule_at(half, sinks[1][0].port_b.send, make_frame(src_index=2, dst_index=1))
        sim.run()
        host_1, host_2 = int(MacAddress.from_index(1)), int(MacAddress.from_index(2))
        assert [(when, int(f.src_mac)) for when, f in sinks[1][1].frames] == [
            (3.256e-05, host_1)
        ]
        assert [(when, int(f.src_mac)) for when, f in sinks[0][1].frames] == [
            (3.506e-05, host_2)
        ]
        assert sinks[2][1].frames == []
        assert switch.flooded_frames == 0
        assert switch.forwarded_frames == 2

    def test_known_unicast_behind_a_deferred_flood_keeps_arrival_order(self, sim):
        switch, sinks = wire_switch(sim)
        switch.learn(MacAddress.from_index(2), sinks[1][0].port_a)
        half = switch.forwarding_latency / 2
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=9))
        sim.schedule_at(half, sinks[2][0].port_b.send, make_frame(src_index=3, dst_index=2))
        sim.run()
        assert [(when, int(f.src_mac)) for when, f in sinks[1][1].frames] == [
            (3.256e-05, int(MacAddress.from_index(1))),
            (4.584e-05, int(MacAddress.from_index(3))),
        ]
        assert switch.flooded_frames == 1
        assert switch.forwarded_frames == 1

    def test_burst_into_a_full_egress_queue_drops_as_before(self, sim):
        # The second frame is checked against a queue whose head starts
        # its slot before the second frame leaves the fabric: accepted.
        switch, fast, out, sink = self._fast_into_slow(sim, queue_capacity=1)
        frames = [make_frame(src_index=1, dst_index=3, payload_size=0) for _ in range(4)]
        for frame in frames:
            fast.port_b.send(frame)
        sim.run()
        assert switch.dropped_frames == out.port_a.dropped_frames == 2
        assert [when for when, _ in sink.frames] == [1.3392e-05, 2.0112e-05]
        assert [id(frame) for _, frame in sink.frames] == [id(frames[0]), id(frames[1])]

    def test_queue_depth_excludes_frames_inside_the_fabric(self, sim):
        switch, fast, out, _ = self._fast_into_slow(sim)
        for _ in range(3):
            fast.port_b.send(make_frame(src_index=1, dst_index=3, payload_size=0))
        tx = fast.serialization_delay(64)
        first = tx + fast.propagation_delay
        third = 3 * tx + fast.propagation_delay
        latency = switch.forwarding_latency
        depths = []
        for probe in (third, first + latency + tx / 2, third + latency + tx / 2):
            sim.schedule_at(probe, lambda: depths.append(out.port_a.queue_depth))
        sim.run(until=third)
        # All three are booked already, but none has left the fabric.
        assert out.port_a.tx_frames == 3
        sim.run()
        assert depths == [0, 0, 2]


class TestUnicastFastPath:
    """A known unicast goes straight to the egress port's ``send`` only
    while no port is blocked and the tracer is off; the rest goes
    through ``_dispatch``, with the same outcome."""

    def _known(self, sim):
        switch, sinks = wire_switch(sim)
        switch.learn(MacAddress.from_index(2), sinks[1][0].port_a)
        return switch, sinks

    def test_quarantined_egress_port_gets_nothing(self, sim):
        switch, sinks = self._known(sim)
        switch.quarantine_port(sinks[1][0].port_a)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert sinks[1][1].frames == []
        assert switch.quarantined_frames == 1 and switch.forwarded_frames == 0

    def test_failed_egress_port_gets_nothing(self, sim):
        switch, sinks = self._known(sim)
        switch.fail_port(sinks[1][0].port_a)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert sinks[1][1].frames == []
        assert switch.blackholed_frames == 1 and switch.forwarded_frames == 0

    def test_a_blocked_bystander_port_leaves_unicast_delivered(self, sim):
        switch, sinks = self._known(sim)
        switch.quarantine_port(sinks[2][0].port_a)
        switch.fail_port(sinks[2][0].port_a)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert [when for when, _ in sinks[1][1].frames] == [3.256e-05]
        assert switch.forwarded_frames == 1

    def test_destination_learned_on_the_ingress_port_is_not_forwarded(self, sim):
        switch, sinks = wire_switch(sim)
        switch.learn(MacAddress.from_index(2), sinks[0][0].port_a)
        sinks[0][0].port_b.send(make_frame(src_index=1, dst_index=2))
        sim.run()
        assert all(sink.frames == [] for _, sink in sinks)
        assert switch.forwarded_frames == switch.flooded_frames == 0

    def test_traced_unicast_gets_one_forward_span_per_frame(self, sim):
        switch, sinks = self._known(sim)
        sim.tracer.configure(spans=True)
        frames = [make_frame(src_index=1, dst_index=2) for _ in range(3)]
        for frame in frames:
            sim.tracer.begin(frame.payload)
            sinks[0][0].port_b.send(frame)
        sim.run()
        spans = [span for span in sim.tracer.spans() if span.name == "switch.forward"]
        assert len(spans) == switch.forwarded_frames == len(sinks[1][1].frames) == 3
        assert {span.trace_id for span in spans} == {
            frame.payload.trace_ctx.trace_id for frame in frames
        }


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
