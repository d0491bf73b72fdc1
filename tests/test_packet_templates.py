"""Packets built once and sent many times.

A fixed-source flood sends one packet object built at ``start()``, and
the target answers an ACK flood with one memoised RST segment (each
wrapped in its own IP packet).  Both are bypassed where a packet must
be distinct: randomised sources, and an armed span tracer, which roots
a chain only on a packet that has no trace context yet.  Results are
the same either way.

The sending NIC frames a repeated packet once too, and an embedded
firewall card that refuses a flood frame (ring full, or wedged) counts
the refusal without building a work item for it.
"""

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.core.testbed import DeviceKind
from repro.experiments import results
from repro.firewall.builders import deny_all
from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.link import LinkImpairment
from repro.net.packet import Ipv4Packet, UdpDatagram
from repro.net.topology import FabricTopology
from repro.nic import embedded
from repro.nic.efw import EfwNic
from repro.nic.standard import StandardNic
from repro.obs.tracing import TraceCollector, TraceConfig
from repro.sim.rng import RngRegistry


class TestTemplates:
    @staticmethod
    def _sent_by(host):
        """Every packet ``host``'s IP layer transmits, in order."""
        sent = []
        original = host.ip_layer.send_packet
        host.ip_layer.send_packet = lambda packet: (sent.append(packet), original(packet))
        return sent

    def test_fixed_source_flood_sends_one_template(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        sent = self._sent_by(mallory)
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len(sent) == flood.packets_sent > 10
        assert all(packet is sent[0] for packet in sent)
        assert sent[0].dst == bob.ip and sent[0].payload.seq == 1

    def test_randomized_source_packets_are_distinct(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        sent = self._sent_by(mallory)
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.UDP, randomize_src=True))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len(sent) == flood.packets_sent > 10
        assert len({id(packet) for packet in sent}) == len(sent)

    def test_armed_tracer_gets_a_fresh_packet_per_send(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        trinet.sim.tracer.configure(spans=True)
        sent = self._sent_by(mallory)
        flood = FloodGenerator(mallory)
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len({id(packet) for packet in sent}) == len(sent) == flood.packets_sent
        assert len({packet.trace_ctx for packet in sent}) == len(sent)

    def test_ack_flood_resets_share_one_segment(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        resets = self._sent_by(bob)
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len(resets) == bob.tcp.rst_sent == flood.packets_sent > 10
        first, second = resets[:2]
        assert first.payload is second.payload
        assert first.payload.rst and first.payload.src_port == 5001
        assert first is not second
        assert second.identification == first.identification + 1

    def test_resets_for_different_flows_are_rebuilt(self, trinet):
        alice, mallory, bob = trinet["alice"], trinet["mallory"], trinet["bob"]
        resets = self._sent_by(bob)
        for host, port in ((mallory, 5001), (alice, 6001)):
            flood = FloodGenerator(host, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=port))
            flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        ports = {mallory.ip: 5001, alice.ip: 6001}
        assert {packet.dst for packet in resets} == set(ports)
        for packet in resets:
            assert packet.payload.src_port == ports[packet.dst]
        assert len({id(packet.payload) for packet in resets}) >= 2


def _frames_sent_by(host):
    """Every frame ``host``'s NIC hands its link, in order."""
    port = host.nic.port
    frames = []
    original = port.send

    def send(frame, earliest=0.0):
        frames.append(frame)
        return original(frame, earliest)

    port.send = send
    return frames


class TestFramedOnce:
    def test_fixed_source_flood_hands_the_link_one_frame(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        frames = _frames_sent_by(mallory)
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len(frames) == flood.packets_sent == mallory.nic.frames_sent > 10
        assert all(frame is frames[0] for frame in frames)
        assert frames[0].dst_mac == bob.mac and frames[0].src_mac == mallory.mac
        assert frames[0].payload.payload.seq == 1

    def test_randomized_source_frames_are_distinct(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        frames = _frames_sent_by(mallory)
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.UDP, randomize_src=True))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len({id(frame) for frame in frames}) == len(frames) == flood.packets_sent > 10

    def test_armed_tracer_gets_a_fresh_frame_per_send(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        trinet.sim.tracer.configure(spans=True)
        frames = _frames_sent_by(mallory)
        flood = FloodGenerator(mallory)
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        assert len({id(frame) for frame in frames}) == len(frames) == flood.packets_sent > 10
        assert len({frame.payload.trace_ctx for frame in frames}) == len(frames)

    def test_same_packet_to_another_mac_is_framed_again(self, trinet):
        alice, mallory, bob = trinet["alice"], trinet["mallory"], trinet["bob"]
        frames = _frames_sent_by(mallory)
        packet = FloodGenerator(mallory)._build_packet()
        for dst_mac in (bob.mac, bob.mac, alice.mac, bob.mac):
            mallory.nic.send_packet(packet, dst_mac)
        first, second, third, fourth = frames
        assert second is first and third is not first and fourth is not third
        assert [frame.dst_mac for frame in frames] == [bob.mac, bob.mac, alice.mac, bob.mac]
        assert all(frame.payload is packet for frame in frames)


    def test_corruption_burst_leaves_the_template_frame_clean(self, trinet):
        mallory, bob = trinet["mallory"], trinet["bob"]
        impairment = LinkImpairment(corrupt=True, rng=trinet.rng.stream("corrupt"))
        trinet.topology.link_for("mallory").impairment = impairment
        sent = _frames_sent_by(mallory)
        arrived = []
        receive = bob.nic.receive_frame
        bob.nic.receive_frame = lambda frame, port: (arrived.append(frame), receive(frame, port))
        flood = FloodGenerator(mallory, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bob.ip, rate_pps=1000, duration=0.05)
        trinet.run(0.1)
        template = sent[0]
        assert all(frame is template for frame in sent)
        assert template.corrupt_header is None
        # Every frame crossed the corrupting link as its own copy.
        assert len(arrived) == len(sent) == impairment.corrupted_frames > 10
        assert len({id(frame) for frame in arrived}) == len(arrived)
        assert all(frame is not template for frame in arrived)
        assert all(frame.corrupt_header is not None for frame in arrived)
        assert all(frame.payload is template.payload for frame in arrived)
        assert bob.nic.checksum_drops > 0


def _pair(sim, mallory_nic, bob_nic):
    """mallory and bob on one switch, mallory knowing bob's MAC."""
    rng = RngRegistry(7)
    topology = FabricTopology(sim, leaf_count=0)
    hosts = []
    for index, (name, nic) in enumerate((("mallory", mallory_nic), ("bob", bob_nic)), start=1):
        host = Host(sim, name, Ipv4Address(f"10.0.0.{index}"), MacAddress.from_index(index), rng)
        nic.attach(topology.add_station(name))
        host.attach_nic(nic)
        hosts.append(host)
    mallory, bob = hosts
    mallory.ip_layer.arp_table[bob.ip] = bob.mac
    return mallory, bob


def test_embedded_card_frames_a_repeated_packet_once(sim):
    mallory, bob = _pair(sim, EfwNic(sim, name="mallory.efw"), StandardNic(sim))
    frames = _frames_sent_by(mallory)
    flood = FloodGenerator(mallory)
    flood.start(bob.ip, rate_pps=1000, duration=0.05)
    sim.run(until=0.1)
    assert len(frames) == flood.packets_sent == mallory.nic.tx_allowed > 10
    assert all(frame is frames[0] for frame in frames)


def test_embedded_card_frames_the_same_packet_to_another_mac_again(sim):
    mallory, bob = _pair(sim, EfwNic(sim, name="mallory.efw"), StandardNic(sim))
    frames = _frames_sent_by(mallory)
    packet = Ipv4Packet(mallory.ip, bob.ip, UdpDatagram(4000, 9999))
    other = MacAddress.from_index(9)
    for dst_mac in (bob.mac, bob.mac, other, bob.mac):
        mallory.nic.send_packet(packet, dst_mac)
    sim.run(until=0.01)
    first, second, third, fourth = frames
    assert second is first and third is not first and fourth is not third
    assert [frame.dst_mac for frame in frames] == [bob.mac, bob.mac, other, bob.mac]
    assert all(frame.payload is packet for frame in frames)


def _flooded_efw(sim, tracer_spans=False):
    """mallory (standard NIC) floods bob's deny-all EFW with one
    fixed-source template packet at 120 k pps: faster than the card's
    processor, so its ring fills before the deny rate wedges it."""
    mallory, bob = _pair(sim, StandardNic(sim, name="mallory.nic"), EfwNic(sim))
    bob.nic.install_policy(deny_all())
    if tracer_spans:
        sim.tracer.configure(spans=True)
    FloodGenerator(mallory).start(bob.ip, rate_pps=120_000, duration=0.02)
    sim.run(until=0.03)
    return bob.nic


class TestRefusedFrames:
    def test_wedged_efw_builds_no_work_item_for_a_refused_frame(self, sim, monkeypatch):
        built = []

        class CountedItem(embedded._WorkItem):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.kind)

        monkeypatch.setattr(embedded, "_WorkItem", CountedItem)
        nic = _flooded_efw(sim)
        processor = nic.processor
        assert nic.wedged
        # Pinned from the tree that built a work item for every frame.
        assert (processor.accepted, processor.dropped_full, processor.dropped_paused) == (
            315, 17, 2132,
        )
        # A deny-all card sends nothing: every item built is an accepted
        # ingress frame (the ones queued at the wedge are dropped paused).
        assert built == ["rx"] * processor.accepted

    def test_hot_tracer_drop_events_keep_the_packets_context(self, sim):
        nic = _flooded_efw(sim, tracer_spans=True)
        processor = nic.processor
        assert nic.wedged
        paused = sim.tracer.records(source=processor.name, event="drop-paused")
        full = sim.tracer.records(source=processor.name, event="drop-full")
        assert len(full) == processor.dropped_full > 0
        # The wedge drops its queued items in bulk, without an event each.
        assert 0 < len(paused) < processor.dropped_paused
        assert all(record.trace_id is not None for record in paused + full)
        assert len({record.trace_id for record in paused + full}) == len(paused) + len(full)


def _efw_flood_point() -> str:
    """A 0.05 s EFW fig3a point, as its result envelope."""
    measurement = FloodToleranceValidator(
        DeviceKind.EFW, MeasurementSettings(duration=0.05, flood_lead=0.02)
    ).bandwidth_under_flood(20000.0)
    return results.to_json([measurement])


class TestTracedFloodPoint:
    def test_tracer_changes_neither_the_envelope_nor_the_roots(self, monkeypatch):
        sends = []
        send_one = FloodGenerator._send_one

        def counted(flood):
            sends.append(flood)
            send_one(flood)

        monkeypatch.setattr(FloodGenerator, "_send_one", counted)
        spec = SweepPointSpec(label="templates: EFW flood=20000", fn=_efw_flood_point)
        [untraced] = SweepExecutor(jobs=1).run([spec])
        untraced_sends = len(sends)
        del sends[:]
        collector = TraceCollector(TraceConfig(spans=True, sample_every=1))
        [traced] = SweepExecutor(jobs=1, probes=(collector,)).run([spec])
        assert '"_type": "BandwidthMeasurement"' in untraced
        assert traced == untraced
        assert len(sends) == untraced_sends > 100
        roots = [
            span
            for point in collector.points
            for snapshot in point.snapshots
            for span in snapshot.spans
            if span.parent_id is None and span.track == "attacker"
        ]
        # Every flood packet was sampled, so each one roots its own chain.
        assert len(roots) == len(sends)
        assert {span.name for span in roots} == {"app.send"}
        assert len({span.trace_id for span in roots}) == len(roots)
