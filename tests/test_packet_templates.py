"""Packets built once and sent many times.

A fixed-source flood sends one packet object built at ``start()``, and
the target answers an ACK flood with one memoised RST segment (each
wrapped in its own IP packet).  Both are bypassed where a packet must
be distinct: randomised sources, and an armed span tracer, which roots
a chain only on a packet that has no trace context yet.  Results are
the same either way.
"""

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.parallel import SweepExecutor, SweepPointSpec
from repro.core.testbed import DeviceKind
from repro.experiments import results
from repro.obs.tracing import TraceCollector, TraceConfig


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
