"""Tests for structured tracing of the simulation's hot paths."""

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import deny_all


class TestTracing:
    def test_tracing_off_by_default(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(deny_all())
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=500, duration=0.1)
        bed.run(0.2)
        assert bed.sim.tracer.records() == []

    def test_rx_deny_traced(self):
        bed = Testbed(device=DeviceKind.EFW, efw_lockup_enabled=False)
        bed.sim.tracer.configure(spans=True)
        bed.install_target_policy(deny_all())
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=500, duration=0.1)
        bed.run(0.2)
        denies = bed.sim.tracer.records(event="rx-deny")
        assert len(denies) == bed.target.nic.rx_denied
        assert denies[0].source == "target.efw"
        assert "UDP" in denies[0].fields["packet"]

    def test_ring_drops_traced(self):
        bed = Testbed(device=DeviceKind.EFW, ring_size=4, efw_lockup_enabled=False)
        bed.sim.tracer.configure(spans=True)
        bed.install_target_policy(deny_all())
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=120_000, duration=0.1)
        bed.run(0.2)
        drops = bed.sim.tracer.records(event="drop-full")
        assert len(drops) == bed.target.nic.ring_drops
        assert drops

    def test_lockup_pause_traced(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.sim.tracer.configure(spans=True)
        bed.install_target_policy(deny_all())
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=2000, duration=1.0)
        bed.run(1.1)
        assert bed.target.nic.wedged
        pauses = bed.sim.tracer.records(event="pause")
        assert len(pauses) == 1

    def test_tcp_retransmits_traced(self, mininet):
        from tests.test_tcp_recovery import FrameDropper

        mininet.sim.tracer.configure(spans=True)
        alice, bob = mininet["alice"], mininet["bob"]
        bob.tcp.listen(5001, lambda conn: None)
        FrameDropper(bob.nic, {5})
        conn = alice.tcp.connect(bob.ip, 5001)
        conn.on_connected = lambda c: c.send(100_000)
        mininet.run(2.0)
        retransmits = mininet.sim.tracer.records(event="retransmit")
        assert len(retransmits) == conn.segments_retransmitted
        assert retransmits
        assert retransmits[0].fields["bytes"] > 0
