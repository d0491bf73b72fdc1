"""Tests for the closed flood-defense loop (repro.defense, repro.nic.ratelimit)."""

import pytest

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.core.testbed import DeviceKind, Testbed
from repro.defense import (
    DefenseConfig,
    DetectorConfig,
    EnableRateLimiter,
    FloodDetector,
    QuarantinePort,
    RestartAgent,
    TargetedDenyRule,
)
from repro.defense.detector import REASON_DENY_RATE, REASON_HEARTBEAT
from repro.firewall.builders import deny_all, padded_ruleset, service_rule
from repro.firewall.rules import Action, IpProtocol
from repro.net.addresses import Ipv4Address
from repro.net.packet import Ipv4Packet, UdpDatagram
from repro.nic.ratelimit import IngressRateLimiter, TokenBucket
from repro.policy_ports import AGENT_PORT
from repro.sim.engine import Simulator


class TestTokenBucket:
    def test_burst_admits_then_caps(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=5.0)
        admitted = [bucket.admit(0.0) for _ in range(8)]
        assert admitted == [True] * 5 + [False] * 3

    def test_refill_is_a_pure_function_of_elapsed_time(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=5.0)
        for _ in range(5):
            bucket.admit(0.0)
        assert not bucket.admit(0.0)
        # 0.02 s at 100/s refills exactly two tokens.
        assert bucket.admit(0.02)
        assert bucket.admit(0.02)
        assert not bucket.admit(0.02)

    def test_refill_never_exceeds_burst(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=3.0)
        bucket.admit(0.0)
        admitted = sum(1 for _ in range(10) if bucket.admit(100.0))
        assert admitted == 3

    def test_deterministic_across_instances(self):
        # Two buckets fed identical (time, packet) sequences answer
        # identically — the property that makes sweep results identical
        # for any --jobs worker count.
        times = [i * 0.003 for i in range(200)]
        a = TokenBucket(50.0, 10.0)
        b = TokenBucket(50.0, 10.0)
        assert [a.admit(t) for t in times] == [b.admit(t) for t in times]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 5.0)
        with pytest.raises(ValueError):
            TokenBucket(10.0, 0.5)


def _udp(src: str, dst: str, dst_port: int) -> Ipv4Packet:
    return Ipv4Packet(
        src=Ipv4Address(src),
        dst=Ipv4Address(dst),
        payload=UdpDatagram(src_port=40000, dst_port=dst_port),
    )


class TestIngressRateLimiter:
    def test_scoped_to_source(self):
        sim = Simulator()
        limiter = IngressRateLimiter(
            sim, "t.efw", rate_pps=100.0, burst=1.0, src=Ipv4Address("10.0.0.4")
        )
        flood = _udp("10.0.0.4", "10.0.0.3", 7777)
        legit = _udp("10.0.0.2", "10.0.0.3", 5001)
        assert limiter.admit(flood, 0.0)  # the one burst token
        assert not limiter.admit(flood, 0.0)
        # Out-of-scope traffic passes untouched even with the bucket dry.
        assert limiter.admit(legit, 0.0)
        assert limiter.admitted == 1 and limiter.dropped == 1

    def test_scoped_to_port(self):
        sim = Simulator()
        limiter = IngressRateLimiter(sim, "t.efw", rate_pps=100.0, burst=1.0, dst_port=7777)
        assert limiter.admit(_udp("10.0.0.4", "10.0.0.3", 7777), 0.0)
        assert not limiter.admit(_udp("10.0.0.5", "10.0.0.3", 7777), 0.0)
        assert limiter.admit(_udp("10.0.0.4", "10.0.0.3", 5001), 0.0)

    def test_control_plane_is_exempt(self):
        # A rate-limited card must still accept policy pushes, or the
        # mitigation could strand it.
        sim = Simulator()
        limiter = IngressRateLimiter(
            sim, "t.efw", rate_pps=100.0, burst=1.0, src=Ipv4Address("10.0.0.1")
        )
        push = _udp("10.0.0.1", "10.0.0.3", AGENT_PORT)
        assert not limiter.matches(push)
        for _ in range(50):
            assert limiter.admit(push, 0.0)
        assert limiter.dropped == 0

    def test_limited_efw_survives_a_deny_flood(self):
        # The mitigation that actually works: shed the flood before the
        # slow path so the deny rate stays under the lockup threshold.
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(deny_all())
        nic = bed.target.nic
        nic.install_ingress_limiter(
            IngressRateLimiter(
                bed.sim, nic.name, rate_pps=500.0, src=bed.attacker.ip
            )
        )
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=20_000, duration=1.0)
        bed.run(1.2)
        assert not nic.wedged
        assert nic.ratelimited_drops > 10_000

    def test_unlimited_efw_wedges_under_the_same_flood(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(deny_all())
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=20_000, duration=1.0)
        bed.run(1.2)
        assert bed.target.nic.wedged


class _FakeNic:
    """A counter-bearing stand-in for detector unit tests."""

    def __init__(self, name="fake.nic"):
        self.name = name
        self.frames_received = 0
        self.rx_denied = 0
        self.source_tracking = {}

    def receive(self, count, src=None, denied=False):
        self.frames_received += count
        if denied:
            self.rx_denied += count
        if src is not None:
            self.source_tracking[src] = self.source_tracking.get(src, 0) + count


def _stepped_detector(config=None):
    """A detector driven manually via its internal check (no timer)."""
    sim = Simulator()
    detector = FloodDetector(sim, config=config or DetectorConfig())
    return sim, detector


class TestFloodDetector:
    def test_sustained_flood_detected_with_top_source(self):
        sim, detector = _stepped_detector()
        nic = _FakeNic()
        detector.watch("target", nic)
        detector.start()
        step = detector.config.check_interval
        # 400 frames per 20 ms check = a sustained 20 kpps flood.
        for _ in range(6):
            nic.receive(395, src="10.0.0.4")
            nic.receive(5, src="10.0.0.2")
            sim.run(until=sim.now + step)
        detection = detector.active_detection("target")
        assert detection is not None
        assert detection.detail["reason"] == "ingress-rate"
        assert detection.detail["top_source"] == "10.0.0.4"
        assert len(detector.detections) == 1  # one episode, not one per check

    def test_deny_rate_fires_before_ingress(self):
        sim, detector = _stepped_detector()
        nic = _FakeNic()
        detector.watch("target", nic)
        detector.start()
        step = detector.config.check_interval
        # 1 kpps of denies: far below the ingress onset, above deny onset.
        for _ in range(6):
            nic.receive(20, src="10.0.0.4", denied=True)
            sim.run(until=sim.now + step)
        detection = detector.active_detection("target")
        assert detection is not None
        assert detection.detail["reason"] == REASON_DENY_RATE

    def test_bursty_legitimate_traffic_does_not_flap(self):
        # Table 1's HTTP workload in miniature: short bursts separated by
        # idle gaps.  The EWMA smooths the bursts well under the onset
        # threshold, so no episode ever starts.
        sim, detector = _stepped_detector()
        nic = _FakeNic()
        detector.watch("target", nic)
        detector.start()
        step = detector.config.check_interval
        for tick in range(100):
            if tick % 4 == 0:  # a 4000 pps burst every fourth window
                nic.receive(80, src="10.0.0.2")
            sim.run(until=sim.now + step)
        assert detector.detections == []

    def test_episode_clears_only_after_consecutive_healthy_checks(self):
        sim, detector = _stepped_detector()
        nic = _FakeNic()
        detector.watch("target", nic)
        detector.start()
        step = detector.config.check_interval
        for _ in range(6):
            nic.receive(400, src="10.0.0.4")
            sim.run(until=sim.now + step)
        detection = detector.active_detection("target")
        assert detection is not None
        # One quiet check is not a recovery...
        sim.run(until=sim.now + step)
        assert detection.recovered_at is None
        # ...a relapse resets the healthy streak...
        nic.receive(400, src="10.0.0.4")
        sim.run(until=sim.now + step)
        assert detection.recovered_at is None
        # ...and only clear_checks consecutive quiet checks clear it.
        for _ in range(detector.config.clear_checks + 2):
            sim.run(until=sim.now + step)
        assert detection.recovered_at is not None
        assert detector.active_detection("target") is None
        assert len(detector.detections) == 1

    def test_watch_rejects_duplicates(self):
        _, detector = _stepped_detector()
        detector.watch("target", _FakeNic())
        with pytest.raises(ValueError):
            detector.watch("target", _FakeNic())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(off_ingress_pps=20_000.0)
        with pytest.raises(ValueError):
            DetectorConfig(clear_checks=0)


def _protected_testbed(actions):
    bed = Testbed(device=DeviceKind.EFW)
    ruleset = padded_ruleset(
        32,
        action_rule=service_rule(
            Action.ALLOW, IpProtocol.UDP, 5001, dst=bed.target.ip
        ),
        name="defense-policy",
    )
    bed.install_target_policy(ruleset)
    controller = bed.enable_defense(DefenseConfig(actions=actions))
    bed.run(0.05)
    return bed, controller


class TestClosedLoop:
    def test_heartbeat_silence_detected_when_card_wedges(self):
        # With deny-rate detection effectively disabled, the wedge itself
        # (silenced heartbeats) is still caught by the backstop signal.
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(deny_all())
        controller = bed.enable_defense(
            DefenseConfig(
                detector=DetectorConfig(on_deny_pps=1e9, off_deny_pps=1e9,
                                        on_ingress_pps=1e9, off_ingress_pps=1e9),
                actions=(RestartAgent(),),
            )
        )
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=9))
        flood.start(bed.target.ip, rate_pps=20_000, duration=0.5)
        bed.run(1.0)
        report = controller.report()
        assert report.detections
        assert report.detections[0].detail["reason"] == REASON_HEARTBEAT
        assert report.agent_restarts >= 1

    def test_quarantine_cuts_the_flood_at_the_switch(self):
        bed, controller = _protected_testbed((QuarantinePort(), RestartAgent()))
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
        flood.start(bed.target.ip, rate_pps=20_000)
        bed.run(0.5)
        flood.stop()
        assert bed.topology.station_is_quarantined("attacker")
        assert not bed.target.nic.wedged
        report = controller.report()
        assert report.time_to_detect(flood.started_at) < 0.1
        assert report.time_to_mitigate(flood.started_at) < 0.1

    def test_rate_limit_keeps_the_card_under_the_lockup_threshold(self):
        bed, controller = _protected_testbed((EnableRateLimiter(), RestartAgent()))
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
        flood.start(bed.target.ip, rate_pps=20_000)
        bed.run(1.0)
        flood.stop()
        nic = bed.target.nic
        assert nic.ingress_limiter is not None
        assert nic.ratelimited_drops > 5_000
        assert not nic.wedged

    def test_targeted_deny_rule_repushes_policy(self):
        bed, controller = _protected_testbed((TargetedDenyRule(),))
        flood = FloodGenerator(bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
        flood.start(bed.target.ip, rate_pps=20_000)
        bed.run(0.5)
        flood.stop()
        policy = bed.target.nic.policy
        assert policy is not None
        assert any(r.name == f"deny-{bed.attacker.ip}" for r in policy.rules)
        assert controller.push_outcomes and controller.push_outcomes[-1].acked

    def test_defense_requires_an_embedded_device(self):
        bed = Testbed(device=DeviceKind.STANDARD)
        with pytest.raises(RuntimeError):
            bed.enable_defense()

    def test_double_enable_rejected(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.enable_defense()
        with pytest.raises(RuntimeError):
            bed.enable_defense()
