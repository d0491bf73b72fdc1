"""Microbenchmarks of the simulator's hot paths.

These are conventional pytest-benchmark measurements (many rounds): the
event kernel, rule-set evaluation, the embedded-NIC service path, the
toy cipher, and TCP goodput per wall-second — useful for catching
performance regressions that would make the experiment sweeps impractical.
"""

from __future__ import annotations

from repro.crypto.cipher import KeystreamCipher
from repro.firewall.builders import padded_ruleset, service_rule
from repro.firewall.rules import Action, Direction
from repro.net.addresses import Ipv4Address
from repro.net.packet import IpProtocol, Ipv4Packet, TcpSegment
from repro.sim.engine import Simulator


def test_event_kernel_throughput(benchmark):
    """Schedule+run cycles of the event heap."""

    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 10_000


def test_ruleset_evaluation_uncached(benchmark):
    """Linear 64-entry rule walk (the embedded card's per-packet work)."""
    ruleset = padded_ruleset(
        64, action_rule=service_rule(Action.ALLOW, IpProtocol.TCP, 5001)
    )
    packet = Ipv4Packet(
        src=Ipv4Address("10.0.0.2"),
        dst=Ipv4Address("10.0.0.3"),
        payload=TcpSegment(src_port=40000, dst_port=5001),
    )

    def evaluate():
        return ruleset.evaluate_linear(packet, Direction.INBOUND)

    result = benchmark(evaluate)
    assert result.rules_traversed == 64


def test_ruleset_evaluation_compiled(benchmark):
    """Compiled 64-entry lookup: same verdict and charged depth, no loop."""
    ruleset = padded_ruleset(
        64, action_rule=service_rule(Action.ALLOW, IpProtocol.TCP, 5001)
    )
    packet = Ipv4Packet(
        src=Ipv4Address("10.0.0.2"),
        dst=Ipv4Address("10.0.0.3"),
        payload=TcpSegment(src_port=40000, dst_port=5001),
    )
    classifier = ruleset.compiled_classifier  # compile outside the timing
    flow = packet.flow()

    result = benchmark(classifier.lookup, flow, Direction.INBOUND)
    assert result.rules_traversed == 64
    assert result == ruleset.evaluate_linear(packet, Direction.INBOUND)


def test_ruleset_evaluation_cached(benchmark):
    """The memoised fast path used by the simulation."""
    ruleset = padded_ruleset(
        64, action_rule=service_rule(Action.ALLOW, IpProtocol.TCP, 5001)
    )
    packet = Ipv4Packet(
        src=Ipv4Address("10.0.0.2"),
        dst=Ipv4Address("10.0.0.3"),
        payload=TcpSegment(src_port=40000, dst_port=5001),
    )
    ruleset.evaluate(packet, Direction.INBOUND)  # warm the cache

    result = benchmark(ruleset.evaluate, packet, Direction.INBOUND)
    assert result.rules_traversed == 64


def test_keystream_encrypt(benchmark):
    """Keystream encryption of a 64-byte header blob (the VPG seal path)."""
    cipher = KeystreamCipher(b"0123456789abcdef01234567")
    blob = bytes(range(64))

    ciphertext = benchmark(cipher.encrypt, blob, 1)
    assert cipher.decrypt(ciphertext, 1) == blob


def test_tcp_goodput_simulation_speed(benchmark):
    """Wall time to simulate 0.5 s of line-rate TCP on the testbed."""
    from repro.apps.iperf import IperfClient, IperfServer
    from repro.core.testbed import DeviceKind, Testbed
    from repro.firewall.builders import allow_all

    def simulate():
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(allow_all())
        IperfServer(bed.target)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.5)
        bed.run(0.55)
        return session.result().mbps

    mbps = benchmark(simulate)
    assert mbps > 85
