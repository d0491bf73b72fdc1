"""Microbenchmarks of the simulator's hot paths.

These are conventional pytest-benchmark measurements (many rounds): the
event kernel (including dispatch of instants holding one event and of
instants shared by several), timer restarts (a deadline move), rule-set evaluation,
building a flood frame, a known-unicast frame's trip through a switch,
a TCP segment and its ACK crossing a firewall card's processor, a
wedged firewall card refusing frames, the toy cipher, a VPG seal and
open round trip, and TCP goodput per wall-second — useful for catching
performance regressions that would make the experiment sweeps
impractical.
"""

from __future__ import annotations

from repro.crypto.cipher import KeystreamCipher
from repro.crypto.keys import VpgKeyStore
from repro.firewall.builders import padded_ruleset, service_rule
from repro.firewall.rules import Action, Direction, PortRange, Rule
from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.link import Link
from repro.net.packet import EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment
from repro.net.switch import EthernetSwitch
from repro.nic.efw import EfwNic
from repro.sim.engine import Simulator
from repro.sim.timer import Timer


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


def test_lone_instant_dispatch(benchmark):
    """10,000 events, each alone at its instant (a flood's link hops):
    the kernel queues each entry as itself and runs it without a bucket."""

    def run_events():
        sim = Simulator()
        noop = lambda: None  # noqa: E731
        for index in range(10_000):
            sim.schedule_at(index * 1e-6, noop)
        assert len(sim._heap) == len(sim._buckets) == 10_000
        sim.run()
        return sim

    sim = benchmark(run_events)
    assert sim.events_executed == 10_000
    assert sim.pending_count() == sim.queue_depth() == 0


def test_shared_instant_dispatch(benchmark):
    """10,000 events in 1,000 instants of 10 (generators ticking in
    lockstep): one heap push and one pop per instant, each bucket run
    back-to-back."""

    def run_events():
        sim = Simulator()
        noop = lambda: None  # noqa: E731
        for index in range(10_000):
            sim.schedule_at((index // 10) * 1e-6, noop)
        assert len(sim._heap) == len(sim._buckets) == 1_000
        sim.run()
        return sim

    sim = benchmark(run_events)
    assert sim.events_executed == 10_000
    assert sim.pending_count() == sim.queue_depth() == 0


def test_timer_restart_churn(benchmark):
    """TCP retransmit-timer restarts: each restart only moves the
    timer's deadline later, so 9,999 restarts cancel nothing, the timer
    keeps at most one kernel entry queued, and the one firing lands 0.2 s
    after the last restart.  This measures the restart call itself plus
    the re-queue of an entry that fires before its deadline."""

    def churn():
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        sent = [0]
        last = [0.0]
        depth = [0]

        def send_segment():
            timer.restart(0.2)  # every segment pushes the deadline back
            last[0] = sim.now
            depth[0] = max(depth[0], sim.queue_depth())
            sent[0] += 1
            if sent[0] < 10_000:
                sim.schedule(0.0001, send_segment)

        sim.schedule(0.0001, send_segment)
        sim.run()
        return sim, fired, last[0], depth[0]

    sim, fired, last, depth = benchmark(churn)
    assert sim.events_cancelled == 0
    # Read before the next send is queued: the timer's one entry, and
    # no tombstone behind it.
    assert depth == 1
    assert fired == [last + 0.2]
    assert sim.pending_count() == 0 and sim.queue_depth() == 0


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


def test_ruleset_flow_cache_hit(benchmark):
    """Flow-cache hits for 100 fresh packets of one flow, as a flood's
    packets arrive: equal flows, but no object shared with the cached
    key, so every probe hashes and compares the addresses."""
    ruleset = padded_ruleset(
        64, action_rule=service_rule(Action.ALLOW, IpProtocol.TCP, 5001)
    )
    packets = [
        Ipv4Packet(
            src=Ipv4Address(0x0A000002),
            dst=Ipv4Address(0x0A000003),
            payload=TcpSegment(src_port=40000, dst_port=5001),
        )
        for _ in range(100)
    ]
    ruleset.evaluate(packets[0], Direction.INBOUND)  # warm the cache

    def evaluate_all():
        for packet in packets:
            result = ruleset.evaluate(packet, Direction.INBOUND)
        return result

    assert benchmark(evaluate_all).rules_traversed == 64
    assert ruleset.last_engine == "cache"


def test_flood_frame_build(benchmark):
    """One 64-byte flood frame: the segment, its packet and the frame."""
    src, dst = Ipv4Address("10.0.0.66"), Ipv4Address("10.0.0.3")
    src_mac, dst_mac = MacAddress.from_index(3), MacAddress.from_index(2)

    def build():
        segment = TcpSegment(src_port=4444, dst_port=5001, flags=TcpFlags.ACK, seq=1)
        packet = Ipv4Packet(src=src, dst=dst, payload=segment)
        return EthernetFrame(src_mac, dst_mac, packet)

    assert benchmark(build).wire_size == 64


def _flood_frame(dst_index: int) -> EthernetFrame:
    segment = TcpSegment(src_port=4444, dst_port=5001, flags=TcpFlags.ACK, seq=1)
    packet = Ipv4Packet(src=Ipv4Address("10.0.0.66"), dst=Ipv4Address("10.0.0.3"), payload=segment)
    return EthernetFrame(MacAddress.from_index(1), MacAddress.from_index(dst_index), packet)


class _Counter:
    """A link device that only counts what it receives."""

    def __init__(self):
        self.frames = 0

    def receive_frame(self, frame, port):
        self.frames += 1


def test_fabric_unicast_hop(benchmark):
    """One known-unicast frame through a switch: the ingress link hop,
    the switch's direct send and the egress link hop (two events)."""
    sim = Simulator()
    switch = EthernetSwitch(sim)
    ingress, egress = Link(sim, name="in"), Link(sim, name="out")
    switch.attach_port(ingress.port_a)
    switch.attach_port(egress.port_a)
    sink = _Counter()
    egress.port_b.attach(sink)
    switch.learn(MacAddress.from_index(2), egress.port_a)
    frame = _flood_frame(2)
    send = ingress.port_b.send

    def hop():
        send(frame)
        sim.run()

    benchmark(hop)
    assert sink.frames == switch.forwarded_frames > 0
    assert sim.events_executed == 2 * sink.frames


def test_card_processor_trip(benchmark):
    """A full-size TCP segment in and its ACK out through an EFW at rule
    depth 64: each is classified when its service starts and, allowed,
    handed to the host or framed for the link when it completes."""
    sim = Simulator()
    link = Link(sim)
    nic = EfwNic(sim)
    nic.attach(link.port_b)
    host = Host(sim, "target", Ipv4Address("10.0.0.3"), MacAddress.from_index(2))
    host.attach_nic(nic)
    sink = _Counter()
    link.port_a.attach(sink)
    action = Rule(Action.ALLOW, IpProtocol.TCP, dst_ports=PortRange.single(5001), symmetric=True)
    nic.install_policy(padded_ruleset(64, action_rule=action))
    delivered = []
    host.deliver_packet = delivered.append
    sender, target = Ipv4Address("10.0.0.2"), Ipv4Address("10.0.0.3")
    data = Ipv4Packet(sender, target, TcpSegment(40000, 5001, 1, 1, TcpFlags.ACK, payload_size=1460))
    frame = EthernetFrame(MacAddress.from_index(1), MacAddress.from_index(2), data)
    ack = Ipv4Packet(target, sender, TcpSegment(5001, 40000, 1, 1461, TcpFlags.ACK))
    port, sender_mac = link.port_b, MacAddress.from_index(1)

    def trip():
        nic.receive_frame(frame, port)
        nic.send_packet(ack, sender_mac)
        sim.run()

    benchmark(trip)
    assert len(delivered) == nic.rx_allowed == nic.tx_allowed == sink.frames > 0
    assert nic.rules_evaluated == 128 * len(delivered)


def test_wedged_ring_refusal(benchmark):
    """100 flood frames reaching a wedged EFW, refused without a work item."""
    sim = Simulator()
    link = Link(sim)
    nic = EfwNic(sim)
    nic.attach(link.port_b)
    Host(sim, "target", Ipv4Address("10.0.0.3"), MacAddress.from_index(2)).attach_nic(nic)
    nic.processor.pause()
    frame = _flood_frame(2)
    port = link.port_b

    def refuse_all():
        for _ in range(100):
            nic.receive_frame(frame, port)

    benchmark(refuse_all)
    assert nic.wedged_drops == nic.frames_received > 0
    assert nic.processor.accepted == 0


def test_keystream_encrypt(benchmark):
    """Keystream encryption of a 64-byte header blob (the VPG seal path)."""
    cipher = KeystreamCipher(b"0123456789abcdef01234567")
    blob = bytes(range(64))

    ciphertext = benchmark(cipher.encrypt, blob, 1)
    assert cipher.decrypt(ciphertext, 1) == blob


def test_vpg_seal_open_roundtrip(benchmark):
    """One VPG seal and open of a TCP packet carrying 60 real bytes and a
    size-only tail (an HTTP response segment through the ADF)."""
    store = VpgKeyStore()
    sealer, opener = store.context_for(3), store.context_for(3)
    src, dst = Ipv4Address("10.0.0.2"), Ipv4Address("10.0.0.3")
    segment = TcpSegment(80, 40000, 1000, 2000, TcpFlags.PSH | TcpFlags.ACK, 65535, 1400, b"x" * 60)
    inner = Ipv4Packet(src, dst, segment)

    def roundtrip():
        return opener.open(sealer.seal(inner, src, dst))

    assert benchmark(roundtrip) == inner


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
