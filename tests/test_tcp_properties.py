"""Property-based TCP tests: stream integrity under arbitrary loss.

The single most important invariant in the transport: whatever the
network drops, the receiving application sees exactly the bytes that
were written, in order, or the connection fails — never silent loss,
duplication or reordering.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.topology import FabricTopology
from repro.nic.standard import StandardNic
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def build_net():
    sim = Simulator()
    rng = RngRegistry(99)
    topo = FabricTopology(sim, leaf_count=0)
    hosts = []
    for index, name in enumerate(["alice", "bob"], start=1):
        host = Host(sim, name, Ipv4Address(f"10.9.0.{index}"), MacAddress.from_index(index), rng)
        nic = StandardNic(sim)
        nic.attach(topo.add_station(name))
        host.attach_nic(nic)
        hosts.append(host)
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.ip_layer.arp_table[b.ip] = b.mac
    return sim, hosts[0], hosts[1]


class BernoulliDropper:
    """Drops TCP data frames by a seeded pseudo-random coin."""

    def __init__(self, nic, drop_probability: float, seed: int):
        import random

        self.random = random.Random(seed)
        self.drop_probability = drop_probability
        self.dropped = 0
        self._original = nic.receive_frame
        nic.receive_frame = self._filter

    def _filter(self, frame, port):
        packet = frame.ip
        if (
            packet is not None
            and packet.tcp is not None
            and packet.tcp.payload_size
            and self.random.random() < self.drop_probability
        ):
            self.dropped += 1
            return
        self._original(frame, port)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drop_probability=st.floats(min_value=0.0, max_value=0.25),
    seed=st.integers(0, 2**16),
    chunks=st.lists(
        st.tuples(st.integers(1, 20_000), st.binary(max_size=24)),
        min_size=1,
        max_size=6,
    ),
)
def test_stream_integrity_under_random_loss(drop_probability, seed, chunks):
    sim, alice, bob = build_net()
    received_sizes = []
    received_bytes = bytearray()

    def on_accept(conn):
        def on_data(c, data, size):
            received_sizes.append(size)
            received_bytes.extend(data)

        conn.on_data = on_data

    bob.tcp.listen(5001, on_accept)
    dropper = BernoulliDropper(bob.nic, drop_probability, seed)
    conn = alice.tcp.connect(bob.ip, 5001)

    total = sum(max(size, len(data)) for size, data in chunks)
    real_prefix_order = [data for _size, data in chunks if data]

    def on_connected(c):
        for size, data in chunks:
            c.send(max(size, len(data)), data)

    conn.on_connected = on_connected
    # Virtual time is free: leave generous headroom so an unlucky run of
    # drops deep in RTO exponential backoff still completes (25% loss on
    # a ~26 kB stream can push the tail retransmit well past 30 s).
    sim.run(until=300.0)

    assert sum(received_sizes) == total
    # All real bytes arrive, in write order, at their exact offsets: the
    # reassembled real-byte stream is the concatenation of the chunks'
    # real prefixes (each chunk's data sits at its chunk start).
    cursor = 0
    stream = bytes(received_bytes)
    for data in real_prefix_order:
        index = stream.find(data, cursor)
        assert index != -1
        cursor = index + len(data)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16))
def test_half_close_under_loss_still_delivers_eof(seed):
    sim, alice, bob = build_net()
    events = []

    def on_accept(conn):
        conn.on_data = lambda c, data, size: events.append(size)

    bob.tcp.listen(5001, on_accept)
    BernoulliDropper(bob.nic, 0.15, seed)
    conn = alice.tcp.connect(bob.ip, 5001)

    def on_connected(c):
        c.send(30_000)
        c.close()

    conn.on_connected = on_connected
    sim.run(until=60.0)
    assert sum(events) == 30_000
    assert events[-1] == 0  # EOF delivered exactly once, last
    assert events.count(0) == 1
