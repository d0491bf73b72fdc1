"""Shared fixtures: a simulation kernel and a minimal two-host network,
and a probe that records the frames a device receives."""

from __future__ import annotations

import pytest

from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.topology import FabricTopology
from repro.nic.standard import StandardNic
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@pytest.fixture
def sim():
    """A fresh simulation kernel."""
    return Simulator()


@pytest.fixture
def rng():
    """A deterministic RNG registry."""
    return RngRegistry(seed=1234)


class MiniNet:
    """Two (or more) hosts with standard NICs on one switch."""

    def __init__(self, sim: Simulator, rng: RngRegistry, names=("alice", "bob")):
        self.sim = sim
        self.rng = rng
        self.topology = FabricTopology(sim, leaf_count=0)
        self.hosts = {}
        for index, name in enumerate(names, start=1):
            host = Host(
                sim,
                name,
                ip=Ipv4Address(f"192.168.1.{index}"),
                mac=MacAddress.from_index(index),
                rng=rng,
            )
            nic = StandardNic(sim, name=f"{name}.nic")
            nic.attach(self.topology.add_station(name))
            host.attach_nic(nic)
            self.hosts[name] = host
        for a in self.hosts.values():
            for b in self.hosts.values():
                if a is not b:
                    a.ip_layer.arp_table[b.ip] = b.mac

    def __getitem__(self, name: str) -> Host:
        return self.hosts[name]

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)


def record_arrivals(device, port=None):
    """Wrap ``device.receive_frame`` to record ``(now, frame)`` for every
    frame the link hands it (only those arriving on ``port`` when given),
    then pass the frame on.  ``now`` is the delivery instant, which is
    a receiving standard NIC's latency after the frame's arrival."""
    arrivals = []
    receive = device.receive_frame
    sim = device.sim

    def record(frame, ingress):
        if port is None or ingress is port:
            arrivals.append((sim.now, frame))
        receive(frame, ingress)

    device.receive_frame = record
    return arrivals


@pytest.fixture
def mininet(sim, rng):
    """Two hosts, alice and bob, ready to talk."""
    return MiniNet(sim, rng)


@pytest.fixture
def trinet(sim, rng):
    """Three hosts: alice, bob and mallory."""
    return MiniNet(sim, rng, names=("alice", "bob", "mallory"))
