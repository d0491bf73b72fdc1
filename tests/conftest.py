"""Shared fixtures: a simulation kernel and a minimal two-host network."""

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


@pytest.fixture
def linear_matcher():
    """Force rule-sets onto the linear reference matcher for one test.

    Useful where object identity must distinguish a cached result from a
    recomputed one — the compiled fast path returns shared per-rule
    MatchResult objects, so identity holds there regardless of caching.
    """
    from repro.firewall.compiled import compiled_enabled, set_compiled_enabled

    original = compiled_enabled()
    set_compiled_enabled(False)
    yield
    set_compiled_enabled(original)


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


@pytest.fixture
def mininet(sim, rng):
    """Two hosts, alice and bob, ready to talk."""
    return MiniNet(sim, rng)


@pytest.fixture
def trinet(sim, rng):
    """Three hosts: alice, bob and mallory."""
    return MiniNet(sim, rng, names=("alice", "bob", "mallory"))
