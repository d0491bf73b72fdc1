"""The experimental testbed (the paper's Figure 1).

Four hosts on an isolated 100 Mbps switched segment:

* **policyserver** — runs the central :class:`~repro.policy.PolicyServer`,
* **client** — the legitimate peer (iperf client / http_load),
* **target** — the host under test, carrying the device under test
  (standard NIC, EFW, ADF, or a standard NIC plus host iptables),
* **attacker** — the flood generator.

Every measurement builds a *fresh* testbed, mirroring the paper's
isolated-network discipline ("all experiments were performed on an
isolated network, eliminating extraneous packets").
"""

from __future__ import annotations

import enum
from typing import Dict

from repro import calibration
from repro.core import probe
from repro.defense.controller import DefenseConfig, MitigationController
from repro.defense.detector import FloodDetector
from repro.sim import units
from repro.firewall.iptables import IptablesFilter
from repro.firewall.ruleset import RuleSet
from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.topology import StarTopology
from repro.nic.adf import AdfNic
from repro.nic.efw import EfwNic
from repro.nic.hardened import HardenedNic
from repro.nic.standard import StandardNic
from repro.policy.server import NicAgent, PolicyServer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class DeviceKind(enum.Enum):
    """The device protecting the target host."""

    STANDARD = "standard-nic"
    EFW = "efw"
    ADF = "adf"
    IPTABLES = "iptables"
    #: The future-work device of repro.nic.hardened: a flood-tolerant
    #: embedded firewall (extension, not part of the paper's evaluation).
    HARDENED = "hardened"

    @property
    def is_embedded(self) -> bool:
        """True for NIC-resident firewalls (EFW/ADF/hardened)."""
        return self in (DeviceKind.EFW, DeviceKind.ADF, DeviceKind.HARDENED)


#: Station names in the paper's Figure 1.
STATIONS = ("policyserver", "client", "target", "attacker")


class Testbed:
    """A freshly-wired instance of the paper's experimental network.

    Parameters
    ----------
    device:
        The device under test on the target host.
    client_device:
        The client host's NIC.  VPG measurements need an ADF on *both*
        ends of the encrypted channel; everything else uses a standard
        NIC on the client, like the paper's testbed.
    seed:
        Experiment RNG seed (fully determines the run).
    efw_lockup_enabled:
        Ablation knob for the EFW firmware lockup fault.
    ring_size:
        Ablation knob for the embedded NIC's ring depth.
    bandwidth_bps:
        Link speed of every segment.  The paper's testbed is 100 Mbps;
        its §4.5 discussion of 10 Mbps deployments is reproduced by
        passing ``units.mbps(10)``.
    """

    #: Not a pytest test class, despite the capitalised "Test" prefix.
    __test__ = False

    def __init__(
        self,
        device: DeviceKind = DeviceKind.STANDARD,
        client_device: DeviceKind = DeviceKind.STANDARD,
        seed: int = 1,
        efw_lockup_enabled: bool = True,
        ring_size: int = calibration.EMBEDDED_NIC_RING_SIZE,
        bandwidth_bps: float = units.FAST_ETHERNET_BPS,
    ):
        self.device = device
        self.client_device = client_device
        self.sim = Simulator()
        # Active probes (repro.core.probe) arm the fresh kernel before
        # any component is built: a real metrics registry every
        # constructor below self-registers into, an armed tracer, the
        # live profiler.  Construction itself is billed to a
        # "testbed.build" profiler scope (a raising __init__ aborts the
        # point; the snapshot unwinds any dangling scope).
        probe.attach_simulator(self.sim)
        profiler = self.sim.profiler
        profiler.enter("testbed.build")
        self.rng = RngRegistry(seed)
        self.topology = StarTopology(self.sim, bandwidth_bps=bandwidth_bps)
        self.hosts: Dict[str, Host] = {}
        self.agents: Dict[str, NicAgent] = {}
        #: The MitigationController once :meth:`enable_defense` runs.
        self.defense = None

        for index, name in enumerate(STATIONS, start=1):
            host = Host(
                self.sim,
                name,
                ip=Ipv4Address(f"10.0.0.{index}"),
                mac=MacAddress.from_index(index),
                rng=self.rng,
            )
            nic = self._build_nic(name, efw_lockup_enabled, ring_size)
            nic.attach(self.topology.add_station(name))
            host.attach_nic(nic)
            self.hosts[name] = host

        # Static ARP (the isolated segment has no dynamic ARP model).
        for a in self.hosts.values():
            for b in self.hosts.values():
                if a is not b:
                    a.ip_layer.arp_table[b.ip] = b.mac

        self.policy_server = PolicyServer(self.hosts["policyserver"])
        for station in ("target", "client"):
            host = self.hosts[station]
            kind = device if station == "target" else client_device
            if kind.is_embedded:
                agent = NicAgent(host, host.nic)
                self.agents[station] = agent
                self.policy_server.register_agent(agent)
        profiler.exit()
        probe.attach_testbed(self)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def client(self) -> Host:
        """The legitimate measurement peer."""
        return self.hosts["client"]

    @property
    def target(self) -> Host:
        """The host protected by the device under test."""
        return self.hosts["target"]

    @property
    def attacker(self) -> Host:
        """The flood-generator host."""
        return self.hosts["attacker"]

    # ------------------------------------------------------------------
    # Policy installation
    # ------------------------------------------------------------------

    def install_target_policy(self, ruleset: RuleSet, networked_push: bool = False) -> None:
        """Install ``ruleset`` on the target's device under test.

        Embedded devices receive it through the policy server (optionally
        as real UDP push traffic); the iptables variant installs it as
        the host's INPUT/forwarding chain; a standard NIC ignores it.
        """
        if self.device.is_embedded:
            self.policy_server.define_policy(ruleset.name, ruleset)
            self.policy_server.assign("target", ruleset.name)
            self.policy_server.push_policy("target", inline=not networked_push)
            if networked_push:
                # Let the push traffic propagate before measurements start.
                self.sim.run(until=self.sim.now + 0.01)
            return
        if self.device == DeviceKind.IPTABLES:
            iptables_filter = IptablesFilter(self.sim, input_chain=ruleset)
            self.target.install_iptables(iptables_filter)
            return
        # STANDARD: no enforcement point; nothing to install.

    def install_client_policy(self, ruleset: RuleSet) -> None:
        """Install a policy on the client's NIC (VPG measurements)."""
        if not self.client_device.is_embedded:
            raise RuntimeError("client has no embedded firewall NIC")
        self.policy_server.define_policy(f"client:{ruleset.name}", ruleset)
        self.policy_server.assign("client", f"client:{ruleset.name}")
        self.policy_server.push_policy("client", inline=True)

    def restart_target_agent(self) -> None:
        """Restart the target's firewall agent (EFW lockup recovery)."""
        agent = self.agents.get("target")
        if agent is None:
            raise RuntimeError("target has no NIC agent (not an embedded device)")
        agent.restart()

    # ------------------------------------------------------------------
    # Closed-loop defense
    # ------------------------------------------------------------------

    def enable_defense(self, config=None) -> MitigationController:
        """Arm the closed flood-defense loop around the target.

        Starts fast-cadence agent heartbeats and the server's monitor,
        watches the target's NIC with a
        :class:`~repro.defense.detector.FloodDetector`, and stands up a
        :class:`~repro.defense.controller.MitigationController` wired to
        this topology (so :class:`~repro.defense.actions.QuarantinePort`
        can cut an identified flooder off at the switch).  Returns the
        controller; call its :meth:`report` after the run for recovery
        accounting.
        """
        if not self.device.is_embedded:
            raise RuntimeError("defense needs an embedded enforcement point on the target")
        if self.defense is not None:
            raise RuntimeError("defense already enabled")
        if config is None:
            config = DefenseConfig()
        server = self.policy_server
        server.enable_heartbeat_monitor(
            check_interval=config.heartbeat_check_interval,
            grace=config.heartbeat_grace,
        )
        for agent in self.agents.values():
            agent.start_heartbeat(server.host.ip, interval=config.heartbeat_interval)
        detector = FloodDetector(self.sim, server=server, config=config.detector)
        detector.watch("target", self.target.nic)
        ip_to_station = {str(host.ip): name for name, host in self.hosts.items()}
        controller = MitigationController(
            self.sim,
            server,
            detector,
            config.actions,
            station_for_ip=ip_to_station.get,
            quarantine=self.topology.quarantine_station,
        )
        detector.start()
        self.defense = controller
        return controller

    # ------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def _build_nic(self, station: str, efw_lockup_enabled: bool, ring_size: int):
        kind = DeviceKind.STANDARD
        if station == "target":
            kind = self.device
        elif station == "client":
            kind = self.client_device
        if kind == DeviceKind.EFW:
            return EfwNic(
                self.sim,
                name=f"{station}.efw",
                ring_size=ring_size,
                lockup_enabled=efw_lockup_enabled,
            )
        if kind == DeviceKind.ADF:
            return AdfNic(self.sim, name=f"{station}.adf", ring_size=ring_size)
        if kind == DeviceKind.HARDENED:
            return HardenedNic(self.sim, name=f"{station}.hardened")
        return StandardNic(self.sim, name=f"{station}.nic")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Testbed device={self.device.value} t={self.sim.now:.3f}>"
