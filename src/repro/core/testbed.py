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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import calibration
from repro.core import probe
from repro.sim import units
from repro.firewall.iptables import IptablesFilter
from repro.firewall.ruleset import RuleSet
from repro.host.host import Host
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.topology import FabricTopology
from repro.nic.adf import AdfNic
from repro.nic.efw import EfwNic
from repro.nic.hardened import HardenedNic
from repro.nic.standard import StandardNic
from repro.policy.server import NicAgent, PolicyServer
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.defense.controller import DefenseConfig, MitigationController


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


#: Station names in the paper's Figure 1; each name is also its role.
STATIONS = ("policyserver", "client", "target", "attacker")

#: A station of a testbed: ``(name, role, device)``.  The roles are
#: ``policyserver``, ``target``, ``client`` and ``attacker``.
Station = Tuple[str, str, DeviceKind]


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

    The network is the :data:`STATIONS` list on a degenerate
    :class:`~repro.net.topology.FabricTopology` (one switch).
    :class:`~repro.core.fleet.FleetTestbed` wires a fleet through the
    same :meth:`_build`.
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
        kinds = {"target": device, "client": client_device}
        self._build(
            [(name, name, kinds.get(name, DeviceKind.STANDARD)) for name in STATIONS],
            seed,
            efw_lockup_enabled,
            ring_size,
            name="lan",
            leaf_count=0,
            bandwidth_bps=bandwidth_bps,
        )
        probe.attach_testbed(self)

    def _build(
        self,
        stations: Sequence[Station],
        seed: int,
        efw_lockup_enabled: bool,
        ring_size: int,
        **fabric,
    ) -> None:
        """Wire ``stations``, in order, onto a ``FabricTopology(**fabric)``.

        Station *i* (from 1) gets IPv4 ``10.0.0.0 + i`` and
        ``MacAddress.from_index(i)``; the ``policyserver`` station hosts
        the policy server, and every embedded target, then client,
        registers an agent with it.  The caller finishes construction
        with ``probe.attach_testbed(self)``.
        """
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
        self.topology = FabricTopology(self.sim, **fabric)
        self.stations: List[Station] = list(stations)
        self.target_names = [name for name, role, _ in self.stations if role == "target"]
        self.client_names = [name for name, role, _ in self.stations if role == "client"]
        self.attacker_names = [name for name, role, _ in self.stations if role == "attacker"]
        self.hosts: Dict[str, Host] = {}
        self.agents: Dict[str, NicAgent] = {}
        #: The MitigationController once :meth:`enable_defense` runs.
        self.defense: Optional[MitigationController] = None

        for index, (name, _role, kind) in enumerate(self.stations, start=1):
            host = Host(
                self.sim,
                name,
                ip=Ipv4Address((10 << 24) | index),
                mac=MacAddress.from_index(index),
                rng=self.rng,
            )
            nic = self._build_nic(name, kind, efw_lockup_enabled, ring_size)
            nic.attach(self.topology.add_station(name))
            host.attach_nic(nic)
            self.hosts[name] = host

        # Static ARP (the isolated network has no dynamic ARP model).
        all_hosts = list(self.hosts.values())
        for a in all_hosts:
            arp = a.ip_layer.arp_table
            for b in all_hosts:
                if a is not b:
                    arp[b.ip] = b.mac
        if self.topology.leaves:
            # Primed MAC tables: warm-up flooding across hundreds of
            # stations would swamp the trunks before a measurement starts.
            self.topology.prime_mac_tables(
                {name: host.mac for name, host in self.hosts.items()}
            )

        self.policy_server = PolicyServer(self.hosts["policyserver"])
        embedded = {name for name, _role, kind in self.stations if kind.is_embedded}
        for name in self.target_names + self.client_names:
            if name in embedded:
                host = self.hosts[name]
                agent = NicAgent(host, host.nic)
                self.agents[name] = agent
                self.policy_server.register_agent(agent)
        profiler.exit()

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def client(self) -> Host:
        """The (first) legitimate measurement peer."""
        return self.hosts[self.client_names[0]]

    @property
    def target(self) -> Host:
        """The (first) host protected by the device under test."""
        return self.hosts[self.target_names[0]]

    @property
    def attacker(self) -> Host:
        """The (first) flood-generator host."""
        return self.hosts[self.attacker_names[0]]

    # ------------------------------------------------------------------
    # Policy installation
    # ------------------------------------------------------------------

    def install_target_policy(self, ruleset: RuleSet, networked_push: bool = False) -> None:
        """Install ``ruleset`` on the (first) target's device under test.

        Embedded devices receive it through the policy server (optionally
        as real UDP push traffic); the iptables variant installs it as
        the host's INPUT/forwarding chain; a standard NIC ignores it.
        """
        target = self.target_names[0]
        if self.device.is_embedded:
            self.policy_server.define_policy(ruleset.name, ruleset)
            self.policy_server.assign(target, ruleset.name)
            self.policy_server.push_policy(target, inline=not networked_push)
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
        """Install a policy on the (first) client's NIC (VPG measurements)."""
        client = self.client_names[0]
        if client not in self.agents:
            raise RuntimeError("client has no embedded firewall NIC")
        self.policy_server.define_policy(f"client:{ruleset.name}", ruleset)
        self.policy_server.assign(client, f"client:{ruleset.name}")
        self.policy_server.push_policy(client, inline=True)

    def restart_target_agent(self) -> None:
        """Restart the (first) target's firewall agent (EFW lockup recovery)."""
        agent = self.agents.get(self.target_names[0])
        if agent is None:
            raise RuntimeError("target has no NIC agent (not an embedded device)")
        agent.restart()

    # ------------------------------------------------------------------
    # Closed-loop defense
    # ------------------------------------------------------------------

    def enable_defense(self, config: Optional[DefenseConfig] = None) -> MitigationController:
        """Arm the closed flood-defense loop around every target.

        Starts fast-cadence heartbeats from every agent and the server's
        monitor, watches every target's NIC with one
        :class:`~repro.defense.detector.FloodDetector`, and stands up a
        :class:`~repro.defense.controller.MitigationController` wired to
        this topology (so :class:`~repro.defense.actions.QuarantinePort`
        can cut an identified flooder off at its home switch).  Returns
        the controller; call its :meth:`report` after the run for
        recovery accounting.
        """
        from repro.defense.controller import DefenseConfig, MitigationController
        from repro.defense.detector import FloodDetector

        if not self.device.is_embedded:
            raise RuntimeError("defense needs an embedded enforcement point on the targets")
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
        for name in self.target_names:
            detector.watch(name, self.hosts[name].nic)
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

    def _build_nic(
        self, station: str, kind: DeviceKind, efw_lockup_enabled: bool, ring_size: int
    ):
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
