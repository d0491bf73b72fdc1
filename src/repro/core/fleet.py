"""Fleet-scale scenario driver.

The paper's testbed protects one host; its distributed-firewall premise
(Bellovin) only pays off at fleet scale, where a central policy server
provisions *many* NIC-resident firewalls and flood load aggregates across
trunks.  :class:`FleetTestbed` wires that scenario:

* a :class:`~repro.net.topology.FabricTopology` sized for the fleet
  (leaf switches filled round-robin, spine chain, gigabit trunks),
* M protected **targets** (each carrying the device under test), each
  paired with a legitimate **client** that measures per-host goodput,
* N **attackers** flooding a configurable share of the targets, paced by
  a shared :class:`~repro.sim.timer.TimerWheel` (one kernel event per
  tick for the whole attacker fleet),
* the central :class:`~repro.policy.server.PolicyServer` pushing a
  per-NIC rule-set to every protected host over real (droppable) UDP,
  with per-host ack timeout and retry.

The per-host figure of merit matches the paper's DoS criterion: a target
whose measured goodput falls below
:data:`~repro.core.metrics.DOS_BANDWIDTH_THRESHOLD_MBPS` is denied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import calibration
from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.iperf import IperfClient, IperfServer, UdpIperfSession
from repro.core import metrics, probe
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import padded_ruleset, service_rule
from repro.firewall.rules import Action, IpProtocol
from repro.policy.push import PushBackoff, PushReport
from repro.sim import units
from repro.sim.timer import TimerWheel


@dataclass(frozen=True)
class FleetSpec:
    """Shape and load of a fleet scenario.

    ``targets`` protected hosts (each with a paired measurement client)
    plus ``attackers`` flood hosts plus the policy server; the total
    station count is ``2 * targets + attackers + 1``.
    """

    targets: int = 4
    attackers: int = 1
    #: Device protecting every target host.
    device: DeviceKind = DeviceKind.EFW
    #: Rule-table depth of each per-NIC policy (paper's rule-set length).
    ruleset_depth: int = 32
    #: Fraction of targets under attack (the flood-share axis).
    attacked_fraction: float = 1.0
    #: Per-attacker flood rate.
    flood_rate_pps: float = 20_000.0
    #: Per-client legitimate UDP rate (500 pps x 1470 B ~ 5.9 Mbps,
    #: comfortably above the 1 Mbps DoS threshold when healthy).
    client_rate_pps: float = 500.0
    client_payload_size: int = 1470
    iperf_port: int = 5001
    #: Flood destination port.  Deliberately *not* the iperf port: the
    #: flood traverses the whole rule-set to the default deny (full
    #: classification cost, and sustained deny drops are what wedge the
    #: EFW), while the goodput measurement stays unpolluted.
    flood_port: int = 4444
    #: Fabric shape: stations per leaf switch, leaves per spine switch.
    stations_per_leaf: int = 16
    leaves_per_spine: int = 8
    bandwidth_bps: float = units.FAST_ETHERNET_BPS
    trunk_bandwidth_bps: Optional[float] = None
    efw_lockup_enabled: bool = True
    ring_size: int = calibration.EMBEDDED_NIC_RING_SIZE
    #: Pace all attackers off one shared timer wheel (one kernel event
    #: per tick fleet-wide).  Disable to give each attacker a dedicated
    #: periodic timer, as the four-host experiments do.
    use_timer_wheel: bool = True

    @property
    def station_count(self) -> int:
        """Total stations on the fabric."""
        return 2 * self.targets + self.attackers + 1

    @property
    def attacked_targets(self) -> int:
        """Number of targets under attack."""
        count = int(math.ceil(self.attacked_fraction * self.targets))
        return max(0, min(count, self.targets))


@dataclass
class FleetResult:
    """Outcome of one fleet measurement window."""

    spec: FleetSpec
    #: Target host name -> measured goodput (Mbps).
    goodput_mbps: Dict[str, float] = field(default_factory=dict)
    #: Target host name -> True if that host was under attack.
    attacked: Dict[str, bool] = field(default_factory=dict)
    policy_pushes_acked: int = 0
    policy_pushes_retried: int = 0
    policy_pushes_failed: int = 0
    events_executed: int = 0
    elapsed_sim_seconds: float = 0.0

    @property
    def aggregate_goodput_mbps(self) -> float:
        """Fleet-wide goodput (sum over targets)."""
        return sum(self.goodput_mbps.values())

    @property
    def dos_fraction(self) -> float:
        """Fraction of targets in denial of service."""
        if not self.goodput_mbps:
            return 0.0
        denied = sum(
            1 for mbps in self.goodput_mbps.values() if metrics.is_denial_of_service(mbps)
        )
        return denied / len(self.goodput_mbps)


class FleetTestbed(Testbed):
    """A freshly-wired fleet on a multi-switch fabric.

    Station naming: ``policyserver``, targets ``t000..``, paired clients
    ``c000..`` (client ``cNNN`` measures target ``tNNN``), attackers
    ``a000..``.  The stations are wired by the shared
    :meth:`Testbed._build`; this class adds the fleet workload.
    """

    __test__ = False

    def __init__(self, spec: FleetSpec = FleetSpec(), seed: int = 1):
        if spec.targets < 1:
            raise ValueError(f"need at least one target, got {spec.targets}")
        if spec.attackers < 0:
            raise ValueError(f"attackers must be >= 0, got {spec.attackers}")
        self.spec = spec
        self.device = spec.device
        standard = DeviceKind.STANDARD
        stations = (
            [("policyserver", "policyserver", standard)]
            + [(f"t{i:03d}", "target", spec.device) for i in range(spec.targets)]
            + [(f"c{i:03d}", "client", standard) for i in range(spec.targets)]
            + [(f"a{i:03d}", "attacker", standard) for i in range(spec.attackers)]
        )
        leaf_count = max(1, -(-spec.station_count // spec.stations_per_leaf))
        self._build(
            stations,
            seed,
            spec.efw_lockup_enabled,
            spec.ring_size,
            leaf_count=leaf_count,
            spine_count=max(1, -(-leaf_count // spec.leaves_per_spine)),
            bandwidth_bps=spec.bandwidth_bps,
            trunk_bandwidth_bps=spec.trunk_bandwidth_bps,
        )
        #: Shared pacing wheel for the attacker fleet (one tick per
        #: flood interval; all attackers fire on the same tick).
        self.wheel: Optional[TimerWheel] = (
            TimerWheel(self.sim, tick=1.0 / spec.flood_rate_pps)
            if spec.use_timer_wheel and spec.attackers > 0
            else None
        )
        self._flood_generators: List[FloodGenerator] = []
        self._servers: Dict[str, IperfServer] = {}
        self._sessions: Dict[str, UdpIperfSession] = {}
        #: The distribution round's per-host outcomes, once
        #: :meth:`distribute_policies` runs.
        self.push_report: Optional[PushReport] = None
        probe.attach_testbed(self)

    # ------------------------------------------------------------------
    # Policy distribution
    # ------------------------------------------------------------------

    def distribute_policies(
        self,
        retries: int = 2,
        ack_timeout: float = 0.05,
        networked: bool = True,
        backoff: Optional[PushBackoff] = None,
    ) -> PushReport:
        """Define, assign, and push one rule-set per protected NIC.

        Each target gets its own policy: padding to the configured depth
        with an allow for that host's iperf service at the bottom (so
        legitimate and flood datagrams both pay the full classification
        cost, as in the paper's depth sweeps).  Networked pushes ride
        the shared fabric with per-host ack timeout and retry; the
        simulation is then run until every push is acked or has
        exhausted its retries.

        Returns the round's :class:`~repro.policy.push.PushReport`
        (also kept as :attr:`push_report`); for non-embedded devices
        there is nothing to push and the report is empty.
        """
        self.push_report = PushReport()
        if not self.spec.device.is_embedded:
            return self.push_report
        for name in self.target_names:
            host = self.hosts[name]
            ruleset = padded_ruleset(
                self.spec.ruleset_depth,
                action_rule=service_rule(
                    Action.ALLOW, IpProtocol.UDP, self.spec.iperf_port, dst=host.ip
                ),
                name=f"{name}-policy",
            )
            self.policy_server.define_policy(ruleset.name, ruleset)
            self.policy_server.assign(name, ruleset.name)
        if not networked:
            self.push_report = self.policy_server.push_all(inline=True)
            return self.push_report
        self.push_report = self.policy_server.push_all(
            retries=retries, ack_timeout=ack_timeout, backoff=backoff
        )
        # Worst case: every push burns every retry.
        schedule = backoff
        if schedule is None:
            schedule = PushBackoff(base=ack_timeout, multiplier=1.0, jitter=0.0)
        deadline = self.sim.now + schedule.worst_case_elapsed(retries) + 0.01
        self.sim.run(until=deadline)
        return self.push_report

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def start_floods(self, duration: Optional[float] = None) -> None:
        """Start every attacker, round-robin over the attacked targets.

        The flood is UDP to a non-service port: each packet walks the
        victim's whole rule-set to the default deny, burning the full
        classification cost and (on the EFW) feeding the deny-rate
        lockup fault, while the ring contention starves the legitimate
        stream.
        """
        attacked = self.target_names[: self.spec.attacked_targets]
        if not attacked or not self.attacker_names:
            return
        for index, name in enumerate(self.attacker_names):
            victim = self.hosts[attacked[index % len(attacked)]]
            generator = FloodGenerator(
                self.hosts[name],
                FloodSpec(kind=FloodKind.UDP, dst_port=self.spec.flood_port),
                wheel=self.wheel,
            )
            generator.start(victim.ip, self.spec.flood_rate_pps, duration)
            self._flood_generators.append(generator)

    def start_goodput_sessions(self, duration: float) -> None:
        """Start one UDP goodput measurement per (client, target) pair."""
        for target_name, client_name in zip(self.target_names, self.client_names):
            server = IperfServer(self.hosts[target_name], self.spec.iperf_port)
            self._servers[target_name] = server
            self._sessions[target_name] = IperfClient(self.hosts[client_name]).start_udp(
                server,
                rate_pps=self.spec.client_rate_pps,
                payload_size=self.spec.client_payload_size,
                duration=duration,
            )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self, duration: float = 1.0) -> FleetResult:
        """Run one full measurement window and collect the fleet result.

        Floods and goodput sessions start together; the simulation runs
        until the window closes (plus drain margin).
        """
        started = self.sim.now
        events_before = self.sim.events_executed
        self.start_floods(duration)
        self.start_goodput_sessions(duration)
        self.sim.run(until=started + duration + 0.05)
        attacked = set(self.target_names[: self.spec.attacked_targets])
        result = FleetResult(spec=self.spec)
        for name, session in self._sessions.items():
            result.goodput_mbps[name] = session.result().mbps
            result.attacked[name] = name in attacked and bool(self.attacker_names)
        report = self.push_report
        if report is not None:
            # The distribution round's typed report is authoritative; it
            # matches the server counters exactly unless something else
            # (a mitigation re-push) has pushed since.
            result.policy_pushes_acked = report.acked
            result.policy_pushes_retried = report.retried
            result.policy_pushes_failed = report.failed
        else:
            result.policy_pushes_acked = self.policy_server.pushes_acked
            result.policy_pushes_retried = self.policy_server.pushes_retried
            result.policy_pushes_failed = self.policy_server.pushes_failed
        result.events_executed = self.sim.events_executed - events_before
        result.elapsed_sim_seconds = self.sim.now - started
        return result

    def measure_goodput(self, duration: float) -> Dict[str, float]:
        """Run one standalone goodput window; per-target Mbps.

        Unlike :meth:`measure` this neither starts floods nor assumes a
        fresh testbed: the iperf servers are created once and reused, so
        successive windows (baseline, flooded, recovery) measure against
        the same bound ports.  Each window uses fresh client sessions,
        which snapshot the server's delivery counters at start.
        """
        started = self.sim.now
        sessions: Dict[str, UdpIperfSession] = {}
        for target_name, client_name in zip(self.target_names, self.client_names):
            server = self._servers.get(target_name)
            if server is None:
                server = IperfServer(self.hosts[target_name], self.spec.iperf_port)
                self._servers[target_name] = server
            sessions[target_name] = IperfClient(self.hosts[client_name]).start_udp(
                server,
                rate_pps=self.spec.client_rate_pps,
                payload_size=self.spec.client_payload_size,
                duration=duration,
            )
        self.sim.run(until=started + duration + 0.05)
        return {name: session.result().mbps for name, session in sessions.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FleetTestbed targets={self.spec.targets} attackers={self.spec.attackers}"
            f" device={self.spec.device.value} t={self.sim.now:.3f}>"
        )
