"""Typed cross-layer fault injections.

Each fault is a frozen dataclass with an :meth:`inject`/:meth:`clear`
pair that mutates an existing testbed through the same surfaces an
operator's failure would hit: link impairments
(:class:`~repro.net.link.LinkImpairment`), switch port state
(:meth:`~repro.net.topology.FabricTopology.fail_station_port`), and the
policy server's agent registry.  A fault names a station or a role
(``client``, ``target``, ``attacker``); a role resolves to the bed's
first station of that role, so one fault applies to the paper's
:class:`~repro.core.testbed.Testbed` (station ``target``) and to a
:class:`~repro.core.fleet.FleetTestbed` (station ``t000``) alike.

All randomness (loss draws, corruption bit positions) comes from the
testbed's seeded :class:`~repro.sim.rng.RngRegistry`, so a schedule is
deterministic for a given seed.  Injection and clearing are *audited*
and *traced* by the :class:`~repro.chaos.schedule.ChaosInjector` that
fires them, not here, so a fault applied manually in a test stays
silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.net.link import LinkImpairment


def resolve_station(bed, station: str) -> str:
    """``station`` itself, or the bed's first station with that role."""
    if station in bed.hosts:
        return station
    for name, role, _kind in bed.stations:
        if role == station:
            return name
    raise ValueError(f"testbed has no station {station!r}")


@dataclass(frozen=True)
class LinkFlap:
    """Degrade one station's access link: down, lossy, or slow.

    ``mode`` selects the degradation: ``"down"`` blackholes every frame
    (a flapping link's down phase), ``"loss"`` drops each frame with
    ``loss_rate`` probability, ``"latency"`` adds ``extra_delay``
    seconds of propagation.
    """

    kind = "link-flap"

    station: str = "client"
    start: float = 0.0
    duration: Optional[float] = 0.1
    mode: str = "down"
    loss_rate: float = 0.25
    extra_delay: float = 0.005

    def __post_init__(self) -> None:
        if self.mode not in ("down", "loss", "latency"):
            raise ValueError(f"unknown LinkFlap mode {self.mode!r}")

    @property
    def subject(self) -> str:
        return self.station

    def detail(self) -> Dict[str, Any]:
        detail: Dict[str, Any] = {"mode": self.mode}
        if self.mode == "loss":
            detail["loss_rate"] = self.loss_rate
        elif self.mode == "latency":
            detail["extra_delay"] = self.extra_delay
        return detail

    def inject(self, bed) -> None:
        station = resolve_station(bed, self.station)
        link = bed.topology.link_for(station)
        if self.mode == "down":
            impairment = LinkImpairment(down=True)
        elif self.mode == "loss":
            impairment = LinkImpairment(
                loss_rate=self.loss_rate,
                rng=bed.rng.stream(f"chaos:link-flap:{station}"),
            )
        else:
            impairment = LinkImpairment(extra_delay=self.extra_delay)
        link.impairment = impairment

    def clear(self, bed) -> None:
        station = resolve_station(bed, self.station)
        bed.topology.link_for(station).impairment = None


@dataclass(frozen=True)
class SwitchPortFail:
    """Blackhole one station's switch port (dead linecard port)."""

    kind = "port-fail"

    station: str = "client"
    start: float = 0.0
    duration: Optional[float] = 0.1

    @property
    def subject(self) -> str:
        return self.station

    def detail(self) -> Dict[str, Any]:
        return {}

    def inject(self, bed) -> None:
        station = resolve_station(bed, self.station)
        bed.topology.fail_station_port(station, True)

    def clear(self, bed) -> None:
        station = resolve_station(bed, self.station)
        bed.topology.fail_station_port(station, False)


@dataclass(frozen=True)
class PacketCorruption:
    """Burst bit-flips in IPv4 headers at one station's link egress.

    Every frame crossing the link during the burst carries a corrupted
    header copy; the receiving NIC's RFC 1071 checksum verification
    (:mod:`repro.net.checksum`) rejects it, exercising the drop path.
    """

    kind = "corruption"

    station: str = "target"
    start: float = 0.0
    duration: Optional[float] = 0.1

    @property
    def subject(self) -> str:
        return self.station

    def detail(self) -> Dict[str, Any]:
        return {}

    def inject(self, bed) -> None:
        station = resolve_station(bed, self.station)
        link = bed.topology.link_for(station)
        link.impairment = LinkImpairment(
            corrupt=True, rng=bed.rng.stream(f"chaos:corruption:{station}")
        )

    def clear(self, bed) -> None:
        station = resolve_station(bed, self.station)
        bed.topology.link_for(station).impairment = None


@dataclass(frozen=True)
class PolicyServerOutage:
    """The policy server drops off the network for a window.

    Implemented as a down impairment on the server's access link, so
    pushes, acks, and heartbeats are all lost — in-flight push chains
    burn their retries against the outage and heartbeat silence is a
    *legitimate* side effect the defense loop may react to.
    """

    kind = "policy-outage"

    start: float = 0.0
    duration: Optional[float] = 0.1

    @property
    def subject(self) -> str:
        return "policyserver"

    def detail(self) -> Dict[str, Any]:
        return {}

    def inject(self, bed) -> None:
        link = bed.topology.link_for("policyserver")
        link.impairment = LinkImpairment(down=True)

    def clear(self, bed) -> None:
        bed.topology.link_for("policyserver").impairment = None


@dataclass(frozen=True)
class AgentCrash:
    """Unsolicited firewall-agent death on one station.

    Distinct from the EFW flood lockup: the card keeps enforcing its
    installed policy, but the agent process is gone — heartbeats stop,
    networked pushes go unacked, inline pushes fail.  There is no
    ``clear``: recovery is an explicit restart, which the defense loop's
    restart sweep performs when enabled (``duration`` defaults to None —
    the fault is permanent until something restarts the agent).
    """

    kind = "agent-crash"

    station: str = "target"
    start: float = 0.0
    duration: Optional[float] = None

    @property
    def subject(self) -> str:
        return self.station

    def detail(self) -> Dict[str, Any]:
        return {}

    def inject(self, bed) -> None:
        station = resolve_station(bed, self.station)
        agent = bed.policy_server.agent_for(station)
        if agent is None:
            raise ValueError(f"station {station!r} has no registered agent")
        agent.crash()

    def clear(self, bed) -> None:
        # Clearing the fault window does not resurrect the agent; only a
        # restart (defense sweep or operator) does.
        pass
