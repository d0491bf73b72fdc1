"""The mitigation controller: closing the detect→mitigate→recover loop.

:class:`MitigationController` is co-located with the policy server (it
is the automation an EFW administrator would script against the central
console).  It wires a :class:`~repro.defense.detector.FloodDetector`'s
onset callback to a configured tuple of actions
(:mod:`repro.defense.actions`), records every step — audit events,
metrics, and one :class:`~repro.obs.tracing.watchdog.Incident` per
applied action (``kind`` is the action's kind, ``source`` the host,
``detail`` what the action returned), filed on the tracer too — and
summarises the episode as a :class:`DefenseReport` the experiments turn
into recovery numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.defense.actions import EnableRateLimiter, RestartAgent
from repro.defense.detector import DetectorConfig, FloodDetector
from repro.obs.tracing.watchdog import Incident
from repro.policy.audit import AuditEventKind
from repro.sim.timer import PeriodicTimer


@dataclass(frozen=True)
class DefenseConfig:
    """Everything a testbed needs to stand up the closed loop.

    ``heartbeat_*`` configure the policy server's monitor and the
    agents' beacons at cadences fast enough for sub-second experiment
    windows (the production-scale defaults on
    :meth:`~repro.policy.server.PolicyServer.enable_heartbeat_monitor`
    suit minutes-long runs, not these).
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    actions: Tuple[Any, ...] = field(
        default_factory=lambda: (EnableRateLimiter(), RestartAgent())
    )
    heartbeat_interval: float = 0.05
    heartbeat_grace: float = 0.12
    heartbeat_check_interval: float = 0.02


@dataclass
class DefenseReport:
    """What the closed loop saw and did, for recovery accounting."""

    detections: List[Incident] = field(default_factory=list)
    mitigations: List[Incident] = field(default_factory=list)
    agent_restarts: int = 0

    @property
    def first_detection_at(self) -> Optional[float]:
        return self.detections[0].time if self.detections else None

    @property
    def first_mitigation_at(self) -> Optional[float]:
        applied = [
            record.time for record in self.mitigations if "skipped" not in record.detail
        ]
        return min(applied) if applied else None

    def time_to_detect(self, flood_started_at: float) -> Optional[float]:
        """Seconds from flood onset to first detection."""
        detected = self.first_detection_at
        return None if detected is None else detected - flood_started_at

    def time_to_mitigate(self, flood_started_at: float) -> Optional[float]:
        """Seconds from flood onset to first applied mitigation."""
        mitigated = self.first_mitigation_at
        return None if mitigated is None else mitigated - flood_started_at


class MitigationController:
    """Applies configured actions when the detector raises an episode.

    Parameters
    ----------
    sim, server:
        Simulation kernel and the policy server the controller acts
        through.
    detector:
        The :class:`FloodDetector` to hook (its ``on_flood``/``on_clear``
        callbacks are taken over).
    actions:
        Action instances applied, in order, at each episode onset.
    station_for_ip:
        Optional ``ip_string -> station_name`` resolver for
        switch-assisted actions.
    quarantine:
        Optional ``station_name -> None`` callable that blocks the
        station's access port (testbeds bind their topology's
        ``quarantine_station`` here).
    """

    profile_category = "defense.controller"

    def __init__(
        self,
        sim,
        server,
        detector: FloodDetector,
        actions: Tuple[Any, ...],
        station_for_ip: Optional[Callable[[str], Optional[str]]] = None,
        quarantine: Optional[Callable[[str], None]] = None,
    ):
        self.sim = sim
        self.server = server
        self.detector = detector
        self.actions = tuple(actions)
        self._station_for_ip = station_for_ip
        self._quarantine = quarantine
        self.mitigations: List[Incident] = []
        self.agent_restarts = 0
        self.push_outcomes: List[Any] = []
        self._restart_sweeps: Dict[str, PeriodicTimer] = {}
        self.quarantined_stations: List[str] = []
        detector.on_flood = self._flood_detected
        detector.on_clear = self._flood_cleared
        sim.metrics.counter_fn(
            "defense_mitigations",
            lambda: sum(
                1 for record in self.mitigations if "skipped" not in record.detail
            ),
            component="controller",
        )
        sim.metrics.counter_fn(
            "defense_agent_restarts", lambda: self.agent_restarts, component="controller"
        )

    # ------------------------------------------------------------------
    # Action-facing helpers
    # ------------------------------------------------------------------

    def nic_for(self, host_name: str):
        return self.detector.nic_for(host_name)

    def station_for_ip(self, ip: str) -> Optional[str]:
        if self._station_for_ip is None:
            return None
        return self._station_for_ip(ip)

    def quarantine_station(self, station: str) -> None:
        if self._quarantine is None:
            raise RuntimeError("controller has no quarantine hook")
        self._quarantine(station)
        self.quarantined_stations.append(station)

    def record_push(self, outcome) -> None:
        """Actions report the pushes they trigger for the episode log."""
        self.push_outcomes.append(outcome)

    def start_restart_sweep(self, host_name: str, check_interval: float) -> bool:
        """Restart the host's agent whenever it wedges, until cleared.

        Returns False when a sweep for the host is already running.
        """
        if host_name in self._restart_sweeps:
            return False
        timer = PeriodicTimer(
            self.sim, check_interval, self._restart_if_wedged, host_name
        )
        self._restart_sweeps[host_name] = timer
        timer.start(initial_delay=0.0)
        return True

    def stop_restart_sweep(self, host_name: str) -> None:
        timer = self._restart_sweeps.pop(host_name, None)
        if timer is not None:
            timer.stop()

    def _restart_if_wedged(self, host_name: str) -> None:
        nic = self.detector.nic_for(host_name)
        crashed = self.server.agent_crashed(host_name)
        if getattr(nic, "wedged", False) or crashed:
            self.server.restart_agent(host_name)
            self.agent_restarts += 1

    # ------------------------------------------------------------------
    # Detector callbacks
    # ------------------------------------------------------------------

    def _flood_detected(self, detection: Incident) -> None:
        host = detection.source
        detail = detection.detail
        self.server.audit.record(
            self.sim.now,
            AuditEventKind.FLOOD_DETECTED,
            host,
            reason=detail["reason"],
            ingress_pps=detail["ingress_pps"],
            deny_pps=detail["deny_pps"],
            top_source=detail["top_source"],
        )
        for action in self.actions:
            applied = action.apply(self, detection)
            self.server.audit.record(
                self.sim.now,
                AuditEventKind.MITIGATION_APPLIED,
                host,
                action=action.kind,
                **applied,
            )
            record = Incident(action.kind, host, self.sim.now, applied)
            self.mitigations.append(record)
            self.sim.tracer.record_incident(record)

    def _flood_cleared(self, detection: Incident) -> None:
        self.stop_restart_sweep(detection.source)

    # ------------------------------------------------------------------

    def report(self) -> DefenseReport:
        """Snapshot the loop's history for recovery accounting."""
        return DefenseReport(
            detections=list(self.detector.detections),
            mitigations=list(self.mitigations),
            agent_restarts=self.agent_restarts,
        )
