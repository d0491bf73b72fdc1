"""Flood detection for protected NICs.

The paper's flood experiments end with an operator noticing a wedged
card and restarting its agent by hand; this module is the sensor half of
closing that loop.  :class:`FloodDetector` watches each protected NIC's
existing counters — frames received and packets denied — through
virtual-time EWMAs (:class:`~repro.obs.ewma.RateEwma`), plus the policy
server's heartbeat-silence signal, and raises a ``flood-detected``
:class:`~repro.obs.tracing.watchdog.Incident` (source: the protected
host; detail: the NIC, the ``REASON_*`` that crossed first, the EWMA
rates, the heartbeat signal, and the top talker or None) when any of
them crosses its onset threshold; ``recovered_at`` marks the clearance.

Detection is hysteretic: the onset thresholds (``on_*``) sit well above
the clear thresholds (``off_*``), and an episode only clears after
``clear_checks`` consecutive below-threshold checks with heartbeats
healthy.  That keeps bursty-but-legitimate traffic (the Table 1 HTTP
workload peaks in short bursts) from flapping the detector, while a
sustained 20 kpps flood trips it within a few check intervals.

Everything is driven by the simulation clock and the deterministic
counter deltas, so detection times are identical for any ``--jobs``
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.ewma import RateEwma
from repro.obs.tracing.watchdog import Incident
from repro.sim.timer import PeriodicTimer

#: Detection-trigger reasons, in the priority order they are reported.
REASON_HEARTBEAT = "heartbeat-silence"
REASON_DENY_RATE = "deny-rate"
REASON_INGRESS_RATE = "ingress-rate"


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds and cadence for :class:`FloodDetector`.

    The defaults are sized for the paper's testbed: legitimate load is a
    ~500 pps iperf stream plus HTTP bursts, floods run at 20 kpps, and
    the EFW's deny-rate lockup threshold is 1000 denies/s — so the
    deny-rate onset (600/s) fires before the card wedges when it can,
    and heartbeat silence catches the cases where it cannot.
    """

    check_interval: float = 0.02
    ewma_alpha: float = 0.5
    #: Smoothed ingress packets/s that starts an episode.
    on_ingress_pps: float = 10_000.0
    #: Smoothed ingress packets/s below which an episode may clear.
    off_ingress_pps: float = 5_000.0
    #: Smoothed denies/s that starts an episode (below the EFW's
    #: 1000/s lockup threshold, so detection can precede the wedge).
    on_deny_pps: float = 600.0
    off_deny_pps: float = 300.0
    #: Consecutive healthy checks required before an episode clears.
    clear_checks: int = 3
    #: Treat heartbeat silence (a wedged card) as a detection signal.
    use_heartbeats: bool = True

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError(f"check_interval must be positive, got {self.check_interval}")
        if self.off_ingress_pps > self.on_ingress_pps:
            raise ValueError("off_ingress_pps must not exceed on_ingress_pps")
        if self.off_deny_pps > self.on_deny_pps:
            raise ValueError("off_deny_pps must not exceed on_deny_pps")
        if self.clear_checks < 1:
            raise ValueError(f"clear_checks must be >= 1, got {self.clear_checks}")


class _WatchedHost:
    """Per-host detector state."""

    __slots__ = (
        "host",
        "nic",
        "ingress_ewma",
        "deny_ewma",
        "source_snapshot",
        "detection",
        "healthy_checks",
    )

    def __init__(self, host: str, nic, alpha: float):
        self.host = host
        self.nic = nic
        self.ingress_ewma = RateEwma(alpha)
        self.deny_ewma = RateEwma(alpha)
        #: Source -> cumulative count at the previous check (for the
        #: per-window top-talker delta).
        self.source_snapshot: Dict = {}
        #: The open ``flood-detected`` incident, or None.
        self.detection: Optional[Incident] = None
        self.healthy_checks = 0


class FloodDetector:
    """Periodic per-NIC flood detection with hysteresis.

    Parameters
    ----------
    sim:
        Simulation kernel.
    server:
        The :class:`~repro.policy.server.PolicyServer`, consulted for
        heartbeat silence when the config enables it (``None`` disables
        the heartbeat signal).
    config:
        Thresholds and cadence.
    on_flood, on_clear:
        Callbacks invoked with the ``flood-detected`` incident at episode
        onset and clearance (the mitigation controller hooks these).
    """

    profile_category = "defense.detector"

    def __init__(
        self,
        sim,
        server=None,
        config: Optional[DetectorConfig] = None,
        on_flood: Optional[Callable[[Incident], None]] = None,
        on_clear: Optional[Callable[[Incident], None]] = None,
    ):
        self.sim = sim
        self.server = server
        self.config = config or DetectorConfig()
        self.on_flood = on_flood
        self.on_clear = on_clear
        self._watched: Dict[str, _WatchedHost] = {}
        #: Every episode ever raised, in detection order.
        self.detections: List[Incident] = []
        self._timer: Optional[PeriodicTimer] = None
        sim.metrics.counter_fn(
            "defense_detections", lambda: len(self.detections), component="detector"
        )

    # ------------------------------------------------------------------

    def watch(self, host_name: str, nic) -> None:
        """Start monitoring ``nic`` as the enforcement point for ``host_name``.

        Enables the NIC's per-source ingress tracking so an episode can
        name its top talker for targeted mitigation.
        """
        if host_name in self._watched:
            raise ValueError(f"already watching {host_name!r}")
        if getattr(nic, "source_tracking", None) is None and hasattr(nic, "source_tracking"):
            nic.source_tracking = {}
        self._watched[host_name] = _WatchedHost(host_name, nic, self.config.ewma_alpha)

    def nic_for(self, host_name: str):
        """The NIC being watched for ``host_name``."""
        return self._watched[host_name].nic

    def watched_hosts(self) -> List[str]:
        return list(self._watched)

    def start(self) -> None:
        """Begin periodic checks."""
        if self._timer is not None:
            raise RuntimeError("detector already started")
        self._timer = PeriodicTimer(self.sim, self.config.check_interval, self._check_all)
        self._timer.start()

    def stop(self) -> None:
        """Stop periodic checks.  Idempotent."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def active_detection(self, host_name: str) -> Optional[Incident]:
        """The in-progress episode for ``host_name``, if any."""
        state = self._watched.get(host_name)
        return None if state is None else state.detection

    # ------------------------------------------------------------------

    def _heartbeat_silent(self, host_name: str) -> bool:
        if not self.config.use_heartbeats or self.server is None:
            return False
        return self.server.agent_is_silent(host_name)

    def _top_source(self, state: _WatchedHost) -> Optional[str]:
        tracking = getattr(state.nic, "source_tracking", None)
        if not tracking:
            return None
        snapshot = state.source_snapshot
        deltas = {
            src: count - snapshot.get(src, 0)
            for src, count in tracking.items()
            if count - snapshot.get(src, 0) > 0
        }
        if not deltas:
            return None
        # Max delta; ties break toward the smallest address string so
        # the answer never depends on dict iteration order.
        top = max(sorted(deltas, key=str), key=lambda src: deltas[src])
        return str(top)

    def _snapshot_sources(self, state: _WatchedHost) -> None:
        tracking = getattr(state.nic, "source_tracking", None)
        if tracking:
            state.source_snapshot = dict(tracking)

    def _check_all(self) -> None:
        now = self.sim.now
        for state in self._watched.values():
            nic = state.nic
            ingress_pps = state.ingress_ewma.update(now, nic.frames_received)
            deny_pps = state.deny_ewma.update(now, getattr(nic, "rx_denied", 0))
            silent = self._heartbeat_silent(state.host)
            if state.detection is None:
                self._check_onset(state, now, ingress_pps, deny_pps, silent)
            else:
                self._check_clearance(state, now, ingress_pps, deny_pps, silent)
            self._snapshot_sources(state)

    def _check_onset(
        self, state: _WatchedHost, now: float,
        ingress_pps: float, deny_pps: float, silent: bool,
    ) -> None:
        config = self.config
        if silent:
            reason = REASON_HEARTBEAT
        elif deny_pps > config.on_deny_pps:
            reason = REASON_DENY_RATE
        elif ingress_pps > config.on_ingress_pps:
            reason = REASON_INGRESS_RATE
        else:
            return
        detection = Incident("flood-detected", state.host, now, {
            "nic": state.nic.name,
            "reason": reason,
            "ingress_pps": round(ingress_pps, 1),
            "deny_pps": round(deny_pps, 1),
            "heartbeat_silent": silent,
            "top_source": self._top_source(state),
        })
        state.detection = detection
        state.healthy_checks = 0
        self.detections.append(detection)
        self.sim.tracer.record_incident(detection)
        if self.on_flood is not None:
            self.on_flood(detection)

    def _check_clearance(
        self, state: _WatchedHost, now: float,
        ingress_pps: float, deny_pps: float, silent: bool,
    ) -> None:
        config = self.config
        healthy = (
            not silent
            and ingress_pps < config.off_ingress_pps
            and deny_pps < config.off_deny_pps
        )
        if not healthy:
            state.healthy_checks = 0
            return
        state.healthy_checks += 1
        if state.healthy_checks < config.clear_checks:
            return
        detection = state.detection
        detection.recovered_at = now
        state.detection = None
        state.healthy_checks = 0
        if self.on_clear is not None:
            self.on_clear(detection)
