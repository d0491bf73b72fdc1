"""Runtime invariant monitors: what must hold even under injected faults.

:class:`InvariantMonitor` registers a periodic check with the kernel and
verifies a suite of cross-layer conservation and liveness properties on
every tick:

* **packet conservation** — a link's receiving port never counts more
  frames than its peer transmitted; a NIC never delivers (or drops)
  more packets than it received off the wire,
* **bounded queues** — link port queues and NIC service rings never
  exceed their configured capacity,
* **clock monotonicity** — the virtual clock never runs backwards,
* **defense liveness** — with the closed loop enabled, a sustained
  flood (ingress at or above the detector's trigger threshold, observed
  at the NIC itself) must produce a detection within
  ``liveness_window`` seconds,
* **policy convergence** — every *acked* policy push is actually
  installed on the card (checked only while no pushes are in flight, no
  chaos fault is active, and the agent is alive — a fault window
  legitimately suspends convergence, but it must hold again once the
  dust settles).

Each failed check files one
:class:`~repro.obs.tracing.watchdog.Incident` whose ``kind`` is the
invariant's name and whose ``source`` is the subject, in
:attr:`InvariantMonitor.violations` and on the simulator's tracer (kept
there when the tracer is hot).  In ``"warn"`` mode violations
accumulate; in ``"fail-fast"`` mode the first one raises
:class:`InvariantViolationError` out of the simulation run.

All inequalities are *sound*: frames in flight, packets queued, and
verdicts not yet counted can make the left side smaller, never larger,
so a violation always indicates a real accounting bug or an impossible
state — no false positives on healthy runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.schedule import armed_injectors
from repro.obs.tracing.watchdog import Incident
from repro.policy.push import ACKED
from repro.sim.timer import PeriodicTimer

#: Valid monitor modes.
MODES = ("warn", "fail-fast")


class InvariantViolationError(AssertionError):
    """Raised in fail-fast mode on the first violated invariant."""

    def __init__(self, violation: Incident):
        super().__init__(violation.describe())
        self.violation = violation


#: Live monitors, for the cross-module flood-notification hook.
_MONITORS: List["InvariantMonitor"] = []


def note_flood(sim, target: str, rate_pps: float) -> None:
    """Tell any monitor on ``sim`` that a flood just started.

    Called by :class:`~repro.apps.flood.FloodGenerator` so the
    defense-liveness invariant knows when the clock starts.  A no-op
    (one truthiness check) when no monitor is active.
    """
    if not _MONITORS:
        return
    for monitor in _MONITORS:
        if monitor.bed.sim is sim:
            monitor._note_flood(target, rate_pps)


class InvariantMonitor:
    """Periodic cross-layer invariant checks over one testbed.

    Parameters
    ----------
    bed:
        A :class:`~repro.core.testbed.Testbed` or
        :class:`~repro.core.fleet.FleetTestbed` (duck-typed: needs
        ``sim``, ``hosts`` and a
        :class:`~repro.net.topology.FabricTopology` ``topology``).
    mode:
        ``"warn"`` collects violations; ``"fail-fast"`` raises on the
        first one.
    liveness_window:
        Seconds of sustained over-threshold ingress the detector is
        allowed before defense liveness is violated.
    """

    profile_category = "chaos.invariants"

    def __init__(
        self,
        bed,
        mode: str = "warn",
        check_interval: float = 0.05,
        liveness_window: float = 0.5,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.bed = bed
        self.mode = mode
        self.check_interval = check_interval
        self.liveness_window = liveness_window
        self.violations: List[Incident] = []
        self.checks_run = 0
        self._last_now = bed.sim.now
        self._flood_noted_at: Optional[float] = None
        self._flood_liveness_settled = False
        self._prev_ingress: Dict[str, Tuple[float, int]] = {}
        self._hot_since: Dict[str, float] = {}
        self._finalized = False
        self._timer = PeriodicTimer(bed.sim, check_interval, self.check)
        self._timer.start(initial_delay=check_interval)
        _MONITORS.append(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def finalize(self, strict: bool = True) -> List[Incident]:
        """Stop the monitor, run one last sweep, return all violations.

        With ``strict`` False the final sweep is skipped (used when the
        run already failed for another reason — a half-finished
        simulation legitimately violates end-state invariants, and
        raising here would mask the original error).
        """
        if self._finalized:
            return list(self.violations)
        self._finalized = True
        self._timer.stop()
        if self in _MONITORS:
            _MONITORS.remove(self)
        if strict:
            self.check()
        return list(self.violations)

    def _note_flood(self, target: str, rate_pps: float) -> None:
        if self._flood_noted_at is None:
            self._flood_noted_at = self.bed.sim.now
            self._flood_liveness_settled = False

    # ------------------------------------------------------------------
    # The check suite
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Run every invariant once (the periodic timer's callback)."""
        self.checks_run += 1
        self._check_clock()
        self._check_links()
        self._check_nics()
        self._check_liveness()
        self._check_convergence()

    def _violate(self, invariant: str, subject: str, **detail: Any) -> None:
        violation = Incident(invariant, subject, self.bed.sim.now, detail)
        self.violations.append(violation)
        self.bed.sim.tracer.record_incident(violation)
        if self.mode == "fail-fast":
            raise InvariantViolationError(violation)

    def _check_clock(self) -> None:
        now = self.bed.sim.now
        if now < self._last_now:
            self._violate(
                "clock-monotonicity", "sim", now=now, previously=self._last_now
            )
        self._last_now = now

    def _links(self):
        topology = self.bed.topology
        yield from topology.links.values()
        yield from topology.trunks

    def _check_links(self) -> None:
        for link in self._links():
            for port in (link.port_a, link.port_b):
                peer = port.peer
                if peer.rx_frames > port.tx_frames:
                    self._violate(
                        "packet-conservation",
                        port.name,
                        tx_frames=port.tx_frames,
                        peer_rx_frames=peer.rx_frames,
                    )
                if port.queue_depth > port.queue_capacity:
                    self._violate(
                        "bounded-queues",
                        port.name,
                        depth=port.queue_depth,
                        capacity=port.queue_capacity,
                    )

    def _check_nics(self) -> None:
        for host in self.bed.hosts.values():
            nic = getattr(host, "nic", None)
            if nic is None:
                continue
            received = nic.frames_received
            delivered = nic.packets_delivered
            checksum = nic.checksum_drops
            if delivered + checksum > received:
                self._violate(
                    "packet-conservation",
                    nic.name,
                    frames_received=received,
                    packets_delivered=delivered,
                    checksum_drops=checksum,
                )
            verdicts = getattr(nic, "rx_allowed", 0) + getattr(nic, "rx_denied", 0)
            if verdicts > received:
                self._violate(
                    "packet-conservation",
                    nic.name,
                    frames_received=received,
                    rx_verdicts=verdicts,
                )
            processor = getattr(nic, "processor", None)
            if processor is not None:
                if processor.depth > processor.capacity:
                    self._violate(
                        "bounded-queues",
                        processor.name,
                        depth=processor.depth,
                        capacity=processor.capacity,
                    )
                if processor.completed + processor.depth > processor.accepted:
                    self._violate(
                        "packet-conservation",
                        processor.name,
                        accepted=processor.accepted,
                        completed=processor.completed,
                        depth=processor.depth,
                    )

    def _check_liveness(self) -> None:
        defense = getattr(self.bed, "defense", None)
        if (
            defense is None
            or self._flood_noted_at is None
            or self._flood_liveness_settled
        ):
            return
        detector = defense.detector
        for detection in detector.detections:
            if detection.time >= self._flood_noted_at:
                self._flood_liveness_settled = True
                return
        now = self.bed.sim.now
        threshold = detector.config.on_ingress_pps
        for host_name, watched in getattr(detector, "_watched", {}).items():
            nic = watched.nic
            count = nic.frames_received
            previous = self._prev_ingress.get(host_name)
            self._prev_ingress[host_name] = (now, count)
            if previous is None:
                continue
            prev_time, prev_count = previous
            elapsed = now - prev_time
            if elapsed <= 0:
                continue
            rate = (count - prev_count) / elapsed
            if rate < threshold:
                self._hot_since.pop(host_name, None)
                continue
            hot_since = self._hot_since.setdefault(host_name, prev_time)
            silent_for = now - max(hot_since, self._flood_noted_at)
            if silent_for > self.liveness_window:
                self._flood_liveness_settled = True
                self._violate(
                    "defense-liveness",
                    host_name,
                    ingress_pps=round(rate, 1),
                    silent_for=round(silent_for, 4),
                    threshold_pps=threshold,
                )
                return

    def _check_convergence(self) -> None:
        server = getattr(self.bed, "policy_server", None)
        if server is None:
            return
        if getattr(server, "_awaiting_ack", None):
            return  # pushes in flight — convergence not yet due
        if any(injector.active for injector in armed_injectors(self.bed)):
            return  # an active fault legitimately suspends convergence
        for host_name, outcome in getattr(server, "_push_state", {}).items():
            if outcome.status != ACKED:
                continue
            agent = server.agent_for(host_name)
            if agent is None or agent.crashed:
                continue  # a dead agent is not a "live host"
            # Compare against the server's registered ruleset object, not
            # its name: the server-side registration name may be
            # namespaced (e.g. ``client:vpg-client``) while the ruleset
            # keeps its own name on the card.
            try:
                expected = server.policy(outcome.policy)
            except KeyError:
                expected = None
            policy = getattr(agent.nic, "policy", None)
            if policy is not expected:
                self._violate(
                    "policy-convergence",
                    host_name,
                    expected=outcome.policy,
                    installed=getattr(policy, "name", None),
                )
