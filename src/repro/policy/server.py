"""The central policy server.

The distributed-firewall model (Bellovin) defines policy centrally and
enforces it at the end points; the EFW ships a Windows policy server that
pushes rule-sets to the NIC agents.  This model reproduces that control
plane:

* named policies (rule-sets) defined centrally,
* per-host assignment and push, with the push carried as real UDP
  traffic over the simulated network (so a flooded card can also miss
  policy updates — an operational hazard the paper's lockup observation
  hints at),
* VPG key distribution via :class:`~repro.crypto.keys.VpgKeyStore`,
* an audit trail of every action.

For unit tests and simple experiments, ``push_policy(..., inline=True)``
installs the policy directly without the network round trip.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.keys import VpgKeyStore
from repro.firewall.ruleset import RuleSet
from repro.policy.audit import AuditEventKind, AuditLog
from repro.policy.groups import VpgGroup, VpgGroupManager
from repro.policy.push import (
    ACKED,
    FAILED,
    HostPushOutcome,
    PushBackoff,
    PushReport,
)
from repro.sim.timer import PeriodicTimer, Timer

from repro.policy_ports import AGENT_PORT, HEARTBEAT_PORT  # noqa: F401  (re-export)

#: Approximate encoding size of one rule in the push protocol (bytes).
RULE_WIRE_SIZE = 32


class PolicyServer:
    """Central policy definition and distribution.

    Parameters
    ----------
    host:
        The :class:`~repro.host.Host` the server runs on (the testbed's
        dedicated policy-server machine).
    """

    profile_category = "policy.server"

    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self.audit = AuditLog()
        self.key_store = VpgKeyStore()
        self.vpg_manager = VpgGroupManager()
        self._policies: Dict[str, RuleSet] = {}
        self._assignments: Dict[str, str] = {}  # host name -> policy name
        self._agents: Dict[str, "NicAgent"] = {}
        self.pushes_sent = 0
        self.pushes_acked = 0
        self.pushes_retried = 0
        self.pushes_failed = 0
        #: host name -> ack-timeout timer for an in-flight networked push.
        self._awaiting_ack: Dict[str, Timer] = {}
        #: host name -> the live outcome record of its most recent push.
        self._push_state: Dict[str, HostPushOutcome] = {}
        # Heartbeat monitoring.
        self._heartbeat_socket = None
        self._heartbeat_timer: Optional[PeriodicTimer] = None
        self._heartbeat_grace = 0.0
        self._recovery_beats = 2
        self._last_heartbeat: Dict[str, float] = {}
        self._silent: Dict[str, bool] = {}
        #: host name -> heartbeats heard since the current silence began.
        self._beats_in_silence: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Policy definition
    # ------------------------------------------------------------------

    def define_policy(self, name: str, ruleset: RuleSet) -> None:
        """Register (or replace) a named policy."""
        self._policies[name] = ruleset
        self.audit.record(
            self.sim.now,
            AuditEventKind.POLICY_DEFINED,
            name,
            rules=ruleset.table_size,
        )

    def policy(self, name: str) -> RuleSet:
        """Look up a policy by name."""
        if name not in self._policies:
            raise KeyError(f"no policy named {name!r}")
        return self._policies[name]

    def assignment_for(self, host_name: str) -> str:
        """The name of the policy currently assigned to ``host_name``."""
        policy_name = self._assignments.get(host_name)
        if policy_name is None:
            raise KeyError(f"host {host_name!r} has no assigned policy")
        return policy_name

    # ------------------------------------------------------------------
    # Agents
    # ------------------------------------------------------------------

    def register_agent(self, agent: "NicAgent") -> None:
        """Register a NIC agent for policy distribution."""
        self._agents[agent.host.name] = agent

    def assign(self, host_name: str, policy_name: str) -> None:
        """Assign a policy to a host (pushed by :meth:`push_policy`)."""
        if policy_name not in self._policies:
            raise KeyError(f"no policy named {policy_name!r}")
        self._assignments[host_name] = policy_name
        self.audit.record(
            self.sim.now,
            AuditEventKind.POLICY_ASSIGNED,
            host_name,
            policy=policy_name,
        )

    def push_policy(
        self,
        host_name: str,
        inline: bool = False,
        retries: int = 0,
        ack_timeout: Optional[float] = None,
        backoff: Optional[PushBackoff] = None,
    ) -> HostPushOutcome:
        """Push the assigned policy to a host's NIC agent.

        With ``inline=True`` the rule-set is installed synchronously;
        otherwise the push travels as UDP traffic over the simulated
        network and the agent installs it on receipt.

        ``retries`` with an ``ack_timeout`` or ``backoff`` make networked
        pushes reliable: if no confirmation arrives within the scheduled
        wait the datagram is resent (audited as ``PUSH_RETRIED``), up to
        ``retries`` times; exhausting them — or hitting the backoff's
        ``max_elapsed`` cutoff — audits ``PUSH_FAILED`` and counts in
        :attr:`pushes_failed`.  A flooded NIC dropping the push is
        exactly the fleet-scale failure this covers.

        Every retry chain runs through one
        :class:`~repro.policy.push.PushBackoff`.  Passing ``backoff``
        gets jittered exponential waits (jitter drawn from the host's
        seeded RNG, so retry times are deterministic per seed) and the
        ``max_elapsed`` cutoff that keeps a dead host from stalling a
        fleet-wide round; a bare ``ack_timeout`` is the degenerate fixed
        schedule (resend every ``ack_timeout`` seconds), timing-identical
        to the historical behaviour.  The defaults (``retries=0`` and no
        timeout) preserve fire-and-forget.

        Returns the live :class:`~repro.policy.push.HostPushOutcome`,
        which the server updates in place as the push resolves (its
        ``backoff_s`` records the waits actually armed).
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retries > 0 and ack_timeout is None and backoff is None:
            raise ValueError("retries require an ack_timeout or a backoff")
        policy_name = self._assignments.get(host_name)
        if policy_name is None:
            raise KeyError(f"host {host_name!r} has no assigned policy")
        agent = self._agents.get(host_name)
        if agent is None:
            raise KeyError(f"host {host_name!r} has no registered agent")
        ruleset = self._policies[policy_name]
        self.pushes_sent += 1
        outcome = HostPushOutcome(
            host=host_name,
            policy=policy_name,
            transport="inline" if inline else "udp",
            sent_at=self.sim.now,
        )
        self._push_state[host_name] = outcome
        if inline:
            if agent.crashed:
                # A dead agent process cannot install anything; the
                # inline shortcut fails the same way a networked push
                # to a crashed agent would (just without the timeout).
                self._fail_push(host_name, policy_name, "agent-crashed")
                return outcome
            agent.install(ruleset, self.key_store)
            outcome.status = ACKED
            outcome.acked_at = self.sim.now
            self.pushes_acked += 1
            self.audit.record(
                self.sim.now,
                AuditEventKind.POLICY_PUSHED,
                host_name,
                policy=policy_name,
                transport="inline",
            )
            return outcome
        agent.expect_push(policy_name, ruleset, self.key_store, self)
        self._send_push_datagram(agent, policy_name, ruleset)
        schedule = backoff
        if schedule is None and ack_timeout is not None:
            schedule = PushBackoff(base=ack_timeout, multiplier=1.0, jitter=0.0)
        if schedule is not None:
            self._arm_ack_timeout(
                host_name, policy_name, retries, schedule,
                attempt=0, first_sent_at=self.sim.now,
            )
        return outcome

    def push_outcome(self, host_name: str) -> Optional[HostPushOutcome]:
        """The outcome record of the host's most recent push, if any."""
        return self._push_state.get(host_name)

    def _send_push_datagram(self, agent: "NicAgent", policy_name: str, ruleset: RuleSet) -> None:
        payload_size = 16 + RULE_WIRE_SIZE * ruleset.table_size
        socket = self.host.udp.bind(0)
        socket.send(
            agent.host.ip,
            AGENT_PORT,
            size=payload_size,
            data=policy_name.encode("ascii"),
        )
        socket.close()

    def _backoff_rng(self, host_name: str):
        """Deterministic jitter stream for one host's retry chain."""
        return self.host.rng.stream(f"push-backoff:{host_name}")

    def _arm_ack_timeout(
        self,
        host_name: str,
        policy_name: str,
        retries_left: int,
        schedule: PushBackoff,
        attempt: int,
        first_sent_at: float,
    ) -> None:
        stale = self._awaiting_ack.pop(host_name, None)
        if stale is not None:
            stale.close()
        rng = self._backoff_rng(host_name) if schedule.jitter > 0.0 else None
        delay = schedule.delay(attempt, rng)
        outcome = self._push_state.get(host_name)
        if outcome is not None and outcome.policy == policy_name:
            outcome.backoff_s.append(delay)
        timer = Timer(
            self.sim, self._push_timed_out,
            host_name, policy_name, retries_left, schedule, attempt, first_sent_at,
        )
        timer.start(delay)
        self._awaiting_ack[host_name] = timer

    def _fail_push(self, host_name: str, policy_name: str, reason: str) -> None:
        self.pushes_failed += 1
        outcome = self._push_state.get(host_name)
        if outcome is not None and outcome.policy == policy_name:
            outcome.status = FAILED
            outcome.failed_at = self.sim.now
        self.audit.record(
            self.sim.now,
            AuditEventKind.PUSH_FAILED,
            host_name,
            policy=policy_name,
            reason=reason,
        )

    def _push_timed_out(
        self,
        host_name: str,
        policy_name: str,
        retries_left: int,
        schedule: PushBackoff,
        attempt: int,
        first_sent_at: float,
    ) -> None:
        self._awaiting_ack.pop(host_name, None)
        if retries_left <= 0:
            self._fail_push(host_name, policy_name, "retries-exhausted")
            return
        if schedule.max_elapsed is not None:
            # Cutoff test uses the un-jittered nominal next wait, so the
            # give-up decision never consumes RNG state (the trajectory
            # of a chain that fails early stays comparable to one that
            # runs long).
            elapsed = self.sim.now - first_sent_at
            next_nominal = schedule.base * schedule.multiplier ** (attempt + 1)
            if elapsed + next_nominal > schedule.max_elapsed:
                self._fail_push(host_name, policy_name, "max-elapsed")
                return
        outcome = self._push_state.get(host_name)
        self.pushes_retried += 1
        if outcome is not None and outcome.policy == policy_name:
            outcome.attempts += 1
        self.audit.record(
            self.sim.now,
            AuditEventKind.PUSH_RETRIED,
            host_name,
            policy=policy_name,
            retries_left=retries_left,
        )
        agent = self._agents[host_name]
        ruleset = self._policies[policy_name]
        self.pushes_sent += 1
        agent.expect_push(policy_name, ruleset, self.key_store, self)
        self._send_push_datagram(agent, policy_name, ruleset)
        self._arm_ack_timeout(
            host_name, policy_name, retries_left - 1, schedule,
            attempt=attempt + 1, first_sent_at=first_sent_at,
        )

    def push_all(
        self,
        inline: bool = False,
        retries: int = 0,
        ack_timeout: Optional[float] = None,
        backoff: Optional[PushBackoff] = None,
    ) -> PushReport:
        """Push every assigned policy; returns the round's live report."""
        report = PushReport()
        for host_name in list(self._assignments):
            report.add(
                self.push_policy(
                    host_name, inline=inline, retries=retries,
                    ack_timeout=ack_timeout, backoff=backoff,
                )
            )
        return report

    def push_confirmed(self, host_name: str, policy_name: str) -> None:
        """Called by the agent when a networked push is installed."""
        pending = self._awaiting_ack.pop(host_name, None)
        if pending is not None:
            pending.close()
        outcome = self._push_state.get(host_name)
        if outcome is not None and outcome.policy == policy_name:
            outcome.status = ACKED
            outcome.acked_at = self.sim.now
        self.pushes_acked += 1
        self.audit.record(
            self.sim.now,
            AuditEventKind.POLICY_PUSHED,
            host_name,
            policy=policy_name,
            transport="udp",
        )

    # ------------------------------------------------------------------
    # VPG administration
    # ------------------------------------------------------------------

    def create_vpg_group(self, name: str, protocol=None, port=None) -> VpgGroup:
        """Create a VPG centrally (audited); keys derive on first use."""
        group = self.vpg_manager.create_group(name, protocol=protocol, port=port)
        self.audit.record(
            self.sim.now, AuditEventKind.VPG_CREATED, name, vpg_id=group.vpg_id
        )
        return group

    def add_vpg_member(self, group: VpgGroup, member_ip) -> None:
        """Enroll a host in a VPG (audited)."""
        self.vpg_manager.add_member(group, member_ip)
        self.audit.record(
            self.sim.now,
            AuditEventKind.VPG_MEMBER_ADDED,
            group.name,
            member=str(member_ip),
        )

    # ------------------------------------------------------------------
    # Agent liveness (heartbeats)
    # ------------------------------------------------------------------

    def enable_heartbeat_monitor(
        self,
        check_interval: float = 1.0,
        grace: float = 2.5,
        recovery_beats: int = 2,
    ) -> None:
        """Listen for agent heartbeats and audit hosts that fall silent.

        A wedged EFW cannot transmit (its processor is the egress path),
        so its heartbeats stop — the central server notices the lockup
        the paper's operators had to discover by hand.

        Silence is tracked as an *episode*: a host transitions to silent
        when its last heartbeat falls outside ``grace`` (audited once as
        ``HEARTBEAT_MISSED``), and back to healthy only after
        ``recovery_beats`` heartbeats have arrived since the episode
        began *and* the latest one is inside the grace window (audited as
        ``HEARTBEAT_RESTORED``).  Requiring more than one beat keeps a
        single stale datagram — e.g. one beacon that was queued behind a
        wedge and drains on restart — from flapping the host healthy and
        re-firing ``HEARTBEAT_MISSED`` for the same outage.
        """
        if self._heartbeat_socket is not None:
            raise RuntimeError("heartbeat monitor already enabled")
        if recovery_beats < 1:
            raise ValueError(f"recovery_beats must be >= 1, got {recovery_beats}")
        self._heartbeat_grace = grace
        self._recovery_beats = recovery_beats
        self._heartbeat_socket = self.host.udp.bind(
            HEARTBEAT_PORT, self._heartbeat_received
        )
        # Every registered agent is expected to report from now on; an
        # agent that never manages a single heartbeat is just as silent
        # as one that stopped.
        for host_name in self._agents:
            self._last_heartbeat.setdefault(host_name, self.sim.now)
        self._heartbeat_timer = PeriodicTimer(self.sim, check_interval, self._check_heartbeats)
        self._heartbeat_timer.start()

    def agent_is_silent(self, host_name: str) -> bool:
        """True if the host's agent missed its heartbeat window."""
        return self._silent.get(host_name, False)

    def agent_crashed(self, host_name: str) -> bool:
        """True while the host's agent process is dead (chaos fault)."""
        agent = self._agents.get(host_name)
        return agent is not None and agent.crashed

    def agent_for(self, host_name: str) -> Optional["NicAgent"]:
        """The host's registered agent, or None."""
        return self._agents.get(host_name)

    def restart_agent(self, host_name: str, repush: bool = True) -> None:
        """Restart a host's NIC agent (the EFW lockup recovery), audited.

        A restart wipes the card's installed rule-set (the paper's
        recovery restores *functionality*, not policy), so by default the
        server immediately re-pushes the host's assigned policy —
        leaving it unprotected is almost never what an operator wants.

        Also resets the host's heartbeat bookkeeping: the restart is an
        explicit liveness assertion, so the monitor should neither fire a
        spurious ``HEARTBEAT_MISSED`` for beacons lost during the wedge
        nor demand a full recovery streak before clearing the episode —
        if the card is genuinely back, the next in-grace check restores
        it; if it wedges again, silence re-fires normally.
        """
        agent = self._agents.get(host_name)
        if agent is None:
            raise KeyError(f"host {host_name!r} has no registered agent")
        agent.restart()
        self.audit.record(self.sim.now, AuditEventKind.AGENT_RESTARTED, host_name)
        if self._heartbeat_socket is not None:
            self._last_heartbeat[host_name] = self.sim.now
            if self._silent.get(host_name, False):
                self._beats_in_silence[host_name] = self._recovery_beats
        if repush and host_name in self._assignments:
            self.push_policy(host_name, inline=True)

    def _heartbeat_received(self, src_ip, src_port, size, data) -> None:
        host_name = data.decode("ascii", errors="replace")
        self._last_heartbeat[host_name] = self.sim.now
        if self._silent.get(host_name, False):
            self._beats_in_silence[host_name] = (
                self._beats_in_silence.get(host_name, 0) + 1
            )

    def _check_heartbeats(self) -> None:
        # The periodic check owns both transitions; the receive path only
        # records evidence.  That makes "exactly one MISSED per episode"
        # a structural property rather than a timing accident.
        now = self.sim.now
        grace = self._heartbeat_grace
        for host_name, last_seen in self._last_heartbeat.items():
            stale = (now - last_seen) > grace
            if not self._silent.get(host_name, False):
                if stale:
                    self._silent[host_name] = True
                    self._beats_in_silence[host_name] = 0
                    self.audit.record(
                        now,
                        AuditEventKind.HEARTBEAT_MISSED,
                        host_name,
                        last_seen=round(last_seen, 6),
                    )
            elif not stale and (
                self._beats_in_silence.get(host_name, 0) >= self._recovery_beats
            ):
                self._silent[host_name] = False
                self._beats_in_silence[host_name] = 0
                self.audit.record(
                    now,
                    AuditEventKind.HEARTBEAT_RESTORED,
                    host_name,
                    last_seen=round(last_seen, 6),
                )


class NicAgent:
    """The host-side firewall agent that manages the NIC.

    Listens for policy pushes on :data:`AGENT_PORT` and installs received
    rule-sets into the NIC.  Also exposes the agent-restart operation —
    the recovery path for the EFW lockup.
    """

    profile_category = "policy.agent"

    def __init__(self, host, nic):
        self.host = host
        self.nic = nic
        self._pending: Dict[str, tuple] = {}
        self.installs = 0
        self._socket = host.udp.bind(AGENT_PORT, self._push_received)
        self._heartbeat_timer: Optional[PeriodicTimer] = None
        self.heartbeats_sent = 0
        #: True while the agent process is dead (chaos AgentCrash): no
        #: heartbeats, no push handling, until :meth:`restart`.
        self.crashed = False
        self.crashes = 0
        #: Remembered ``start_heartbeat`` arguments so a restart can
        #: resume the beacons a crash silenced.
        self._heartbeat_params: Optional[tuple] = None

    def expect_push(self, policy_name: str, ruleset: RuleSet, key_store: VpgKeyStore, server: PolicyServer) -> None:
        """Stage a policy the server is about to push over the network.

        (The real protocol carries the full encoded rule-set; carrying
        the object out-of-band with an on-wire payload of the same size
        keeps the traffic model honest without a codec.)
        """
        self._pending[policy_name] = (ruleset, key_store, server)

    def install(self, ruleset: RuleSet, key_store: Optional[VpgKeyStore] = None) -> None:
        """Install a rule-set into the NIC immediately."""
        self.nic.install_policy(ruleset, key_store=key_store)
        self.installs += 1

    def crash(self) -> None:
        """Kill the agent process (the chaos ``AgentCrash`` fault).

        Unlike the EFW deny-flood lockup — a *firmware* wedge that stops
        the whole card — a crashed agent leaves the NIC enforcing its
        installed policy but loses the host-side software: heartbeats
        stop, networked pushes are never installed or acked, and inline
        pushes fail.  Idempotent; :meth:`restart` recovers.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.stop()
            self._heartbeat_timer = None

    def restart(self) -> None:
        """Restart the agent (recovers a wedged EFW or a crashed agent)."""
        self.nic.restart_agent()
        if self.crashed:
            self.crashed = False
            if self._heartbeat_params is not None and self._heartbeat_timer is None:
                server_ip, interval = self._heartbeat_params
                self._heartbeat_params = None
                self.start_heartbeat(server_ip, interval)

    def start_heartbeat(self, server_ip, interval: float = 1.0) -> None:
        """Send periodic liveness beacons to the policy server.

        The beacons traverse the NIC like any other traffic, so a wedged
        card silences them — which is exactly what makes them useful.
        """
        if self._heartbeat_timer is not None:
            raise RuntimeError("heartbeat already started")
        self._heartbeat_params = (server_ip, interval)

        def beat() -> None:
            self.heartbeats_sent += 1
            self._socket.send(
                server_ip,
                HEARTBEAT_PORT,
                size=16 + len(self.host.name),
                data=self.host.name.encode("ascii"),
            )

        self._heartbeat_timer = PeriodicTimer(self.host.sim, interval, beat)
        self._heartbeat_timer.start(initial_delay=0.0)

    def stop_heartbeat(self) -> None:
        """Stop sending liveness beacons.  Idempotent."""
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.stop()
            self._heartbeat_timer = None
        self._heartbeat_params = None

    def _push_received(self, src_ip, src_port, size, data) -> None:
        if self.crashed:
            # The datagram reaches the host, but nobody is listening.
            return
        policy_name = data.decode("ascii", errors="replace")
        staged = self._pending.pop(policy_name, None)
        if staged is None:
            return
        ruleset, key_store, server = staged
        self.install(ruleset, key_store)
        server.push_confirmed(self.host.name, policy_name)
