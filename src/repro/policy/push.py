"""Typed per-host policy-push accounting.

The policy server used to expose push outcomes only as four aggregate
counters (``pushes_sent``/``acked``/``retried``/``failed``), which was
enough for the fleet experiments' summary tables but useless for anything
that needs to know *which* host's push is still outstanding — the
mitigation controller re-pushing a deny rule to a flooded card being the
motivating consumer.

:class:`HostPushOutcome` is the per-host record: one object per push
round, updated live by the server as the datagram is retried, confirmed,
or given up on.  :class:`PushReport` bundles one round of
:meth:`~repro.policy.server.PolicyServer.push_all` (or a set of
individual pushes) and derives the aggregates from the records, so the
counters and the report can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Push lifecycle states.
PENDING = "pending"
ACKED = "acked"
FAILED = "failed"


@dataclass(frozen=True)
class PushBackoff:
    """Retry schedule for networked policy pushes.

    Every push retry chain runs through one of these: attempt *k*
    (0-based) waits ``base * multiplier**k`` seconds, stretched by a
    deterministic jitter of up to ``±jitter`` (a fraction, drawn from
    the simulation's seeded RNG so identical seeds retry at identical
    times).  ``max_elapsed`` is the hard cutoff: when the *next* wait
    would take the chain past that many seconds since the first send,
    the push fails immediately instead — a dead host can stall its own
    chain, never a fleet-wide round.

    The legacy fixed schedule (resend every ``ack_timeout`` seconds) is
    the degenerate ``PushBackoff(base=ack_timeout, multiplier=1.0,
    jitter=0.0)``, which is what the server uses when no backoff is
    given — byte-identical timing to the historical behaviour.
    """

    base: float
    multiplier: float = 2.0
    jitter: float = 0.1
    max_elapsed: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"base must be positive, got {self.base}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be within [0, 1), got {self.jitter}")
        if self.max_elapsed is not None and self.max_elapsed <= 0:
            raise ValueError(f"max_elapsed must be positive, got {self.max_elapsed}")

    def delay(self, attempt: int, rng=None) -> float:
        """The wait before resend ``attempt`` (0-based), jitter applied."""
        delay = self.base * self.multiplier**attempt
        if self.jitter > 0.0:
            if rng is None:
                raise ValueError("jittered backoff needs a deterministic rng")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def worst_case_elapsed(self, retries: int) -> float:
        """Upper bound on the chain's total wait for ``retries`` resends.

        Fleet drivers size their "run until every push settles" deadline
        from this; ``max_elapsed`` caps it when configured.
        """
        total = 0.0
        for attempt in range(retries + 1):
            total += self.base * self.multiplier**attempt * (1.0 + self.jitter)
            if self.max_elapsed is not None and total >= self.max_elapsed:
                return self.max_elapsed
        return total


@dataclass
class HostPushOutcome:
    """The live record of one host's most recent policy push.

    The server mutates this object in place as the push progresses, so a
    caller holding the return value of
    :meth:`~repro.policy.server.PolicyServer.push_policy` can watch the
    ack land without polling the audit log.
    """

    host: str
    policy: str
    #: ``"inline"`` (synchronous install) or ``"udp"`` (networked push).
    transport: str
    sent_at: float
    status: str = PENDING
    #: Datagrams sent for this push: 1 + retries so far.
    attempts: int = 1
    acked_at: Optional[float] = None
    failed_at: Optional[float] = None
    #: The backoff trajectory: each armed resend wait, in order (the
    #: jittered values actually used, not the nominal schedule).
    backoff_s: List[float] = field(default_factory=list)

    @property
    def latency(self) -> Optional[float]:
        """Virtual seconds from first send to ack; ``None`` until acked."""
        if self.acked_at is None:
            return None
        return self.acked_at - self.sent_at

    @property
    def acked(self) -> bool:
        return self.status == ACKED

    @property
    def failed(self) -> bool:
        return self.status == FAILED


@dataclass
class PushReport:
    """One round of policy distribution, per host.

    Aggregates are derived from the outcome records on access, so they
    stay correct while in-flight pushes resolve.
    """

    outcomes: Dict[str, HostPushOutcome] = field(default_factory=dict)

    def add(self, outcome: HostPushOutcome) -> None:
        """Record one host's outcome (later rounds replace earlier)."""
        self.outcomes[outcome.host] = outcome

    def outcome_for(self, host: str) -> HostPushOutcome:
        """The outcome for ``host`` (KeyError if it was not pushed to)."""
        return self.outcomes[host]

    # -- aggregates ----------------------------------------------------

    @property
    def hosts(self) -> List[str]:
        """Hosts covered by this round, in push order."""
        return list(self.outcomes)

    @property
    def acked(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome.status == ACKED)

    @property
    def pending(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome.status == PENDING)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome.status == FAILED)

    @property
    def retried(self) -> int:
        """Total resends across all hosts (attempts beyond the first)."""
        return sum(outcome.attempts - 1 for outcome in self.outcomes.values())

    @property
    def all_acked(self) -> bool:
        outcomes = self.outcomes
        return bool(outcomes) and all(
            outcome.status == ACKED for outcome in outcomes.values()
        )

    @property
    def max_latency(self) -> Optional[float]:
        """Slowest confirmed push this round; ``None`` if nothing acked."""
        latencies = [
            outcome.latency
            for outcome in self.outcomes.values()
            if outcome.latency is not None
        ]
        return max(latencies) if latencies else None

    def failed_hosts(self) -> List[str]:
        """Hosts whose push exhausted its retries."""
        return [
            host
            for host, outcome in self.outcomes.items()
            if outcome.status == FAILED
        ]

    def backoff_trajectory(self) -> Dict[str, List[float]]:
        """Per-host resend waits actually armed this round.

        Hosts acked on the first datagram map to an empty list; a host
        that burned its whole chain shows every jittered wait in order.
        """
        return {
            host: list(outcome.backoff_s)
            for host, outcome in self.outcomes.items()
        }
