"""Ordered rule-sets with first-match semantics.

The evaluation result carries ``rules_traversed`` — the number of
rule-table entries examined up to and including the matching rule — which
is exactly the quantity the paper's cost model depends on ("when we refer
to rule-set length (or depth) we are technically referring to the number
of rules up to and including the action rule").

Uncached evaluations run through the **compiled classifier**
(:mod:`repro.firewall.compiled`), a field-indexed structure that returns
the verdict and the *charged* ``rules_traversed`` without the per-packet
rule loop.  The **linear reference matcher**
(:meth:`RuleSet.evaluate_linear`) is the straight first-match walk the
real cards perform; it is not on the runtime path, and the equivalence
tests check every compiled lookup against it.

Mutation goes through one place: :meth:`RuleSet.mutate` opens a
:class:`RuleSetMutation` batch whose commit bumps the rule-set version
and invalidates both the flow cache and the compiled classifier.  (The
deprecated single-shot ``append``/``insert``/``remove`` wrappers have
been removed after their one-release grace period.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.firewall.compiled import ClassifierStats, CompiledClassifier
from repro.firewall.rules import Action, Direction, Rule, VpgRule
from repro.net.packet import Ipv4Packet, TcpSegment, UdpDatagram
from repro.obs.profiling import core as _profiling


@dataclass(frozen=True)
class MatchResult:
    """Outcome of evaluating a packet against a rule-set."""

    action: Action
    #: Rule-table entries examined, including the matching rule (VPG rules
    #: count as 2 entries).  Equals the full table size when the default
    #: action applied.
    rules_traversed: int
    #: The matching rule, or None when the default action applied.
    rule: Optional[Rule]
    #: True when the match was a VPG rule (crypto applies).
    is_vpg: bool = False
    #: True for an ALLOW verdict.  Derived from ``action`` once, at
    #: construction: results are built once per rule at compile time and
    #: read per packet.
    allowed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", self.action is Action.ALLOW)


class RuleSetMutation:
    """A batched edit of a rule-set's rules.

    Obtained from :meth:`RuleSet.mutate`; used as a context manager::

        with ruleset.mutate() as edit:
            edit.append(monitoring_rule)
            edit.insert(0, deny_attacker)

    Edits are staged on a private copy and committed atomically when the
    block exits cleanly — which is the **single** point where the flow
    cache and the compiled classifier are invalidated and the rule-set
    version advances.  An exception inside the block abandons the edit.
    """

    __slots__ = ("_ruleset", "_rules", "_committed")

    def __init__(self, ruleset: "RuleSet"):
        self._ruleset = ruleset
        self._rules: List[Rule] = list(ruleset._rules)
        self._committed = False

    # -- staged edits ---------------------------------------------------

    def append(self, rule: Rule) -> "RuleSetMutation":
        """Add a rule at the end (lowest priority before the default)."""
        self._rules.append(rule)
        return self

    def extend(self, rules: Iterable[Rule]) -> "RuleSetMutation":
        """Append several rules in order."""
        self._rules.extend(rules)
        return self

    def insert(self, index: int, rule: Rule) -> "RuleSetMutation":
        """Insert a rule at ``index`` (0 = highest priority)."""
        self._rules.insert(index, rule)
        return self

    def remove(self, rule: Rule) -> "RuleSetMutation":
        """Remove the first occurrence of ``rule``."""
        self._rules.remove(rule)
        return self

    def clear(self) -> "RuleSetMutation":
        """Drop every rule (the default action then decides everything)."""
        del self._rules[:]
        return self

    def replace(self, rules: Iterable[Rule]) -> "RuleSetMutation":
        """Replace the whole rule list."""
        self._rules = list(rules)
        return self

    # -- lifecycle ------------------------------------------------------

    def commit(self) -> None:
        """Apply the staged edits (idempotent; the context manager calls it)."""
        if self._committed:
            return
        self._committed = True
        self._ruleset._apply_mutation(self._rules)

    def __enter__(self) -> "RuleSetMutation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()


class RuleSet:
    """An ordered first-match rule-set with a default action.

    The EFW ships a default-deny posture once a policy is pushed; the
    experiments in the paper configure explicit action rules, so the
    default action is a constructor knob.
    """

    #: Bound on the per-rule-set flow cache (entries).
    FLOW_CACHE_LIMIT = 65536

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        default_action: Action = Action.DENY,
        name: str = "ruleset",
    ):
        self._rules: List[Rule] = list(rules)
        self.default_action = default_action
        self.name = name
        # Rule matching is a pure function of the packet's flow tuple and
        # direction, so results are memoised.  This is a simulation
        # optimisation, not a model feature: the real cards walk the table
        # for every packet, and the *cost* charged still reflects that
        # walk (rules_traversed is part of the cached result).
        #
        # The cache is a bounded LRU: dict insertion order doubles as the
        # recency order (hits are re-inserted, the front entry is the
        # coldest), so a randomized-source flood that fills the cache
        # evicts its own one-shot flows instead of locking out the
        # long-lived legitimate ones.
        self._flow_cache: dict = {}
        # Compiled fast path, built lazily on the first uncached
        # evaluation and dropped by _apply_mutation.
        self._compiled: Optional[CompiledClassifier] = None
        self._version = 0
        self.compiled_stats = ClassifierStats()
        #: Which engine answered the most recent evaluation: "cache" or
        #: "compiled".  One attribute store per lookup; the tracing layer
        #: reads it to annotate classify spans.
        self.last_engine: Optional[str] = None
        #: Flow-cache LRU evictions since construction.
        self.cache_evictions = 0
        #: Optional zero-argument callable invoked per eviction (the
        #: tracing layer installs one to detect cache thrash).
        self.trace_hook = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def mutate(self) -> RuleSetMutation:
        """Open a batched edit; see :class:`RuleSetMutation`."""
        return RuleSetMutation(self)

    def _apply_mutation(self, rules: List[Rule]) -> None:
        """Commit point for every mutation: swap rules, invalidate caches."""
        self._rules = rules
        self._version += 1
        self._flow_cache.clear()
        self._compiled = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumps once per committed batch)."""
        return self._version

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def rules(self) -> List[Rule]:
        """The rules, highest priority first (copy)."""
        return list(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    @property
    def table_size(self) -> int:
        """Total rule-table entries (VPG rules occupy two entries)."""
        return sum(rule.rule_cost for rule in self._rules)

    def depth_of(self, rule: Rule) -> int:
        """Entries traversed up to and including ``rule``."""
        depth = 0
        for candidate in self._rules:
            depth += candidate.rule_cost
            if candidate is rule:
                return depth
        raise ValueError("rule not in rule-set")

    @property
    def compiled_classifier(self) -> CompiledClassifier:
        """The compiled fast-path structure (built on demand).

        Exposed for the equivalence tests and tooling; normal evaluation
        goes through :meth:`evaluate` / :meth:`evaluate_encrypted`.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        return compiled

    def _compile(self) -> CompiledClassifier:
        """Build the compiled classifier with precomputed charged depths."""
        results: List[MatchResult] = []
        depth = 0
        for rule in self._rules:
            depth += rule.rule_cost
            results.append(
                MatchResult(
                    action=rule.action,
                    rules_traversed=depth,
                    rule=rule,
                    is_vpg=isinstance(rule, VpgRule),
                )
            )
        default_result = MatchResult(
            action=self.default_action,
            rules_traversed=max(depth, 1),
            rule=None,
        )
        self.compiled_stats.compiles += 1
        return CompiledClassifier(self._rules, results, default_result)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, packet: Ipv4Packet, direction: Direction) -> MatchResult:
        """First-match evaluation of a plaintext packet."""
        # Wall-clock profiling scope: rule evaluation runs synchronously
        # inside whatever event needed the verdict (a NIC service-time
        # computation, an iptables softirq), so it opens its own scope to
        # be attributed as "firewall.evaluate" rather than billed to the
        # caller.  Off costs one module-global read and two branches.
        profiler = _profiling.ACTIVE
        if profiler is not None:
            profiler.enter("firewall.evaluate")
        try:
            # Ipv4Packet.flow, inline: this runs once per classified packet.
            payload = packet.payload
            if type(payload) is TcpSegment or type(payload) is UdpDatagram:
                flow = (packet.protocol, packet.src, payload.src_port, packet.dst, payload.dst_port)
            else:
                flow = (packet.protocol, packet.src, 0, packet.dst, 0)
            cache_key = (flow, direction)
            cache = self._flow_cache
            cached = cache.pop(cache_key, None)
            if cached is not None:
                cache[cache_key] = cached  # re-insert at the MRU end
                self.last_engine = "cache"
                return cached
            result = self.compiled_classifier.lookup(flow, direction)
            self.compiled_stats.hits += 1
            self.last_engine = "compiled"
            self._cache_store(cache_key, result)
            return result
        finally:
            if profiler is not None:
                profiler.exit()

    def _cache_store(self, cache_key, result: MatchResult) -> None:
        """Insert into the flow cache, evicting the LRU entry when full."""
        limit = self.FLOW_CACHE_LIMIT
        if limit <= 0:
            return
        cache = self._flow_cache
        if len(cache) >= limit:
            del cache[next(iter(cache))]
            self.cache_evictions += 1
            hook = self.trace_hook
            if hook is not None:
                hook()
        cache[cache_key] = result

    def evaluate_linear(self, packet: Ipv4Packet, direction: Direction) -> MatchResult:
        """The linear reference matcher (uncached, compiled path bypassed).

        This is the walk the real cards perform and the ground truth the
        compiled classifier is differentially tested against.
        """
        traversed = 0
        for rule in self._rules:
            traversed += rule.rule_cost
            if rule.matches(packet, direction):
                return MatchResult(
                    action=rule.action,
                    rules_traversed=traversed,
                    rule=rule,
                    is_vpg=isinstance(rule, VpgRule),
                )
        return MatchResult(
            action=self.default_action,
            rules_traversed=max(traversed, 1),
            rule=None,
        )

    def evaluate_encrypted(self, spi: int) -> MatchResult:
        """First-match evaluation of an encrypted VPG packet by SPI.

        Non-VPG rules are traversed (they cost table entries) but cannot
        match an encrypted packet; this is the *lazy decryption* behaviour
        the paper observed — packets are not decrypted until they reach
        the matching VPG rule.
        """
        profiler = _profiling.ACTIVE
        if profiler is not None:
            profiler.enter("firewall.evaluate")
        try:
            cache_key = ("spi", spi)
            cache = self._flow_cache
            cached = cache.pop(cache_key, None)
            if cached is not None:
                cache[cache_key] = cached  # re-insert at the MRU end
                self.last_engine = "cache"
                return cached
            result = self.compiled_classifier.lookup_encrypted(spi)
            self.compiled_stats.hits += 1
            self.last_engine = "compiled"
            self._cache_store(cache_key, result)
            return result
        finally:
            if profiler is not None:
                profiler.exit()

    def evaluate_encrypted_linear(self, spi: int) -> MatchResult:
        """Linear reference walk for encrypted VPG packets (uncached)."""
        traversed = 0
        for rule in self._rules:
            traversed += rule.rule_cost
            if isinstance(rule, VpgRule) and rule.matches_encrypted(spi):
                return MatchResult(
                    action=rule.action,
                    rules_traversed=traversed,
                    rule=rule,
                    is_vpg=True,
                )
        return MatchResult(
            action=self.default_action,
            rules_traversed=max(traversed, 1),
            rule=None,
        )

    def find_vpg_for_packet(self, packet: Ipv4Packet) -> Optional[MatchResult]:
        """Egress-side lookup: does a VPG rule protect this plaintext flow?

        Returns the match for the *first* rule that matches the packet if
        that rule is a VPG rule; otherwise None (the packet is handled by
        plain filtering).
        """
        result = self.evaluate(packet, Direction.OUTBOUND)
        if result.is_vpg:
            return result
        return None

    def describe(self) -> str:
        """Multi-line listing."""
        lines = [f"RuleSet {self.name!r} (default {self.default_action.value}):"]
        for index, rule in enumerate(self._rules, start=1):
            lines.append(f"  {index:3d}. {rule.describe()}")
        return "\n".join(lines)
