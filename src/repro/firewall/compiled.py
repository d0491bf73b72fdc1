"""Compiled rule-set classification: the O(1) verdict fast path.

Every experiment in the paper hammers first-match evaluation of a
rule-set against every simulated packet, and at depth 64 the per-rule
Python loop dominates the sweep's wall-clock.  This module compiles a
rule list into a field-indexed decision structure so a verdict — and,
crucially, the *charged* ``rules_traversed`` count the NIC cost models
bill for — is computed without walking the rules per packet:

* **Hash dispatch on protocol and direction** — rules are bucketed per
  evaluation direction and per concrete IP protocol (with wildcard-
  protocol rules compiled into shared fallback buckets), so a lookup
  only ever touches candidates that could match the packet.
* **Tuple-space search over prefix/port shapes** — within a bucket,
  rules are grouped by their mask *shape* (source/destination prefix
  lengths plus whether each port range is exact or wildcard).  A lookup
  masks the packet's fields once per shape and probes a dict; the number
  of probes is the number of distinct shapes, not the number of rules
  (the paper's padded rule-sets have two or three shapes at any depth).
* **Interval residue** — rules with genuine port *ranges* (not a single
  port, not the full range) cannot be hashed; they land in a small
  ordered residual list that is scanned linearly.  Experiment rule-sets
  have none, so the residue is empty on the hot path.
* **SPI table** — encrypted VPG lookups (:meth:`lookup_encrypted`)
  resolve through a plain ``{spi: result}`` dict.

Charged-cost fidelity
---------------------

The compiled structure is *semantics-preserving* in the strong sense of
arXiv:1604.00206: for every packet it returns the same verdict, the same
matching :class:`~repro.firewall.rules.Rule` object, and the same
``rules_traversed`` count as the linear reference walk.  Each rule's
cumulative table depth (VPG rules cost two entries) is precomputed at
compile time into an immutable :class:`~repro.firewall.ruleset.MatchResult`;
first-match order is recovered by taking the minimum rule index over all
candidate hits.  The simulated per-rule cycle cost charged by the NIC
models is therefore bit-identical to the linear walk's.

The compiled classifier is the only runtime matcher.  The linear walk
(:meth:`~repro.firewall.ruleset.RuleSet.evaluate_linear`) stays as the
reference the equivalence tests compare every lookup against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.packet import IpProtocol

#: Protocols whose packets carry ports that rules check.
_PORTED_PROTOCOLS = (IpProtocol.TCP, IpProtocol.UDP)

#: Prefix-length -> 32-bit network mask.
_MASKS = tuple(((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF) if plen else 0 for plen in range(33))


class ClassifierStats:
    """Plain-int counters for one rule-set's classification traffic.

    Read by callback-backed :mod:`repro.obs` instruments (the NIC models
    and the iptables filter register them), so incrementing them is the
    only per-packet cost.
    """

    __slots__ = ("compiles", "hits")

    def __init__(self):
        #: Times a compiled structure was (re)built from the rules.
        self.compiles = 0
        #: Uncached evaluations answered by the compiled fast path.
        self.hits = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot for reports and debugging."""
        return {
            "compiles": self.compiles,
            "hits": self.hits,
        }


class _TupleSpace:
    """Rules of one (direction, protocol-family) bucket, grouped by shape.

    ``ported`` buckets key on ports as well as addresses; unported
    buckets (ICMP and friends, where rules ignore ports) key on
    addresses alone.
    """

    __slots__ = ("ported", "shapes", "residual")

    def __init__(self, ported: bool):
        self.ported = ported
        # shape -> {exact key -> (rule order, precomputed MatchResult)}
        self.shapes: Dict[tuple, Dict[tuple, tuple]] = {}
        # Ordered (order, result, src_pat, dst_pat, src_ports, dst_ports)
        # entries whose port ranges cannot be hashed.
        self.residual: List[tuple] = []

    def add(self, order: int, result, src_pat, dst_pat, src_ports, dst_ports) -> None:
        if self.ported:
            src_exact = self._port_mode(src_ports)
            dst_exact = self._port_mode(dst_ports)
            if src_exact is None or dst_exact is None:
                self.residual.append((order, result, src_pat, dst_pat, src_ports, dst_ports))
                self.residual.sort(key=lambda entry: entry[0])
                return
            shape = (src_pat.prefix_len, dst_pat.prefix_len, src_exact, dst_exact)
            key = [
                int(src_pat.network) & _MASKS[src_pat.prefix_len],
                int(dst_pat.network) & _MASKS[dst_pat.prefix_len],
            ]
            if src_exact:
                key.append(src_ports.low)
            if dst_exact:
                key.append(dst_ports.low)
        else:
            shape = (src_pat.prefix_len, dst_pat.prefix_len)
            key = [
                int(src_pat.network) & _MASKS[src_pat.prefix_len],
                int(dst_pat.network) & _MASKS[dst_pat.prefix_len],
            ]
        bucket = self.shapes.setdefault(shape, {})
        existing = bucket.get(tuple(key))
        if existing is None or order < existing[0]:
            bucket[tuple(key)] = (order, result)

    @staticmethod
    def _port_mode(ports) -> Optional[bool]:
        """True = exact port key, False = wildcard, None = unhashable range."""
        if ports.is_any:
            return False
        if ports.low == ports.high:
            return True
        return None

    def probe(self, src_int: int, src_port: int, dst_int: int, dst_port: int, best: tuple) -> tuple:
        """Best (order, result) considering this bucket's candidates."""
        if self.ported:
            for shape, bucket in self.shapes.items():
                src_plen, dst_plen, src_exact, dst_exact = shape
                key = [src_int & _MASKS[src_plen], dst_int & _MASKS[dst_plen]]
                if src_exact:
                    key.append(src_port)
                if dst_exact:
                    key.append(dst_port)
                hit = bucket.get(tuple(key))
                if hit is not None and hit[0] < best[0]:
                    best = hit
        else:
            for shape, bucket in self.shapes.items():
                src_plen, dst_plen = shape
                hit = bucket.get((src_int & _MASKS[src_plen], dst_int & _MASKS[dst_plen]))
                if hit is not None and hit[0] < best[0]:
                    best = hit
        for entry in self.residual:
            order = entry[0]
            if order >= best[0]:
                break  # residual is ordered; nothing later can win
            _order, result, src_pat, dst_pat, src_ports, dst_ports = entry
            if (
                (src_int & _MASKS[src_pat.prefix_len]) == (int(src_pat.network) & _MASKS[src_pat.prefix_len])
                and (dst_int & _MASKS[dst_pat.prefix_len]) == (int(dst_pat.network) & _MASKS[dst_pat.prefix_len])
                and (not self.ported or (src_ports.contains(src_port) and dst_ports.contains(dst_port)))
            ):
                best = (order, result)
        return best


class _DirectionTable:
    """All rules applicable to one evaluation direction, indexed by protocol."""

    __slots__ = ("proto_spaces", "wild_ported", "wild_unported")

    def __init__(self):
        self.proto_spaces: Dict[IpProtocol, _TupleSpace] = {}
        # Wildcard-protocol rules, compiled twice: once with port keys
        # (probed for TCP/UDP packets) and once without (probed for
        # everything else, where the linear matcher ignores ports).
        self.wild_ported = _TupleSpace(ported=True)
        self.wild_unported = _TupleSpace(ported=False)


class CompiledClassifier:
    """A rule list compiled for first-match lookup without the rule loop.

    Built by :class:`~repro.firewall.ruleset.RuleSet` (which owns the
    per-rule :class:`~repro.firewall.ruleset.MatchResult` objects carrying
    the cumulative charged depth) and discarded wholesale on any rule
    mutation — there is no incremental update path, by design: compile is
    O(rules) and mutations are rare next to lookups.
    """

    __slots__ = ("_rules", "_results", "_default_result", "_spi_table", "_tables")

    def __init__(self, rules: Sequence, results: Sequence, default_result) -> None:
        """``results[i]`` is the precomputed MatchResult for ``rules[i]``."""
        if len(rules) != len(results):
            raise ValueError("rules and results must be parallel sequences")
        self._rules = tuple(rules)
        self._results = tuple(results)
        self._default_result = default_result
        # First VPG rule wins per SPI, exactly as in the linear walk.
        spi_table: Dict[int, object] = {}
        for rule, result in zip(self._rules, self._results):
            vpg_id = getattr(rule, "vpg_id", None)
            if vpg_id is not None and vpg_id not in spi_table:
                spi_table[vpg_id] = result
        self._spi_table = spi_table
        # Direction tables are built lazily: most rule-sets are only ever
        # evaluated inbound, and Direction.BOTH-as-packet-direction is
        # legal but rare.
        self._tables: Dict[object, _DirectionTable] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _table_for(self, direction) -> _DirectionTable:
        table = self._tables.get(direction)
        if table is None:
            table = self._tables[direction] = self._compile_direction(direction)
        return table

    def _compile_direction(self, direction) -> _DirectionTable:
        table = _DirectionTable()
        for order, (rule, result) in enumerate(zip(self._rules, self._results)):
            if not rule.direction.covers(direction):
                continue
            orientations = [(rule.src, rule.dst, rule.src_ports, rule.dst_ports)]
            if rule.symmetric:
                # The mirrored endpoint pattern, matched at the same depth.
                orientations.append((rule.dst, rule.src, rule.dst_ports, rule.src_ports))
            for src_pat, dst_pat, src_ports, dst_ports in orientations:
                if rule.protocol is None:
                    table.wild_ported.add(order, result, src_pat, dst_pat, src_ports, dst_ports)
                    table.wild_unported.add(order, result, src_pat, dst_pat, src_ports, dst_ports)
                else:
                    ported = rule.protocol in _PORTED_PROTOCOLS
                    space = table.proto_spaces.get(rule.protocol)
                    if space is None:
                        space = table.proto_spaces[rule.protocol] = _TupleSpace(ported=ported)
                    space.add(order, result, src_pat, dst_pat, src_ports, dst_ports)
        return table

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, flow: Tuple, direction):
        """First-match result for a packet's 5-tuple travelling ``direction``.

        ``flow`` is :meth:`repro.net.packet.Ipv4Packet.flow` output —
        ``(protocol, src, src_port, dst, dst_port)``.
        """
        protocol, src, src_port, dst, dst_port = flow
        table = self._tables.get(direction)
        if table is None:
            table = self._table_for(direction)
        src_int = int(src)
        dst_int = int(dst)
        best = (len(self._rules), self._default_result)
        space = table.proto_spaces.get(protocol)
        if space is not None:
            best = space.probe(src_int, src_port, dst_int, dst_port, best)
        wild = table.wild_ported if protocol in _PORTED_PROTOCOLS else table.wild_unported
        if wild.shapes or wild.residual:
            best = wild.probe(src_int, src_port, dst_int, dst_port, best)
        return best[1]

    def lookup_encrypted(self, spi: int):
        """First-match result for an encrypted VPG packet, by SPI."""
        return self._spi_table.get(spi, self._default_result)

    # ------------------------------------------------------------------
    # Introspection (reports, tests)
    # ------------------------------------------------------------------

    @property
    def rule_count(self) -> int:
        """Rules compiled in."""
        return len(self._rules)

    def shape_count(self, direction) -> int:
        """Distinct mask shapes probed per lookup for ``direction``."""
        table = self._table_for(direction)
        spaces = [table.wild_ported, table.wild_unported]
        spaces.extend(table.proto_spaces.values())
        return sum(len(space.shapes) for space in spaces)
