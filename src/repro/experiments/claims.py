"""The paper's claims as one table, checked against result envelopes.

Each :class:`Claim` names an experiment, reads one number from its
deserialized JSON envelope (:func:`repro.experiments.results.read_json`)
and bounds it.  ``python -m repro.experiments.claims DIR`` evaluates
every row whose ``DIR/<id>.json`` exists and prints paper / reproduced /
tolerance / verdict per row; it exits 1 when a row fails that is not a
declared deviation, and 2 when DIR holds no envelope at all.

The rows are sized on the quick presets (``make quick-digests``).  A
"~x" paper value is read off the paper's plots or text and gets +/-20%.
A ``deviation`` is a row the reproduction is known to miss, with the
reason; it is reported, never skipped.  Sources quote DESIGN.md.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.core.reports import format_table
from repro.experiments.results import read_json
from repro.sim.units import MAX_FRAME_RATE_64B

Reader = Callable[[Any], float]

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One row: ``read(result)`` must meet every ``"op value"`` term of
    ``tolerance`` (comma-separated, e.g. ``"> 0.4, < 0.65"``)."""

    experiment: str
    claim: str
    paper: str
    read: Reader
    tolerance: str
    source: str
    deviation: Optional[str] = None

    def verdict(self, value: float) -> str:
        """``ok``, or ``deviation``/``FAIL`` (NaN fails every term)."""
        terms = (term.split() for term in self.tolerance.split(","))
        if all(_OPS[op](value, float(bound)) for op, bound in terms):
            return "ok"
        return "deviation" if self.deviation else "FAIL"


# -- readers over the deserialized envelopes -------------------------------


def _nan(value: Optional[float]) -> float:
    return math.nan if value is None else value


def _one(items: Sequence[Any], **match: Any) -> Any:
    [item] = [i for i in items if all(getattr(i, k) == v for k, v in match.items())]
    return item


def point(name: str, x: float, table: str = "series") -> Reader:
    """The value at grid point ``x`` of one ``[(x, value), ...]`` series."""
    return lambda r: dict(getattr(r, table)[name])[x]


def rate(name: str, depth: int, table: str = "series") -> Reader:
    """A minimum-flood search's rate (pps); NaN when unmeasurable."""
    return lambda r: _nan(dict(getattr(r, table)[name])[depth].rate_pps)


def ratio(a: Reader, b: Reader) -> Reader:
    return lambda r: a(r) / b(r)


def lowest(*readers: Reader) -> Reader:
    return lambda r: min(read(r) for read in readers)


def highest(*readers: Reader) -> Reader:
    return lambda r: max(read(r) for read in readers)


def _ablation(results: List[Any], name: str) -> Any:
    [result] = [a for a in results if a.name.startswith(name)]
    return result


def outcome(ablation: str, key: str) -> Reader:
    """One ablation outcome, both names by prefix (some keys carry the depth)."""
    def read(results: List[Any]) -> float:
        outcomes = _ablation(results, ablation).outcomes
        [value] = [v for k, v in outcomes.items() if k.startswith(key)]
        return value
    return read


def adf(depth: int, field: str = "fetches_per_second") -> Reader:
    return lambda r: getattr(_one(r.adf_standard, rule_depth=depth), field)


def vpgs(count: int) -> Reader:
    return lambda r: _one(r.adf_vpg, vpg_count=count).fetches_per_second


def nic(r: Any) -> float:
    return r.standard_nic.fetches_per_second


def defense(mode: str, field: str) -> Reader:
    return lambda r: _nan(getattr(_one(r.points, device="efw", mode=mode), field))


def _deny_factors(r: Any) -> List[float]:
    """ADF Deny / Allow minimum flood rate at every depth."""
    depths = [d for d, _ in r.series["ADF (Allow)"]]
    return [rate("ADF (Deny)", d)(r) / rate("ADF (Allow)", d)(r) for d in depths]


def _hardened_rate(r: Any) -> float:
    """The hardened card's 64-rule min flood; unmeasurable means the wire."""
    value = dict(r.min_flood["hardened"])[64].rate_pps
    return MAX_FRAME_RATE_64B if value is None else value


# -- sources (DESIGN.md §1 unless marked) ----------------------------------

DOS = ("Both EFW and ADF are flood-DoS-able at ~30% of the 100 Mbps maximum frame rate "
       "(~45 k packets/s of minimum-size frames) even with a one-rule allow-all policy")
RESIDUAL = ("iptables and a plain NIC still deliver ~77 Mbps under the same flood (the residual "
            "loss is pure link sharing)")
RULES = ("Rule-sets under ~20 rules cost little; at 64 rules the EFW delivers only ~50 Mbps "
         "(-45 %) and the ADF ~33 Mbps (-65 %, a less efficient matcher on the same hardware).")
IPTABLES = "iptables shows no loss below 64 rules at 100 Mbps."
MINFLOOD = "Adding rules lowers the minimum DoS flood rate (~4.5 k pps at 64 rules, allowed)"
DENY = ("denying the flood roughly doubles the required rate because the host generates no "
        "response packets (halving NIC load).")
LOCKUP = ("the card locks up (stops processing packets) when flooded with more than ~1000 "
          "packets/s and must have its firewall agent restarted.")
VPG = ("VPG (encrypt/decrypt) costs a large constant hit, but non-matching VPG rules above the "
       "action rule are nearly free (lazy decryption).")
HTTP = ("HTTP throughput drops up to 41 % behind the ADF; latencies grow with rule depth but "
        "stay small in absolute terms.")
CONNTRACK = "DESIGN.md §4: rule cost per connection instead of per packet"
EXHAUSTION = "DESIGN.md §4: the state-exhaustion DoS surface the stateless EFW cannot have"
EXTENSION = "DESIGN.md §4: §5 future work — a flood-tolerant embedded firewall"
FLEET = "EXPERIMENTS.md: per-NIC flood tolerance does not compose into fleet tolerance"
DEFENSE = ("EXPERIMENTS.md: the undefended EFW collapses (< 0.2 of baseline) and "
           "rate-limit/quarantine recover >= 80%")

_R, _L, _S = "response-traffic", "lazy-decrypt", "stateful-firewall"
CLAIMS: Tuple[Claim, ...] = (
    # Figure 2: available bandwidth vs. rule depth.
    Claim("fig2", "lowest of EFW/ADF/iptables at 1 rule (Mbps)", "full",
          lowest(point("EFW", 1), point("ADF", 1), point("iptables", 1)), "> 85", RULES),
    Claim("fig2", "lowest of EFW/ADF at 16 rules / 1 rule", "no significant loss",
          lowest(ratio(point("EFW", 16), point("EFW", 1)),
                 ratio(point("ADF", 16), point("ADF", 1))),
          "> 0.9", RULES,
          deviation="the knees sit one binary depth step early (EFW ~16 rules, ADF ~8): "
                    "the calibration trades them for the 64-rule endpoints"),
    Claim("fig2", "EFW 8 rules / 1 rule", "no significant loss",
          ratio(point("EFW", 8), point("EFW", 1)), "> 0.9", RULES),
    Claim("fig2", "EFW at 64 rules (Mbps)", "~50", point("EFW", 64), "> 40, < 60", RULES),
    Claim("fig2", "ADF at 64 rules (Mbps)", "~33", point("ADF", 64), "> 26.4, < 39.6", RULES),
    Claim("fig2", "EFW 64 rules / 1 rule", "0.55",
          ratio(point("EFW", 64), point("EFW", 1)), "> 0.4, < 0.65", RULES),
    Claim("fig2", "ADF 64 rules / 1 rule", "0.35",
          ratio(point("ADF", 64), point("ADF", 1)), "> 0.25, < 0.5", RULES),
    Claim("fig2", "ADF / EFW at 64 rules", "33/50",
          ratio(point("ADF", 64), point("EFW", 64)), "< 1", RULES),
    Claim("fig2", "EFW / iptables at 64 rules", "50/95",
          ratio(point("EFW", 64), point("iptables", 64)), "< 1", RULES),
    Claim("fig2", "iptables at 64 rules (Mbps)", "no loss",
          point("iptables", 64), "> 85", IPTABLES),
    Claim("fig2", "ADF (VPG) 1 VPG / ADF 1 rule", "large hit",
          ratio(point("ADF (VPG)", 2), point("ADF", 1)), "< 0.7", VPG),
    Claim("fig2", "ADF (VPG) 4 VPGs / 1 VPG", "nearly free",
          ratio(point("ADF (VPG)", 8), point("ADF (VPG)", 2)), "> 0.8", VPG),
    # Figure 3a: bandwidth during a 64 B flood, one-rule rule-set.
    Claim("fig3a", "highest of EFW/ADF at 50 k pps (Mbps)", "~0",
          highest(point("EFW", 50000), point("ADF", 50000)), "< 2", DOS),
    Claim("fig3a", "EFW at 40 k pps / no flood", "major loss",
          ratio(point("EFW", 40000), point("EFW", 0)), "< 0.5", DOS),
    Claim("fig3a", "No Firewall / max(EFW, 0.1) at 50 k pps", "delivers",
          ratio(point("No Firewall", 50000), highest(point("EFW", 50000), lambda r: 0.1)),
          "> 10", RESIDUAL),
    Claim("fig3a", "No Firewall at 50 k pps (Mbps)", "~77",
          point("No Firewall", 50000), "> 61.6, < 92.4", RESIDUAL,
          deviation="TCP against an unresponsive flood loses the shared link to tail drop; "
                    "~75 Mbps holds only up to 20 k pps"),
    Claim("fig3a", "iptables at 50 k pps (Mbps)", "~77",
          point("iptables", 50000), "> 61.6, < 92.4", RESIDUAL,
          deviation="as for the plain NIC; iptables' softirq pacing keeps more of the link, "
                    "not ~77 Mbps"),
    Claim("fig3a", "lowest of iptables/No Firewall at 20 k pps (Mbps)", "~77",
          lowest(point("iptables", 20000), point("No Firewall", 20000)), "> 40", RESIDUAL),
    Claim("fig3a", "ADF (VPG) / ADF with no flood", "large hit",
          ratio(point("ADF (VPG)", 0), point("ADF", 0)), "< 0.7", VPG),
    Claim("fig3a", "ADF (VPG) at 20 k pps - 0.6 x no flood (Mbps)", "near-linear",
          lambda r: point("ADF (VPG)", 20000)(r) - 0.6 * point("ADF (VPG)", 0)(r), "< 1", VPG),
    # Figure 3b: minimum DoS flood rate vs. rule depth.
    Claim("fig3b", "EFW (Allow) at 1 rule / 64 B frame rate", "~0.30",
          lambda r: rate("EFW (Allow)", 1)(r) / MAX_FRAME_RATE_64B, "> 0.24, < 0.36", DOS),
    Claim("fig3b", "ADF (Allow) at 1 rule / 64 B frame rate", "~0.30",
          lambda r: rate("ADF (Allow)", 1)(r) / MAX_FRAME_RATE_64B, "> 0.24, < 0.36", DOS),
    Claim("fig3b", "EFW (Allow) at 1 rule (pps)", "~45,000",
          rate("EFW (Allow)", 1), "> 30000", DOS),
    Claim("fig3b", "EFW (Allow) at 64 rules (pps)", "~4,500",
          rate("EFW (Allow)", 64), "> 3600, < 5400", MINFLOOD),
    Claim("fig3b", "EFW (Allow) at 64 rules (pps), upper bound", "~4,500",
          rate("EFW (Allow)", 64), "< 10000", MINFLOOD),
    Claim("fig3b", "EFW (Allow) 1 rule / 64 rules", "~10",
          ratio(rate("EFW (Allow)", 1), rate("EFW (Allow)", 64)), "> 4", MINFLOOD),
    Claim("fig3b", "ADF / EFW (Allow) at 64 rules", "< 1",
          ratio(rate("ADF (Allow)", 64), rate("EFW (Allow)", 64)), "< 1", RULES),
    Claim("fig3b", "ADF Deny / Allow, lowest over depths", "~2",
          lambda r: min(_deny_factors(r)), "> 1.3", DENY),
    Claim("fig3b", "ADF Deny / Allow, farthest from 2 over depths", "~2",
          lambda r: max(_deny_factors(r), key=lambda f: abs(f - 2)), "> 1.6, < 2.4", DENY),
    Claim("fig3b", "EFW (Deny) lockup rate, highest over depths (pps)", "~1,000",
          lambda r: max(p.lockup_rate_pps if p.lockup else math.inf
                        for _, p in r.series["EFW (Deny)"]), "<= 2000", LOCKUP),
    # Table 1: HTTP behind an ADF.
    Claim("table1", "highest ADF / standard NIC fetches/s", "< 1",
          lambda r: max(m.fetches_per_second for m in r.adf_standard + r.adf_vpg) / nic(r),
          "< 1", HTTP),
    Claim("table1", "largest next-depth / depth fetches/s", "falls",
          lambda r: max(b.fetches_per_second / a.fetches_per_second
                        for a, b in zip(r.adf_standard, r.adf_standard[1:])), "< 1", HTTP),
    Claim("table1", "ADF worst loss vs standard NIC", "0.41",
          lambda r: 1 - min(m.fetches_per_second for m in r.adf_standard) / nic(r),
          "> 0.328, < 0.492", HTTP,
          deviation="the reproduction loses 25% at depth 1 and 76% at depth 64; the paper's "
                    "Table 1 depth grid is not recoverable from its text"),
    Claim("table1", "ADF 64 rules / standard NIC fetches/s", "<= 0.59",
          ratio(adf(64), nic), "< 0.59", HTTP),
    Claim("table1", "ADF ms/connect, 64 rules / 1 rule", "grows",
          ratio(adf(64, "mean_connect_ms"), adf(1, "mean_connect_ms")), "> 1", HTTP),
    Claim("table1", "ADF ms/first-response, 64 rules / 1 rule", "grows",
          ratio(adf(64, "mean_first_response_ms"), adf(1, "mean_first_response_ms")),
          "> 1", HTTP),
    Claim("table1", "ADF ms/first-response at 64 rules", "small",
          adf(64, "mean_first_response_ms"), "< 5", HTTP),
    Claim("table1", "ADF 1 VPG / standard NIC fetches/s", "large hit",
          ratio(vpgs(1), nic), "< 0.7", VPG),
    Claim("table1", "ADF 4 VPGs / 1 VPG fetches/s", "nearly free",
          ratio(vpgs(4), vpgs(1)), "> 0.8", VPG),
    # Ablations: each mechanism, switched off.
    Claim("ablations", "responses OFF / ON, allowed-flood min rate", "~2",
          ratio(outcome(_R, "allowed flood, responses OFF"),
                outcome(_R, "allowed flood, responses ON")), "> 1.5", DENY),
    Claim("ablations", "responses OFF / denied flood, min rate", "~1",
          ratio(outcome(_R, "allowed flood, responses OFF"), outcome(_R, "denied flood")),
          "> 0.7", DENY),
    Claim("ablations", "lazy: 8 VPGs / 1 VPG", "nearly free",
          ratio(outcome(_L, "lazy, 8 VPG"), outcome(_L, "lazy, 1 VPG")), "> 0.8", VPG),
    Claim("ablations", "eager: 8 VPGs / 1 VPG", "decays",
          ratio(outcome(_L, "eager, 8 VPG"), outcome(_L, "eager, 1 VPG")), "< 0.75", VPG),
    Claim("ablations", "eager / lazy at 8 VPGs", "decays",
          ratio(outcome(_L, "eager, 8 VPG"), outcome(_L, "lazy, 8 VPG")), "< 0.75", VPG),
    Claim("ablations", "highest ring-size bandwidth (Mbps)", "saturated",
          lambda r: max(_ablation(r, "ring-size").outcomes.values()), "< 60", DOS),
    Claim("ablations", "lowest stateless/stateful bandwidth (Mbps)", "full",
          lowest(outcome(_S, "stateless: bandwidth"), outcome(_S, "stateful:  bandwidth")),
          "> 85", IPTABLES),
    Claim("ablations", "stateful / stateless filtering CPU", "< 0.7",
          ratio(outcome(_S, "stateful:  filtering CPU"), outcome(_S, "stateless: filtering CPU")),
          "< 0.7", CONNTRACK,
          deviation="the quick preset runs the chain at depth 128, where the conntrack saving is "
                    "smaller; the full preset's depth 256 gives 26.1/49.3 = 0.53"),
    Claim("ablations", "stateful: flows dropped, table full", "> 0",
          outcome(_S, "stateful:  flows dropped"), "> 0", EXHAUSTION),
    Claim("ablations", "stateful: Mbps during spoofed flood", "~0",
          outcome(_S, "stateful:  Mbps during spoofed flood"), "< 10", EXHAUSTION),
    # Extension: the hardened NIC.
    Claim("extension", "hardened 64 rules / 1 rule bandwidth", "flat",
          ratio(point("hardened", 64, "bandwidth"), point("hardened", 1, "bandwidth")),
          "> 0.95", EXTENSION),
    Claim("extension", "EFW 64 rules / 1 rule bandwidth", "0.55",
          ratio(point("EFW", 64, "bandwidth"), point("EFW", 1, "bandwidth")), "< 0.65", RULES),
    Claim("extension", "hardened 64 B throughput, lowest / frame rate", "wire",
          lambda r: min(v for _, v in r.throughput_64b["hardened"]) / MAX_FRAME_RATE_64B,
          "> 0.97", EXTENSION),
    Claim("extension", "hardened min flood at 64 rules (pps)", "wire",
          _hardened_rate, "> 80000", EXTENSION),
    Claim("extension", "hardened / EFW min flood at 64 rules", "> 10",
          ratio(_hardened_rate, rate("EFW", 64, "min_flood")), "> 10", EXTENSION),
    # Fleet: the same physics on a fabric.
    Claim("fleet", "largest |DoS fraction - flooded share|", "0",
          lambda r: max(abs(p.dos_fraction - p.flood_share) for p in r.points),
          "== 0", FLEET),
    Claim("fleet", "highest attacked / calm aggregate goodput", "< 1",
          lambda r: max(p.aggregate_goodput_mbps / _one(r.points, targets=p.targets, flood_share=0)
                        .aggregate_goodput_mbps for p in r.points if p.flood_share > 0),
          "< 1", FLEET),
    Claim("fleet", "policy pushes failed", "0",
          lambda r: sum(p.policy_pushes_failed for p in r.points), "== 0", FLEET),
    # Mitigation: the closed-loop defense on the EFW.
    Claim("mitigation", "EFW undefended recovery fraction", "collapses",
          defense("off", "recovery_fraction"), "< 0.2", LOCKUP),
    Claim("mitigation", "EFW rate-limit recovery fraction", ">= 0.8",
          defense("rate-limit", "recovery_fraction"), ">= 0.8", DEFENSE),
    Claim("mitigation", "EFW rate-limit time to mitigate (s)", "mitigated",
          defense("rate-limit", "time_to_mitigate"), ">= 0", DEFENSE),
    Claim("mitigation", "EFW quarantine recovery fraction", ">= 0.8",
          defense("quarantine", "recovery_fraction"), ">= 0.8", DEFENSE),
    Claim("mitigation", "EFW quarantine time to mitigate (s)", "mitigated",
          defense("quarantine", "time_to_mitigate"), ">= 0", DEFENSE),
)


def evaluate(results: Mapping[str, Any]) -> List[Tuple[Claim, float, str]]:
    """(claim, reproduced value, verdict) for each claim whose experiment
    is in ``results``; a grid point missing from an envelope reads NaN."""
    rows = []
    for claim in CLAIMS:
        if claim.experiment in results:
            try:
                value = float(claim.read(results[claim.experiment]))
            except (LookupError, ValueError, ZeroDivisionError):
                value = math.nan
            rows.append((claim, value, claim.verdict(value)))
    return rows


def _number(value: float) -> str:
    if math.isnan(value):
        return "n/a"
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"


def render(rows: Sequence[Tuple[Claim, float, str]]) -> str:
    """The table, then the source and reason of every row that missed."""
    lines = [format_table(
        ["experiment", "claim", "paper", "reproduced", "tolerance", "verdict"],
        [[c.experiment, c.claim, c.paper, _number(v), c.tolerance, verdict]
         for c, v, verdict in rows],
    )]
    for claim, _, verdict in rows:
        if verdict != "ok":
            lines.append(f"{verdict}: {claim.experiment} / {claim.claim}\n  source: {claim.source}")
            if claim.deviation:
                lines.append(f"  reason: {claim.deviation}")
    labels = ("ok", "deviation", "FAIL")
    lines.append("claims: " + " ".join(f"{x}={sum(v == x for *_, v in rows)}" for x in labels))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: python -m repro.experiments.claims DIR", file=sys.stderr)
        return 2
    ids = list(dict.fromkeys(claim.experiment for claim in CLAIMS))
    paths = {i: os.path.join(args[0], f"{i}.json") for i in ids}
    results = {i: read_json(path) for i, path in paths.items() if os.path.exists(path)}
    if not results:
        print(f"no result envelope in {args[0]}", file=sys.stderr)
        return 2
    rows = evaluate(results)
    print(render(rows))
    missing = [i for i in ids if i not in results]
    if missing:
        print("not evaluated (no envelope): " + ", ".join(missing))
    return 1 if any(verdict == "FAIL" for *_, verdict in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
