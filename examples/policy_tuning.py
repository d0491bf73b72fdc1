#!/usr/bin/env python3
"""Policy tuning: rule order is a performance *and* security decision.

The paper surfaces a genuine conflict (§4.3):

* bandwidth-sensitive services should sit *early* in the rule-set
  (traversal costs ~1.5 us per rule per packet on the card), but
* deny rules for likely attack sources should *also* sit early
  (a denied flood never reaches the host, halving the card's load) —
  and an attacker can spoof around source-based denies anyway.

This example quantifies both sides on the simulated testbed, then shows
why a realistic policy cannot stay short: the 3Com-recommended Oracle
protection policy alone takes 31+ rule entries.

Run:  python examples/policy_tuning.py
"""

from repro import DeviceKind, FloodToleranceValidator, MeasurementSettings
from repro.core.reports import format_table
from repro.firewall import oracle_ruleset
from repro.net.addresses import Ipv4Address

def service_rule_at_depth(validator, depth):
    measurement = validator.available_bandwidth(depth=depth)
    return measurement.mbps

def main() -> None:
    settings = MeasurementSettings(duration=0.8)
    validator = FloodToleranceValidator(DeviceKind.EFW, settings)

    print("== Cost of placing a bandwidth-sensitive service deep ==")
    rows = []
    for depth in (1, 8, 16, 32, 64):
        rows.append([depth, f"{service_rule_at_depth(validator, depth):.1f}"])
    print(format_table(["service rule depth", "bandwidth (Mbps)"], rows))

    print("\n== Benefit of denying attack traffic early vs. late (ADF) ==")
    # Measured on the ADF: the EFW wedges under any denied flood above
    # ~1000 pps (the paper could not measure that case either).
    adf_validator = FloodToleranceValidator(DeviceKind.ADF, settings)
    rows = []
    for depth in (1, 32):
        result = adf_validator.minimum_flood_rate(
            depth, flood_allowed=False, probe_duration=0.5
        )
        cell = (
            f"{result.rate_pps:,.0f} pps"
            if result.measurable
            else f"card LOCKUP at {result.lockup_rate_pps:,.0f} pps"
        )
        rows.append([depth, cell])
    print(format_table(["deny rule depth", "flood needed for DoS"], rows))
    efw_deny = validator.minimum_flood_rate(1, flood_allowed=False, probe_duration=0.5)
    print(
        "(On the EFW the same probe wedges the card at"
        f" ~{efw_deny.lockup_rate_pps:,.0f} pps -- unmeasurable, as in the paper.)"
    )

    print("\n== A realistic policy cannot stay under 8 rules ==")
    oracle = oracle_ruleset(Ipv4Address("10.0.0.3"))
    print(f"3Com's recommended Oracle policy occupies {oracle.table_size} rule entries.")
    print("First five rules:")
    for rule in oracle.rules[:5]:
        print(f"  {rule.describe()}")


if __name__ == "__main__":
    main()
