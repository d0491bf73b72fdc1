"""Packet-filter engine: rules, rule-sets, the compiled classifier,
builders, the iptables model and conntrack.

The NIC-resident firewalls (:mod:`repro.nic`) and the host-resident
iptables model both evaluate :class:`~repro.firewall.ruleset.RuleSet`
objects; what differs between them is *where* the evaluation happens and
what it costs — the central subject of the paper.
"""

from repro.firewall.compiled import ClassifierStats, CompiledClassifier
from repro.firewall.builders import (
    allow_all,
    deny_all,
    oracle_ruleset,
    padded_ruleset,
    padding_rule,
    service_rule,
    vpg_padding_rule,
    vpg_ruleset,
)
from repro.firewall.conntrack import (
    ConnState,
    ConnectionTracker,
    StatefulIptablesFilter,
    flow_key,
)
from repro.firewall.iptables import IptablesFilter
from repro.firewall.rules import (
    Action,
    AddressPattern,
    Direction,
    PortRange,
    Rule,
    VpgRule,
)
from repro.firewall.ruleset import MatchResult, RuleSet, RuleSetMutation

__all__ = [
    "Action",
    "AddressPattern",
    "ClassifierStats",
    "CompiledClassifier",
    "ConnState",
    "ConnectionTracker",
    "StatefulIptablesFilter",
    "Direction",
    "IptablesFilter",
    "MatchResult",
    "PortRange",
    "Rule",
    "RuleSet",
    "RuleSetMutation",
    "VpgRule",
    "allow_all",
    "deny_all",
    "oracle_ruleset",
    "padded_ruleset",
    "padding_rule",
    "service_rule",
    "flow_key",
    "vpg_padding_rule",
    "vpg_ruleset",
]
