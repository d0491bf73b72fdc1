"""Packet-filter engine: rules, rule-sets, the compiled classifier,
builders, the iptables model and conntrack.

The NIC-resident firewalls (:mod:`repro.nic`) and the host-resident
iptables model both evaluate :class:`~repro.firewall.ruleset.RuleSet`
objects; what differs between them is *where* the evaluation happens and
what it costs — the central subject of the paper.
"""

from repro import _lazy

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

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".compiled": ("ClassifierStats", "CompiledClassifier"),
    ".builders": (
        "allow_all",
        "deny_all",
        "oracle_ruleset",
        "padded_ruleset",
        "padding_rule",
        "service_rule",
        "vpg_padding_rule",
        "vpg_ruleset",
    ),
    ".conntrack": ("ConnState", "ConnectionTracker", "StatefulIptablesFilter", "flow_key"),
    ".iptables": ("IptablesFilter",),
    ".rules": ("Action", "AddressPattern", "Direction", "PortRange", "Rule", "VpgRule"),
    ".ruleset": ("MatchResult", "RuleSet", "RuleSetMutation"),
})
