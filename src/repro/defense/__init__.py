"""Closed-loop flood defense: detect, mitigate, recover.

The paper leaves flood recovery to the operator: notice the wedged EFW,
restart its agent, hope the flood has moved on.  This package closes the
loop inside the simulation so recovery becomes something the experiments
can *measure*:

* :mod:`repro.defense.detector` — per-NIC flood detection from existing
  observability counters (EWMA ingress and deny rates) plus the policy
  server's heartbeat-silence signal, with hysteresis against legitimate
  bursts,
* :mod:`repro.defense.actions` — the typed mitigation catalogue:
  targeted deny rule, ingress rate limiter, switch-port quarantine,
  agent-restart sweep,
* :mod:`repro.defense.controller` — the policy-server-side controller
  that applies actions on detection and accounts for every step
  (audit events, incidents, :class:`DefenseReport`).

``Testbed.enable_defense`` (inherited by ``FleetTestbed``) wires a
:class:`DefenseConfig` into a running testbed, watching every target;
the ``mitigation`` experiment sweeps the catalogue against the Figure 3a
flood.
"""

from repro import _lazy

__all__ = [
    "DefenseConfig",
    "DefenseReport",
    "DetectorConfig",
    "EnableRateLimiter",
    "FloodDetector",
    "MitigationController",
    "QuarantinePort",
    "RestartAgent",
    "TargetedDenyRule",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".actions": ("EnableRateLimiter", "QuarantinePort", "RestartAgent", "TargetedDenyRule"),
    ".controller": ("DefenseConfig", "DefenseReport", "MitigationController"),
    ".detector": ("DetectorConfig", "FloodDetector"),
})
