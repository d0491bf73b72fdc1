"""Typed mitigation actions.

Each action is a frozen dataclass describing *what* the controller does
when a flood is detected; :meth:`apply` performs it against one
``flood-detected`` :class:`~repro.obs.tracing.watchdog.Incident` (the
protected host is its ``source``, the top talker
``detail["top_source"]``) and returns a detail dict for the audit trail.
The catalogue mirrors the responses available to an EFW operator,
ordered roughly by how surgical they are:

* :class:`TargetedDenyRule` — push a policy update that denies the
  identified flooder at rule 1.  On the ADF this is decisive (the flood
  stops walking the 33-rule table); on the EFW it is the paper-faithful
  negative result: every flood packet still costs a classification and a
  *deny*, so the deny-rate lockup keeps firing and the card re-wedges.
* :class:`EnableRateLimiter` — install an ingress token bucket scoped to
  the flooder (:mod:`repro.nic.ratelimit`), shedding the flood before
  the slow processor and keeping the deny rate under the lockup
  threshold.
* :class:`QuarantinePort` — block the flooder's access port at its
  switch, cutting the flood off at the source.
* :class:`RestartAgent` — the recovery half: periodically restart any
  wedged agent while the episode is active (on its own this just
  re-wedges under a sustained flood; combined with shedding it restores
  service).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.firewall.rules import Action, AddressPattern, Rule
from repro.firewall.ruleset import RuleSet
from repro.net.addresses import Ipv4Address
from repro.nic.ratelimit import IngressRateLimiter


@dataclass(frozen=True)
class TargetedDenyRule:
    """Deny the identified flooder at the top of the host's rule-set.

    The new policy is defined and assigned centrally, then pushed like
    any other update; ``networked=True`` carries it over the (possibly
    flooded) wire with the configured retries, which is exactly the
    delivery hazard the push report surfaces.
    """

    kind = "deny-rule"

    networked: bool = False
    push_retries: int = 2
    push_ack_timeout: float = 0.05

    def apply(self, controller, detection) -> Dict[str, Any]:
        top_source = detection.detail["top_source"]
        if top_source is None:
            return {"skipped": "no identified source"}
        server = controller.server
        host = detection.source
        flooder = Ipv4Address(top_source)
        current_name = server.assignment_for(host)
        current = server.policy(current_name)
        deny = Rule(
            action=Action.DENY,
            src=AddressPattern.host(flooder),
            name=f"deny-{top_source}",
        )
        hardened = RuleSet(
            [deny] + current.rules,
            default_action=current.default_action,
            name=f"{current_name}+deny-{top_source}",
        )
        server.define_policy(hardened.name, hardened)
        server.assign(host, hardened.name)
        outcome = server.push_policy(
            host,
            inline=not self.networked,
            retries=self.push_retries if self.networked else 0,
            ack_timeout=self.push_ack_timeout if self.networked else None,
        )
        controller.record_push(outcome)
        return {
            "source": top_source,
            "policy": hardened.name,
            "transport": outcome.transport,
        }


@dataclass(frozen=True)
class EnableRateLimiter:
    """Install an ingress token bucket on the victim's NIC.

    Scoped to the episode's top source when one was identified (and
    ``scope_to_source`` is left on); otherwise it throttles all
    non-control ingress — blunt, but still keeps the deny rate under the
    lockup threshold against a source-spoofing flooder.
    """

    kind = "rate-limit"

    rate_pps: float = 500.0
    burst: float = 64.0
    scope_to_source: bool = True

    def apply(self, controller, detection) -> Dict[str, Any]:
        nic = controller.nic_for(detection.source)
        if not hasattr(nic, "install_ingress_limiter"):
            return {"skipped": f"{nic.name} has no ingress limiter stage"}
        top_source = detection.detail["top_source"]
        src: Optional[Ipv4Address] = None
        if self.scope_to_source and top_source is not None:
            src = Ipv4Address(top_source)
        limiter = IngressRateLimiter(
            controller.sim, nic.name, self.rate_pps, burst=self.burst, src=src
        )
        nic.install_ingress_limiter(limiter)
        return {"limiter": limiter.describe()}


@dataclass(frozen=True)
class QuarantinePort:
    """Block the flooder's access port at its switch.

    Needs the controller to know which station owns the offending source
    address (the testbed integrations provide the mapping); unknown or
    spoofed sources are reported as skipped rather than guessing.
    """

    kind = "quarantine"

    def apply(self, controller, detection) -> Dict[str, Any]:
        top_source = detection.detail["top_source"]
        if top_source is None:
            return {"skipped": "no identified source"}
        station = controller.station_for_ip(top_source)
        if station is None:
            return {"skipped": f"no station owns {top_source}"}
        controller.quarantine_station(station)
        return {"source": top_source, "station": station}


@dataclass(frozen=True)
class RestartAgent:
    """Sweep the victim's agent back to life while the episode lasts.

    Restarts go through :meth:`PolicyServer.restart_agent`, so each one
    is audited and resets the heartbeat episode.  Against a flood that
    is still arriving unchecked this produces the paper's futile
    restart-wedge-restart churn — measurably so, via the restart count.
    """

    kind = "restart-agent"

    check_interval: float = 0.05

    def apply(self, controller, detection) -> Dict[str, Any]:
        started = controller.start_restart_sweep(detection.source, self.check_interval)
        return {"sweep": "started" if started else "already running"}
