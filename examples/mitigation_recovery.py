#!/usr/bin/env python3
"""The closed defense loop as an incident timeline.

The paper's deny-flood DoS ends with "No solution was found... other
than to restart the firewall software" (§4.3).  This walk-through runs
the same attack against a protected EFW three times — undefended, with
an automated source-scoped rate limit, and with switch-port quarantine —
and narrates what the defense loop does: the detector trips on the deny
rate before the card wedges, the controller applies its action and
restarts the wedged agent, the policy server re-pushes the wiped
rule-set, and goodput recovers while the flood is still running.

Run:  python examples/mitigation_recovery.py
"""

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.testbed import DeviceKind, Testbed
from repro.defense import (
    DefenseConfig,
    EnableRateLimiter,
    QuarantinePort,
    RestartAgent,
)
from repro.firewall import Action, padded_ruleset, service_rule
from repro.net.packet import IpProtocol
from repro.policy.audit import AuditEventKind

IPERF_PORT = 5001
FLOOD_PORT = 7777
FLOOD_RATE_PPS = 20_000
WINDOW = 0.5


def goodput(bed, server) -> float:
    session = IperfClient(bed.client).start_udp(
        server, rate_pps=500, payload_size=1470, duration=WINDOW
    )
    bed.run(WINDOW + 0.02)
    return session.result().mbps


def incident(label, actions) -> None:
    print(f"--- {label} ---")
    bed = Testbed(device=DeviceKind.EFW)
    bed.install_target_policy(
        padded_ruleset(
            32,
            action_rule=service_rule(
                Action.ALLOW, IpProtocol.UDP, IPERF_PORT, dst=bed.target.ip
            ),
            name="protected-service",
        )
    )
    controller = None
    if actions is not None:
        controller = bed.enable_defense(DefenseConfig(actions=actions))
    bed.run(0.05)

    server = IperfServer(bed.target, IPERF_PORT)
    baseline = goodput(bed, server)
    print(f"t={bed.sim.now:5.2f}s  baseline goodput: {baseline:.1f} Mbps")

    flood = FloodGenerator(
        bed.attacker, FloodSpec(kind=FloodKind.UDP, dst_port=FLOOD_PORT)
    )
    flood.start(bed.target.ip, rate_pps=FLOOD_RATE_PPS)
    print(f"t={bed.sim.now:5.2f}s  deny flood begins at {FLOOD_RATE_PPS:,} pps")

    flooded = goodput(bed, server)
    state = "WEDGED" if bed.target.nic.wedged else "ok"
    print(
        f"t={bed.sim.now:5.2f}s  goodput during flood: {flooded:.1f} Mbps "
        f"(card {state})"
    )

    bed.run(0.3)  # give the loop time to converge
    recovery = goodput(bed, server)
    flood.stop()
    fraction = recovery / baseline if baseline else 0.0
    print(
        f"t={bed.sim.now:5.2f}s  goodput with flood ongoing: {recovery:.1f} Mbps "
        f"({fraction:.0%} of baseline)"
    )

    if controller is not None:
        report = controller.report()
        detect = report.time_to_detect(flood.started_at)
        mitigate = report.time_to_mitigate(flood.started_at)
        first = report.detections[0].detail
        reason, top_source = first["reason"], first["top_source"]
        print(
            f"          detected in {detect * 1e3:.0f} ms "
            f"({reason}, top source {top_source}), mitigated in "
            f"{mitigate * 1e3:.0f} ms, {report.agent_restarts} agent restart(s)"
        )
        for event in bed.policy_server.audit.events(
            kind=AuditEventKind.MITIGATION_APPLIED
        ):
            print(f"          audit: {event.details.get('action')} -> {event.details}")
        assert fraction >= 0.8, "defended run should recover"
    else:
        assert fraction < 0.2, "undefended EFW should collapse"
    print()


def main() -> None:
    incident("no defense (the paper's outcome)", None)
    incident(
        "rate-limit: shed the flood before the slow path",
        (EnableRateLimiter(rate_pps=500), RestartAgent()),
    )
    incident(
        "quarantine: cut the flooder off at the switch",
        (QuarantinePort(), RestartAgent()),
    )


if __name__ == "__main__":
    main()
