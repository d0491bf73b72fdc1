#!/usr/bin/env python3
"""VPG deployment: an encrypted group channel, end to end.

Recreates the DPASA-style deployment that motivated the ADF: a central
policy server defines a Virtual Private Group protecting an HTTP service,
distributes member policies and keys to the ADF NICs, and the example
then verifies — from the NICs' counters — that the traffic is encrypted,
that non-members are locked out, and what the protection costs in HTTP
throughput (the paper's Table 1 effect).

Run:  python examples/vpg_deployment.py
"""

from repro.apps.http_load import HttpLoadClient
from repro.apps.httpd import HttpServer
from repro.core import DeviceKind, MeasurementSettings
from repro.core.methodology import FloodToleranceValidator, VPG_MSS
from repro.core.testbed import Testbed
from repro.firewall import vpg_ruleset
from repro.net.packet import IpProtocol

def main() -> None:
    # ---------------------------------------------------------------
    # 1. Central policy definition: one VPG protecting HTTP.
    # ---------------------------------------------------------------
    bed = Testbed(device=DeviceKind.ADF, client_device=DeviceKind.ADF)
    group = bed.policy_server.create_vpg_group(
        "web-tier", protocol=IpProtocol.TCP, port=80
    )
    bed.policy_server.add_vpg_member(group, bed.client.ip)
    bed.policy_server.add_vpg_member(group, bed.target.ip)

    target_rule = group.rule_for_member(bed.target.ip)
    client_rule = group.rule_for_member(bed.client.ip)
    bed.install_target_policy(vpg_ruleset(1, target_rule, name="target-vpg"))
    bed.install_client_policy(vpg_ruleset(1, client_rule, name="client-vpg"))
    bed.client.tcp.default_mss = VPG_MSS
    bed.target.tcp.default_mss = VPG_MSS
    print(f"VPG {group.name!r} (spi={group.vpg_id}) distributed to both members.")
    for event in bed.policy_server.audit.events():
        print(f"  audit: {event}")

    # ---------------------------------------------------------------
    # 2. Run HTTP through the encrypted channel.
    # ---------------------------------------------------------------
    HttpServer(bed.target, port=80, pages={"/": 8192})
    session = HttpLoadClient(bed.client).start(bed.target.ip, duration=2.0)
    bed.run(2.1)
    result = session.result()

    print(f"\nHTTP over the VPG: {result.fetches_per_second:.0f} fetches/s, "
          f"{result.mean_connect_ms:.2f} ms/connect")
    # A packet reaches a member's stack only once its NIC has opened it
    # from the VPG, so opened == accepted means nothing crossed the wire
    # in plaintext.
    for name, host in (("Target", bed.target), ("Client", bed.client)):
        nic = host.nic
        print(f"{name} NIC: {nic.frames_received} frames in, "
              f"{nic.frames_sent} out; {nic.vpg_opened} of "
              f"{nic.rx_allowed} accepted packets opened from the VPG")

    # ---------------------------------------------------------------
    # 3. A non-member cannot connect (sender authentication).
    # ---------------------------------------------------------------
    refused = []
    conn = bed.attacker.tcp.connect(bed.target.ip, 80)
    conn.on_refused = lambda c: refused.append(True)
    bed.run(35.0)
    print(f"\nNon-member connection attempt refused: {bool(refused)} "
          f"(target dropped {bed.target.nic.rx_denied} plaintext packets)")

    # ---------------------------------------------------------------
    # 4. What does the protection cost?  (Table 1's VPG effect.)
    # ---------------------------------------------------------------
    settings = MeasurementSettings(http_duration=1.5)
    baseline = FloodToleranceValidator(DeviceKind.STANDARD, settings).http_performance()
    print(f"\nStandard NIC baseline: {baseline.fetches_per_second:.0f} fetches/s")
    print(f"Inside the VPG:        {result.fetches_per_second:.0f} fetches/s "
          f"({result.fetches_per_second / baseline.fetches_per_second:.0%} of baseline)")
    print("Confidentiality, integrity and sender authentication are not free.")

if __name__ == "__main__":
    main()
