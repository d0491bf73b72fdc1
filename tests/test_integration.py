"""End-to-end integration tests telling the paper's stories."""

import pytest

#: Full end-to-end regenerations; excluded from the default fast tier
#: (see [tool.pytest.ini_options] in pyproject.toml).
pytestmark = pytest.mark.slow

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.http_load import HttpLoadClient
from repro.apps.httpd import HttpServer
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all, oracle_ruleset, padded_ruleset
from repro.firewall.rules import Action, PortRange, Rule
from repro.net.packet import IpProtocol
from tests.conftest import record_arrivals


class TestDosStory:
    """The paper's headline: flood the EFW, deny service, restart to recover."""

    def test_flood_denies_service_and_restart_recovers(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(allow_all())
        IperfServer(bed.target)

        # Phase 1: clean measurement.
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
        bed.run(0.45)
        clean_mbps = session.result().mbps
        assert clean_mbps > 85

        # Phase 2: attacker floods; bandwidth collapses.
        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001)
        )
        flood.start(bed.target.ip, rate_pps=50000)
        bed.run(0.2)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
        bed.run(0.45)
        flooded_mbps = session.result().mbps
        assert flooded_mbps < clean_mbps * 0.1

        # Phase 3: flood stops; service returns without intervention
        # (the allow-all EFW does not wedge).
        flood.stop()
        bed.run(0.3)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
        bed.run(0.45)
        recovered_mbps = session.result().mbps
        assert recovered_mbps > 85
        assert not bed.target.nic.wedged

    def test_deny_flood_wedges_efw_until_agent_restart(self):
        bed = Testbed(device=DeviceKind.EFW)
        ruleset = padded_ruleset(
            8,
            action_rule=Rule(
                action=Action.DENY,
                protocol=IpProtocol.TCP,
                dst_ports=PortRange.single(7777),
                symmetric=True,
            ),
        )
        with ruleset.mutate() as edit:
            edit.append(
                Rule(
                    action=Action.ALLOW,
                    protocol=IpProtocol.TCP,
                    dst_ports=PortRange.single(5001),
                    symmetric=True,
                )
            )
        bed.install_target_policy(ruleset)
        IperfServer(bed.target)

        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=7777)
        )
        flood.start(bed.target.ip, rate_pps=2000)
        bed.run(1.0)
        flood.stop()
        assert bed.target.nic.wedged

        # Even legitimate traffic is dead while wedged.
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
        bed.run(0.5)
        assert session.result().mbps < 1.0

        # The documented recovery: restart the firewall agent.
        bed.restart_target_agent()
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
        bed.run(0.5)
        assert session.result().mbps > 50


class TestSpoofingStory:
    """§4.3: early deny is only partially effective because the attacker
    can spoof packets that traverse deeper into the rule-set."""

    def test_spoofed_flood_bypasses_early_deny(self):
        def min_flood_with_spec(spec):
            bed = Testbed(device=DeviceKind.ADF)
            # Deny the attacker's real address early; iperf allowed at 32.
            deny_attacker = Rule(
                action=Action.DENY,
                protocol=IpProtocol.TCP,
                name="deny-attacker-port",
                dst_ports=PortRange.single(7777),
                symmetric=True,
            )
            ruleset = padded_ruleset(1, action_rule=deny_attacker)
            from repro.firewall.builders import padding_rule

            with ruleset.mutate() as edit:
                edit.extend(padding_rule(100 + index) for index in range(30))
                edit.append(
                    Rule(
                        action=Action.ALLOW,
                        protocol=IpProtocol.TCP,
                        dst_ports=PortRange.single(5001),
                        symmetric=True,
                    )
                )
            bed.install_target_policy(ruleset)
            IperfServer(bed.target)
            flood = FloodGenerator(bed.attacker, spec)
            flood.start(bed.target.ip, rate_pps=20000)
            bed.run(0.2)
            session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
            bed.run(0.45)
            return session.result().mbps

        # Naive flood to the denied port: cheap (depth 1), tolerated.
        naive = min_flood_with_spec(FloodSpec(kind=FloodKind.TCP_ACK, dst_port=7777))
        # Spoofed flood to the allowed service port: traverses the whole
        # table and is admitted — far more damaging.
        spoofed = min_flood_with_spec(FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001))
        assert spoofed < naive * 0.7


class TestVpgChannelStory:
    def test_http_over_vpg_is_encrypted_and_works(self):
        settings = MeasurementSettings(http_duration=0.5)
        validator = FloodToleranceValidator(DeviceKind.ADF, settings)
        bed = validator._build_testbed(vpg_count=1)
        validator._install_vpg_policies(bed, 1, port=80)
        HttpServer(bed.target, port=80, pages={"/": 8192})

        # Both directions of the target's link: what its NIC receives,
        # and what the switch receives on the target's port.
        switch_port = bed.target.nic.port.peer
        inbound = record_arrivals(bed.target.nic)
        outbound = record_arrivals(switch_port.device, switch_port)

        session = HttpLoadClient(bed.client).start(bed.target.ip, duration=0.5)
        bed.run(0.6)
        result = session.result()
        assert result.completed > 5
        assert inbound and outbound
        ip_frames = [frame for _, frame in inbound + outbound if frame.ip is not None]
        # Every HTTP frame on the wire is VPG-encapsulated.
        assert [f for f in ip_frames if f.ip.protocol != IpProtocol.VPG] == []
        # And no plaintext of the request leaked.
        for frame in ip_frames:
            assert b"GET /" not in frame.ip.payload.to_bytes()

    def test_vpg_protects_against_unauthorized_peer(self):
        validator = FloodToleranceValidator(
            DeviceKind.ADF, MeasurementSettings(duration=0.3)
        )
        bed = validator._build_testbed(vpg_count=1)
        validator._install_vpg_policies(bed, 1, port=5001)
        IperfServer(bed.target)
        # The attacker (no VPG membership, plaintext TCP) cannot reach
        # the protected service.
        refused = []
        conn = bed.attacker.tcp.connect(bed.target.ip, 5001)
        conn.on_refused = lambda c: refused.append(True)
        # SYN retries back off 1+2+4+8+16 s before the attempt fails.
        bed.run(35.0)
        assert refused  # SYNs never pass the target's ADF
        assert bed.target.nic.rx_denied > 0


class TestOraclePolicyStory:
    """§4.5: a realistic (Oracle) policy cannot stay under 8 rules, so the
    deployment is inherently floodable at low rates."""

    def test_oracle_policy_is_deep_and_floodable(self):
        bed = Testbed(device=DeviceKind.EFW)
        ruleset = oracle_ruleset(bed.target.ip)
        # Append the iperf measurement rule (administrators would allow
        # their measurement service too).
        with ruleset.mutate() as edit:
            edit.insert(
                len(ruleset.rules) - 1,
                Rule(
                    action=Action.ALLOW,
                    protocol=IpProtocol.TCP,
                    dst_ports=PortRange.single(5001),
                    symmetric=True,
                ),
            )
        assert ruleset.table_size >= 31
        bed.install_target_policy(ruleset)
        IperfServer(bed.target)
        # TNS-listener flood (allowed by the policy) at a rate easily
        # reachable even on 10 Mbps Ethernet.
        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=1521)
        )
        flood.start(bed.target.ip, rate_pps=14000)
        bed.run(0.2)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
        bed.run(0.45)
        assert session.result().mbps < 10


class TestMixedWorkload:
    def test_iperf_and_http_share_the_testbed(self):
        bed = Testbed(device=DeviceKind.EFW)
        ruleset = padded_ruleset(
            4,
            action_rule=Rule(
                action=Action.ALLOW, protocol=IpProtocol.TCP, symmetric=True
            ),
        )
        bed.install_target_policy(ruleset)
        IperfServer(bed.target)
        HttpServer(bed.target, port=80)
        iperf_session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.5)
        http_session = HttpLoadClient(bed.attacker).start(bed.target.ip, duration=0.5)
        bed.run(0.6)
        assert iperf_session.result().mbps > 30
        assert http_session.result().completed > 5
