"""Tests for the Figure 1 testbed builder."""

import pytest

from repro.core.fleet import FleetSpec, FleetTestbed
from repro.core.testbed import STATIONS, DeviceKind, Testbed
from repro.firewall.builders import allow_all, deny_all
from repro.nic.adf import AdfNic
from repro.nic.efw import EfwNic
from repro.nic.standard import StandardNic


class TestConstruction:
    def test_four_stations_exist(self):
        bed = Testbed()
        assert set(bed.hosts) == set(STATIONS)
        assert bed.client.name == "client"
        assert bed.target.name == "target"
        assert bed.attacker.name == "attacker"

    def test_all_hosts_have_arp_entries(self):
        bed = Testbed()
        for a in bed.hosts.values():
            for b in bed.hosts.values():
                if a is not b:
                    assert a.ip_layer.resolve(b.ip) == b.mac

    @pytest.mark.parametrize(
        "device,nic_type",
        [
            (DeviceKind.STANDARD, StandardNic),
            (DeviceKind.EFW, EfwNic),
            (DeviceKind.ADF, AdfNic),
            (DeviceKind.IPTABLES, StandardNic),
        ],
    )
    def test_target_nic_matches_device(self, device, nic_type):
        bed = Testbed(device=device)
        assert isinstance(bed.target.nic, nic_type)

    def test_client_device_option(self):
        bed = Testbed(device=DeviceKind.ADF, client_device=DeviceKind.ADF)
        assert isinstance(bed.client.nic, AdfNic)
        assert "client" in bed.agents

    def test_is_embedded_classification(self):
        assert DeviceKind.EFW.is_embedded
        assert DeviceKind.ADF.is_embedded
        assert not DeviceKind.STANDARD.is_embedded
        assert not DeviceKind.IPTABLES.is_embedded

    def test_ring_size_option_applies(self):
        bed = Testbed(device=DeviceKind.EFW, ring_size=16)
        assert bed.target.nic.processor.capacity == 16

    def test_lockup_ablation_option(self):
        bed = Testbed(device=DeviceKind.EFW, efw_lockup_enabled=False)
        assert not bed.target.nic.fault.enabled


class TestPolicyInstallation:
    def test_embedded_install_goes_through_policy_server(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(allow_all())
        assert bed.target.nic.policy is not None
        assert bed.policy_server.pushes_acked == 1

    def test_networked_push_delivers_over_the_wire(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.install_target_policy(allow_all(), networked_push=True)
        assert bed.target.nic.policy is not None
        # The push consumed real simulated time and traffic.
        assert bed.sim.now > 0
        assert bed.policy_server.pushes_acked == 1

    def test_iptables_install(self):
        bed = Testbed(device=DeviceKind.IPTABLES)
        bed.install_target_policy(deny_all())
        assert bed.target.iptables is not None

    def test_standard_install_is_noop(self):
        bed = Testbed(device=DeviceKind.STANDARD)
        bed.install_target_policy(deny_all())
        assert bed.target.iptables is None

    def test_client_policy_requires_embedded_client(self):
        bed = Testbed(device=DeviceKind.ADF)
        with pytest.raises(RuntimeError):
            bed.install_client_policy(allow_all())

    def test_restart_agent_requires_embedded_target(self):
        bed = Testbed(device=DeviceKind.STANDARD)
        with pytest.raises(RuntimeError):
            bed.restart_target_agent()

    def test_restart_agent_works(self):
        bed = Testbed(device=DeviceKind.EFW)
        bed.restart_target_agent()
        assert bed.target.nic.agent_restarts == 1

    def test_run_advances_clock(self):
        bed = Testbed()
        bed.run(0.5)
        assert bed.sim.now == pytest.approx(0.5)

    def test_seed_determinism(self):
        def measure(seed):
            from repro.apps.iperf import IperfClient, IperfServer

            bed = Testbed(device=DeviceKind.EFW, seed=seed)
            bed.install_target_policy(allow_all())
            IperfServer(bed.target)
            session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.2)
            bed.run(0.25)
            return session.result().bytes_transferred

        assert measure(7) == measure(7)


class TestOneWiringPath:
    def test_documented_imports_resolve(self):
        import repro.core
        import repro.net
        from repro.net.topology import FabricTopology

        assert repro.core.FleetTestbed is FleetTestbed
        assert repro.core.FleetSpec is FleetSpec
        assert repro.net.FabricTopology is FabricTopology

    def test_paper_bed_is_the_single_switch_fabric(self):
        bed = Testbed()
        assert not bed.topology.leaves
        assert bed.topology.switch.name == "lan.switch"
        assert bed.topology.station_names() == list(STATIONS)
        assert bed.target_names == ["target"]
        assert bed.client_names == ["client"]
        assert bed.attacker_names == ["attacker"]
        assert [str(bed.hosts[name].ip) for name in STATIONS] == [
            "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"
        ]

    def test_fleet_bed_roles_and_shared_accessors(self):
        bed = FleetTestbed(FleetSpec(targets=2, attackers=1))
        assert bed.target_names == ["t000", "t001"]
        assert bed.client_names == ["c000", "c001"]
        assert bed.attacker_names == ["a000"]
        assert bed.target is bed.hosts["t000"]
        assert list(bed.agents) == ["t000", "t001"]
        assert bed.topology.leaves

    def test_policy_methods_key_on_the_first_station_of_each_role(self):
        bed = FleetTestbed(FleetSpec(targets=2, attackers=1))
        bed.install_target_policy(allow_all())
        assert bed.hosts["t000"].nic.policy is not None
        assert bed.hosts["t001"].nic.policy is None
        bed.restart_target_agent()
        assert bed.hosts["t000"].nic.agent_restarts == 1
        with pytest.raises(RuntimeError, match="client has no embedded"):
            bed.install_client_policy(allow_all())

    def test_defense_watches_every_target(self):
        bed = FleetTestbed(FleetSpec(targets=3, attackers=1))
        bed.distribute_policies(networked=False)
        controller = bed.enable_defense()
        assert controller.detector.watched_hosts() == ["t000", "t001", "t002"]
