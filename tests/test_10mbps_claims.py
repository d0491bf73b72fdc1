"""The paper's 10 Mbps deployment claims (§4.5 / §5).

"Even on a 10 Mbps network, the EFW/ADF can be safely used only if the
rule-set is kept to under eight rules" — because an attacker on 10 Mbps
Ethernet can generate at most ~14,880 minimum-size frames per second, a
device is safe there exactly when its minimum DoS flood rate exceeds
that.  And: "it would be very difficult to provide a useful rule-set in
under eight rules" (the Oracle policy needs 31+).
"""

import pytest

#: Full end-to-end regenerations; excluded from the default fast tier
#: (see [tool.pytest.ini_options] in pyproject.toml).
pytestmark = pytest.mark.slow

from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all
from repro.sim import units

#: Maximum 64-byte frame rate on 10 Mbps Ethernet (~14,880 pps).
TEN_MBPS_MAX_PPS = units.max_frame_rate(units.mbps(10), 64)

FAST = MeasurementSettings(duration=0.4)


class TestTenMbpsNetwork:
    def test_max_frame_rate_constant(self):
        assert TEN_MBPS_MAX_PPS == pytest.approx(14881, abs=1)

    def test_testbed_runs_at_ten_mbps(self):
        from repro.apps.iperf import IperfClient, IperfServer

        bed = Testbed(device=DeviceKind.STANDARD, bandwidth_bps=units.mbps(10))
        IperfServer(bed.target)
        session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.5)
        bed.run(0.55)
        assert 8.5 < session.result().mbps < 10.0

    def test_shallow_rulesets_survive_ten_mbps_attackers(self):
        # The minimum DoS rate at small depths exceeds what a 10 Mbps
        # attacker can generate: safe deployment.
        validator = FloodToleranceValidator(DeviceKind.EFW, FAST)
        result = validator.minimum_flood_rate(8, flood_allowed=True, probe_duration=0.4)
        assert result.measurable
        assert result.rate_pps > TEN_MBPS_MAX_PPS

    def test_deep_rulesets_floodable_from_ten_mbps(self):
        # By 32–64 rules the bar is far below the 10 Mbps attacker's
        # reach: unsafe even on the slow network, the paper's warning.
        validator = FloodToleranceValidator(DeviceKind.EFW, FAST)
        result = validator.minimum_flood_rate(64, flood_allowed=True, probe_duration=0.4)
        assert result.measurable
        assert result.rate_pps < TEN_MBPS_MAX_PPS / 2

    def test_adf_crosses_the_threshold_earlier_than_efw(self):
        # The ADF's costlier matcher pushes it under the 10 Mbps bar at a
        # shallower depth than the EFW.
        adf = FloodToleranceValidator(DeviceKind.ADF, FAST).minimum_flood_rate(
            16, flood_allowed=True, probe_duration=0.4
        )
        efw = FloodToleranceValidator(DeviceKind.EFW, FAST).minimum_flood_rate(
            16, flood_allowed=True, probe_duration=0.4
        )
        assert adf.rate_pps < efw.rate_pps

    def test_card_is_not_the_bottleneck_under_ten_mbps_wire_rate_flood(self):
        # A line-rate flood on 10 Mbps Ethernet occupies the entire wire
        # (14,881 pps × 84 B = 10 Mbps), denying service to *any* host —
        # but the EFW's processor (one-rule capacity ~90 k pps) is loafing.
        # On the slow network the firewall is never the weaker link,
        # which is why the paper deems 10 Mbps deployments defensible.
        from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
        from repro.apps.iperf import IperfServer

        bed = Testbed(device=DeviceKind.EFW, bandwidth_bps=units.mbps(10))
        bed.install_target_policy(allow_all())
        IperfServer(bed.target)
        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=5001)
        )
        flood.start(bed.target.ip, rate_pps=TEN_MBPS_MAX_PPS)
        bed.run(0.7)
        assert bed.target.nic.processor.utilisation(bed.sim.now) < 0.6
        assert bed.target.nic.ring_drops == 0
        assert not bed.target.nic.wedged
