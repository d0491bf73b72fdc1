"""Determinism and reproducibility guarantees.

Every experiment in the repository relies on the simulation being a pure
function of its seed: same seed -> identical event sequence, byte counts
and measurements.  These tests pin that property across the subsystems
most likely to break it (dict ordering, RNG coupling, floating-point
accumulation order).
"""

import os
import subprocess
import sys

import pytest

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.http_load import HttpLoadClient
from repro.apps.httpd import HttpServer
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all


def _flooded_iperf_run(seed: int):
    bed = Testbed(device=DeviceKind.EFW, seed=seed)
    bed.install_target_policy(allow_all())
    IperfServer(bed.target)
    flood = FloodGenerator(
        bed.attacker, FloodSpec(kind=FloodKind.TCP_SYN, dst_port=9999, randomize_src=True)
    )
    flood.start(bed.target.ip, rate_pps=20000)
    bed.run(0.1)
    session = IperfClient(bed.client).start_tcp(bed.target.ip, duration=0.4)
    bed.run(0.45)
    return (
        session.result().bytes_transferred,
        bed.sim.events_executed,
        bed.target.nic.rx_allowed,
        bed.target.nic.rx_denied,
        bed.target.nic.ring_drops,
        flood.packets_sent,
    )


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        assert _flooded_iperf_run(42) == _flooded_iperf_run(42)

    def test_different_seeds_vary_random_draws(self):
        # Aggregate timings may coincide across seeds (ISNs and spoofed
        # addresses do not change event timing), but the random draws
        # themselves must differ.
        def draws(seed):
            bed = Testbed(device=DeviceKind.EFW, seed=seed)
            isn = bed.client.tcp.next_isn()
            flood = FloodGenerator(
                bed.attacker, FloodSpec(kind=FloodKind.UDP, randomize_src=True)
            )
            source = flood._source_address()
            return (isn, source)

        assert draws(1) != draws(2)

    def test_http_run_deterministic(self):
        def run(seed):
            bed = Testbed(device=DeviceKind.ADF, seed=seed)
            bed.install_target_policy(allow_all())
            HttpServer(bed.target, port=80)
            session = HttpLoadClient(bed.client).start(bed.target.ip, duration=0.5)
            bed.run(0.6)
            result = session.result()
            return (result.completed, result.mean_connect_ms, bed.sim.events_executed)

        assert run(7) == run(7)

    def test_validator_measurement_deterministic(self):
        settings = MeasurementSettings(duration=0.3, seed=123)

        def measure():
            validator = FloodToleranceValidator(DeviceKind.EFW, settings)
            return validator.available_bandwidth(depth=32).mbps

        assert measure() == pytest.approx(measure(), abs=0.0)

    def test_vpg_crypto_deterministic(self):
        settings = MeasurementSettings(duration=0.3, seed=5)

        def measure():
            validator = FloodToleranceValidator(DeviceKind.ADF, settings)
            return validator.available_bandwidth(vpg_count=2).mbps

        assert measure() == pytest.approx(measure(), abs=0.0)


#: One short fig3a flood point (randomized-source flood frames through the
#: flow cache) and one short table1 VPG point (connection and VPG tables),
#: printed as a result envelope.
_HASH_SEED_SCRIPT = """
import sys
from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.testbed import DeviceKind
from repro.experiments import results

flood = FloodToleranceValidator(
    DeviceKind.EFW, MeasurementSettings(duration=0.05, flood_lead=0.02)
).bandwidth_under_flood(20000.0)
http = FloodToleranceValidator(
    DeviceKind.ADF, MeasurementSettings(http_duration=0.05)
).http_performance(depth=1, vpg_count=1)
sys.stdout.write(results.to_json([flood, http]))
"""


def _envelope_under_hash_seed(seed: str) -> str:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


class TestHashSeedIndependence:
    def test_envelopes_do_not_depend_on_pythonhashseed(self):
        """No result may depend on hash values: string hashes change with
        ``PYTHONHASHSEED``, so iterating a set of addresses (or of
        anything hashed by its text) would show here."""
        first = _envelope_under_hash_seed("0")
        assert '"_type": "BandwidthMeasurement"' in first
        assert first == _envelope_under_hash_seed("12345")
