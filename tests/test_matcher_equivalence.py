"""Every runtime rule lookup agrees with the linear reference walk.

The compiled classifier is the only matcher on the runtime path, and the
paper's Figure 2/3b mechanism is the *charged* rule walk it precomputes.
These tests wrap :meth:`CompiledClassifier.lookup` and
:meth:`CompiledClassifier.lookup_encrypted` while a short Figure-3a-style
flood point and a Table-1 VPG point run, and check each uncached lookup
against the linear walk over the same rules: same action, same
:class:`~repro.firewall.rules.Rule` object, same ``rules_traversed`` and
same VPG flag.
"""

import types

import pytest

from repro.core.methodology import MeasurementSettings
from repro.core.testbed import DeviceKind
from repro.experiments.fig3a_flood import _flood_point
from repro.experiments.table1_http import _http_point
from repro.firewall.compiled import CompiledClassifier
from repro.firewall.ruleset import RuleSet

SETTINGS = MeasurementSettings(
    duration=0.1, flood_lead=0.05, http_duration=0.3, repetitions=1
)


def _assert_same(compiled, linear):
    assert compiled.action == linear.action
    assert compiled.rule is linear.rule
    assert compiled.rules_traversed == linear.rules_traversed
    assert compiled.is_vpg == linear.is_vpg


@pytest.fixture
def checked(monkeypatch):
    """Check every compiled lookup against the linear walk; count them."""
    counts = {"plaintext": 0, "encrypted": 0}
    lookup = CompiledClassifier.lookup
    lookup_encrypted = CompiledClassifier.lookup_encrypted

    def reference(classifier):
        # The same Rule objects in the same order, so identity carries over.
        return RuleSet(
            classifier._rules, default_action=classifier._default_result.action
        )

    def checked_lookup(self, flow, direction):
        result = lookup(self, flow, direction)
        # Rules read a packet only through its flow() 5-tuple.
        packet = types.SimpleNamespace(flow=lambda: flow)
        _assert_same(result, reference(self).evaluate_linear(packet, direction))
        counts["plaintext"] += 1
        return result

    def checked_lookup_encrypted(self, spi):
        result = lookup_encrypted(self, spi)
        _assert_same(result, reference(self).evaluate_encrypted_linear(spi))
        counts["encrypted"] += 1
        return result

    monkeypatch.setattr(CompiledClassifier, "lookup", checked_lookup)
    monkeypatch.setattr(CompiledClassifier, "lookup_encrypted", checked_lookup_encrypted)
    return counts


def test_flood_and_vpg_points_match_the_linear_walk(checked):
    _flood_point(DeviceKind.EFW, 20_000.0, 0, SETTINGS)
    flood_lookups = checked["plaintext"]
    assert flood_lookups >= 1
    _http_point(DeviceKind.ADF, 1, 4, SETTINGS)
    assert checked["plaintext"] > flood_lookups
    assert checked["encrypted"] >= 1
