"""Tests for the typed policy-push accounting (repro.policy.push)."""

import pytest

from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all, deny_all
from repro.policy.push import ACKED, FAILED, PENDING, HostPushOutcome, PushReport


def outcome(host="target", status=ACKED, sent_at=1.0, acked_at=1.25, attempts=1):
    result = HostPushOutcome(
        host=host, policy="p", transport="udp", sent_at=sent_at, attempts=attempts
    )
    result.status = status
    if status == ACKED:
        result.acked_at = acked_at
    elif status == FAILED:
        result.failed_at = acked_at
    return result


class TestHostPushOutcome:
    def test_latency_measured_send_to_ack(self):
        assert outcome(sent_at=2.0, acked_at=2.5).latency == pytest.approx(0.5)

    def test_latency_none_until_acked(self):
        assert outcome(status=PENDING).latency is None
        assert outcome(status=FAILED).latency is None

    def test_status_flags(self):
        assert outcome(status=ACKED).acked
        assert outcome(status=FAILED).failed
        pending = outcome(status=PENDING)
        assert not pending.acked and not pending.failed


class TestPushReport:
    def build(self):
        report = PushReport()
        report.add(outcome("a", ACKED, sent_at=0.0, acked_at=0.1))
        report.add(outcome("b", ACKED, sent_at=0.0, acked_at=0.4, attempts=3))
        report.add(outcome("c", FAILED, attempts=2))
        report.add(outcome("d", PENDING))
        return report

    def test_aggregates(self):
        report = self.build()
        assert report.hosts == ["a", "b", "c", "d"]
        assert report.acked == 2
        assert report.failed == 1
        assert report.pending == 1
        assert report.retried == 3  # (3-1) + (2-1)
        assert not report.all_acked
        assert report.failed_hosts() == ["c"]
        assert report.max_latency == pytest.approx(0.4)

    def test_all_acked_and_empty_latency(self):
        report = PushReport()
        assert not report.all_acked  # an empty round confirmed nothing
        assert report.max_latency is None
        report.add(outcome("a"))
        assert report.all_acked

    def test_outcome_lookup(self):
        report = self.build()
        assert report.outcome_for("b").attempts == 3
        with pytest.raises(KeyError):
            report.outcome_for("nope")

    def test_mapping_view_is_gone(self):
        # The dict-style view finished its deprecation cycle: consumers
        # use .outcomes / .outcome_for() and the aggregate properties.
        report = self.build()
        with pytest.raises(TypeError):
            report["a"]
        assert report.outcome_for("a").acked


class TestServerIntegration:
    def test_inline_push_returns_acked_outcome(self):
        bed = Testbed(device=DeviceKind.EFW)
        server = bed.policy_server
        server.define_policy("allow", allow_all())
        server.assign("target", "allow")
        result = server.push_policy("target", inline=True)
        assert isinstance(result, HostPushOutcome)
        assert result.acked and result.attempts == 1
        assert result.latency == pytest.approx(0.0)
        assert server.push_outcome("target") is result

    def test_networked_push_ack_closes_the_outcome(self):
        bed = Testbed(device=DeviceKind.EFW)
        server = bed.policy_server
        server.define_policy("deny", deny_all())
        server.assign("target", "deny")
        result = server.push_policy("target", inline=False)
        assert result.status == PENDING
        bed.run(0.5)
        assert result.acked
        assert result.latency > 0.0

    def test_push_all_builds_a_report(self):
        bed = Testbed(device=DeviceKind.ADF, client_device=DeviceKind.ADF)
        server = bed.policy_server
        server.define_policy("allow", allow_all())
        server.assign("target", "allow")
        server.assign("client", "allow")
        report = server.push_all(inline=True)
        assert isinstance(report, PushReport)
        assert sorted(report.hosts) == ["client", "target"]
        assert report.all_acked
