"""The flood-tolerance validation methodology (the paper's core contribution).

The paper's argument is that security devices must be *validated* before
deployment, and it contributes a concrete, transferable methodology for
NIC-based distributed firewalls:

1. measure available bandwidth as a function of rule-set depth
   (:meth:`FloodToleranceValidator.available_bandwidth`),
2. measure available bandwidth while a packet flood is directed at the
   device (:meth:`FloodToleranceValidator.bandwidth_under_flood`),
3. find the minimum flood rate that denies service, as a function of
   rule-set depth and of whether the flood is allowed or denied by the
   policy (:meth:`FloodToleranceValidator.minimum_flood_rate`),
4. measure application-level (HTTP) impact
   (:meth:`FloodToleranceValidator.http_performance`),
5. summarise deployability (:meth:`FloodToleranceValidator.validate`).

Every measurement builds a fresh, isolated testbed and runs the real
tool implementations (:mod:`repro.apps`) over the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.apps.http_load import HttpLoadClient, HttpLoadResult
from repro.apps.httpd import HttpServer
from repro.apps.iperf import IperfClient, IperfServer
from repro.core import metrics
from repro.core.testbed import DeviceKind, Testbed
from repro.firewall.builders import allow_all, padded_ruleset, vpg_ruleset
from repro.firewall.rules import Action, PortRange, Rule, VpgRule
from repro.net.packet import IpProtocol
from repro.sim import units

#: TCP MSS used by VPG-protected hosts so the sealed outer frame fits the
#: Ethernet MTU (see repro.crypto.vpg for the encapsulation overhead).
VPG_MSS = 1400


@dataclass(frozen=True)
class MeasurementSettings:
    """Timing and addressing knobs shared by all measurements."""

    #: iperf measurement window (seconds of virtual time).  The paper used
    #: longer windows; the steady-state estimate converges well before 1 s.
    duration: float = 1.0
    #: Flood head start before the bandwidth measurement begins ("first, a
    #: packet flood was directed at the firewall, and then the available
    #: bandwidth was measured").
    flood_lead: float = 0.2
    #: TCP port of the iperf service (the bandwidth-sensitive service).
    iperf_port: int = 5001
    #: TCP port targeted by floods that the policy *denies*.
    denied_flood_port: int = 7777
    #: Base RNG seed; repetitions offset it.
    seed: int = 1
    #: Repeated samples per data point (the paper averaged three).
    repetitions: int = 1
    #: http_load window (the paper used 30 s; fetch statistics converge
    #: much sooner on the simulated testbed).
    http_duration: float = 3.0
    #: Web page size served by the Apache model.
    http_page_size: int = 10240


@dataclass
class BandwidthMeasurement:
    """Outcome of one available-bandwidth measurement."""

    mbps: float
    rule_depth: int
    flood_rate_pps: float = 0.0
    vpg_count: int = 0
    #: The target card locked up during the measurement (EFW deny-flood).
    lockup: bool = False
    #: The iperf connection could never be established.
    connect_failed: bool = False

    @property
    def is_dos(self) -> bool:
        """The paper's criterion: bandwidth approximately zero."""
        return metrics.is_denial_of_service(self.mbps)


@dataclass
class MinimumFloodResult:
    """Outcome of a minimum-DoS-flood-rate search."""

    rule_depth: int
    flood_allowed: bool
    #: The minimum flood rate that caused a denial of service, or None.
    rate_pps: Optional[float] = None
    #: The device wedged before a conventional DoS could be measured
    #: (the EFW deny-flood lockup); ``lockup_rate_pps`` is the flood rate
    #: at which it happened.
    lockup: bool = False
    lockup_rate_pps: Optional[float] = None
    #: No DoS was achievable up to the wire's maximum frame rate.
    not_achievable: bool = False

    @property
    def measurable(self) -> bool:
        """True when a conventional minimum rate was found."""
        return self.rate_pps is not None


@dataclass
class HttpMeasurement:
    """Outcome of one HTTP application-performance measurement."""

    fetches_per_second: float
    mean_connect_ms: float
    mean_first_response_ms: float
    rule_depth: int
    vpg_count: int = 0
    failures: int = 0


class FloodToleranceValidator:
    """Runs the paper's methodology against one device kind.

    Parameters
    ----------
    device:
        The device under test (standard NIC, EFW, ADF, iptables).
    settings:
        Timing/addressing knobs; the defaults match the experiment modules.
    testbed_options:
        Extra keyword arguments forwarded to every :class:`Testbed` built
        (ablation knobs such as ``ring_size`` or ``efw_lockup_enabled``).
    """

    def __init__(
        self,
        device: DeviceKind,
        settings: MeasurementSettings = MeasurementSettings(),
        **testbed_options,
    ):
        self.device = device
        self.settings = settings
        self.testbed_options = dict(testbed_options)

    # ------------------------------------------------------------------
    # Rule-set construction (the paper's §3 methodology)
    # ------------------------------------------------------------------

    def service_action_rule(self, port: int, action: Action = Action.ALLOW) -> Rule:
        """The action rule for a TCP service at ``port``.

        Symmetric so the service's response traffic matches at the same
        depth (EFW policies describe bidirectional service sessions).
        """
        return Rule(
            action=action,
            protocol=IpProtocol.TCP,
            dst_ports=PortRange.single(port),
            symmetric=True,
            name=f"action-{action.value}-{port}",
        )

    def bandwidth_ruleset(self, depth: int):
        """Rule-set with the iperf allow rule at ``depth``."""
        return padded_ruleset(depth, action_rule=self.service_action_rule(self.settings.iperf_port))

    def flood_ruleset(self, depth: int, flood_allowed: bool):
        """Rule-set for the minimum-flood-rate experiments.

        Allowed floods target the iperf port itself (the attacker spoofs
        "the right IP address and ports"), so the action rule at ``depth``
        covers both the flood and the measured service.  Denied floods
        target a separate port whose DENY rule sits at ``depth``; the
        iperf allow rule follows immediately after it.
        """
        if flood_allowed:
            return self.bandwidth_ruleset(depth)
        ruleset = padded_ruleset(
            depth,
            action_rule=self.service_action_rule(self.settings.denied_flood_port, Action.DENY),
        )
        with ruleset.mutate() as edit:
            edit.append(self.service_action_rule(self.settings.iperf_port))
        return ruleset

    def http_ruleset(self, depth: int):
        """Rule-set with the HTTP allow rule at ``depth``."""
        return padded_ruleset(depth, action_rule=self.service_action_rule(80))

    # ------------------------------------------------------------------
    # Experiment 1/2: available bandwidth (optionally under flood)
    # ------------------------------------------------------------------

    def available_bandwidth(
        self,
        depth: int = 1,
        vpg_count: int = 0,
        flood_rate_pps: float = 0.0,
        flood_allowed: bool = True,
        single_allow_all_rule: bool = False,
    ) -> BandwidthMeasurement:
        """Measure iperf TCP bandwidth between client and target.

        ``vpg_count > 0`` runs the ADF VPG variant (the client carries an
        ADF too).  ``single_allow_all_rule`` reproduces the Figure 3a
        configuration exactly (one default allow-all rule).
        """
        samples: List[float] = []
        lockup = False
        connect_failed = False
        for repetition in range(self.settings.repetitions):
            bed = self._build_testbed(vpg_count=vpg_count, seed_offset=repetition)
            self._install_policies(bed, depth, vpg_count, flood_allowed, single_allow_all_rule)
            server = IperfServer(bed.target, self.settings.iperf_port)
            if flood_rate_pps > 0:
                flood = FloodGenerator(
                    bed.attacker,
                    spec=FloodSpec(
                        kind=FloodKind.TCP_ACK,
                        dst_port=(
                            self.settings.iperf_port
                            if flood_allowed
                            else self.settings.denied_flood_port
                        ),
                    ),
                )
                flood.start(bed.target.ip, flood_rate_pps)
                bed.run(self.settings.flood_lead)
            session = IperfClient(bed.client).start_tcp(
                bed.target.ip, self.settings.iperf_port, duration=self.settings.duration
            )
            bed.run(self.settings.duration + 0.01)
            result = session.result()
            samples.append(result.mbps)
            connect_failed = connect_failed or result.connect_failed
            if self.device.is_embedded and bed.target.nic.wedged:
                lockup = True
            server.close()
        return BandwidthMeasurement(
            mbps=metrics.mean(samples),
            rule_depth=depth,
            flood_rate_pps=flood_rate_pps,
            vpg_count=vpg_count,
            lockup=lockup,
            connect_failed=connect_failed,
        )

    def bandwidth_under_flood(
        self,
        flood_rate_pps: float,
        vpg_count: int = 0,
    ) -> BandwidthMeasurement:
        """The Figure 3a configuration: single-rule rule-set plus flood."""
        return self.available_bandwidth(
            depth=1,
            vpg_count=vpg_count,
            flood_rate_pps=flood_rate_pps,
            flood_allowed=True,
            single_allow_all_rule=vpg_count == 0,
        )

    # ------------------------------------------------------------------
    # Experiment 3: minimum DoS flood rate
    # ------------------------------------------------------------------

    def minimum_flood_rate(
        self,
        depth: int,
        flood_allowed: bool = True,
        start_rate: float = 500.0,
        max_rate: float = units.MAX_FRAME_RATE_64B,
        relative_tolerance: float = 0.08,
        probe_duration: Optional[float] = None,
    ) -> MinimumFloodResult:
        """Find the smallest flood rate that denies service at ``depth``.

        The paper incremented the rate until bandwidth hit ~0; we bracket
        with exponential growth and refine by bisection — the same
        measurement, fewer probes.  A firmware lockup during any probe is
        reported instead of a rate (the EFW deny-flood behaviour).
        """
        probe_settings = self.settings
        if probe_duration is not None:
            probe_settings = replace(self.settings, duration=probe_duration)
        prober = FloodToleranceValidator(self.device, probe_settings, **self.testbed_options)

        def probe(rate: float) -> BandwidthMeasurement:
            return prober.available_bandwidth(
                depth=depth,
                flood_rate_pps=rate,
                flood_allowed=flood_allowed,
            )

        # Bracket by exponential growth.
        rate = start_rate
        last_good = 0.0
        bracket_high: Optional[float] = None
        while rate <= max_rate:
            measurement = probe(rate)
            if measurement.lockup:
                return MinimumFloodResult(
                    rule_depth=depth,
                    flood_allowed=flood_allowed,
                    lockup=True,
                    lockup_rate_pps=rate,
                )
            if measurement.is_dos:
                bracket_high = rate
                break
            last_good = rate
            rate *= 2
        if bracket_high is None:
            # One last probe at the wire maximum.
            measurement = probe(max_rate)
            if measurement.lockup:
                return MinimumFloodResult(
                    rule_depth=depth,
                    flood_allowed=flood_allowed,
                    lockup=True,
                    lockup_rate_pps=max_rate,
                )
            if not measurement.is_dos:
                return MinimumFloodResult(
                    rule_depth=depth, flood_allowed=flood_allowed, not_achievable=True
                )
            bracket_high = max_rate

        # Bisection refinement.
        low, high = last_good, bracket_high
        while high - low > relative_tolerance * high:
            middle = (low + high) / 2
            measurement = probe(middle)
            if measurement.lockup:
                return MinimumFloodResult(
                    rule_depth=depth,
                    flood_allowed=flood_allowed,
                    lockup=True,
                    lockup_rate_pps=middle,
                )
            if measurement.is_dos:
                high = middle
            else:
                low = middle
        return MinimumFloodResult(
            rule_depth=depth, flood_allowed=flood_allowed, rate_pps=high
        )

    # ------------------------------------------------------------------
    # Experiment 4: HTTP application performance
    # ------------------------------------------------------------------

    def http_performance(self, depth: int = 1, vpg_count: int = 0) -> HttpMeasurement:
        """Measure web-server performance behind the device (Table 1)."""
        bed = self._build_testbed(vpg_count=vpg_count)
        if vpg_count > 0:
            self._install_vpg_policies(bed, vpg_count, port=80)
        else:
            ruleset = self.http_ruleset(depth)
            bed.install_target_policy(ruleset)
        server = HttpServer(bed.target, port=80, pages={"/": self.settings.http_page_size})
        session = HttpLoadClient(bed.client).start(
            bed.target.ip, port=80, duration=self.settings.http_duration
        )
        bed.run(self.settings.http_duration + 0.01)
        result: HttpLoadResult = session.result()
        server.close()
        return HttpMeasurement(
            fetches_per_second=result.fetches_per_second,
            mean_connect_ms=result.mean_connect_ms,
            mean_first_response_ms=result.mean_first_response_ms,
            rule_depth=depth,
            vpg_count=vpg_count,
            failures=result.failures,
        )

    # ------------------------------------------------------------------
    # Experiment 5: deployability summary
    # ------------------------------------------------------------------

    def validate(
        self,
        depths: tuple = (1, 8, 16, 32, 64),
        progress: Optional[Callable[[str], None]] = None,
    ) -> "ValidationReport":
        """Run the full methodology and summarise deployability."""
        report = ValidationReport(device=self.device)
        baseline = FloodToleranceValidator(
            DeviceKind.STANDARD, self.settings
        ).available_bandwidth(depth=1)
        report.baseline_mbps = baseline.mbps
        for depth in depths:
            if progress is not None:
                progress(f"bandwidth at depth {depth}")
            measurement = self.available_bandwidth(depth=depth)
            report.bandwidth_by_depth.append(measurement)
        for depth in (min(depths), max(depths)):
            for flood_allowed in (True, False):
                if progress is not None:
                    label = "allowed" if flood_allowed else "denied"
                    progress(f"minimum flood rate at depth {depth} ({label})")
                result = self.minimum_flood_rate(depth, flood_allowed=flood_allowed)
                report.minimum_flood_rates.append(result)
        report.finalise()
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_testbed(self, vpg_count: int = 0, seed_offset: int = 0) -> Testbed:
        client_device = DeviceKind.ADF if vpg_count > 0 else DeviceKind.STANDARD
        if vpg_count > 0 and self.device != DeviceKind.ADF:
            raise ValueError("VPG measurements require the ADF device")
        return Testbed(
            device=self.device,
            client_device=client_device,
            seed=self.settings.seed + seed_offset,
            **self.testbed_options,
        )

    def _install_policies(
        self,
        bed: Testbed,
        depth: int,
        vpg_count: int,
        flood_allowed: bool,
        single_allow_all_rule: bool,
    ) -> None:
        if vpg_count > 0:
            self._install_vpg_policies(bed, vpg_count, port=self.settings.iperf_port)
            return
        if single_allow_all_rule:
            bed.install_target_policy(allow_all())
            return
        bed.install_target_policy(self.flood_ruleset(depth, flood_allowed))

    def _install_vpg_policies(self, bed: Testbed, vpg_count: int, port: int) -> None:
        matching = VpgRule(
            action=Action.ALLOW,
            protocol=IpProtocol.TCP,
            dst_ports=PortRange.single(port),
            vpg_id=500,
            name=f"vpg-service-{port}",
        )
        bed.install_target_policy(vpg_ruleset(vpg_count, matching, name=f"vpg-{vpg_count}-target"))
        bed.install_client_policy(vpg_ruleset(1, matching, name="vpg-client"))
        # Shrink the MSS on both ends so sealed frames fit the MTU.
        bed.client.tcp.default_mss = VPG_MSS
        bed.target.tcp.default_mss = VPG_MSS


@dataclass
class ValidationReport:
    """Deployability summary produced by :meth:`FloodToleranceValidator.validate`."""

    device: DeviceKind
    baseline_mbps: float = 0.0
    bandwidth_by_depth: List[BandwidthMeasurement] = field(default_factory=list)
    minimum_flood_rates: List[MinimumFloodResult] = field(default_factory=list)
    #: Largest measured depth with no significant bandwidth loss.
    max_safe_depth: Optional[int] = None
    #: Smallest minimum-DoS rate observed (None if no DoS achievable).
    worst_case_flood_pps: Optional[float] = None
    #: True if any probe wedged the card.
    lockup_observed: bool = False
    #: True if the device can be denied service at achievable rates.
    flood_vulnerable: bool = False

    def finalise(self) -> None:
        """Derive the summary fields from the raw measurements."""
        safe = None
        for measurement in self.bandwidth_by_depth:
            if not metrics.is_significant_loss(self.baseline_mbps, measurement.mbps):
                if safe is None or measurement.rule_depth > safe:
                    safe = measurement.rule_depth
        self.max_safe_depth = safe
        rates = [
            result.rate_pps for result in self.minimum_flood_rates if result.measurable
        ]
        self.worst_case_flood_pps = min(rates) if rates else None
        self.lockup_observed = any(result.lockup for result in self.minimum_flood_rates)
        self.flood_vulnerable = self.worst_case_flood_pps is not None or self.lockup_observed

    def summary(self) -> str:
        """A short human-readable verdict."""
        lines = [f"Validation report for {self.device.value}:"]
        lines.append(f"  baseline bandwidth: {self.baseline_mbps:.1f} Mbps")
        if self.max_safe_depth is not None:
            lines.append(f"  no significant loss up to depth {self.max_safe_depth}")
        else:
            lines.append("  significant loss at every measured depth")
        if self.worst_case_flood_pps is not None:
            lines.append(
                f"  denial of service achievable at {self.worst_case_flood_pps:,.0f} packets/s"
            )
        elif not self.lockup_observed:
            lines.append("  no denial of service achievable at wire-rate floods")
        if self.lockup_observed:
            lines.append("  WARNING: firmware lockup observed under denied floods")
        return "\n".join(lines)
