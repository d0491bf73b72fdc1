"""Ablations of the design choices DESIGN.md calls out.

Each ablation switches off one mechanism and re-measures, demonstrating
that the mechanism — not an artefact — produces the corresponding result:

* **response-traffic** — the allow-vs-deny flood-tolerance factor of ~2
  comes from host responses (RST) crossing the card; with resets
  suppressed, the allowed-flood minimum rate rises to the denied level.
* **lazy-decrypt** — the "non-matching VPGs are nearly free" observation
  depends on lazy decryption; an eager card pays crypto per VPG rule
  traversed and its bandwidth falls with VPG count.
* **ring-size** — the RX ring bound shapes how sharply bandwidth
  collapses around the saturation knee.
* **stateful-firewall** — connection tracking turns per-packet rule cost
  into per-connection cost on deep policies, but adds its own DoS
  surface: a spoofed flood can exhaust the flow table.

Every ablation's measurement points are independent simulations, so each
accepts a ``jobs`` worker-process count (see :mod:`repro.core.parallel`);
results are identical for any value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.methodology import FloodToleranceValidator, MeasurementSettings
from repro.core.parallel import SweepPointSpec
from repro.core.reports import format_table
from repro.experiments.config import RunConfig
from repro.core.testbed import DeviceKind, Testbed
from repro.apps.iperf import IperfClient, IperfServer


@dataclass
class AblationResult:
    """One ablation's (condition -> value) outcomes."""

    name: str
    unit: str
    outcomes: Dict[str, float] = field(default_factory=dict)

    def table(self) -> str:
        """The ablation as an aligned text table."""
        rows = [[condition, f"{value:,.1f}"] for condition, value in self.outcomes.items()]
        return format_table(["condition", self.unit], rows, title=f"Ablation: {self.name}")


def _minflood_rate_point(
    settings: MeasurementSettings, depth: int, flood_allowed: bool
) -> float:
    """ADF minimum-DoS-rate search (pps; 0.0 when no rate was found)."""
    validator = FloodToleranceValidator(DeviceKind.ADF, settings)
    search = validator.minimum_flood_rate(
        depth, flood_allowed=flood_allowed, probe_duration=0.6
    )
    return search.rate_pps or 0.0


def _muted_minflood_point(settings: MeasurementSettings, depth: int) -> float:
    """ADF minimum allowed-flood DoS rate with RST generation off."""
    validator = FloodToleranceValidator(DeviceKind.ADF, settings)
    return _min_flood_without_responses(validator, depth)


def response_traffic(
    settings: Optional[MeasurementSettings] = None,
    depth: int = 32,
    config: Optional[RunConfig] = None,
) -> AblationResult:
    """Allowed-flood minimum DoS rate, with and without host responses.

    Runs on the ADF: the EFW wedges under any denied flood, which would
    force the deny reference onto a different device and muddy the
    comparison.
    """
    settings = settings if settings is not None else MeasurementSettings()
    specs = [
        SweepPointSpec(
            label="ablation response-traffic: baseline (allow)",
            fn=_minflood_rate_point,
            kwargs={"settings": settings, "depth": depth, "flood_allowed": True},
        ),
        SweepPointSpec(
            label="ablation response-traffic: deny reference",
            fn=_minflood_rate_point,
            kwargs={"settings": settings, "depth": depth, "flood_allowed": False},
        ),
        SweepPointSpec(
            label="ablation response-traffic: responses OFF",
            fn=_muted_minflood_point,
            kwargs={"settings": settings, "depth": depth},
        ),
    ]
    allow, deny, muted = (config or RunConfig()).executor().run(specs)
    result = AblationResult(name="response-traffic (ADF)", unit="min DoS flood (pps)")
    result.outcomes["allowed flood, responses ON"] = allow
    result.outcomes["denied flood (reference)"] = deny
    result.outcomes["allowed flood, responses OFF"] = muted
    return result


def _min_flood_without_responses(validator: FloodToleranceValidator, depth: int) -> float:
    """Bisect the minimum allowed-flood DoS rate with RST generation off."""
    from repro.apps.flood import FloodGenerator, FloodSpec, FloodKind

    settings = validator.settings

    def probe(rate: float) -> float:
        bed = validator._build_testbed()
        bed.target.tcp.generate_resets = False  # the ablation switch
        bed.install_target_policy(validator.flood_ruleset(depth, flood_allowed=True))
        server = IperfServer(bed.target, settings.iperf_port)
        flood = FloodGenerator(
            bed.attacker, FloodSpec(kind=FloodKind.TCP_ACK, dst_port=settings.iperf_port)
        )
        flood.start(bed.target.ip, rate)
        bed.run(settings.flood_lead)
        session = IperfClient(bed.client).start_tcp(
            bed.target.ip, settings.iperf_port, duration=0.6
        )
        bed.run(0.6 + 0.01)
        server.close()
        return session.result().mbps

    low, high = 500.0, 500.0
    while probe(high) >= 1.0:
        low = high
        high *= 2
        if high > 150000:
            return high
    while high - low > 0.08 * high:
        middle = (low + high) / 2
        if probe(middle) < 1.0:
            high = middle
        else:
            low = middle
    return high


def _lazy_decrypt_point(
    lazy: bool, vpg_count: int, settings: MeasurementSettings
) -> float:
    """ADF VPG bandwidth (Mbps) with decryption forced lazy or eager."""
    validator = FloodToleranceValidator(DeviceKind.ADF, settings)
    bed = validator._build_testbed(vpg_count=vpg_count)
    bed.target.nic.lazy_decrypt = lazy
    validator._install_vpg_policies(bed, vpg_count, port=settings.iperf_port)
    server = IperfServer(bed.target, settings.iperf_port)
    session = IperfClient(bed.client).start_tcp(
        bed.target.ip, settings.iperf_port, duration=settings.duration
    )
    bed.run(settings.duration + 0.01)
    server.close()
    return session.result().mbps


def lazy_decrypt(
    settings: Optional[MeasurementSettings] = None,
    vpg_counts: Tuple[int, ...] = (1, 4, 8),
    config: Optional[RunConfig] = None,
) -> AblationResult:
    """ADF VPG bandwidth with lazy vs. eager decryption."""
    settings = settings if settings is not None else MeasurementSettings()
    plans = [
        (lazy, vpg_count) for lazy in (True, False) for vpg_count in vpg_counts
    ]
    specs = [
        SweepPointSpec(
            label=f"ablation lazy-decrypt: {'lazy' if lazy else 'eager'} vpgs={vpg_count}",
            fn=_lazy_decrypt_point,
            kwargs={"lazy": lazy, "vpg_count": vpg_count, "settings": settings},
        )
        for lazy, vpg_count in plans
    ]
    values = (config or RunConfig()).executor().run(specs)
    result = AblationResult(name="lazy-decrypt", unit="bandwidth (Mbps)")
    for (lazy, vpg_count), mbps in zip(plans, values):
        mode = "lazy" if lazy else "eager"
        result.outcomes[f"{mode}, {vpg_count} VPG(s)"] = mbps
    return result


def _ring_size_point(size: int, flood_rate: float, settings: MeasurementSettings) -> float:
    """EFW bandwidth (Mbps) under flood with one RX ring size."""
    validator = FloodToleranceValidator(DeviceKind.EFW, settings, ring_size=size)
    return validator.bandwidth_under_flood(flood_rate).mbps


def ring_size(
    settings: Optional[MeasurementSettings] = None,
    ring_sizes: Tuple[int, ...] = (16, 64, 256),
    flood_rate: float = 35000.0,
    config: Optional[RunConfig] = None,
) -> AblationResult:
    """Bandwidth under a near-saturating flood as the RX ring grows."""
    settings = settings if settings is not None else MeasurementSettings()
    specs = [
        SweepPointSpec(
            label=f"ablation ring-size: ring={size}",
            fn=_ring_size_point,
            kwargs={"size": size, "flood_rate": flood_rate, "settings": settings},
        )
        for size in ring_sizes
    ]
    values = (config or RunConfig()).executor().run(specs)
    result = AblationResult(
        name=f"ring-size (flood {flood_rate:,.0f} pps)", unit="bandwidth (Mbps)"
    )
    for size, mbps in zip(ring_sizes, values):
        result.outcomes[f"ring={size}"] = mbps
    return result


def _iptables_cpu_point(
    stateful: bool, depth: int, settings: MeasurementSettings
) -> Tuple[float, float]:
    """(bandwidth Mbps, filtering CPU ms) for one iptables variant."""
    from repro.firewall.builders import padded_ruleset
    from repro.firewall.conntrack import StatefulIptablesFilter
    from repro.firewall.iptables import IptablesFilter
    from repro.firewall.rules import Action, PortRange, Rule
    from repro.net.packet import IpProtocol

    chain = padded_ruleset(
        depth,
        action_rule=Rule(
            action=Action.ALLOW,
            protocol=IpProtocol.TCP,
            dst_ports=PortRange.single(settings.iperf_port),
            symmetric=True,
        ),
    )
    bed = Testbed(device=DeviceKind.STANDARD, seed=settings.seed)
    if stateful:
        filt = StatefulIptablesFilter(bed.sim, input_chain=chain)
    else:
        filt = IptablesFilter(bed.sim, input_chain=chain)
    bed.target.install_iptables(filt)
    server = IperfServer(bed.target, settings.iperf_port)
    session = IperfClient(bed.client).start_tcp(
        bed.target.ip, settings.iperf_port, duration=settings.duration
    )
    bed.run(settings.duration + 0.01)
    server.close()
    return session.result().mbps, filt.utilisation_time * 1e3


def _conntrack_exhaustion_point(settings: MeasurementSettings) -> Tuple[float, float]:
    """(Mbps during spoofed flood, flows dropped) for a 256-entry table."""
    from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
    from repro.firewall.builders import padded_ruleset
    from repro.firewall.conntrack import StatefulIptablesFilter
    from repro.firewall.rules import Action, Rule

    bed = Testbed(device=DeviceKind.STANDARD, seed=settings.seed)
    open_chain = padded_ruleset(
        1, action_rule=Rule(action=Action.ALLOW, symmetric=True)
    )
    filt = StatefulIptablesFilter(bed.sim, input_chain=open_chain, max_entries=256)
    bed.target.install_iptables(filt)
    server = IperfServer(bed.target, settings.iperf_port)
    flood = FloodGenerator(
        bed.attacker,
        FloodSpec(kind=FloodKind.UDP, dst_port=9999, randomize_src=True),
    )
    flood.start(bed.target.ip, rate_pps=5000)
    bed.run(0.3)
    session = IperfClient(bed.client).start_tcp(
        bed.target.ip, settings.iperf_port, duration=settings.duration
    )
    bed.run(settings.duration + 0.01)
    flood.stop()
    server.close()
    return session.result().mbps, float(filt.dropped_conntrack_full)


def stateful_firewall(
    settings: Optional[MeasurementSettings] = None,
    depth: int = 256,
    config: Optional[RunConfig] = None,
) -> AblationResult:
    """Stateless vs. stateful iptables: CPU cost and state exhaustion.

    At 100 Mbps both variants sustain full bandwidth (the host CPU is
    never the bottleneck — the paper's point about software firewalls),
    so the comparison is *filtering CPU time* on a deep policy, plus the
    stateful variant's own failure mode: a spoofed-source flood filling
    the conntrack table locks out NEW legitimate flows.
    """
    settings = settings if settings is not None else MeasurementSettings()
    specs = [
        SweepPointSpec(
            label="ablation stateful-firewall: stateless CPU",
            fn=_iptables_cpu_point,
            kwargs={"stateful": False, "depth": depth, "settings": settings},
        ),
        SweepPointSpec(
            label="ablation stateful-firewall: stateful CPU",
            fn=_iptables_cpu_point,
            kwargs={"stateful": True, "depth": depth, "settings": settings},
        ),
        SweepPointSpec(
            label="ablation stateful-firewall: conntrack exhaustion",
            fn=_conntrack_exhaustion_point,
            kwargs={"settings": settings},
        ),
    ]
    executor = (config or RunConfig()).executor()
    (stateless_mbps, stateless_cpu), (stateful_mbps, stateful_cpu), exhaustion = (
        executor.run(specs)
    )
    flood_mbps, dropped = exhaustion

    result = AblationResult(name="stateful-firewall (iptables)", unit="value")
    result.outcomes[f"stateless: bandwidth (Mbps), depth {depth}"] = stateless_mbps
    result.outcomes[f"stateful:  bandwidth (Mbps), depth {depth}"] = stateful_mbps
    result.outcomes["stateless: filtering CPU (ms)"] = stateless_cpu
    result.outcomes["stateful:  filtering CPU (ms)"] = stateful_cpu
    result.outcomes["stateful:  Mbps during spoofed flood (256-entry table)"] = flood_mbps
    result.outcomes["stateful:  flows dropped, table full"] = dropped
    return result


def run(config: Optional[RunConfig] = None) -> List[AblationResult]:
    """Run all four ablations (grid knobs: ``vpg_counts``, ``ring_sizes``,
    ``stateful_depth``).

    ``config`` is a :class:`~repro.experiments.RunConfig`.
    """
    config = config or RunConfig()
    preset = config.resolved_preset("ablations")
    settings = preset.settings
    return [
        response_traffic(settings, config=config),
        lazy_decrypt(
            settings, vpg_counts=preset.grid("vpg_counts", (1, 4, 8)), config=config
        ),
        ring_size(
            settings, ring_sizes=preset.grid("ring_sizes", (16, 64, 256)), config=config
        ),
        stateful_firewall(
            settings, depth=preset.grid("stateful_depth", 256), config=config
        ),
    ]
