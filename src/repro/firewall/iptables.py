"""A netfilter/iptables software-firewall model.

The paper benchmarks iptables as the software baseline: filtering happens
on the *host* CPU, which is orders of magnitude faster per rule than the
NIC's embedded processor, so iptables shows no bandwidth loss below 64
rules at 100 Mbps and cannot be flooded at rates achievable on the wire
(Hoffman et al. [10]; paper §4.1/§4.3).

The model filters both directions through per-direction chains (INPUT and
OUTPUT), each evaluation paying a host-CPU service time on a bounded
softirq backlog queue.
"""

from __future__ import annotations

from typing import Optional

from repro import calibration
from repro.firewall.rules import Action, Direction
from repro.firewall.ruleset import RuleSet
from repro.net.addresses import MacAddress
from repro.net.packet import Ipv4Packet
from repro.nic.queues import ServiceQueue
from repro.sim.engine import Simulator


class IptablesFilter:
    """Host-resident stateless packet filter (iptables model).

    Parameters
    ----------
    sim:
        Simulation kernel.
    input_chain:
        Rule-set applied to inbound packets.
    output_chain:
        Rule-set applied to outbound packets (default: allow everything,
        matching the paper's configurations, which filter inbound).
    cost_model:
        Host-CPU cost constants.
    backlog:
        Softirq backlog bound, in packets.
    """

    profile_category = "firewall.iptables"

    def __init__(
        self,
        sim: Simulator,
        input_chain: RuleSet,
        output_chain: Optional[RuleSet] = None,
        cost_model: calibration.NicCostModel = calibration.IPTABLES_COST_MODEL,
        backlog: int = calibration.IPTABLES_BACKLOG,
    ):
        self.sim = sim
        self.input_chain = input_chain
        self.output_chain = output_chain if output_chain is not None else RuleSet(
            [], default_action=Action.ALLOW, name="output-accept"
        )
        self.cost_model = cost_model
        self.host = None
        self._queue = ServiceQueue(
            sim,
            name="iptables",
            capacity=backlog,
            service_time=self._service_time,
            on_complete=self._completed,
            profile_category=f"{self.profile_category}.proc",
        )
        # Counters
        self.accepted_in = 0
        self.dropped_in = 0
        self.accepted_out = 0
        self.dropped_out = 0
        self.dropped_backlog = 0
        # Compiled-classifier health across both chains (callback-backed,
        # free per packet; see repro.firewall.compiled).
        metrics = sim.metrics
        metrics.counter_fn(
            "fw_compiled_compiles",
            lambda: self.input_chain.compiled_stats.compiles
            + self.output_chain.compiled_stats.compiles,
            component="iptables",
        )
        metrics.counter_fn(
            "fw_compiled_hits",
            lambda: self.input_chain.compiled_stats.hits
            + self.output_chain.compiled_stats.hits,
            component="iptables",
        )

    def bind_host(self, host) -> None:
        """Called by :meth:`repro.host.Host.install_iptables`."""
        self.host = host

    # ------------------------------------------------------------------
    # Host-facing API
    # ------------------------------------------------------------------

    def filter_input(self, packet: Ipv4Packet) -> None:
        """Submit an inbound packet to the INPUT chain."""
        if not self._queue.offer((packet, Direction.INBOUND, None)):
            self.dropped_backlog += 1

    def filter_output(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        """Submit an outbound packet to the OUTPUT chain."""
        if not self._queue.offer((packet, Direction.OUTBOUND, dst_mac)):
            self.dropped_backlog += 1

    # ------------------------------------------------------------------

    def _service_time(self, item) -> float:
        packet, direction, _dst_mac = item
        chain = self.input_chain if direction == Direction.INBOUND else self.output_chain
        # Pre-compute the verdict so the service time reflects the rules
        # actually traversed; stash it on the work item for _completed.
        result = chain.evaluate(packet, direction)
        self._pending_result = result
        self._pending_engine = chain.last_engine
        self._pending_t0 = self.sim.now
        # NicCostModel.service_time, inline and in its float order.
        model = self.cost_model
        return model.c0 + model.c_rule * result.rules_traversed + model.c_byte * packet.size

    def _completed(self, item) -> None:
        packet, direction, dst_mac = item
        result = self._pending_result
        tracer = self.sim.tracer
        if tracer.hot:
            self._trace_verdict(tracer, packet, direction, result)
        if direction == Direction.INBOUND:
            if result.allowed:
                self.accepted_in += 1
                self.host.deliver_filtered(packet)
            else:
                self.dropped_in += 1
        else:
            if result.allowed:
                self.accepted_out += 1
                self.host.transmit_filtered(packet, dst_mac)
            else:
                self.dropped_out += 1

    def _trace_verdict(self, tracer, packet, direction, result) -> None:
        ctx = getattr(packet, "trace_ctx", None)
        if ctx is None:
            return
        track = f"{self.host.name}.iptables" if self.host is not None else "iptables"
        now = self.sim.now
        if tracer.active:
            record = tracer.span(
                ctx, "iptables", track,
                self._pending_t0, now,
                parent=getattr(packet, "trace_parent", None),
                direction=direction.name.lower(),
                verdict="allow" if result.allowed else "deny",
                rules=result.rules_traversed,
                engine=self._pending_engine,
            )
            packet.trace_parent = record.span_id
        if not result.allowed:
            tracer.event(
                now, track, "fw-deny", ctx,
                direction=direction.name.lower(),
                packet=packet.describe(),
            )

    @property
    def utilisation_time(self) -> float:
        """Total busy seconds spent filtering."""
        return self._queue.busy_time
