"""The embedded firewall NIC processing model (EFW/ADF common core).

The 3CR990-class card runs the filtering firmware on a slow embedded
processor that every packet — received *and* transmitted — must cross.
The model is a single-server FIFO (:class:`~repro.nic.queues.ServiceQueue`)
with a bounded ring and the per-packet service time of
:mod:`repro.calibration`:

``t = c0 + c_rule * rules_traversed + c_byte * frame_bytes (+ crypto)``

Everything the paper measured falls out of this one mechanism:

* bandwidth loss grows with rule depth (Figure 2),
* a flood of cheap small frames starves the processor and fills the ring,
  tail-dropping legitimate traffic (Figure 3a); a frame the processor
  refuses (ring full, or the card wedged) is counted without a work
  item being built for it,
* allowed floods cost double (the host's RST/ICMP responses cross the
  same processor on the way out), so denying flood traffic doubles the
  required flood rate (Figure 3b),
* VPG rules charge real crypto time only when they match — lazy
  decryption — so non-matching VPGs above the action rule are nearly free.

A work item crosses the processor in two calls, whatever its direction:
:meth:`EmbeddedFirewallNic._classify` fills in its verdict and returns
its service time when service starts, and
:meth:`EmbeddedFirewallNic._complete` applies the verdict when service
ends (an allowed ingress packet goes to the host, opened first under a
VPG; an allowed egress one is sealed under a VPG and framed for the
link).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import calibration
from repro import policy_ports
from repro.crypto.keys import VpgKeyStore
from repro.crypto.vpg import VpgContext, VpgError, VpgSealedPayload
from repro.firewall.rules import Direction, VpgRule
from repro.firewall.ruleset import RuleSet
from repro.net.addresses import MacAddress
from repro.net.packet import EthernetFrame, IpProtocol, Ipv4Packet
from repro.nic.base import BaseNic
from repro.nic.queues import ServiceQueue
from repro.sim import units
from repro.sim.engine import Simulator

_RX = "rx"
_TX = "tx"
_UDP = IpProtocol.UDP
_VPG = IpProtocol.VPG
_INBOUND = Direction.INBOUND
_OUTBOUND = Direction.OUTBOUND
_FRAME_OVERHEAD = units.ETHERNET_HEADER + units.ETHERNET_FCS
_MIN_FRAME = units.ETHERNET_MIN_FRAME


class _WorkItem:
    """One packet crossing the card's processor.

    The verdict (``allowed``, and the ``vpg_id`` whose crypto applies or
    None) is filled in when service starts.  The trailing slots
    (``ctx``, ``t_offer``, ``parent``, ``rules``, ``engine``) are
    assigned only while tracing is active and read back with ``getattr``
    defaults, so the untraced hot path never touches them.
    """

    __slots__ = ("kind", "packet", "frame_bytes", "dst_mac", "allowed", "vpg_id",
                 "ctx", "t_offer", "parent", "rules", "engine")

    def __init__(self, kind: str, packet: Ipv4Packet, frame_bytes: int, dst_mac=None):
        self.kind = kind
        self.packet = packet
        self.frame_bytes = frame_bytes
        self.dst_mac = dst_mac
        self.allowed = False
        self.vpg_id = None


class EmbeddedFirewallNic(BaseNic):
    """Common machinery for the EFW and ADF cards.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Device label.
    cost_model:
        Service-time constants for this device.
    ring_size:
        On-card ring bound (frames), shared by the RX and TX paths.
    """

    profile_category = "nic.embedded"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cost_model: calibration.NicCostModel,
        ring_size: int = calibration.EMBEDDED_NIC_RING_SIZE,
    ):
        super().__init__(sim, name)
        self.cost_model = cost_model
        self.policy: Optional[RuleSet] = None
        self.vpg_contexts: Dict[int, VpgContext] = {}
        #: The ADF avoids decrypting incoming packets until they reach
        #: the matching VPG rule (paper §4.1).  Setting this False models
        #: a naive implementation that attempts decryption at every VPG
        #: rule traversed — the ablation showing why laziness matters.
        self.lazy_decrypt = True
        self.fault = None  # installed by subclasses (see repro.nic.faults)
        #: Optional ingress token-bucket stage (see repro.nic.ratelimit),
        #: installed by the mitigation controller.  None = disabled, one
        #: attribute check per ingress packet.
        self.ingress_limiter = None
        #: Optional per-source ingress packet counts ({src -> count}),
        #: enabled by the flood detector to identify the top talker.
        #: None = disabled (the default; no per-packet dict work).
        self.source_tracking: Optional[Dict] = None
        self.processor = ServiceQueue(
            sim,
            name=f"{name}.proc",
            capacity=ring_size,
            service_time=self._classify,
            on_complete=self._complete,
            profile_category=f"{self.profile_category}.proc",
        )
        # Counters
        self.rx_allowed = 0
        self.rx_denied = 0
        self.tx_allowed = 0
        self.tx_denied = 0
        self.rules_evaluated = 0
        self.vpg_opened = 0
        self.vpg_auth_failures = 0
        self.agent_restarts = 0
        self._cache_evictions = 0
        # Callback-backed instruments over the plain counters above.  The
        # fault (and hence the lockup counter) is installed by subclasses
        # after this constructor, so its callback tolerates fault=None.
        metrics = sim.metrics
        metrics.counter_fn("nic_packets", lambda: self.rx_allowed, nic=name, direction="rx", verdict="allowed")
        metrics.counter_fn("nic_packets", lambda: self.rx_denied, nic=name, direction="rx", verdict="denied")
        metrics.counter_fn("nic_packets", lambda: self.tx_allowed, nic=name, direction="tx", verdict="allowed")
        metrics.counter_fn("nic_packets", lambda: self.tx_denied, nic=name, direction="tx", verdict="denied")
        metrics.counter_fn("nic_rules_evaluated", lambda: self.rules_evaluated, nic=name)
        # Compiled-classifier health for the installed policy: how often
        # the rule-set was (re)compiled and how many uncached verdicts the
        # fast path answered.  Callback-backed, so free per packet.
        metrics.counter_fn(
            "fw_compiled_compiles",
            lambda: self.policy.compiled_stats.compiles if self.policy is not None else 0,
            nic=name,
        )
        metrics.counter_fn(
            "fw_compiled_hits",
            lambda: self.policy.compiled_stats.hits if self.policy is not None else 0,
            nic=name,
        )
        metrics.counter_fn("nic_vpg_opened", lambda: self.vpg_opened, nic=name)
        metrics.counter_fn("nic_vpg_auth_failures", lambda: self.vpg_auth_failures, nic=name)
        metrics.counter_fn("nic_agent_restarts", lambda: self.agent_restarts, nic=name)
        metrics.counter_fn(
            "nic_lockups", lambda: self.fault.lockups if self.fault is not None else 0, nic=name
        )
        metrics.gauge_fn("nic_wedged", lambda: int(self.processor.paused), nic=name)

    # ------------------------------------------------------------------
    # Policy management (driven by the policy server)
    # ------------------------------------------------------------------

    def install_policy(self, policy: RuleSet, key_store: Optional[VpgKeyStore] = None) -> None:
        """Install a rule-set pushed by the policy server.

        VPG rules require ``key_store`` so the card can derive the group
        keys for the VPGs it is a member of.
        """
        vpg_rules = [rule for rule in policy if isinstance(rule, VpgRule)]
        if vpg_rules and key_store is None:
            raise ValueError("policy contains VPG rules but no key store was given")
        self.policy = policy
        if self.sim.tracer.hot:
            # Surface flow-cache pressure as trace events (sampled: one
            # event per eviction batch) so the watchdog can flag thrash.
            policy.trace_hook = self._cache_evicted
        self.vpg_contexts = {
            rule.vpg_id: key_store.context_for(rule.vpg_id) for rule in vpg_rules
        }

    #: Evictions batched per flow-cache-evict trace event.
    _EVICT_BATCH = 64

    def _cache_evicted(self) -> None:
        """Rule-set flow-cache eviction hook (installed while tracing)."""
        self._cache_evictions += 1
        if self._cache_evictions % self._EVICT_BATCH == 0:
            tracer = self.sim.tracer
            if tracer.hot:
                tracer.event(
                    self.sim.now, self.name, "flow-cache-evict",
                    None, count=self._EVICT_BATCH, total=self._cache_evictions,
                )

    def clear_policy(self) -> None:
        """Remove the installed policy (card passes traffic unfiltered)."""
        self.policy = None
        self.vpg_contexts = {}

    @property
    def wedged(self) -> bool:
        """True while the card's firmware is locked up."""
        return self.processor.paused

    def restart_agent(self) -> None:
        """Restart the firewall agent software.

        The paper's only recovery from the EFW deny-all lockup:
        "Restarting the firewall agent software restored functionality to
        the NIC until the next flood test."
        """
        self.agent_restarts += 1
        tracer = self.sim.tracer
        if tracer.hot:
            tracer.event(
                self.sim.now, self.name, "agent-restart",
                None, restarts=self.agent_restarts,
            )
        if self.fault is not None:
            self.fault.reset()
        self.processor.resume()

    # ------------------------------------------------------------------
    # Ingress / egress entry points
    # ------------------------------------------------------------------

    def install_ingress_limiter(self, limiter) -> None:
        """Install (or replace) the ingress rate-limiter stage."""
        self.ingress_limiter = limiter

    def clear_ingress_limiter(self) -> None:
        """Remove the ingress rate-limiter stage."""
        self.ingress_limiter = None

    @property
    def ratelimited_drops(self) -> int:
        """Frames shed by the ingress rate limiter (0 when disabled)."""
        limiter = self.ingress_limiter
        return 0 if limiter is None else limiter.dropped

    def _process_ingress(self, frame: EthernetFrame, packet: Ipv4Packet) -> None:
        tracking = self.source_tracking
        if tracking is not None:
            src = packet.src
            tracking[src] = tracking.get(src, 0) + 1
        limiter = self.ingress_limiter
        if limiter is not None and not limiter.admit(packet, self.sim.now):
            # Shed before the slow processor: the frame never costs
            # classification time, never becomes a deny, and never feeds
            # the deny-rate lockup fault.
            tracer = self.sim.tracer
            if tracer.hot:
                tracer.event(
                    self.sim.now, self.name, "rx-ratelimited",
                    getattr(packet, "trace_ctx", None), packet=packet.describe(),
                )
            return
        processor = self.processor
        tracer = self.sim.tracer
        if (processor._paused or len(processor._queue) >= processor.capacity) and not tracer.hot:
            # A wedged card or a full ring refuses the frame: offer counts
            # the refusal (dropped_paused or dropped_full) and reads
            # nothing of what it is offered, so no work item is built.
            # Under a hot tracer the item goes through, for the drop
            # event's trace context.
            processor.offer(packet)
            return
        item = _WorkItem(_RX, packet, frame.wire_size)
        if tracer.active:
            ctx = getattr(packet, "trace_ctx", None)
            if ctx is not None:
                item.ctx = ctx
                item.t_offer = self.sim.now
                # Capture the causal parent now: by service-completion
                # time the shared context head may belong to another
                # branch of the same (switch-flooded) frame.
                item.parent = getattr(packet, "trace_parent", None)
        processor.offer(item)

    def _process_egress(self, packet: Ipv4Packet, dst_mac: MacAddress) -> None:
        frame_bytes = packet.size + _FRAME_OVERHEAD
        if frame_bytes < _MIN_FRAME:
            frame_bytes = _MIN_FRAME
        item = _WorkItem(_TX, packet, frame_bytes, dst_mac)
        tracer = self.sim.tracer
        if tracer.active:
            ctx = getattr(packet, "trace_ctx", None)
            if ctx is not None:
                item.ctx = ctx
                item.t_offer = self.sim.now
                item.parent = getattr(packet, "trace_parent", None)
        self.processor.offer(item)

    # ------------------------------------------------------------------
    # Processor service
    # ------------------------------------------------------------------

    def _classify(self, item: _WorkItem) -> float:
        """The processor's service time for ``item``, its verdict filled in.

        The cost is :meth:`NicCostModel.service_time` inline, in its float
        order: c0 + c_rule * rules + c_byte * bytes, then += c_vpg0 +
        c_vpg_byte * vpg_bytes when a VPG rule matched.  With no rule
        walked the rule term is left out: it would add exactly 0.0.
        """
        model = self.cost_model
        policy = self.policy
        packet = item.packet
        protocol = packet.protocol
        if policy is None or (protocol == _UDP and policy_ports.is_control_traffic(packet)):
            # No policy passes everything.  The firewall agent's channel to
            # the policy server is reserved: it bypasses the rule table
            # (but still costs processor time, so a wedged card silences it).
            item.allowed = True
            return model.c0 + model.c_byte * item.frame_bytes
        rx = item.kind == _RX
        sealed = packet.payload
        if rx and type(sealed) is VpgSealedPayload and protocol == _VPG:
            result = policy.evaluate_encrypted(sealed.spi)
            rules = result.rules_traversed
            self.rules_evaluated += rules
            if getattr(item, "ctx", None) is not None:
                item.rules = rules
                item.engine = policy.last_engine
            vpg_matched = result.is_vpg and result.allowed
            item.allowed = vpg_matched
            cost = model.c0 + model.c_rule * rules + model.c_byte * item.frame_bytes
            if vpg_matched:
                item.vpg_id = result.rule.vpg_id
                cost += model.c_vpg0 + model.c_vpg_byte * sealed.size
            if not self.lazy_decrypt:
                # Eager variant: a trial decryption is charged for every
                # non-matching VPG rule walked past.
                extra_attempts = max(0, self._vpg_rules_traversed(result) - 1)
                cost += extra_attempts * (model.c_vpg0 + model.c_vpg_byte * sealed.size)
            return cost
        result = policy.evaluate(packet, _INBOUND if rx else _OUTBOUND)
        rules = result.rules_traversed
        self.rules_evaluated += rules
        if getattr(item, "ctx", None) is not None:
            item.rules = rules
            item.engine = policy.last_engine
        cost = model.c0 + model.c_rule * rules + model.c_byte * item.frame_bytes
        if rx:
            # A plaintext packet matching a VPG rule's selector is spoofed
            # traffic: group members always encrypt, so admission requires
            # a valid VPG encapsulation (sender authentication).
            item.allowed = result.allowed and not result.is_vpg
        elif result.allowed:
            item.allowed = True
            if result.is_vpg:
                item.vpg_id = result.rule.vpg_id
                cost += model.c_vpg0 + model.c_vpg_byte * packet.size
        return cost

    def _vpg_rules_traversed(self, result) -> int:
        """VPG rules walked up to (and including) the matching rule."""
        count = 0
        for rule in self.policy:
            if isinstance(rule, VpgRule):
                count += 1
            if rule is result.rule:
                break
        return count

    # ------------------------------------------------------------------
    # Verdict application
    # ------------------------------------------------------------------

    def _complete(self, item: _WorkItem) -> None:
        """Apply ``item``'s verdict: deliver an allowed ingress packet to
        the host (opened first, under a VPG) or frame an allowed egress
        one for the link (sealed first, under a VPG)."""
        packet = item.packet
        if item.kind == _RX:
            if not item.allowed:
                self.rx_denied += 1
                tracer = self.sim.tracer
                if tracer.hot:
                    self._trace_verdict(tracer, item, "nic.rx", "rx-deny")
                if self.fault is not None:
                    self.fault.record_deny(self.sim.now)
                return
            if item.vpg_id is not None:
                context = self.vpg_contexts.get(item.vpg_id)
                if context is None:
                    self.rx_denied += 1
                    return
                try:
                    packet = context.open(packet)
                except VpgError:
                    self.vpg_auth_failures += 1
                    return
                self.vpg_opened += 1
            ctx = getattr(item, "ctx", None)
            if ctx is not None:
                if packet is not item.packet:
                    # VPG decapsulation produced a new packet object; the
                    # trace context follows the payload, not the wrapper.
                    packet.trace_ctx = ctx
                self._trace_stage(item, "nic.rx", "allow", packet)
            self.rx_allowed += 1
            self.packets_delivered += 1
            self.host.deliver_packet(packet)
            return
        if not item.allowed:
            self.tx_denied += 1
            tracer = self.sim.tracer
            if tracer.hot:
                self._trace_verdict(tracer, item, "nic.tx", "tx-deny")
            return
        if item.vpg_id is not None:
            context = self.vpg_contexts.get(item.vpg_id)
            if context is None:
                self.tx_denied += 1
                return
            packet = context.seal(packet, outer_src=packet.src, outer_dst=packet.dst)
        ctx = getattr(item, "ctx", None)
        if ctx is not None:
            if packet is not item.packet:
                packet.trace_ctx = ctx
            self._trace_stage(item, "nic.tx", "allow", packet)
        self.tx_allowed += 1
        # Framed as StandardNic._process_egress frames: the last frame is
        # reused for the same packet object and destination MAC.
        port = self.port
        if port is None:
            raise RuntimeError(f"NIC {self.name} not attached to a link")
        self.frames_sent += 1
        dst_mac = item.dst_mac
        frame = self._last_frame
        if frame is None or frame.payload is not packet or frame.dst_mac != dst_mac:
            frame = self._last_frame = EthernetFrame(self.host.mac, dst_mac, packet)
        port.send(frame)

    # ------------------------------------------------------------------
    # Tracing helpers (reached only when the tracer is armed)
    # ------------------------------------------------------------------

    def _trace_stage(
        self, item: _WorkItem, stage: str, verdict: str, packet=None
    ) -> None:
        """Close the processor-crossing span for a traced work item.

        ``packet`` is the object continuing downstream (when allowed);
        it is re-stamped as the carrier of the new causal parent.
        """
        ctx = getattr(item, "ctx", None)
        if ctx is None:
            return
        record = self.sim.tracer.span(
            ctx,
            stage,
            self.name,
            getattr(item, "t_offer", self.sim.now),
            self.sim.now,
            parent=getattr(item, "parent", None),
            verdict=verdict,
            rules=getattr(item, "rules", None),
            engine=getattr(item, "engine", None),
        )
        if packet is not None:
            packet.trace_parent = record.span_id

    def _trace_verdict(self, tracer, item: _WorkItem, stage: str, event: str) -> None:
        """Record a deny: an event always, plus the span when sampled."""
        self._trace_stage(item, stage, "deny")
        tracer.event(
            self.sim.now,
            self.name,
            event,
            getattr(item, "ctx", None),
            packet=item.packet.describe(),
        )

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def ring_drops(self) -> int:
        """Frames dropped because the ring was full."""
        return self.processor.dropped_full

    @property
    def wedged_drops(self) -> int:
        """Frames dropped while the card was locked up."""
        return self.processor.dropped_paused
