"""The packet-flood generator (the attacker's tool).

"Our methodology directly measures flood tolerance by initiating a packet
flood, much like an attacker would."  (The original implementation is
documented in Ihde's MS thesis [11]; functionally it is an hping-class
raw-packet flooder.)

Features the experiments use:

* a fixed packet rate,
* minimum-size (64-byte) frames by default — the cheapest packets for the
  attacker and the highest achievable rate,
* TCP (bare ACK / SYN) or UDP packets to a configurable port — TCP floods
  to a port elicit per-packet RST responses from the victim (the response
  traffic that halves flood tolerance for "allow" rule-sets),
* source spoofing: fixed fake source, or per-packet randomised sources
  ("the attacker's ability to spoof packets that will traverse deeper
  into the rule-set" — §4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.chaos import invariants as chaos_invariants
from repro.host.host import Host
from repro.net.addresses import Ipv4Address
from repro.net.packet import (
    IcmpMessage,
    IcmpType,
    Ipv4Packet,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)
from repro.sim.timer import PeriodicTimer, TimerWheel, WheelTimer


class FloodKind(enum.Enum):
    """Flood packet construction."""

    #: Bare TCP ACK segments — answered with RST when they reach the host.
    TCP_ACK = "tcp-ack"
    #: TCP SYN segments — answered with RST (closed port) or SYN-ACK
    #: (listening port, consuming server backlog).
    TCP_SYN = "tcp-syn"
    #: UDP datagrams — answered with (rate-limited) ICMP port-unreachable.
    UDP = "udp"
    #: ICMP echo requests — answered with echo replies.
    ICMP_ECHO = "icmp-echo"


@dataclass
class FloodSpec:
    """What to flood with."""

    kind: FloodKind = FloodKind.TCP_ACK
    dst_port: int = 5001
    src_port: int = 4444
    #: Extra payload bytes (0 keeps frames at the 64-byte minimum).
    payload_size: int = 0
    #: Fixed spoofed source (None uses the attacker's own address).
    spoof_src: Optional[Ipv4Address] = None
    #: Randomise the source address per packet (defeats source-based
    #: early-deny rules).
    randomize_src: bool = False


class FloodGenerator:
    """Sends a raw packet flood from an attacking host.

    ``wheel`` (optional) paces the flood off a shared
    :class:`~repro.sim.timer.TimerWheel` instead of a dedicated
    :class:`~repro.sim.timer.PeriodicTimer` — fleets of attackers on one
    wheel cost a single kernel event per tick instead of one per
    attacker per packet.  The rate is then quantized to the wheel's tick.

    Every packet of a flood with a fixed source is the same, so
    :meth:`start` builds it once and each send transmits that one
    immutable object (packets are never mutated after transmission; see
    :mod:`repro.net.packet`), which the sending NIC frames once as well
    (see :mod:`repro.nic.base`).  Two cases bypass the template and build a
    fresh packet per send: ``randomize_src`` (each packet draws its own
    source) and an armed span tracer (``sim.tracer.active``), because the
    tracer roots a chain only on a packet without a ``trace_ctx``.
    """

    profile_category = "app.flood"

    def __init__(
        self,
        host: Host,
        spec: Optional[FloodSpec] = None,
        wheel: Optional[TimerWheel] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.spec = spec if spec is not None else FloodSpec()
        self._wheel = wheel
        self._rng = host.rng.stream(f"{host.name}.flood")
        self._timer: Optional[PeriodicTimer] = None
        self._wheel_timer: Optional[WheelTimer] = None
        #: The flood packet :meth:`start` built, or None when every send
        #: builds its own (``randomize_src``).
        self._template: Optional[Ipv4Packet] = None
        self._interval = 0.0
        self._target: Optional[Ipv4Address] = None
        self.packets_sent = 0
        #: Virtual times of the last start()/stop(), for the recovery
        #: accounting in repro.defense (time-to-detect is measured from
        #: flood onset, which only the attacker knows exactly).
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    @property
    def running(self) -> bool:
        """True while the flood is active."""
        if self._wheel_timer is not None and not self._wheel_timer.cancelled:
            return True
        return self._timer is not None and self._timer.running

    def start(self, target: Ipv4Address, rate_pps: float, duration: Optional[float] = None) -> None:
        """Begin flooding ``target`` at ``rate_pps``.

        The achieved rate is additionally bounded by the attacker's own
        NIC and link (≈148.8 k pps for minimum frames at 100 Mbps).
        ``duration`` stops the flood automatically; None floods until
        :meth:`stop`.
        """
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive, got {rate_pps}")
        if self.running:
            raise RuntimeError("flood already running")
        self._target = target
        self._interval = 1.0 / rate_pps
        self.started_at = self.sim.now
        self.stopped_at = None
        chaos_invariants.note_flood(self.sim, str(target), rate_pps)
        self._template = None if self.spec.randomize_src else self._build_packet()
        if self._wheel is not None:
            self._wheel_timer = self._wheel.schedule_periodic(
                self._interval, self._send_one, initial_delay=self._interval
            )
        else:
            self._timer = PeriodicTimer(self.sim, self._interval, self._send_one)
            self._timer.start(initial_delay=0.0)
        if duration is not None:
            self.sim.schedule(duration, self.stop)

    def stop(self) -> None:
        """Stop the flood.  Idempotent."""
        if self.running:
            self.stopped_at = self.sim.now
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        if self._wheel_timer is not None:
            self._wheel_timer.cancel()
            self._wheel_timer = None

    # ------------------------------------------------------------------

    def _send_one(self) -> None:
        packet = self._template
        if packet is None or self.sim.tracer.active:
            packet = self._build_packet()
        self.packets_sent += 1
        self.host.ip_layer.send_packet(packet)

    def _build_packet(self) -> Ipv4Packet:
        spec = self.spec
        src_ip = self._source_address()
        if spec.kind == FloodKind.UDP:
            payload = UdpDatagram(
                src_port=spec.src_port,
                dst_port=spec.dst_port,
                payload_size=spec.payload_size,
            )
        elif spec.kind == FloodKind.TCP_SYN:
            payload = TcpSegment(
                src_port=spec.src_port,
                dst_port=spec.dst_port,
                flags=TcpFlags.SYN,
                payload_size=spec.payload_size,
            )
        elif spec.kind == FloodKind.ICMP_ECHO:
            payload = IcmpMessage(
                icmp_type=IcmpType.ECHO_REQUEST,
                payload_size=spec.payload_size,
            )
        else:
            payload = TcpSegment(
                src_port=spec.src_port,
                dst_port=spec.dst_port,
                flags=TcpFlags.ACK,
                seq=1,
                payload_size=spec.payload_size,
            )
        return Ipv4Packet(src=src_ip, dst=self._target, payload=payload)

    def _source_address(self) -> Ipv4Address:
        spec = self.spec
        if spec.randomize_src:
            return Ipv4Address(self._rng.randrange(1, (1 << 32) - 2))
        if spec.spoof_src is not None:
            return spec.spoof_src
        return self.host.ip
