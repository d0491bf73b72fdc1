"""ICMP: echo replies and destination-unreachable generation.

Port-unreachable messages are rate-limited per destination, mirroring the
Linux ``icmp_ratelimit`` behaviour; without the limit, a UDP flood to a
closed port would be answered packet-for-packet.  (Linux 2.4 defaults to
one ICMP error per jiffy bucket; we model a token bucket.)
"""

from __future__ import annotations

from repro.net.packet import (
    ICMP_CODE_PORT_UNREACHABLE,
    IcmpMessage,
    IcmpType,
    Ipv4Packet,
)

#: Tokens per second for ICMP error generation (Linux default: 1 per
#: 100 ms per destination bucket; we use a single aggregate bucket).
ICMP_ERROR_RATE = 10.0

#: Bucket depth.
ICMP_ERROR_BURST = 10.0


class IcmpLayer:
    """Per-host ICMP processing."""

    profile_category = "host.icmp"

    def __init__(self, host) -> None:
        self.host = host
        self.sim = host.sim
        # Token bucket for error generation.
        self._tokens = ICMP_ERROR_BURST
        self._last_refill = 0.0
        # Counters
        self.echo_requests_received = 0
        self.echo_replies_received = 0
        self.errors_sent = 0
        self.errors_suppressed = 0

    # ------------------------------------------------------------------
    # Error generation
    # ------------------------------------------------------------------

    def send_port_unreachable(self, offending: Ipv4Packet) -> None:
        """Send a rate-limited ICMP port-unreachable for ``offending``."""
        if not self._take_token():
            self.errors_suppressed += 1
            return
        self.errors_sent += 1
        # RFC 1122: include the offending IP header + 8 bytes of payload.
        quoted = min(offending.size, Ipv4Packet.HEADER_SIZE + 8)
        message = IcmpMessage(
            icmp_type=IcmpType.DEST_UNREACHABLE,
            code=ICMP_CODE_PORT_UNREACHABLE,
            payload_size=quoted,
        )
        self.host.ip_layer.send(offending.src, message)

    def _take_token(self) -> bool:
        now = self.sim.now
        self._tokens = min(
            ICMP_ERROR_BURST, self._tokens + (now - self._last_refill) * ICMP_ERROR_RATE
        )
        self._last_refill = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def message_arrived(self, packet: Ipv4Packet) -> None:
        """Handle an inbound ICMP message."""
        message = packet.payload
        if type(message) is not IcmpMessage:
            return
        if message.icmp_type == IcmpType.ECHO_REQUEST:
            self.echo_requests_received += 1
            reply = IcmpMessage(
                icmp_type=IcmpType.ECHO_REPLY,
                identifier=message.identifier,
                sequence=message.sequence,
                payload_size=message.payload_size,
            )
            self.host.ip_layer.send(packet.src, reply)
        elif message.icmp_type == IcmpType.ECHO_REPLY:
            self.echo_replies_received += 1
