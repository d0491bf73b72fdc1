"""A compact but real TCP implementation.

Implements the parts of TCP that the paper's measurements exercise:

* three-way handshake (with SYN retransmission and a bounded listen
  backlog of half-open connections),
* sliding-window bulk transfer with slow start, congestion avoidance,
  fast retransmit on three duplicate ACKs, and RTO with exponential
  backoff (RFC 6298-style SRTT/RTTVAR estimation),
* SACK-based loss recovery (receiver reports out-of-order ranges; the
  sender repairs holes scoreboard-style, NewReno partial-ACK fallback) --
  without it, the bursty tail-drop losses caused by an unresponsive
  competing flood collapse the baseline far below what the paper's
  Linux stacks sustained,
* delayed ACKs (ack-every-second-segment plus a timer),
* connection teardown (FIN handshake, TIME_WAIT) and RST generation for
  segments that reach a closed port -- the *response traffic* whose load
  halves the flood tolerance of "allow" rule-sets in the paper,
* byte streams whose payload bytes may be modelled size-only; small real
  byte chunks (e.g. HTTP headers) ride in-line and are reassembled in
  order.

Deliberate simplifications (documented in DESIGN.md): no window scaling,
no Nagle, per-connection fixed MSS, no urgent data, single-path FIFO
network so reordering only arises from loss.

The per-segment path reads hot states and flag bits from module globals
(states compare with ``is``; flags are read once as an ``int``) and exits
early where there is nothing to do: no real chunk to slice or release, no
out-of-order data to reassemble or SACK, no RTT probe, no scoreboard.
None of these exits changes a segment or an event.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.net.packet import Ipv4Packet, TcpFlags, TcpSegment
from repro.sim.timer import Timer

# Flag combinations built once: IntFlag ``|`` and ``&`` build a new enum
# member on every call.  The per-segment path tests the plain-int bits.
_ACK = TcpFlags.ACK
_RST = TcpFlags.RST
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
_RST_ACK = TcpFlags.RST | TcpFlags.ACK
_SYN_BIT = int(TcpFlags.SYN)
_ACK_BIT = int(TcpFlags.ACK)
_FIN_BIT = int(TcpFlags.FIN)
_RST_BIT = int(TcpFlags.RST)

#: Maximum segment size: fills a 1518-byte Ethernet frame
#: (1460 + 20 TCP + 20 IP + 18 Ethernet).
MSS = 1460

#: Fixed advertised receive window (no window scaling).
RECEIVE_WINDOW = 65535

#: Initial retransmission timeout before any RTT sample (RFC 6298 says 1 s).
INITIAL_RTO = 1.0

#: Lower bound on the RTO, mirroring Linux's 200 ms minimum.
MIN_RTO = 0.2

#: Upper bound on the RTO.
MAX_RTO = 16.0

#: Delayed-ACK timer, mirroring Linux's 40 ms quick-ack ceiling.
DELAYED_ACK_TIMEOUT = 0.040

#: SYN retransmission limit before the connect attempt fails.
MAX_SYN_RETRIES = 4

#: Data retransmission limit before the connection aborts.
MAX_DATA_RETRIES = 8

#: TIME_WAIT linger.  Real stacks use minutes; experiments use seconds of
#: virtual time, so a short linger keeps state bounded while still
#: exercising the state machine.
TIME_WAIT_DURATION = 0.5

#: Bound on half-open (SYN_RCVD) connections per listener.
DEFAULT_LISTEN_BACKLOG = 128


class TcpState(enum.Enum):
    """The TCP connection states we model."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"


# The states the per-segment path reads, as module globals: a global is
# several times cheaper to load than an enum class attribute.
_CLOSED = TcpState.CLOSED
_SYN_SENT = TcpState.SYN_SENT
_SYN_RCVD = TcpState.SYN_RCVD
_ESTABLISHED = TcpState.ESTABLISHED
#: States in which :meth:`TcpConnection._try_send` may transmit.
_SENDING_STATES = (
    TcpState.ESTABLISHED,
    TcpState.CLOSE_WAIT,
    TcpState.FIN_WAIT_1,
    TcpState.CLOSING,
    TcpState.LAST_ACK,
)


class SendBuffer:
    """An append-only byte stream with sparse real-data chunks.

    Payload sizes are exact; payload *bytes* are retained only where the
    application provided them (e.g. HTTP headers), positioned at the
    offset where they were written.  ``slice`` returns the real bytes that
    fall inside a retransmittable range; a buffer holding no real chunk
    (a size-only bulk stream) returns ``b""`` after the range check,
    without walking anything.
    """

    __slots__ = ("length", "_chunks")

    def __init__(self) -> None:
        self.length = 0
        self._chunks: List[Tuple[int, bytes]] = []

    def write(self, size: int, data: bytes = b"") -> None:
        """Append ``size`` bytes, of which ``data`` are real."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if len(data) > size:
            raise ValueError("real data longer than declared size")
        if data:
            self._chunks.append((self.length, data))
        self.length += size

    def slice(self, start: int, end: int) -> bytes:
        """Real bytes in [start, end), zero-filled between chunks.

        The result is trimmed of trailing zeros so that size-only regions
        cost no memory; callers combine it with the slice size.
        """
        if start < 0 or end > self.length or start > end:
            raise ValueError(f"bad slice [{start}, {end}) of {self.length}")
        if not self._chunks:
            return b""
        pieces = bytearray()
        for offset, data in self._chunks:
            chunk_end = offset + len(data)
            if chunk_end <= start or offset >= end:
                continue
            lo = max(start, offset)
            hi = min(end, chunk_end)
            # Zero-fill any gap before this chunk's overlap.
            gap = lo - start - len(pieces)
            if gap > 0:
                pieces.extend(b"\x00" * gap)
            pieces.extend(data[lo - offset : hi - offset])
        return bytes(pieces)

    def release_before(self, offset: int) -> None:
        """Forget real data wholly below ``offset`` (already acknowledged)."""
        self._chunks = [
            (chunk_offset, data)
            for chunk_offset, data in self._chunks
            if chunk_offset + len(data) > offset
        ]


class ReceiveBuffer:
    """Reassembles segments into an in-order byte stream.

    Returns ready-to-deliver (size, real_bytes) pairs as the stream
    advances.  Out-of-order segments (arising from loss) are buffered by
    starting sequence number; an in-order segment with nothing buffered
    is returned alone, without the reassembly walk.
    """

    __slots__ = ("rcv_nxt", "_out_of_order")

    def __init__(self, initial_seq: int):
        self.rcv_nxt = initial_seq
        self._out_of_order: Dict[int, Tuple[int, bytes]] = {}

    def offer(self, seq: int, size: int, data: bytes) -> List[Tuple[int, bytes]]:
        """Offer a segment; return the newly in-order (size, data) pieces."""
        end = seq + size
        if end <= self.rcv_nxt:
            return []  # wholly duplicate
        if seq > self.rcv_nxt:
            # Out of order: buffer (last writer wins for identical seq).
            self._out_of_order[seq] = (size, data)
            return []
        # Trim any duplicated head.
        trim = self.rcv_nxt - seq
        if trim:
            size -= trim
            data = data[trim:] if len(data) > trim else b""
        delivered = [(size, data)]
        self.rcv_nxt += size
        if not self._out_of_order:
            return delivered
        # Pull any now-contiguous buffered segments.
        while True:
            buffered = self._pop_contiguous()
            if buffered is None:
                break
            delivered.append(buffered)
        return delivered

    def _pop_contiguous(self) -> Optional[Tuple[int, bytes]]:
        for seq in sorted(self._out_of_order):
            size, data = self._out_of_order[seq]
            end = seq + size
            if end <= self.rcv_nxt:
                del self._out_of_order[seq]
                continue
            if seq <= self.rcv_nxt:
                del self._out_of_order[seq]
                trim = self.rcv_nxt - seq
                if trim:
                    size -= trim
                    data = data[trim:] if len(data) > trim else b""
                self.rcv_nxt += size
                return (size, data)
            return None
        return None

    @property
    def out_of_order_count(self) -> int:
        """Number of buffered out-of-order segments."""
        return len(self._out_of_order)

    def sack_blocks(self, limit: int = 3) -> tuple:
        """Up to ``limit`` merged (start, end) ranges of buffered data."""
        if not self._out_of_order:
            return ()
        ranges = sorted(
            (seq, seq + size) for seq, (size, _data) in self._out_of_order.items()
        )
        merged = [list(ranges[0])]
        for start, end in ranges[1:]:
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return tuple((start, end) for start, end in merged[:limit])


class TcpConnection:
    """One endpoint of a TCP connection.

    Applications set the callback attributes before the next event runs:

    * ``on_connected(conn)`` -- handshake completed,
    * ``on_data(conn, data, size)`` -- ``size`` in-order bytes arrived, of
      which ``data`` are real bytes,
    * ``on_closed(conn)`` -- connection fully closed (or reset),
    * ``on_refused(conn)`` -- connect() was refused or timed out.

    Connections are slotted: a closed-loop HTTP run holds thousands of
    them in TIME_WAIT at once.
    """

    __slots__ = (
        "manager", "sim", "local_port", "remote_ip", "remote_port", "state",
        "on_connected", "on_data", "on_closed", "on_refused",
        "send_buffer", "iss", "snd_una", "snd_nxt", "mss", "cwnd", "ssthresh",
        "peer_window", "dup_acks", "recovery_point", "_sack_scoreboard", "_retx_high",
        "fin_queued", "fin_seq", "fin_sent", "receive_buffer", "peer_fin_seq",
        "segments_since_ack", "srtt", "rttvar", "rto", "_rtt_probe",
        "retransmit_timer", "delack_timer", "time_wait_timer", "retries",
        "bytes_sent", "bytes_acked", "bytes_received", "segments_retransmitted",
        "established_at", "connect_started_at", "_backlog",
    )

    profile_category = "host.tcp"

    def __init__(
        self,
        manager: "TcpManager",
        local_port: int,
        remote_ip: Ipv4Address,
        remote_port: int,
    ):
        self.manager = manager
        self.sim = manager.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = _CLOSED
        # Application callbacks.
        self.on_connected: Optional[Callable] = None
        self.on_data: Optional[Callable] = None
        self.on_closed: Optional[Callable] = None
        self.on_refused: Optional[Callable] = None
        # Send state.
        self.send_buffer = SendBuffer()
        self.iss = manager.next_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        #: Per-connection MSS; hosts behind a VPG-encapsulating NIC use a
        #: smaller value so the outer frame fits the Ethernet MTU.
        self.mss = manager.default_mss
        self.cwnd = 2 * self.mss
        self.ssthresh = RECEIVE_WINDOW
        self.peer_window = RECEIVE_WINDOW
        self.dup_acks = 0
        #: Fast-recovery end marker: while set, each arriving (partial or
        #: duplicate) ACK retransmits the next SACK hole immediately
        #: instead of waiting for three fresh duplicate ACKs or an RTO.
        self.recovery_point: Optional[int] = None
        #: SACK scoreboard: sorted, disjoint (start, end) sequence ranges
        #: the peer has reported holding above snd_una.
        self._sack_scoreboard: List[Tuple[int, int]] = []
        #: Sequence below which holes were already retransmitted in the
        #: current recovery episode (avoids re-sending the same hole on
        #: every duplicate ACK).
        self._retx_high = 0
        self.fin_queued = False
        self.fin_seq: Optional[int] = None
        self.fin_sent = False
        # Receive state.
        self.receive_buffer: Optional[ReceiveBuffer] = None
        self.peer_fin_seq: Optional[int] = None
        self.segments_since_ack = 0
        # RTT estimation.
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = INITIAL_RTO
        self._rtt_probe: Optional[Tuple[int, float]] = None  # (seq_end, sent_at)
        # Timers.
        self.retransmit_timer = Timer(self.sim, self._on_retransmit_timeout)
        self.delack_timer = Timer(self.sim, self._send_ack_now)
        self.time_wait_timer = Timer(self.sim, self._on_time_wait_expired)
        self.retries = 0
        # Counters.
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_retransmitted = 0
        self.established_at: Optional[float] = None
        self.connect_started_at: Optional[float] = None
        #: The listener whose backlog slot this passive connection holds
        #: while half-open (SYN_RCVD); None otherwise.
        self._backlog: Optional["TcpListener"] = None

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def send(self, size: int, data: bytes = b"") -> None:
        """Append ``size`` bytes (``data`` real) to the outgoing stream."""
        if self.state not in (_ESTABLISHED, TcpState.CLOSE_WAIT, _SYN_SENT, _SYN_RCVD):
            raise RuntimeError(f"cannot send in state {self.state.value}")
        if self.fin_queued:
            raise RuntimeError("cannot send after close()")
        self.send_buffer.write(size, data)
        self._try_send()

    def close(self) -> None:
        """Half-close: send FIN once all written data is transmitted."""
        if self.fin_queued or self.state in (
            _CLOSED,
            TcpState.TIME_WAIT,
            TcpState.LAST_ACK,
            TcpState.CLOSING,
            TcpState.FIN_WAIT_1,
            TcpState.FIN_WAIT_2,
        ):
            return
        self.fin_queued = True
        self._try_send()

    def abort(self) -> None:
        """Reset the connection immediately."""
        if self.state not in (_CLOSED, TcpState.TIME_WAIT):
            self._emit(_RST_ACK, seq=self.snd_nxt)
        self._destroy(notify_closed=True)

    @property
    def unacked_bytes(self) -> int:
        """Bytes in flight (sent but not acknowledged)."""
        return self.snd_nxt - self.snd_una

    @property
    def stream_offset_sent(self) -> int:
        """Stream bytes transmitted at least once."""
        consumed = self.snd_nxt - self.iss - 1  # minus SYN
        if self.fin_sent:
            consumed -= 1
        return max(0, consumed)

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Client side: send SYN."""
        self.state = _SYN_SENT
        self.connect_started_at = self.sim.now
        self.snd_nxt = self.iss + 1
        self._emit(TcpFlags.SYN, seq=self.iss)
        self.retries = 0
        self.retransmit_timer.restart(self.rto)

    def open_passive(self, segment: TcpSegment) -> None:
        """Server side: got a SYN while listening; send SYN-ACK."""
        self.state = _SYN_RCVD
        self.receive_buffer = ReceiveBuffer(segment.seq + 1)
        self.snd_nxt = self.iss + 1
        self._emit(_SYN_ACK, seq=self.iss)
        self.retries = 0
        self.retransmit_timer.restart(self.rto)

    # ------------------------------------------------------------------
    # Segment arrival
    # ------------------------------------------------------------------

    def segment_arrived(self, segment: TcpSegment) -> None:
        """Main receive-side state machine."""
        flags = int(segment.flags)
        if flags & _RST_BIT:
            self._handle_rst()
            return
        state = self.state
        if state is _SYN_SENT:
            self._arrive_syn_sent(segment)
            return
        if state is _SYN_RCVD and flags & _SYN_BIT:
            # Duplicate SYN: re-send SYN-ACK.
            self._emit(_SYN_ACK, seq=self.iss)
            return
        if flags & _ACK_BIT:
            self._process_ack(segment)
        if self.state is _CLOSED:
            return
        if segment.payload_size or flags & _FIN_BIT:
            self._process_payload(segment)

    def _arrive_syn_sent(self, segment: TcpSegment) -> None:
        if not (segment.syn and segment.ack_flag):
            return
        if segment.ack != self.iss + 1:
            self._emit(TcpFlags.RST, seq=segment.ack)
            return
        self.snd_una = segment.ack
        self.receive_buffer = ReceiveBuffer(segment.seq + 1)
        self.retransmit_timer.stop()
        self._sample_rtt_from_connect()
        self.state = _ESTABLISHED
        self.established_at = self.sim.now
        self._send_ack_now()
        if self.on_connected is not None:
            self.on_connected(self)
        self._try_send()

    def _process_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack
        self.peer_window = segment.window
        if self.state is _SYN_RCVD and ack == self.iss + 1:
            self.snd_una = ack
            self.retransmit_timer.stop()
            self.state = _ESTABLISHED
            self.established_at = self.sim.now
            self._release_backlog()
            if self.on_connected is not None:
                self.on_connected(self)
            self._try_send()
            return
        sack_blocks = segment.sack_blocks
        if sack_blocks:
            self._register_sacks(sack_blocks)
        snd_una = self.snd_una
        if ack <= snd_una:
            if ack == snd_una and self.snd_nxt > snd_una and not segment.payload_size:
                self.dup_acks += 1
                if self.dup_acks == 3:
                    self._fast_retransmit()
                elif self.dup_acks > 3 and self.recovery_point is not None:
                    # Each further duplicate ACK repairs one more hole and
                    # may open pipe for new data (limited transmit).
                    self._retransmit_next_hole()
                    self._try_send()
            return
        if ack > self.snd_nxt:
            return  # acks data we never sent; ignore
        # New data acknowledged.  Releasing chunks, sampling the RTT and
        # pruning the scoreboard are skipped when there is nothing to
        # release, no probe open or no SACK range held.
        newly_acked = ack - snd_una
        self.snd_una = ack
        self.dup_acks = 0
        self.retries = 0
        self.bytes_acked += newly_acked
        if self.send_buffer._chunks:
            self.send_buffer.release_before(self._seq_to_offset(ack))
        if self._rtt_probe is not None:
            self._update_rtt(ack)
        if self._sack_scoreboard:
            self._prune_scoreboard()
        if self.recovery_point is not None:
            if ack < self.recovery_point:
                # NewReno/SACK partial ACK: the next hole is lost too;
                # retransmit it immediately rather than stalling to RTO.
                self._retransmit_next_hole()
                self.retransmit_timer.restart(self.rto)
                if self.fin_seq is not None and ack > self.fin_seq:
                    self._fin_acked()
                self._try_send()
                return
            self.recovery_point = None
            self._sack_scoreboard.clear()
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            self.cwnd = cwnd + min(newly_acked, self.mss)  # slow start
        else:
            self.cwnd = cwnd + max(1, self.mss * self.mss // cwnd)  # congestion avoidance
        if self.snd_nxt == self.snd_una:
            self.retransmit_timer.stop()
        else:
            self.retransmit_timer.restart(self.rto)
        if self.fin_seq is not None and ack > self.fin_seq:
            self._fin_acked()
        self._try_send()

    def _process_payload(self, segment: TcpSegment) -> None:
        receive_buffer = self.receive_buffer
        if receive_buffer is None:
            return
        payload_size = segment.payload_size
        if int(segment.flags) & _FIN_BIT:
            self.peer_fin_seq = segment.seq + payload_size
        in_order_before = receive_buffer.rcv_nxt
        if payload_size:
            for size, data in receive_buffer.offer(segment.seq, payload_size, segment.data):
                self.bytes_received += size
                if self.on_data is not None:
                    self.on_data(self, data, size)
                if self.state is _CLOSED:
                    return  # callback closed us
        rcv_nxt = receive_buffer.rcv_nxt
        if self.peer_fin_seq is not None and rcv_nxt == self.peer_fin_seq:
            receive_buffer.rcv_nxt = rcv_nxt + 1  # FIN occupies one sequence number
            self._peer_closed()
            return
        if payload_size:
            if rcv_nxt == in_order_before:
                # Out-of-order: immediate duplicate ACK.
                self._send_ack_now()
            else:
                self.segments_since_ack += 1
                if self.segments_since_ack >= 2:
                    self._send_ack_now()
                elif self.delack_timer._deadline is None:  # not running
                    self.delack_timer.start(DELAYED_ACK_TIMEOUT)

    def _peer_closed(self) -> None:
        self._send_ack_now()
        if self.state is _ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            # Deliver EOF to the application.
            if self.on_data is not None:
                self.on_data(self, b"", 0)
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    def _handle_rst(self) -> None:
        refused = self.state is _SYN_SENT
        self._destroy(notify_closed=not refused, notify_refused=refused)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if self.state not in _SENDING_STATES:
            return
        window = min(self.cwnd, self.peer_window)
        send_buffer = self.send_buffer
        base = self.iss + 1  # stream offset 0 follows the SYN
        sent_something = False
        while True:
            seq = self.snd_nxt
            length = send_buffer.length
            offset = min(seq - base, length)
            available = length - offset
            if available <= 0:
                break
            in_flight = seq - self.snd_una
            # SACKed bytes are no longer in the network; exclude them
            # from the in-flight estimate (RFC 6675 pipe).
            pipe = in_flight - self.sacked_bytes if self._sack_scoreboard else in_flight
            if pipe >= window:
                break
            burst = min(available, self.mss, window - in_flight)
            if burst <= 0:
                break
            data = send_buffer.slice(offset, offset + burst)
            self.snd_nxt = seq + burst
            self.bytes_sent += burst
            if self._rtt_probe is None:
                self._rtt_probe = (seq + burst, self.sim.now)
            self._emit(_ACK, seq, burst, data)
            sent_something = True
        if (
            self.fin_queued
            and not self.fin_sent
            and self._seq_to_offset(self.snd_nxt) >= send_buffer.length
        ):
            self._send_fin()
            sent_something = True
        # The retransmit timer's deadline is None while it is not running.
        if sent_something and self.snd_nxt > self.snd_una and self.retransmit_timer._deadline is None:
            self.retransmit_timer.start(self.rto)

    def _send_fin(self) -> None:
        self.fin_sent = True
        self.fin_seq = self.snd_nxt
        self._emit(_FIN_ACK, seq=self.snd_nxt)
        self.snd_nxt += 1
        if self.state is _ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        if not self.retransmit_timer.running:
            self.retransmit_timer.start(self.rto)

    def _fin_acked(self) -> None:
        """Our FIN is acknowledged (the caller checks the ACK covers it)."""
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._destroy(notify_closed=True)

    # ------------------------------------------------------------------
    # Loss recovery
    # ------------------------------------------------------------------

    def _fast_retransmit(self) -> None:
        if self.recovery_point is None:
            self.ssthresh = max(self.unacked_bytes // 2, 2 * self.mss)
            self.cwnd = self.ssthresh
            self.recovery_point = self.snd_nxt
            self._retx_high = self.snd_una
        self._retransmit_next_hole()
        self.retransmit_timer.restart(self.rto)

    def _on_retransmit_timeout(self) -> None:
        self.retries += 1
        limit = MAX_SYN_RETRIES if self.state in (_SYN_SENT, _SYN_RCVD) else MAX_DATA_RETRIES
        if self.retries > limit:
            refused = self.state is _SYN_SENT
            self._destroy(notify_closed=not refused, notify_refused=refused)
            return
        self.rto = min(self.rto * 2, MAX_RTO)
        self._rtt_probe = None  # Karn's algorithm: never sample retransmits
        if self.state is _SYN_SENT:
            self._emit(TcpFlags.SYN, seq=self.iss)
        elif self.state is _SYN_RCVD:
            self._emit(_SYN_ACK, seq=self.iss)
        else:
            self.ssthresh = max(self.unacked_bytes // 2, 2 * self.mss)
            self.cwnd = self.mss
            self.recovery_point = self.snd_nxt
            # Conservatively forget SACK state on an RTO and go back to
            # the cumulative ACK point.
            self._sack_scoreboard.clear()
            self._retx_high = self.snd_una
            self._retransmit_next_hole()
        self.retransmit_timer.restart(self.rto)

    def _retransmit_next_hole(self) -> None:
        """Retransmit the lowest unrepaired, un-SACKed segment (or FIN).

        The scoreboard walk starts at the cumulative ACK point, skips
        ranges the peer reports holding, and never repeats a hole within
        one recovery episode (``_retx_high``).
        """
        start = max(self.snd_una, self._retx_high)
        # Only data actually transmitted can be retransmitted; the FIN
        # (if sent) occupies the final sequence number.
        if self.fin_sent and self.fin_seq is not None:
            data_end = self.fin_seq
        else:
            data_end = self.snd_nxt
        limit = data_end
        for sacked_start, sacked_end in self._sack_scoreboard:
            if start < sacked_start:
                limit = min(limit, sacked_start)
                break
            if sacked_start <= start < sacked_end:
                start = sacked_end
                limit = data_end
        if start < data_end:
            burst = min(limit - start, self.mss)
            if burst <= 0:
                return
            offset = self._seq_to_offset(start)
            data = self.send_buffer.slice(offset, offset + burst)
            self.segments_retransmitted += 1
            self._retx_high = start + burst
            tracer = self.sim.tracer
            if tracer.hot:
                tracer.event(
                    self.sim.now,
                    f"tcp:{self.local_port}",
                    "retransmit",
                    seq=start,
                    bytes=burst,
                )
            self._emit(_ACK, seq=start, payload_size=burst, data=data)
        elif self.fin_sent and self.fin_seq is not None and self.snd_una == self.fin_seq:
            self.segments_retransmitted += 1
            self._emit(_FIN_ACK, seq=self.fin_seq)

    # ------------------------------------------------------------------
    # SACK scoreboard
    # ------------------------------------------------------------------

    def _register_sacks(self, blocks: tuple) -> None:
        """Merge the peer's reported ranges into the scoreboard."""
        ranges = list(self._sack_scoreboard)
        for start, end in blocks:
            if end <= self.snd_una or end <= start:
                continue
            ranges.append((max(start, self.snd_una), end))
        ranges.sort()
        merged: List[Tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._sack_scoreboard = merged

    def _prune_scoreboard(self) -> None:
        """Drop scoreboard ranges below the cumulative ACK point."""
        self._sack_scoreboard = [
            (max(start, self.snd_una), end)
            for start, end in self._sack_scoreboard
            if end > self.snd_una
        ]

    @property
    def sacked_bytes(self) -> int:
        """Bytes above snd_una the peer reports holding."""
        return sum(end - start for start, end in self._sack_scoreboard)

    # ------------------------------------------------------------------
    # RTT / congestion helpers
    # ------------------------------------------------------------------

    def _update_rtt(self, ack: int) -> None:
        """Sample the RTT once ``ack`` covers the open probe (caller checks
        that one is open)."""
        probe_end, sent_at = self._rtt_probe
        if ack < probe_end:
            return
        self._rtt_probe = None
        self._absorb_rtt_sample(self.sim.now - sent_at)

    def _sample_rtt_from_connect(self) -> None:
        if self.connect_started_at is not None and self.retries == 0:
            self._absorb_rtt_sample(self.sim.now - self.connect_started_at)

    def _absorb_rtt_sample(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4 * self.rttvar))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _seq_to_offset(self, seq: int) -> int:
        offset = seq - (self.iss + 1)
        return min(offset, self.send_buffer.length)

    def _send_ack_now(self) -> None:
        self.delack_timer.stop()
        self.segments_since_ack = 0
        receive_buffer = self.receive_buffer
        sacks = receive_buffer.sack_blocks() if receive_buffer is not None and receive_buffer._out_of_order else ()
        self._emit(_ACK, self.snd_nxt, 0, b"", sacks)

    def _emit(
        self,
        flags: TcpFlags,
        seq: int,
        payload_size: int = 0,
        data: bytes = b"",
        sack_blocks: tuple = (),
    ) -> None:
        receive_buffer = self.receive_buffer
        ack = receive_buffer.rcv_nxt if receive_buffer is not None and int(flags) & _ACK_BIT else 0
        # Positional, in TcpSegment's field order.
        segment = TcpSegment(
            self.local_port, self.remote_port, seq, ack, flags, RECEIVE_WINDOW, payload_size, data, sack_blocks
        )
        self.manager.host.ip_layer.send(self.remote_ip, segment)

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.retransmit_timer.stop()
        self.delack_timer.stop()
        self.time_wait_timer.restart(TIME_WAIT_DURATION)

    def _on_time_wait_expired(self) -> None:
        self._destroy(notify_closed=True)

    def _release_backlog(self) -> None:
        """Give back the listener backlog slot this connection holds, if any."""
        listener = self._backlog
        if listener is not None:
            listener.half_open -= 1
            self._backlog = None

    def _destroy(self, notify_closed: bool = False, notify_refused: bool = False) -> None:
        self._release_backlog()
        already_closed = self.state is _CLOSED
        self.state = _CLOSED
        # Closed, not stopped: each timer's callback is a bound method of
        # this connection, and the cycle would keep it (and its buffers)
        # alive until the cyclic collector ran.
        self.retransmit_timer.close()
        self.delack_timer.close()
        self.time_wait_timer.close()
        self.manager.forget(self)
        if already_closed:
            return
        if notify_refused and self.on_refused is not None:
            self.on_refused(self)
        elif notify_closed and self.on_closed is not None:
            self.on_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.local_port}->{self.remote_ip}:{self.remote_port} "
            f"{self.state.value}>"
        )


class TcpListener:
    """A passive socket: accepts connections on a local port.

    At most ``backlog`` connections are half-open (SYN_RCVD) at once; a
    SYN that arrives while the backlog is full is dropped and counted in
    ``dropped_syn_backlog``.
    """

    profile_category = "host.tcp"

    def __init__(
        self,
        manager: "TcpManager",
        port: int,
        on_accept: Callable[[TcpConnection], None],
        backlog: int = DEFAULT_LISTEN_BACKLOG,
    ):
        self.manager = manager
        self.port = port
        self.on_accept = on_accept
        self.backlog = backlog
        self.half_open = 0
        self.accepted = 0
        self.dropped_syn_backlog = 0

    def close(self) -> None:
        """Stop accepting new connections."""
        self.manager.stop_listening(self.port)


class TcpManager:
    """Per-host TCP: demultiplexing, listeners and connection setup."""

    EPHEMERAL_BASE = 32768

    profile_category = "host.tcp"

    def __init__(self, host) -> None:
        self.host = host
        self.sim = host.sim
        self._rng = host.rng.stream(f"{host.name}.tcp.isn")
        #: Default MSS for new connections (testbeds lower this for VPGs).
        self.default_mss = MSS
        # One 128-bit draw ahead of the first ISN; it fixes every later ISN.
        self._rng.getrandbits(128)
        self._connections: Dict[Tuple[int, Ipv4Address, int], TcpConnection] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        #: When False, segments to closed ports are silently dropped
        #: instead of answered with RST.  Ablation knob: the paper's
        #: allow-vs-deny flood-tolerance factor comes from this response
        #: traffic (the ``response-traffic`` ablation).
        self.generate_resets = True
        #: The last reset sent and its key; see :meth:`_send_rst_for`.
        self._last_reset_key: Optional[tuple] = None
        self._last_reset: Optional[TcpSegment] = None
        # Counters
        self.rst_sent = 0
        self.segments_received = 0

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def listen(
        self,
        port: int,
        on_accept: Callable[[TcpConnection], None],
        backlog: int = DEFAULT_LISTEN_BACKLOG,
    ) -> TcpListener:
        """Start accepting connections on ``port``."""
        if port in self._listeners:
            raise RuntimeError(f"port {port} already listening")
        listener = TcpListener(self, port, on_accept, backlog)
        self._listeners[port] = listener
        return listener

    def stop_listening(self, port: int) -> None:
        """Remove the listener on ``port`` (established connections live on)."""
        self._listeners.pop(port, None)

    def connect(self, remote_ip: Ipv4Address, remote_port: int) -> TcpConnection:
        """Begin an active open; returns the connection immediately.

        Set the ``on_*`` callbacks on the returned object before yielding
        to the simulator.
        """
        local_port = self._allocate_port(remote_ip, remote_port)
        connection = TcpConnection(self, local_port, remote_ip, remote_port)
        self._connections[(local_port, remote_ip, remote_port)] = connection
        # Defer the SYN so the caller can install callbacks first.
        self.sim.call_soon(connection.open_active)
        return connection

    # ------------------------------------------------------------------
    # Wire interface (called by the host IP layer)
    # ------------------------------------------------------------------

    def segment_arrived(self, packet: Ipv4Packet) -> None:
        """Demultiplex an inbound TCP segment."""
        segment = packet.payload
        if type(segment) is not TcpSegment:
            return
        self.segments_received += 1
        connection = self._connections.get((segment.dst_port, packet.src, segment.src_port))
        if connection is not None:
            connection.segment_arrived(segment)
            return
        flags = int(segment.flags)
        if flags & _SYN_BIT and not flags & _ACK_BIT:
            listener = self._listeners.get(segment.dst_port)
            if listener is not None:
                self._accept(listener, packet, segment)
                return
        # No socket: RFC 793 reset generation (the paper's "allowed flood"
        # response traffic for TCP floods).
        if not flags & _RST_BIT and self.generate_resets:
            self._send_rst_for(packet, segment)

    # ------------------------------------------------------------------

    def _accept(self, listener: TcpListener, packet: Ipv4Packet, segment: TcpSegment) -> None:
        if listener.half_open >= listener.backlog:
            listener.dropped_syn_backlog += 1
            return
        connection = TcpConnection(self, segment.dst_port, packet.src, segment.src_port)
        key = (segment.dst_port, packet.src, segment.src_port)
        self._connections[key] = connection
        listener.half_open += 1
        listener.accepted += 1
        # The connection gives the backlog slot back when its handshake
        # completes, or when it is destroyed before that.
        connection._backlog = listener
        connection.open_passive(segment)
        listener.on_accept(connection)

    def _send_rst_for(self, packet: Ipv4Packet, segment: TcpSegment) -> None:
        """Answer ``segment`` with a reset (RFC 793 §3.4).

        Under a flood every reset is alike, so the last one is memoised,
        keyed by (local port, remote port, seq, ack, flags), and sent
        again while the key matches; a different key builds a fresh
        segment.  The segment is immutable once sent, and
        :meth:`IpLayer.send` still wraps each reset in its own packet
        with its own identification.
        """
        self.rst_sent += 1
        arrived = int(segment.flags)
        if arrived & _ACK_BIT:
            seq, ack, flags = segment.ack, 0, _RST
        else:
            syn = 1 if arrived & _SYN_BIT else 0
            seq, ack, flags = 0, segment.seq + segment.payload_size + syn, _RST_ACK
        key = (segment.dst_port, segment.src_port, seq, ack, flags)
        if key == self._last_reset_key:
            reset = self._last_reset
        else:
            reset = self._last_reset = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=seq,
                ack=ack,
                flags=flags,
                window=0,
            )
            self._last_reset_key = key
        self.host.ip_layer.send(packet.src, reset)

    def forget(self, connection: TcpConnection) -> None:
        """Remove a closed connection from the demux table."""
        key = (connection.local_port, connection.remote_ip, connection.remote_port)
        if self._connections.get(key) is connection:
            del self._connections[key]

    def next_isn(self) -> int:
        """A random initial sequence number."""
        return self._rng.randrange(0, 1 << 31)

    def _allocate_port(self, remote_ip: Ipv4Address, remote_port: int) -> int:
        for _ in range(0xFFFF - self.EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if (port, remote_ip, remote_port) not in self._connections:
                return port
        raise RuntimeError("ephemeral port space exhausted")

    @property
    def connection_count(self) -> int:
        """Number of live (non-CLOSED) connections."""
        return len(self._connections)
