"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a time-indexed event queue.
Components schedule callbacks at absolute or relative virtual times; the
kernel executes them in (time, insertion-order) order, which makes every
run fully deterministic.

The kernel is intentionally free of any networking knowledge: links, NICs
and protocol stacks are ordinary objects that hold a reference to the
simulator and schedule their own callbacks.

Queue layout (the fleet-scale dispatch optimisation)
----------------------------------------------------

Instead of one binary heap of :class:`Event` objects, the kernel keeps

* a min-heap of *distinct* firing times (plain floats), and
* a dict mapping each firing time to its FIFO **bucket** of events.

Scheduling at an already-pending time is a dict hit plus a list append —
no heap operation at all — and every heap comparison is a C-speed float
comparison instead of a Python-level ``Event`` comparison.  Dispatch pops
one time and runs its whole bucket back-to-back ("batched same-timestamp
dispatch"): synchronized periodic work — hundreds of flood generators
ticking in lockstep across a fleet — collapses from N heap pushes and N
heap pops per tick into one of each.  Execution order is still exactly
(time, insertion order), so results are bit-identical to the event-heap
kernel; only host wall-clock changes.  Because each bucket is FIFO, an
:class:`Event` carries no sequence number and is never compared: order
within an instant is the bucket's append order, kept across
``max_events`` truncation (the unrun tail is re-queued ahead of newer
same-instant events) and tombstone compaction (which filters buckets
in place).

Cancellation is lazy: a cancelled event stays in its bucket as a
tombstone until it surfaces, but the kernel keeps live counters of
pending and cancelled events so :meth:`Simulator.pending_count` is O(1),
and compacts the buckets when tombstones dominate so long-running floods
that cancel many timers do not grow the queue without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.obs.profiling.core import NULL_PROFILER
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing.tracer import PacketTracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Event:
    """A cancellable handle for a scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only
    ever calls :meth:`cancel` or inspects :attr:`time`.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_kernel")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        kernel: Optional["Simulator"] = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulator while the event is in its queue; cleared when
        #: the event executes or is cancelled, so the live counters are
        #: adjusted exactly once per event.
        self._kernel = kernel

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.

        The event stays in its bucket (lazy deletion) but is skipped when
        it surfaces; the owning kernel's pending/tombstone counters are
        updated immediately.
        """
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled events do not pin packet
        # buffers or closures in memory until they surface in the queue.
        self.callback = _noop
        self.args = ()
        kernel = self._kernel
        self._kernel = None
        if kernel is not None:
            kernel._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to run."""
        return not self.cancelled

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {state}>"


def _noop(*_args: Any) -> None:
    """Placeholder callback for cancelled events."""


#: Compact the queue once it holds this many tombstones *and* they are
#: the majority (see :meth:`Simulator._note_cancelled`).
_COMPACT_MIN_TOMBSTONES = 512


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = (
        "_now",
        "_heap",
        "_buckets",
        "_running",
        "_pending",
        "_tombstones",
        "events_executed",
        "events_cancelled",
        "tracer",
        "metrics",
        "profiler",
    )

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: Min-heap of distinct pending firing times (floats).  Each time
        #: appears at most once; its events live in ``_buckets[time]``.
        self._heap: List[float] = []
        #: time -> FIFO list of events scheduled for that instant.
        self._buckets: Dict[float, List[Event]] = {}
        self._running = False
        #: Live count of scheduled, not-yet-cancelled, not-yet-run events.
        self._pending = 0
        #: Cancelled events still sitting in buckets (lazy deletion).
        self._tombstones = 0
        self.events_executed = 0
        #: Cumulative count of cancellations (tombstone compaction resets
        #: ``_tombstones`` but never this).
        self.events_cancelled = 0
        #: Packet-lifecycle tracer shared by every component built on
        #: this kernel (see :mod:`repro.obs.tracing`).  Cold by default;
        #: ``tracer.configure(spans=True)`` (or the collection plumbing)
        #: arms it.
        self.tracer = PacketTracer()
        #: Metrics registry shared by every component built on this
        #: kernel.  The null default discards registrations, so component
        #: constructors register unconditionally at zero cost; a testbed
        #: collecting metrics swaps in a real registry before wiring up.
        self.metrics = NULL_REGISTRY
        #: Wall-clock profiler shared by every component built on this
        #: kernel (see :mod:`repro.obs.profiling`).  The null default
        #: makes the dispatch loop's profiling guard one attribute read
        #: and one branch per event; a profiling run swaps in a live
        #: :class:`~repro.obs.profiling.core.Profiler` before running.
        self.profiler = NULL_PROFILER

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at: this is the hottest kernel entry point, and
        # self._now + delay is already a valid float time.
        time = self._now + delay
        event = Event(time, callback, args, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._heap, time)
        else:
            bucket.append(event)
        self._pending += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        if type(time) is not float:
            time = float(time)
        event = Event(time, callback, args, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._heap, time)
        else:
            bucket.append(event)
        self._pending += 1
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self._now, callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        heap = self._heap
        buckets = self._buckets
        while heap:
            time = heap[0]
            bucket = buckets.get(time)
            if bucket is None:
                heapq.heappop(heap)  # stale entry left by compaction
                continue
            index = 0
            size = len(bucket)
            while index < size and bucket[index].cancelled:
                self._tombstones -= 1
                index += 1
            if index == size:
                heapq.heappop(heap)
                del buckets[time]
                continue
            event = bucket[index]
            if index + 1 < size:
                bucket[:] = bucket[index + 1:]
            else:
                heapq.heappop(heap)
                del buckets[time]
            self._pending -= 1
            event._kernel = None
            self._now = time
            self.events_executed += 1
            profiler = self.profiler
            if profiler.enabled:
                profiler.enter_callback(event.callback)
                event.callback(*event.args)
                profiler.exit()
            else:
                event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Clock contract: when ``until`` is given, the clock is advanced to
        exactly ``until`` before returning — even if the last event fired
        earlier or no event fired at all — so measurement windows close at
        well-defined instants.  The one exception is a ``max_events``
        truncation that leaves unexecuted events at or before ``until``:
        advancing past them would let a resumed run move the clock
        backwards, so the clock then stays at the last executed event.
        ``now`` never exceeds ``until`` and never moves backwards.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # Localize the hot loop's lookups: attribute fetches on self and
        # the heapq module cost ~20 % of a pure event-dispatch workload.
        heap = self._heap
        buckets = self._buckets
        heappop = heapq.heappop
        executed = 0
        truncated = False
        # Profiling guard, hoisted: with the null profiler the whole
        # cost is this one local-bool test per event.  A live profiler
        # wraps the loop in a "sim.run" root scope whose *self* time is
        # the kernel's own dispatch overhead, and each callback in a
        # scope named after its component category.
        profiler = self.profiler
        profiling = profiler.enabled
        if profiling:
            profiler.enter("sim.run")
        try:
            while heap:
                time = heap[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                bucket = buckets.pop(time, None)
                if bucket is None:
                    continue  # stale entry left by compaction
                # Batched same-timestamp dispatch: the whole bucket runs
                # back-to-back with one heap pop.  Callbacks that schedule
                # *at* this instant open a fresh bucket (picked up by the
                # outer loop, preserving insertion order); compaction
                # cannot touch this popped bucket, so iterating by index
                # is safe.
                index = 0
                size = len(bucket)
                while index < size:
                    event = bucket[index]
                    index += 1
                    if event.cancelled:
                        self._tombstones -= 1
                        continue
                    self._pending -= 1
                    event._kernel = None
                    self._now = time
                    self.events_executed += 1
                    if profiling:
                        profiler.enter_callback(event.callback)
                        event.callback(*event.args)
                        profiler.exit()
                    else:
                        event.callback(*event.args)
                    executed += 1
                    if max_events is not None and executed >= max_events:
                        truncated = True
                        break
                if truncated:
                    if index < size:
                        # Re-queue the unexecuted tail ahead of any events
                        # scheduled at this instant during the batch (the
                        # tail was inserted before them).
                        rest = bucket[index:]
                        existing = buckets.get(time)
                        if existing is None:
                            buckets[time] = rest
                            heapq.heappush(heap, time)
                        else:
                            existing[:0] = rest
                    break
            if until is not None and until > self._now:
                next_time = self._next_pending_time()
                if next_time is None or next_time > until:
                    self._now = float(until)
        finally:
            self._running = False
            if profiling:
                profiler.exit()

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return self._pending

    def queue_depth(self) -> int:
        """Events sitting in the queue, including lazy tombstones.  O(1)."""
        return self._pending + self._tombstones

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_pending_time(self) -> Optional[float]:
        """Time of the earliest live event, purging surfaced tombstones."""
        heap = self._heap
        buckets = self._buckets
        while heap:
            time = heap[0]
            bucket = buckets.get(time)
            if bucket is None:
                heapq.heappop(heap)
                continue
            for event in bucket:
                if not event.cancelled:
                    return time
            # Bucket holds only tombstones: drop it whole.
            self._tombstones -= len(bucket)
            heapq.heappop(heap)
            del buckets[time]
        return None

    def _note_cancelled(self) -> None:
        """Account for one cancellation; compact when tombstones dominate.

        Compaction filters the buckets and rebuilds the time-heap *in
        place* (slice assignment) so a ``run()`` loop holding local
        references keeps seeing the live queue.  A bucket currently being
        dispatched has already been popped and is skipped; its tombstones
        are settled when they surface in the dispatch loop, so compaction
        subtracts only what it actually purged.
        """
        self._pending -= 1
        self._tombstones += 1
        self.events_cancelled += 1
        if self._tombstones >= _COMPACT_MIN_TOMBSTONES and self._tombstones > self._pending:
            buckets = self._buckets
            purged = 0
            for time in list(buckets):
                bucket = buckets[time]
                live = [event for event in bucket if not event.cancelled]
                removed = len(bucket) - len(live)
                if removed:
                    purged += removed
                    if live:
                        bucket[:] = live
                    else:
                        del buckets[time]
            if purged:
                heap = self._heap
                heap[:] = list(buckets)
                heapq.heapify(heap)
                self._tombstones -= purged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} pending={self._pending}>"
