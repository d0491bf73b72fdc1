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

The kernel keeps a min-heap of *distinct* firing times (plain floats)
and a dict mapping each time to what is due then: the lone entry, a
plain two-slot list ``[callback, args]``, or — once a second entry
lands on the instant — a FIFO **bucket** list of entries.  An entry's
slot 0 is a callable (or ``None``) and a bucket's is an entry, so one
``type(...) is list`` test tells them apart.  Scheduling at an
already-pending time is a dict hit plus a list append, with no heap
operation, and every heap comparison is a C-speed float comparison.
Dispatch pops one time, sets the clock once, and runs the lone entry,
or the whole bucket back-to-back ("batched same-timestamp dispatch"):
hundreds of flood generators ticking in lockstep across a fleet cost one
heap push and one pop per tick, and the common instant holding a single
event (a flood's link hop) pays for no bucket at all.  Execution order
is exactly (time, insertion order): an entry carries neither its time
nor a sequence number and is never compared, and order within an
instant is the bucket's append order, kept across ``max_events``
truncation (the unrun tail is re-queued ahead of newer same-instant
entries) and tombstone compaction (which filters buckets in place).

Handles
-------

:meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` return the
entry itself as the handle, queued alone or in a bucket; most callers
(link deliveries, NIC service completions) drop it at once, so
scheduling allocates nothing beyond the entry.  A keeper passes it back
to :meth:`Simulator.cancel` or :meth:`Simulator.is_pending`.  An entry's
callback slot is ``None`` once it has run or been cancelled, so a late
cancel is a no-op and each entry is counted once, as run or cancelled.

Cancellation is lazy: a cancelled entry stays queued as a tombstone
until it surfaces.  :meth:`Simulator.pending_count` is O(1) from the
counts of entries scheduled, run and cancelled (the dispatch loop writes
no pending counter), and the queue is compacted when tombstones dominate
so a run that cancels many entries does not grow it without bound.  Few
callers cancel at all: a :class:`~repro.sim.timer.Timer` restart or stop
moves only the timer's deadline and leaves its entry queued (a live
entry, not a tombstone), so TCP's per-ACK timer restarts neither cancel
nor queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.obs.profiling.core import NULL_PROFILER
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing.tracer import PacketTracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


#: Compact the queue once it holds this many tombstones *and* they are
#: the majority (see :meth:`Simulator.cancel`).
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
        "now",
        "_heap",
        "_buckets",
        "_running",
        "_scheduled",
        "_tombstones",
        "events_executed",
        "events_cancelled",
        "tracer",
        "metrics",
        "profiler",
    )

    def __init__(self, start_time: float = 0.0):
        #: Current virtual time in seconds.  A plain attribute, read on
        #: every hop; only the kernel's dispatch loop writes it.
        self.now = float(start_time)
        #: Min-heap of distinct pending firing times (floats).  Each time
        #: appears at most once; what is due then lives in ``_buckets[time]``.
        self._heap: List[float] = []
        #: time -> the lone ``[callback, args]`` entry scheduled for that
        #: instant, or the FIFO list of its entries once it holds two.
        self._buckets: Dict[float, list] = {}
        self._running = False
        #: Entries ever scheduled; with the two counters below it gives
        #: :meth:`pending_count` without a write per dispatched event.
        self._scheduled = 0
        #: Cancelled events still sitting in the queue (lazy deletion).
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
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time.

        Returns the queue entry as a handle for :meth:`cancel` and
        :meth:`is_pending`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at: this is the hottest kernel entry point, and
        # now + delay is already a valid float time.
        time = self.now + delay
        entry = [callback, args]
        buckets = self._buckets
        queued = buckets.get(time)
        if queued is None:
            buckets[time] = entry
            heapq.heappush(self._heap, time)
        elif type(queued[0]) is list:
            queued.append(entry)
        else:
            buckets[time] = [queued, entry]
        self._scheduled += 1
        return entry

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        if type(time) is not float:
            time = float(time)
        entry = [callback, args]
        buckets = self._buckets
        queued = buckets.get(time)
        if queued is None:
            buckets[time] = entry
            heapq.heappush(self._heap, time)
        elif type(queued[0]) is list:
            queued.append(entry)
        else:
            buckets[time] = [queued, entry]
        self._scheduled += 1
        return entry

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, callback, *args)

    def cancel(self, handle: list) -> None:
        """Prevent a scheduled callback from running.  Idempotent, and a
        no-op once the callback has run.

        The entry stays queued as a tombstone (lazy deletion) and is
        skipped when it surfaces; the counters are updated immediately.
        When tombstones dominate, the queue is compacted: buckets
        filtered, lone tombstones dropped and the time-heap rebuilt *in
        place* (slice assignment) so a ``run()`` loop holding local
        references keeps seeing the live queue.  A bucket currently being
        dispatched has already been popped and is skipped; its tombstones
        are settled when they surface in the dispatch loop, so compaction
        subtracts only what it actually purged.
        """
        if handle[0] is None:
            return
        # Drop references eagerly so cancelled entries do not pin packet
        # buffers or closures in memory until they surface in the queue.
        handle[0] = None
        handle[1] = ()
        self._tombstones += 1
        self.events_cancelled += 1
        if self._tombstones >= _COMPACT_MIN_TOMBSTONES and self._tombstones > self.pending_count():
            buckets = self._buckets
            purged = 0
            for time in list(buckets):
                queued = buckets[time]
                if type(queued[0]) is not list:
                    if queued[0] is None:
                        purged += 1
                        del buckets[time]
                    continue
                live = [entry for entry in queued if entry[0] is not None]
                removed = len(queued) - len(live)
                if removed:
                    purged += removed
                    if live:
                        queued[:] = live
                    else:
                        del buckets[time]
            if purged:
                heap = self._heap
                heap[:] = list(buckets)
                heapq.heapify(heap)
                self._tombstones -= purged

    @staticmethod
    def is_pending(handle: list) -> bool:
        """True while the handle's callback is still scheduled to run."""
        return handle[0] is not None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next pending event: ``run(max_events=1)``.

        Returns ``True`` if an event ran, ``False`` if none was pending.
        """
        executed = self.events_executed
        self.run(max_events=1)
        return self.events_executed > executed

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
        ``now`` never exceeds ``until`` and never moves backwards, and an
        instant holding only tombstones does not move it.
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
        # The run stops once ``executed`` reaches ``limit`` (never, at -1;
        # a ``max_events`` below 1 still runs one event).
        limit = -1 if max_events is None else max(max_events, 1)
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
                queued = buckets.pop(time, None)
                if queued is None:
                    continue  # stale entry left by compaction
                callback = queued[0]
                if type(callback) is not list:
                    # A lone entry: run it with no bucket loop.
                    if callback is None:
                        self._tombstones -= 1
                        continue  # a tombstone does not move the clock
                    queued[0] = None
                    self.now = time
                    self.events_executed += 1
                    if profiling:
                        profiler.enter_callback(callback)
                        callback(*queued[1])
                        profiler.exit()
                    else:
                        callback(*queued[1])
                    executed += 1
                    if executed == limit:
                        break
                    continue
                # Batched same-timestamp dispatch: the whole bucket runs
                # back-to-back with one heap pop and one clock write.
                # Callbacks that schedule *at* this instant queue afresh
                # (picked up by the outer loop, preserving insertion
                # order); compaction cannot touch this popped bucket, so
                # iterating by index is safe.
                earlier = self.now
                self.now = time
                before = executed
                index = 0
                size = len(queued)
                while index < size:
                    entry = queued[index]
                    index += 1
                    callback, args = entry
                    if callback is None:
                        self._tombstones -= 1
                        continue
                    # Cleared before the call: the handle reads "not
                    # pending" from here on, and a cancel is a no-op.
                    entry[0] = None
                    self.events_executed += 1
                    if profiling:
                        profiler.enter_callback(callback)
                        callback(*args)
                        profiler.exit()
                    else:
                        callback(*args)
                    executed += 1
                    if executed == limit:
                        break
                if executed == before:
                    self.now = earlier  # the bucket held only tombstones
                if executed == limit:
                    if index < size:
                        # Re-queue the unexecuted tail ahead of anything
                        # scheduled at this instant during the batch (the
                        # tail was inserted before it).
                        rest = queued[index:]
                        existing = buckets.get(time)
                        if existing is None:
                            buckets[time] = rest
                            heapq.heappush(heap, time)
                        elif type(existing[0]) is list:
                            existing[:0] = rest
                        else:
                            rest.append(existing)
                            buckets[time] = rest
                    break
            if until is not None and until > self.now:
                next_time = self._next_pending_time()
                if next_time is None or next_time > until:
                    self.now = float(until)
        finally:
            self._running = False
            if profiling:
                profiler.exit()

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return self._scheduled - self.events_executed - self.events_cancelled

    def queue_depth(self) -> int:
        """Events sitting in the queue, including lazy tombstones.  O(1)."""
        return self.pending_count() + self._tombstones

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_pending_time(self) -> Optional[float]:
        """Time of the earliest live event, purging surfaced tombstones."""
        heap = self._heap
        buckets = self._buckets
        while heap:
            time = heap[0]
            queued = buckets.get(time)
            if queued is None:
                heapq.heappop(heap)
                continue
            if type(queued[0]) is not list:
                if queued[0] is not None:
                    return time
                self._tombstones -= 1
            else:
                for entry in queued:
                    if entry[0] is not None:
                        return time
                self._tombstones -= len(queued)
            # The instant holds only tombstones: drop it whole.
            heapq.heappop(heap)
            del buckets[time]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_count()}>"
