"""Tests for the discrete-event kernel."""

import gc
import heapq
import random
import weakref

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_same_time_events_run_fifo(self, sim):
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(7.25, fired.append, "x")
        sim.run()
        assert sim.now == 7.25
        assert fired == ["x"]

    def test_call_soon_runs_at_current_time(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.call_soon(fired.append, sim.now))
        sim.run()
        assert fired == [1.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "nested"))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0


class _Payload:
    """A weak-referenceable stand-in for a packet buffer."""


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert not sim.is_pending(handle)
        assert sim.events_cancelled == 1
        assert sim.queue_depth() == 1  # one tombstone, counted once

    def test_cancel_releases_callback_references(self, sim):
        payload = _Payload()
        alive = weakref.ref(payload)
        handle = sim.schedule(1.0, lambda x: None, payload)
        del payload
        gc.collect()
        assert alive() is not None  # the queued entry holds it
        sim.cancel(handle)
        gc.collect()
        # The handle and its tombstone are both still alive; neither
        # pins the argument any more.
        assert alive() is None
        assert not sim.is_pending(handle)

    def test_pending_count_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending_count() == 1
        assert sim.is_pending(keep)

    def test_handle_reads_not_pending_once_run(self, sim):
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append(sim.is_pending(handle)))
        assert sim.is_pending(handle)
        sim.run()
        # Not pending from the moment its callback starts.
        assert seen == [False]
        assert not sim.is_pending(handle)

    def test_cancel_after_run_is_a_no_op(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        sim.cancel(handle)
        assert fired == ["x"]
        assert sim.events_cancelled == 0
        assert sim.pending_count() == 0
        assert sim.queue_depth() == 0

    def test_cancel_from_inside_its_own_callback_is_a_no_op(self, sim):
        handles = []
        handles.append(sim.schedule(1.0, lambda: sim.cancel(handles[0])))
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2
        assert sim.events_cancelled == 0
        assert sim.pending_count() == 0

    def test_counters_are_exact_inside_each_callback(self, sim):
        """A metrics sampler reads the counters mid-run."""
        seen = []

        def sample(tag):
            seen.append((tag, sim.pending_count(), sim.events_executed, sim.events_cancelled))

        sim.schedule(1.0, sample, "a")
        doomed = sim.schedule(1.0, sample, "never")
        sim.schedule(1.0, sample, "b")
        sim.schedule(2.0, sample, "c")
        sim.cancel(doomed)
        sim.run()
        # Each callback sees itself executed and no longer pending.
        assert seen == [("a", 2, 1, 1), ("b", 1, 2, 1), ("c", 0, 3, 1)]


class TestRun:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_even_with_no_events(self, sim):
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_remaining_events_run_on_next_run(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=1.0)
        sim.run()
        assert fired == ["late"]

    def test_max_events_bounds_execution(self, sim):
        fired = []
        for tag in range(10):
            sim.schedule(1.0, fired.append, tag)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_runs_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step()
        assert fired == ["a"]

    def test_step_on_empty_heap_returns_false(self, sim):
        assert not sim.step()

    def test_run_is_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self, sim):
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_start_time_constructor(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0


class TestRunClockContract:
    """``run(until=..., max_events=...)`` clock semantics.

    Regression: the kernel used to return with a stale clock when
    ``max_events`` stopped the loop, even though no remaining event lay
    at or before ``until`` — measurement windows then closed at the last
    event's time instead of the requested boundary.
    """

    def test_truncation_with_no_remaining_work_advances_to_until(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(9.0, fired.append, "far")
        sim.run(until=3.0, max_events=2)
        assert fired == ["a", "b"]
        # Only remaining work is beyond the window: clock closes at until.
        assert sim.now == 3.0

    def test_truncation_with_remaining_work_keeps_clock(self, sim):
        fired = []
        for tag in range(3):
            sim.schedule(1.0, fired.append, tag)
        sim.schedule(2.0, fired.append, "later")
        sim.run(until=3.0, max_events=2)
        assert fired == [0, 1]
        # An unexecuted event remains at t=1.0 <= until: advancing to 3.0
        # would let the resumed run move the clock backwards.
        assert sim.now == 1.0

    def test_resumed_run_finishes_the_window(self, sim):
        fired = []
        for tag in range(4):
            sim.schedule(1.0, fired.append, tag)
        sim.run(until=3.0, max_events=2)
        sim.run(until=3.0)
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_truncation_skips_cancelled_stragglers(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        doomed = sim.schedule(2.0, fired.append, "never")
        sim.cancel(doomed)
        sim.run(until=3.0, max_events=1)
        assert fired == ["a"]
        # The only event before until is a tombstone: advance to until.
        assert sim.now == 3.0

    def test_truncation_requeues_a_tail_holding_tombstones(self, sim):
        fired = []
        handles = [sim.schedule(1.0, fired.append, tag) for tag in range(4)]
        sim.cancel(handles[2])
        sim.run(max_events=1)
        assert fired == [0]
        assert sim.pending_count() == 2
        sim.cancel(handles[1])  # cancels an entry of the re-queued tail
        sim.run()
        assert fired == [0, 3]
        assert sim.pending_count() == 0
        assert sim.queue_depth() == 0

    def test_a_bucket_of_tombstones_does_not_move_the_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.cancel(sim.schedule(5.0, lambda: None))
        sim.run()
        assert sim.now == 1.0


class TestPendingAccounting:
    """pending_count() is a live counter, robust to lazy tombstones."""

    def test_counter_tracks_schedule_execute_cancel(self, sim):
        handles = [sim.schedule(float(tag + 1), lambda: None) for tag in range(10)]
        assert sim.pending_count() == 10
        sim.cancel(handles[9])
        assert sim.pending_count() == 9
        sim.run(until=5.0)  # executes t=1..5
        assert sim.pending_count() == 4

    def test_cancel_after_execution_does_not_corrupt_counter(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_count() == 0
        sim.cancel(handle)  # late cancel of an already-executed event
        assert sim.pending_count() == 0

    def test_mass_cancellation_compacts_the_heap(self, sim):
        fired = []
        survivor = sim.schedule(10.0, fired.append, "survivor")
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(2000)]
        for handle in doomed:
            sim.cancel(handle)
        assert sim.pending_count() == 1
        # Tombstones were purged rather than left to linger until t=1.0.
        assert len(sim._heap) < 600
        sim.run()
        assert sim.now == 10.0
        assert fired == ["survivor"]  # compaction kept it
        assert not sim.is_pending(survivor)

    def test_compaction_during_run_is_safe(self, sim):
        fired = []
        doomed = [sim.schedule(5.0, lambda: None) for _ in range(1500)]

        def cancel_all():
            for handle in doomed:
                sim.cancel(handle)
            # Compaction ran inside this callback, mid-dispatch: fewer
            # than 512 of the 1500 tombstones are left.
            fired.append(sim.queue_depth() < 512)

        sim.schedule(1.0, cancel_all)
        sim.schedule(8.0, fired.append, "end")
        sim.run()
        assert fired == [True, "end"]
        assert sim.now == 8.0
        assert sim.pending_count() == 0
        assert sim.queue_depth() == 0

    def test_compaction_inside_a_batch_settles_its_tombstones(self, sim):
        """Cancelling most of the bucket being dispatched: compaction
        skips that popped bucket, whose tombstones settle as they surface."""
        fired = []
        handles = []

        def cancel_the_rest():
            fired.append("first")
            for handle in handles[1:]:
                sim.cancel(handle)

        handles.append(sim.schedule(1.0, cancel_the_rest))
        handles.extend(sim.schedule(1.0, fired.append, index) for index in range(600))
        sim.schedule(2.0, fired.append, "end")
        sim.run()
        assert fired == ["first", "end"]
        assert sim.events_cancelled == 600
        assert sim.pending_count() == 0
        assert sim.queue_depth() == 0


class TestBatchedSameTimestampDispatch:
    """Regression pins for the time-bucket kernel: a timestamp's events
    drain as one FIFO batch, and insertions/cancellations made *during*
    the batch keep the exact ordering the heap kernel guaranteed."""

    def test_insertions_during_a_batch_join_its_tail(self, sim):
        fired = []

        def first():
            fired.append("first")
            # Same-timestamp insertion while the batch is draining: runs
            # after everything already queued for this instant.
            sim.call_soon(fired.append, "appended")

        sim.schedule(1.0, first)
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second", "appended"]

    def test_cancellation_inside_a_batch_is_honoured(self, sim):
        fired = []
        victim = sim.schedule(1.0, fired.append, "victim")

        def assassin():
            fired.append("assassin")
            sim.cancel(victim)

        # The assassin fires just before the shared timestamp, so the
        # victim must not run even though its batch is already formed.
        sim.schedule(1.0, fired.append, "bystander")
        sim.schedule(0.9999, assassin)
        sim.run()
        assert fired == ["assassin", "bystander"]
        assert sim.events_cancelled == 1

    def test_cancellation_within_the_draining_batch(self, sim):
        fired = []
        handles = {}

        def assassin():
            fired.append("assassin")
            sim.cancel(handles["victim"])

        sim.schedule(1.0, assassin)
        handles["victim"] = sim.schedule(1.0, fired.append, "victim")
        sim.schedule(1.0, fired.append, "bystander")
        sim.run()
        # The batch was already popped when the victim was cancelled.
        assert fired == ["assassin", "bystander"]
        assert sim.events_cancelled == 1
        assert sim.pending_count() == 0
        assert sim.queue_depth() == 0

    def test_nested_same_time_chains_stay_fifo(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.call_soon(chain, depth + 1)

        sim.schedule(1.0, chain, 0)
        sim.schedule(1.0, fired.append, "peer-a")
        sim.schedule(1.0, fired.append, "peer-b")
        sim.run()
        # Each nested call_soon lands behind the peers queued earlier.
        assert fired == [0, "peer-a", "peer-b", 1, 2, 3]
        assert sim.now == 1.0

    def test_interleaved_timestamps_drain_in_order(self, sim):
        fired = []
        for when, tag in ((2.0, "b1"), (1.0, "a1"), (2.0, "b2"), (1.0, "a2")):
            sim.schedule(when, fired.append, tag)
        sim.run()
        assert fired == ["a1", "a2", "b1", "b2"]


class TestFifoWithoutSequenceNumbers:
    """Order within one instant is the bucket's append order; no event
    carries a sequence number, whichever entry point scheduled it."""

    @staticmethod
    def _interleave(sim, fired, tag):
        sim.schedule(0.0, fired.append, f"{tag}-schedule")
        sim.schedule_at(sim.now, fired.append, f"{tag}-schedule_at")
        sim.call_soon(fired.append, f"{tag}-call_soon")

    def test_entry_points_interleaved_at_one_time_run_in_insertion_order(self):
        sim = Simulator(start_time=2.0)
        fired = []
        for tag in ("a", "b"):
            self._interleave(sim, fired, tag)
        sim.run()
        assert fired == [
            "a-schedule", "a-schedule_at", "a-call_soon",
            "b-schedule", "b-schedule_at", "b-call_soon",
        ]
        assert sim.now == 2.0

    def test_order_survives_a_truncation_that_requeues_the_tail(self, sim):
        fired = []

        def head():
            fired.append("head")
            # Scheduled during the batch: must run after the whole tail.
            self._interleave(sim, fired, "inner")

        sim.schedule(1.0, head)
        sim.schedule_at(1.0, fired.append, "t1")
        sim.schedule(1.0, fired.append, "t2")
        sim.schedule_at(1.0, fired.append, "t3")
        sim.run(max_events=2)
        assert fired == ["head", "t1"]
        sim.schedule_at(1.0, fired.append, "after-truncation")
        sim.run()
        assert fired == [
            "head", "t1", "t2", "t3",
            "inner-schedule", "inner-schedule_at", "inner-call_soon",
            "after-truncation",
        ]

    def test_order_survives_tombstone_compaction(self, sim):
        fired = []
        handles = []
        for index in range(600):
            if index % 2:
                handles.append(sim.schedule(1.0, fired.append, index))
            else:
                handles.append(sim.schedule_at(1.0, fired.append, index))
        survivors = [index for index in range(600) if index % 7 == 0]
        for index, handle in enumerate(handles):
            if index % 7:
                sim.cancel(handle)
        # 514 cancellations: the 512th compacts the bucket in place.
        assert sim.queue_depth() < 100
        assert sim.pending_count() == len(survivors)
        sim.schedule_at(1.0, fired.append, "after-compaction")
        sim.run()
        assert fired == survivors + ["after-compaction"]


class TestLoneInstants:
    """An instant holding one entry maps straight to that entry; a second
    entry turns it into a FIFO bucket.  Nothing else about the queue
    changes: order, tombstones, compaction, truncation and the clock."""

    def test_a_lone_entry_is_queued_as_itself(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert sim._buckets[1.0] is handle
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.0
        assert not sim.is_pending(handle)
        assert sim.pending_count() == sim.queue_depth() == 0

    def test_a_second_entry_promotes_the_instant_to_a_bucket(self, sim):
        fired = []
        first = sim.schedule(1.0, fired.append, "a")
        second = sim.schedule_at(1.0, fired.append, "b")
        assert sim._buckets[1.0] == [first, second]
        assert sim._buckets[1.0][0] is first
        third = sim.schedule(1.0, fired.append, "c")
        assert sim._buckets[1.0][2] is third
        assert len(sim._heap) == 1  # one heap entry per instant
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.pending_count() == sim.queue_depth() == 0

    def test_a_tombstone_promoted_by_a_later_entry(self, sim):
        fired = []
        sim.cancel(sim.schedule(1.0, fired.append, "never"))
        sim.schedule(1.0, fired.append, "b")
        assert sim.pending_count() == 1 and sim.queue_depth() == 2
        sim.run()
        assert fired == ["b"]
        assert sim.now == 1.0
        assert sim.queue_depth() == 0

    def test_cancelling_a_lone_entry(self, sim):
        fired = []
        handle = sim.schedule(2.0, fired.append, "x")
        sim.cancel(handle)
        assert sim._buckets[2.0] is handle  # a lone tombstone
        assert sim.pending_count() == 0 and sim.queue_depth() == 1
        sim.run()
        assert fired == []
        assert sim.now == 0.0  # a tombstone does not move the clock
        assert sim.queue_depth() == 0
        assert sim.events_cancelled == 1 and sim.events_executed == 0

    def test_a_lone_tombstone_under_run_until(self, sim):
        fired = []
        sim.cancel(sim.schedule(1.0, fired.append, "never"))
        sim.schedule(4.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == [] and sim.now == 2.0
        assert sim.queue_depth() == 1  # the tombstone was purged
        sim.cancel(sim.schedule(5.0, fired.append, "never"))
        sim.run(until=4.5)
        assert fired == ["late"] and sim.now == 4.5
        # Beyond until, the surfaced lone tombstone is purged too.
        assert sim.queue_depth() == 0

    def test_truncation_before_a_lone_entry_keeps_the_clock(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=3.0, max_events=1)
        assert fired == ["a"] and sim.now == 1.0
        sim.run(until=3.0, max_events=1)
        assert fired == ["a", "b"] and sim.now == 3.0

    def test_compaction_purges_lone_tombstones(self, sim):
        fired = []
        handles = [sim.schedule(1.0 + index, fired.append, index) for index in range(1500)]
        for index, handle in enumerate(handles):
            if index % 100:
                sim.cancel(handle)
        survivors = list(range(0, 1500, 100))
        # Each of those instants held one entry: compaction drops the
        # whole instant, and the heap is rebuilt without it.
        assert sim.queue_depth() < 512 + len(survivors)
        assert len(sim._buckets) == len(sim._heap) == sim.queue_depth()
        assert sim.pending_count() == len(survivors)
        sim.run()
        assert fired == survivors
        assert sim.queue_depth() == 0

    def test_truncated_tail_requeued_onto_a_lone_entry(self, sim):
        fired = []

        def head():
            fired.append("head")
            # The bucket was popped: this lands alone at the instant.
            sim.call_soon(fired.append, "inner")

        sim.schedule(1.0, head)
        tail = [sim.schedule(1.0, fired.append, tag) for tag in ("t1", "t2")]
        sim.run(max_events=1)
        assert fired == ["head"]
        # The unrun tail goes ahead of the lone entry, in one bucket.
        queued = sim._buckets[1.0]
        assert queued[:2] == tail and len(queued) == 3
        assert len(sim._heap) == 1
        assert sim.pending_count() == sim.queue_depth() == 3
        sim.run()
        assert fired == ["head", "t1", "t2", "inner"]

    def test_truncated_tail_requeued_onto_a_lone_tombstone(self, sim):
        fired = []

        def head():
            fired.append("head")
            sim.cancel(sim.call_soon(fired.append, "never"))

        sim.schedule(1.0, head)
        sim.schedule(1.0, fired.append, "t1")
        sim.run(until=1.0, max_events=1)
        assert sim.now == 1.0
        assert sim.pending_count() == 1 and sim.queue_depth() == 2
        sim.run()
        assert fired == ["head", "t1"]
        assert sim.queue_depth() == 0

    def test_step_runs_one_event_of_a_bucket(self, sim):
        fired = []
        for tag in ("a", "b"):
            sim.schedule(1.0, fired.append, tag)
        sim.cancel(sim.schedule(2.0, fired.append, "never"))
        assert sim.step() and fired == ["a"]
        assert sim.step() and fired == ["a", "b"]
        assert not sim.step()  # only a tombstone is left
        assert sim.now == 1.0
        assert sim.queue_depth() == 0


class _HeapKernel:
    """Reference scheduler: one heap of ``(time, seq, entry)``, popped
    one entry at a time, with the kernel's clock contract."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule_at(self, time, callback, *args):
        entry = [callback, args]
        heapq.heappush(self._heap, (float(time), self._seq, entry))
        self._seq += 1
        return entry

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def call_soon(self, callback, *args):
        return self.schedule_at(self.now, callback, *args)

    @staticmethod
    def cancel(handle):
        handle[0] = None

    def pending_count(self):
        return sum(1 for _, _, entry in self._heap if entry[0] is not None)

    def queue_depth(self):
        return len(self._heap)

    def run(self, until=None, max_events=None):
        heap = self._heap
        executed = 0
        while heap:
            time, _, entry = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            callback, args = entry
            if callback is None:
                continue
            entry[0] = None
            self.now = time
            callback(*args)
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        if until is not None and until > self.now:
            # Instants holding only tombstones surface and are dropped.
            while heap:
                first = heap[0][0]
                if any(e[0] is not None for t, _, e in heap if t == first):
                    break
                while heap and heap[0][0] == first:
                    heapq.heappop(heap)
            if not heap or heap[0][0] > until:
                self.now = float(until)


class TestAgainstAReferenceHeap:
    """Random programs of schedules, absolute schedules, cancels,
    same-instant scheduling from callbacks, truncated runs and
    ``until`` windows: the kernel and a plain ``(time, seq)`` heap run
    the same callbacks in the same order, with the same clock and
    counters inside every callback and after every run."""

    @staticmethod
    def _drive(kernel, seed):
        rnd = random.Random(seed)
        log = []
        handles = []

        def observe(tag):
            log.append((tag, kernel.now, kernel.pending_count(), kernel.queue_depth()))

        def queue(delay, absolute):
            tag = len(handles)
            if absolute:
                handles.append(kernel.schedule_at(kernel.now + delay, event, tag))
            elif delay == 0.0 and tag % 3 == 0:
                handles.append(kernel.call_soon(event, tag))
            else:
                handles.append(kernel.schedule(delay, event, tag))

        def event(tag):
            observe(tag)
            # The event's own actions depend only on its tag, so both
            # kernels act alike as long as they run the same events.
            actions = random.Random(seed * 7919 + tag)
            if len(handles) < 400:
                for _ in range(actions.choice((0, 1, 1, 2, 3))):
                    queue(actions.choice((0.0, 0.0, 0.25, 0.5, 1.0, 1.5)), actions.random() < 0.3)
            if handles and actions.random() < 0.3:
                kernel.cancel(handles[actions.randrange(len(handles))])

        for _ in range(rnd.randint(1, 30)):
            queue(rnd.choice((0.0, 0.5, 1.0, 1.0, 2.0, 3.5)), rnd.random() < 0.5)
        for round_ in range(rnd.randint(3, 8)):
            for _ in range(rnd.randint(0, 3)):
                if handles and rnd.random() < 0.5:
                    kernel.cancel(handles[rnd.randrange(len(handles))])
                else:
                    queue(rnd.choice((0.0, 0.5, 1.0, 2.5)), rnd.random() < 0.5)
            until = rnd.choice((None, kernel.now, kernel.now + rnd.choice((0.5, 1.0, 1.25, 3.0))))
            max_events = rnd.choice((None, None, 1, 2, 5, 17))
            kernel.run(until=until, max_events=max_events)
            observe(("run", round_, until, max_events))
        kernel.run()
        observe("drained")
        return log

    @pytest.mark.parametrize("seed", range(60))
    def test_random_programs_match_the_reference(self, seed):
        expected = self._drive(_HeapKernel(), seed)
        got = self._drive(Simulator(), seed)
        assert len(got) > 20
        assert got == expected
