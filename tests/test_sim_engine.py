"""Tests for the discrete-event kernel."""

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


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.pending

    def test_cancel_releases_callback_references(self, sim):
        big = object()
        event = sim.schedule(1.0, lambda x: None, big)
        event.cancel()
        assert event.args == ()

    def test_pending_count_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        assert keep.pending


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
        doomed.cancel()
        sim.run(until=3.0, max_events=1)
        assert fired == ["a"]
        # The only event before until is a tombstone: advance to until.
        assert sim.now == 3.0


class TestPendingAccounting:
    """pending_count() is a live counter, robust to lazy tombstones."""

    def test_counter_tracks_schedule_execute_cancel(self, sim):
        events = [sim.schedule(float(tag + 1), lambda: None) for tag in range(10)]
        assert sim.pending_count() == 10
        events[9].cancel()
        assert sim.pending_count() == 9
        sim.run(until=5.0)  # executes t=1..5
        assert sim.pending_count() == 4

    def test_cancel_after_execution_does_not_corrupt_counter(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_count() == 0
        event.cancel()  # late cancel of an already-executed event
        assert sim.pending_count() == 0

    def test_mass_cancellation_compacts_the_heap(self, sim):
        survivor = sim.schedule(10.0, lambda: None)
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(2000)]
        for event in doomed:
            event.cancel()
        assert sim.pending_count() == 1
        # Tombstones were purged rather than left to linger until t=1.0.
        assert len(sim._heap) < 600
        sim.run()
        assert sim.now == 10.0
        assert survivor.pending  # cancel() never ran on it

    def test_compaction_during_run_is_safe(self, sim):
        fired = []
        doomed = [sim.schedule(5.0, lambda: None) for _ in range(1500)]

        def cancel_all():
            for event in doomed:
                event.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(8.0, fired.append, "end")
        sim.run()
        assert fired == ["end"]
        assert sim.now == 8.0
        assert sim.pending_count() == 0


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
            victim.cancel()

        # The assassin fires just before the shared timestamp, so the
        # victim must not run even though its batch is already formed.
        sim.schedule(1.0, fired.append, "bystander")
        sim.schedule(0.9999, assassin)
        sim.run()
        assert fired == ["assassin", "bystander"]
        assert sim.events_cancelled == 1

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
        events = []
        for index in range(600):
            if index % 2:
                events.append(sim.schedule(1.0, fired.append, index))
            else:
                events.append(sim.schedule_at(1.0, fired.append, index))
        survivors = [index for index in range(600) if index % 7 == 0]
        for index, event in enumerate(events):
            if index % 7:
                event.cancel()
        # 514 cancellations: the 512th compacts the bucket in place.
        assert sim.queue_depth() < 100
        assert sim.pending_count() == len(survivors)
        sim.schedule_at(1.0, fired.append, "after-compaction")
        sim.run()
        assert fired == survivors + ["after-compaction"]

    def test_event_repr(self, sim):
        event = sim.schedule(1.5, lambda: None)
        assert repr(event) == "<Event t=1.500000000 pending>"
        event.cancel()
        assert repr(event) == "<Event t=1.500000000 cancelled>"
