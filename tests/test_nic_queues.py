"""Tests for the bounded single-server service queue."""

import pytest

from repro.nic.queues import ServiceQueue


def make_queue(sim, capacity=4, service=0.1):
    done = []
    queue = ServiceQueue(
        sim,
        name="q",
        capacity=capacity,
        service_time=lambda item: service,
        on_complete=lambda item: done.append((sim.now, item)),
    )
    return queue, done


class TestServiceQueue:
    def test_items_served_fifo_with_service_time(self, sim):
        queue, done = make_queue(sim)
        queue.offer("a")
        queue.offer("b")
        sim.run()
        assert done == [(pytest.approx(0.1), "a"), (pytest.approx(0.2), "b")]

    def test_capacity_bound_drops_excess(self, sim):
        queue, done = make_queue(sim, capacity=2)
        results = [queue.offer(index) for index in range(10)]
        # One in service immediately + 2 queued.
        assert results.count(True) == 3
        assert queue.dropped_full == 7
        sim.run()
        assert len(done) == 3

    def test_accepts_again_after_draining(self, sim):
        queue, done = make_queue(sim, capacity=1)
        queue.offer("a")
        queue.offer("b")
        sim.run()
        assert queue.offer("c")
        sim.run()
        assert [item for _, item in done] == ["a", "b", "c"]

    def test_per_item_service_time(self, sim):
        done = []
        queue = ServiceQueue(
            sim,
            name="q",
            capacity=8,
            service_time=lambda item: item,
            on_complete=lambda item: done.append(sim.now),
        )
        queue.offer(0.5)
        queue.offer(0.25)
        sim.run()
        assert done == [pytest.approx(0.5), pytest.approx(0.75)]

    def test_negative_service_time_rejected(self, sim):
        # Service starts synchronously when the server is idle, so the
        # bad service time surfaces at offer time.
        queue = ServiceQueue(
            sim, name="q", capacity=2, service_time=lambda i: -1, on_complete=lambda i: None
        )
        with pytest.raises(ValueError):
            queue.offer("x")

    def test_busy_time_and_utilisation(self, sim):
        queue, done = make_queue(sim, service=0.2)
        queue.offer("a")
        queue.offer("b")
        sim.run(until=1.0)
        assert queue.busy_time == pytest.approx(0.4)
        assert queue.utilisation(1.0) == pytest.approx(0.4)

    def test_utilisation_rejects_bad_elapsed(self, sim):
        queue, _ = make_queue(sim)
        with pytest.raises(ValueError):
            queue.utilisation(0)

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            ServiceQueue(sim, "q", 0, lambda i: 0.1, lambda i: None)


class TestPauseResume:
    def test_pause_drops_new_offers(self, sim):
        queue, done = make_queue(sim)
        queue.pause()
        assert not queue.offer("x")
        assert queue.dropped_paused == 1
        sim.run()
        assert done == []

    def test_pause_abandons_in_service_item(self, sim):
        queue, done = make_queue(sim, service=1.0)
        queue.offer("victim")
        sim.run(until=0.5)
        queue.pause()
        sim.run()
        assert done == []  # the in-service item never completes

    def test_pause_drops_queued_items(self, sim):
        queue, done = make_queue(sim, service=1.0)
        for item in ("a", "b", "c"):
            queue.offer(item)
        queue.pause(drop_queued=True)
        assert queue.dropped_paused >= 2
        sim.run()
        assert done == []

    def test_pause_can_keep_queued_items(self, sim):
        queue, done = make_queue(sim, service=0.1)
        queue.offer("a")
        queue.offer("b")
        queue.pause(drop_queued=False)
        queue.resume()
        sim.run()
        assert [item for _, item in done] == ["b"]  # "a" was in service, lost

    def test_resume_restarts_service(self, sim):
        queue, done = make_queue(sim)
        queue.pause()
        queue.resume()
        assert queue.offer("x")
        sim.run()
        assert [item for _, item in done] == ["x"]

    def test_resume_without_pause_is_noop(self, sim):
        queue, done = make_queue(sim)
        queue.resume()
        queue.offer("x")
        sim.run()
        assert len(done) == 1

    def test_paused_property(self, sim):
        queue, _ = make_queue(sim)
        assert not queue.paused
        queue.pause()
        assert queue.paused
        queue.resume()
        assert not queue.paused


class TestOfferStartsService:
    """An idle server starts an offered item inside ``offer``; a busy
    or refusing one does not (pinned from the tree in which ``offer``
    called a separate start helper)."""

    def test_idle_offer_is_served_at_once(self, sim):
        served = []
        queue = ServiceQueue(
            sim, name="q", capacity=2,
            service_time=lambda item: served.append((sim.now, item)) or 0.25,
            on_complete=lambda item: None,
        )
        sim.run(until=1.0)
        assert queue.offer("a")
        # Service time is taken and the completion queued in the call.
        assert served == [(1.0, "a")]
        assert (queue.busy, queue.depth, queue.accepted, sim.pending_count()) == (True, 0, 1, 1)
        assert queue.offer("b")
        assert served == [(1.0, "a")]  # queued behind "a"
        assert (queue.depth, sim.pending_count()) == (1, 1)
        sim.run()
        assert served == [(1.0, "a"), (1.25, "b")]
        assert (queue.busy, queue.completed, queue.busy_time) == (False, 2, 0.5)

    def test_pause_and_resume_with_items_queued(self, sim):
        queue, done = make_queue(sim, capacity=4, service=0.1)
        for item in "abc":
            queue.offer(item)
        sim.run(until=0.15)  # "a" done, "b" in service, "c" queued
        queue.pause(drop_queued=False)
        assert (queue.busy, queue.depth, queue.dropped_paused) == (False, 1, 0)
        assert not queue.offer("d")
        assert queue.dropped_paused == 1
        sim.run(until=0.5)
        queue.resume()
        # Resuming starts the queued item at once; the abandoned one is lost.
        assert (queue.busy, queue.depth) == (True, 0)
        assert queue.offer("e")
        sim.run()
        assert done == [
            (pytest.approx(0.1), "a"), (pytest.approx(0.6), "c"), (pytest.approx(0.7), "e"),
        ]
        assert (queue.accepted, queue.completed) == (4, 3)

    def test_refused_offers_return_false_and_count(self, sim):
        queue, done = make_queue(sim, capacity=1, service=0.1)
        assert [queue.offer(item) for item in "abc"] == [True, True, False]
        assert (queue.dropped_full, queue.dropped_paused) == (1, 0)
        queue.pause(drop_queued=True)
        assert queue.offer("d") is False
        assert (queue.dropped_full, queue.dropped_paused, queue.accepted) == (1, 2, 2)
        sim.run()
        assert done == []
