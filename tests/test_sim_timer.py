"""Tests for one-shot and periodic timers."""

import gc
import weakref

import pytest

from repro.sim.timer import PeriodicTimer, Timer, TimerWheel


class TestTimer:
    def test_fires_after_interval(self, sim):
        fired = []
        timer = Timer(sim, fired.append, "x")
        timer.start(2.0)
        sim.run()
        assert fired == ["x"]
        assert sim.now == 2.0

    def test_stop_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, fired.append, "x")
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_restart_resets_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run(until=1.0)
        timer.restart(2.0)
        sim.run()
        assert fired == [3.0]

    def test_double_start_rejected(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        with pytest.raises(RuntimeError):
            timer.start(1.0)

    def test_running_property(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.running
        timer.start(1.0)
        assert timer.running
        sim.run()
        assert not timer.running

    def test_restartable_after_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_stop_is_idempotent(self, sim):
        timer = Timer(sim, lambda: None)
        timer.stop()
        timer.stop()
        assert not timer.running


class TestLazyTimer:
    """Start, restart and stop move a deadline; the queued entry is
    looked at only when it fires."""

    def test_later_restart_queues_no_entry(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        depth = sim.queue_depth()
        sim.run(until=0.5)
        timer.restart(1.0)
        assert sim.queue_depth() == depth
        assert sim.events_cancelled == 0

    def test_earlier_restart_fires_at_the_earlier_time(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        sim.run(until=1.0)
        timer.restart(0.5)
        sim.run(until=10.0)
        assert fired == [1.5]

    def test_stop_then_start_before_old_due_fires_once_at_new_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run(until=0.25)
        timer.stop()
        sim.run(until=0.5)
        timer.start(2.0)
        assert sim.queue_depth() == 1  # the old entry, re-queued when it fires
        sim.run(until=10.0)
        assert fired == [2.5]

    def test_stopped_timer_never_calls_back(self, sim):
        fired = []
        timer = Timer(sim, fired.append, "x")
        timer.start(1.0)
        sim.run(until=0.5)
        timer.restart(3.0)
        sim.run(until=2.0)
        timer.stop()
        sim.run(until=10.0)
        assert fired == []
        assert not timer.running
        assert sim.pending_count() == 0

    @pytest.mark.parametrize(
        "start, first, restart_after, second",
        [
            # Later deadlines: the entry fires early and re-queues.  The
            # values make a re-queue computed as ``now + (deadline -
            # now)`` round past the deadline.
            (0.1, 0.35, 0.1, 2.9),
            (0.3, 0.3, 0.2, 1.3),
            # An earlier deadline: cancelled and queued at once.
            (4.0, 0.7, 0.35, 0.3),
        ],
    )
    def test_fire_times_are_bit_equal_to_now_plus_interval(
        self, sim, start, first, restart_after, second
    ):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        sim.run(until=start)
        timer.start(first)
        sim.run(until=start + restart_after)
        expected = sim.now + second
        timer.restart(second)
        sim.run(until=start + 10.0)
        assert fired == [expected]


    def test_close_cancels_and_drops_the_owner_without_the_cycle_collector(self, sim):
        class Owner:
            def __init__(self):
                self.timer = Timer(sim, self.expire)

            def expire(self):
                pass

        owner = Owner()
        owner.timer.start(1.0)
        owner.timer.close()
        assert sim.pending_count() == 0  # cancelled, not left to fire as a no-op
        gone = weakref.ref(owner)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del owner
            assert gone() is None
        finally:
            if enabled:
                gc.enable()

    def test_closed_timer_started_again_raises_when_it_fires(self, sim):
        timer = Timer(sim, lambda: None)
        timer.close()
        timer.start(1.0)
        with pytest.raises(RuntimeError, match="closed Timer"):
            sim.run()


class TestPeriodicTimer:
    def test_fires_repeatedly(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]
        assert timer.fired == 3

    def test_initial_delay_overrides_first_interval(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(initial_delay=0.25)
        sim.run(until=2.5)
        assert fired == [0.25, 1.25, 2.25]

    def test_stop_halts_series(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_callback_may_stop_itself(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, tick)
        timer.start()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_interval_change_takes_effect_after_next_firing(self, sim):
        # Re-arming happens before the callback runs, so a change made in
        # the callback applies from the firing after next.
        fired = []

        def tick():
            fired.append(sim.now)
            timer.interval = 2.0

        timer = PeriodicTimer(sim, 1.0, tick)
        timer.start()
        sim.run(until=5.5)
        assert fired == [1.0, 2.0, 4.0]

    def test_nonpositive_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_double_start_rejected(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()


class TestTimerWheel:
    def test_periodic_timers_share_one_kernel_event_per_tick(self, sim):
        # The whole point of the wheel: however many timers are due at a
        # tick, the kernel dispatches exactly one event for it.
        wheel = TimerWheel(sim, tick=0.001)
        counts = [0, 0, 0]

        def bump(i):
            counts[i] += 1

        for i in range(3):
            wheel.schedule_periodic(0.001, bump, i)
        sim.run(until=0.0105)
        assert counts == [10, 10, 10]
        assert sim.events_executed == wheel.ticks_executed == 10

    def test_intervals_quantize_up_to_whole_ticks(self, sim):
        wheel = TimerWheel(sim, tick=0.001)
        fired = []
        wheel.schedule(0.0014, lambda: fired.append(sim.now))
        wheel.schedule(0.0001, lambda: fired.append(sim.now))
        sim.run()
        # 0.0014 -> 2 ticks, 0.0001 -> minimum 1 tick.
        assert fired == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_cancel_is_lazy_but_suppresses_the_callback(self, sim):
        wheel = TimerWheel(sim, tick=0.001)
        fired = []
        keep = wheel.schedule_periodic(0.001, lambda: fired.append("keep"))
        drop = wheel.schedule_periodic(0.001, lambda: fired.append("drop"))
        sim.run(until=0.0025)
        drop.cancel()
        sim.run(until=0.0055)
        assert fired.count("drop") == 2
        assert fired.count("keep") == 5
        assert wheel.live_timers == 1 or wheel.live_timers == 2  # pre/post reap

    def test_wheel_goes_idle_when_drained(self, sim):
        wheel = TimerWheel(sim, tick=0.001)
        timer = wheel.schedule_periodic(0.001, lambda: None)
        sim.run(until=0.003)
        timer.cancel()
        sim.run(until=0.010)
        executed_when_idle = sim.events_executed
        sim.run(until=0.050)
        # No timers -> no tick events keep firing.
        assert sim.events_executed == executed_when_idle

    def test_rearming_after_idle_does_not_fire_in_the_past(self, sim):
        wheel = TimerWheel(sim, tick=0.001)
        wheel.schedule(0.001, lambda: None)
        sim.run(until=0.010)
        fired = []
        wheel.schedule(0.001, lambda: fired.append(sim.now))
        sim.run(until=0.020)
        assert fired == [pytest.approx(0.011)]

    def test_callback_scheduling_into_the_wheel_lands_on_a_later_tick(self, sim):
        wheel = TimerWheel(sim, tick=0.001)
        fired = []

        def first():
            fired.append(("first", sim.now))
            wheel.schedule(0.001, lambda: fired.append(("second", sim.now)))

        wheel.schedule(0.001, first)
        sim.run()
        assert fired[0] == ("first", pytest.approx(0.001))
        assert fired[1] == ("second", pytest.approx(0.002))

    def test_nonpositive_tick_rejected(self, sim):
        with pytest.raises(ValueError):
            TimerWheel(sim, tick=0.0)
