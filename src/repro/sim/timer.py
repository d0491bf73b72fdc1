"""One-shot and periodic timers built on the simulation kernel.

Protocol code (TCP retransmission, delayed ACK, flood pacing, measurement
windows) uses these instead of raw ``Simulator.schedule`` calls so that
restart/cancel semantics live in one tested place.

For fleets of synchronized periodic events (hundreds of flood generators
all pacing at the same rate), :class:`TimerWheel` batches every timer due
on the same tick behind a single kernel event — the wheel costs one
kernel event per tick regardless of how many timers fire on it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.obs.profiling.core import derive_category
from repro.sim.engine import Simulator


def _timer_category(callback: Callable[..., Any]) -> str:
    """Profile category of the component whose deadline this timer is.

    Timers fire as kernel events bound to the timer object; attributing
    their cost to "the timer" would hide the real component, so the
    category is resolved from the *wrapped* callback instead.
    """
    inst = getattr(callback, "__self__", None)
    if inst is not None:
        category = getattr(inst, "profile_category", None)
        if category is not None:
            return category
    return derive_category(callback)


class Timer:
    """A restartable one-shot timer.

    The callback fires once, ``interval`` seconds after the most recent
    :meth:`start` (or :meth:`restart`).  Starting a running timer is an
    error; use :meth:`restart` to reset the deadline.

    The timer is lazy: :meth:`start`, :meth:`restart` and :meth:`stop`
    move only its deadline (``None`` while disarmed), and the one kernel
    entry it keeps queued is looked at only when it fires.  An entry
    that fires with no deadline does nothing; one that fires before the
    deadline re-queues itself at it; one that fires at the deadline runs
    the callback.  A new deadline earlier than the queued entry is the
    only case that cancels and re-queues at once.  TCP restarts its
    retransmission timer on nearly every ACK and stops its delayed-ACK
    timer on every other segment; neither touches the queue.

    Two consequences.  The deadline is the same float ``now + interval``
    an eager ``schedule(interval)`` would use, but an entry re-queued
    when an early entry fires joins that instant's bucket at the time
    of the re-queue, so it may run in a different place among other
    entries of that exact instant.  And a stopped timer's entry stays in
    :meth:`Simulator.pending_count` until its old due time, so a
    ``run()`` without ``until`` may end later than the last deadline,
    and the entry keeps the timer reachable until then.  An owner that
    discards a timer calls :meth:`close` instead of :meth:`stop`.
    """

    __slots__ = ("_sim", "_callback", "_args", "_deadline", "_entry", "_due",
                 "_profile_category")

    def __init__(self, sim: Simulator, callback: Callable[..., Any], *args: Any):
        self._sim = sim
        self._callback = callback
        self._args = args
        #: Absolute time the callback is due, or None while disarmed.
        self._deadline: Optional[float] = None
        #: The one queued kernel entry (None when nothing is queued) and
        #: its due time.
        self._entry: Optional[list] = None
        self._due = 0.0
        self._profile_category: Optional[str] = None

    @property
    def profile_category(self) -> str:
        """Read by the profiling dispatch hook; see :func:`_timer_category`."""
        category = self._profile_category
        if category is None:
            category = self._profile_category = _timer_category(self._callback)
        return category

    @property
    def running(self) -> bool:
        """True while the timer is armed and has not fired."""
        return self._deadline is not None

    def start(self, interval: float) -> None:
        """Arm the timer to fire after ``interval`` seconds."""
        if self._deadline is not None:
            raise RuntimeError("timer already running; use restart()")
        self.restart(interval)

    def restart(self, interval: float) -> None:
        """Arm for ``interval`` seconds from now, replacing any deadline.

        Queues nothing while the queued entry is due no later than the
        new deadline: that entry re-queues itself when it fires.
        """
        sim = self._sim
        deadline = sim.now + interval
        entry = self._entry
        if entry is None or self._due > deadline:
            self._entry = sim.schedule_at(deadline, self._fire)
            self._due = deadline
            if entry is not None:
                sim.cancel(entry)
        self._deadline = deadline

    def stop(self) -> None:
        """Disarm the timer.  Idempotent; the queued entry stays queued
        and fires as a no-op."""
        self._deadline = None

    def close(self) -> None:
        """Stop the timer for good: cancel its queued entry and drop its
        callback.  Idempotent.

        For an owner that discards the timer.  A stopped timer's entry
        would stay queued until its old due time and then run as a
        no-op; a closed one leaves only a tombstone.  The callback is
        usually a bound method of the owner, which also holds the timer:
        dropping it breaks that cycle, so the owner is freed as soon as
        its last reference goes instead of waiting for the cyclic
        collector.  A closed timer must not be started again: its firing
        would raise.
        """
        self._deadline = None
        entry = self._entry
        if entry is not None:
            self._sim.cancel(entry)
            self._entry = None
        self._callback = _closed
        self._args = ()

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is None:
            self._entry = None
        elif deadline > self._sim.now:
            self._entry = self._sim.schedule_at(deadline, self._fire)
            self._due = deadline
        else:
            self._entry = None
            self._deadline = None
            self._callback(*self._args)


def _closed() -> None:
    raise RuntimeError("a closed Timer was started again")


class PeriodicTimer:
    """A fixed-interval repeating timer.

    Fires every ``interval`` seconds after :meth:`start` until :meth:`stop`.
    The interval may be changed between firings via :attr:`interval`; the
    new value takes effect at the next (re)scheduling.

    Each firing schedules the next one and keeps its kernel handle, so
    the timer holds a handle exactly while it runs; :meth:`stop` cancels
    it through :meth:`Simulator.cancel`.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = float(interval)
        self._callback = callback
        self._args = args
        self._event: Optional[list] = None
        self.fired = 0
        self._profile_category: Optional[str] = None

    @property
    def profile_category(self) -> str:
        """Read by the profiling dispatch hook; see :func:`_timer_category`."""
        category = self._profile_category
        if category is None:
            category = self._profile_category = _timer_category(self._callback)
        return category

    @property
    def running(self) -> bool:
        """True while the timer is active."""
        return self._event is not None

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin firing.  First firing after ``initial_delay`` (default:
        one full interval)."""
        if self.running:
            raise RuntimeError("periodic timer already running")
        delay = self.interval if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self.fired += 1
        # Re-arm before invoking the callback so the callback may call
        # stop() to terminate the series.
        self._event = self._sim.schedule(self.interval, self._fire)
        self._callback(*self._args)


class WheelTimer:
    """Handle for one entry on a :class:`TimerWheel`.

    Created by :meth:`TimerWheel.schedule` /
    :meth:`TimerWheel.schedule_periodic`; supports :meth:`cancel` and
    exposes :attr:`fired`.
    """

    __slots__ = ("_callback", "_args", "_expiry_tick", "_period_ticks", "cancelled", "fired")

    def __init__(self, callback, args, expiry_tick: int, period_ticks: Optional[int]):
        self._callback = callback
        self._args = args
        self._expiry_tick = expiry_tick
        self._period_ticks = period_ticks
        self.cancelled = False
        self.fired = 0

    @property
    def periodic(self) -> bool:
        """True for entries armed with :meth:`TimerWheel.schedule_periodic`."""
        return self._period_ticks is not None

    def cancel(self) -> None:
        """Deactivate the entry.  Idempotent; the wheel drops it lazily."""
        self.cancelled = True


class TimerWheel:
    """An indexed (hashed) timer wheel with a fixed tick quantum.

    The wheel advances in increments of ``tick`` seconds and fires every
    entry due on the current tick from a *single* kernel event, so N
    synchronized periodic timers cost one event per tick instead of N.
    Deadlines are quantized: an entry armed for ``delay`` seconds fires
    after ``ceil(delay / tick)`` ticks (at least one).  That quantization
    is the price of batching — use it where many timers share a cadence
    (flood-generator pacing across a fleet) and the plain
    :class:`Timer`/:class:`PeriodicTimer` where exact deadlines matter.

    Under profiling the wheel's own bookkeeping is billed to
    ``sim.timer`` and every fired entry to its component's category, so
    a fleet's flood-pacing cost does not hide inside the wheel tick.

    The driving kernel event is armed lazily: an empty wheel schedules
    nothing, and the wheel re-arms only while entries remain.  Tick times
    are computed from the wheel's epoch (first arming time) as
    ``epoch + index * tick`` so long runs do not accumulate float drift.
    """

    profile_category = "sim.timer"

    def __init__(self, sim: Simulator, tick: float, slots: int = 256):
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self._sim = sim
        self.tick = float(tick)
        self._slots: List[List[WheelTimer]] = [[] for _ in range(slots)]
        #: Absolute index of the next tick to execute.
        self._tick_index = 0
        self._epoch: Optional[float] = None
        self._event: Optional[list] = None
        self._live = 0
        self.ticks_executed = 0

    # ------------------------------------------------------------------

    @property
    def live_timers(self) -> int:
        """Number of entries still on the wheel (cancelled entries are
        dropped lazily, when their slot next comes around)."""
        return self._live

    def _ticks_for(self, interval: float) -> int:
        ticks = int(-(-interval // self.tick))  # ceil without math import
        return ticks if ticks > 0 else 1

    def _arm(self) -> None:
        if self._event is not None:
            return
        now = self._sim.now
        if self._epoch is None:
            self._epoch = now
            self._tick_index = 0
        else:
            # After an idle stretch, jump the index forward so the next
            # tick lands in the future (idle implies the wheel is empty,
            # so no slot is skipped over).
            elapsed = int((now - self._epoch) / self.tick)
            if elapsed > self._tick_index:
                self._tick_index = elapsed
        self._event = self._sim.schedule_at(
            self._epoch + (self._tick_index + 1) * self.tick, self._advance
        )

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> WheelTimer:
        """Arm a one-shot entry ``ceil(delay / tick)`` ticks from now."""
        # Arm first so _epoch/_tick_index are initialised for the expiry math.
        entry = WheelTimer(callback, args, 0, None)
        self._arm()
        entry._expiry_tick = self._tick_index + self._ticks_for(delay)
        self._slots[entry._expiry_tick % len(self._slots)].append(entry)
        self._live += 1
        return entry

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        initial_delay: Optional[float] = None,
    ) -> WheelTimer:
        """Arm a repeating entry firing every ``ceil(interval / tick)`` ticks."""
        entry = WheelTimer(callback, args, 0, None)
        self._arm()
        period = self._ticks_for(interval)
        entry._period_ticks = period
        entry._expiry_tick = self._tick_index + (
            period if initial_delay is None else self._ticks_for(initial_delay)
        )
        self._slots[entry._expiry_tick % len(self._slots)].append(entry)
        self._live += 1
        return entry

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        # The driving event has fired; clear it first so callbacks that
        # insert entries re-arm the next tick (not a duplicate of it).
        self._event = None
        now_tick = self._tick_index = self._tick_index + 1
        self.ticks_executed += 1
        slots = self._slots
        slot_count = len(slots)
        slot = slots[now_tick % slot_count]
        if slot:
            keep: List[WheelTimer] = []
            due: List[WheelTimer] = []
            for entry in slot:
                if entry.cancelled:
                    self._live -= 1
                elif entry._expiry_tick == now_tick:
                    due.append(entry)
                else:
                    keep.append(entry)
            slot[:] = keep
            profiler = self._sim.profiler
            profiling = profiler.enabled
            for entry in due:
                if entry.cancelled:
                    # Cancelled by an earlier callback on this same tick.
                    self._live -= 1
                    continue
                entry.fired += 1
                period = entry._period_ticks
                if period is not None:
                    expiry = entry._expiry_tick = now_tick + period
                    slots[expiry % slot_count].append(entry)
                else:
                    self._live -= 1
                if profiling:
                    profiler.enter_callback(entry._callback)
                    entry._callback(*entry._args)
                    profiler.exit()
                else:
                    entry._callback(*entry._args)
        if self._live > 0:
            self._arm()
