"""A bounded single-server work queue with per-item service times.

This is the heart of every processing-capacity model in the simulator:

* the embedded firewall NIC's packet processor (one slow CPU serving both
  the receive and transmit paths, with a bounded RX ring), and
* the host's netfilter/iptables softirq path.

Items are served strictly FIFO.  The caller supplies a service-time
function; items offered while the queue is at capacity are dropped and
counted.  This is exactly the mechanism by which an offered packet flood
starves legitimate traffic: the flood keeps the server busy and the ring
full, so legitimate frames are tail-dropped.

An item offered to an idle server goes into service inside
:meth:`ServiceQueue.offer`; every later one is started by the completion
event of the item before it (:meth:`ServiceQueue._finish`), so one item
costs one kernel event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.sim.engine import Simulator


class ServiceQueue:
    """Bounded FIFO with one server and caller-supplied service times.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Label for counters and traces.
    capacity:
        Maximum queued items (not counting the one in service).
    service_time:
        ``service_time(item) -> seconds`` the server spends on the item.
    on_complete:
        ``on_complete(item)`` invoked when the item finishes service.

    Notes
    -----
    The queue may be paused (see :meth:`pause`); a paused queue accepts no
    new work and performs no service — this models the EFW's wedged state,
    where the card stops processing packets entirely.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: int,
        service_time: Callable[[Any], float],
        on_complete: Callable[[Any], None],
        profile_category: str = "queue",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        #: Wall-clock profiling bucket for this queue's service events;
        #: owners pass their own ("nic.efw.proc", "firewall.iptables.proc")
        #: so queue work is attributed to the component it serves.
        self.profile_category = profile_category
        self.capacity = capacity
        self.service_time = service_time
        self.on_complete = on_complete
        self._queue: Deque[Any] = deque()
        self._busy = False
        self._paused = False
        self._service_event = None
        #: The completion callback, bound once: every item schedules it.
        self._on_finish = self._finish
        # Counters
        self.accepted = 0
        self.completed = 0
        self.dropped_full = 0
        self.dropped_paused = 0
        self.busy_time = 0.0
        # Callback-backed instruments read the plain counters above at
        # sample time only; pause transitions are rare enough to count
        # directly at event time.
        metrics = sim.metrics
        metrics.counter_fn("queue_accepted", lambda: self.accepted, queue=name)
        metrics.counter_fn("queue_completed", lambda: self.completed, queue=name)
        metrics.counter_fn(
            "queue_dropped", lambda: self.dropped_full, queue=name, reason="full"
        )
        metrics.counter_fn(
            "queue_dropped", lambda: self.dropped_paused, queue=name, reason="paused"
        )
        metrics.gauge_fn("queue_depth", lambda: len(self._queue), queue=name)
        metrics.gauge_fn("queue_paused", lambda: int(self._paused), queue=name)
        self._pause_metric = metrics.counter("queue_pause_transitions", queue=name)

    # ------------------------------------------------------------------

    def offer(self, item: Any) -> bool:
        """Submit an item.  Returns False (and counts) if it was dropped.

        An idle server starts the item at once: its service time is
        taken and its completion scheduled inside this call.
        """
        if self._paused:
            self.dropped_paused += 1
            tracer = self.sim.tracer
            if tracer.hot:
                tracer.event(
                    self.sim.now, self.name, "drop-paused",
                    getattr(item, "ctx", None),
                )
            return False
        if self._busy:
            queue = self._queue
            if len(queue) >= self.capacity:
                self.dropped_full += 1
                tracer = self.sim.tracer
                if tracer.hot:
                    tracer.event(
                        self.sim.now, self.name, "drop-full",
                        getattr(item, "ctx", None),
                    )
                return False
            self.accepted += 1
            queue.append(item)
            return True
        # An unpaused idle server has nothing queued (see _finish), so
        # the item goes straight into service.
        self.accepted += 1
        self._busy = True
        duration = self.service_time(item)
        if duration < 0:
            raise ValueError(f"negative service time {duration} from {self.name}")
        self._service_event = self.sim.schedule(duration, self._on_finish, item, duration)
        return True

    @property
    def depth(self) -> int:
        """Items waiting for service (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while an item is in service."""
        return self._busy

    @property
    def paused(self) -> bool:
        """True while the server is wedged/paused."""
        return self._paused

    # ------------------------------------------------------------------

    def pause(self, drop_queued: bool = True) -> None:
        """Stop serving.  Models a wedged processor.

        Any in-service item is abandoned (it never completes).  Queued
        items are dropped when ``drop_queued`` is True.
        """
        tracer = self.sim.tracer
        if tracer.hot:
            tracer.event(
                self.sim.now, self.name, "pause",
                None, drop_queued=drop_queued, queued=len(self._queue),
            )
        if not self._paused:
            self._pause_metric.inc()
        self._paused = True
        self._busy = False
        if self._service_event is not None:
            # The in-service item is abandoned: its completion must never
            # fire, even if the server is later resumed.
            self.sim.cancel(self._service_event)
            self._service_event = None
        if drop_queued:
            self.dropped_paused += len(self._queue)
            self._queue.clear()

    def resume(self) -> None:
        """Resume serving after a pause (e.g. firewall agent restart)."""
        if not self._paused:
            return
        self._paused = False
        queue = self._queue
        if queue and not self._busy:
            self._busy = True
            item = queue.popleft()
            duration = self.service_time(item)
            if duration < 0:
                raise ValueError(f"negative service time {duration} from {self.name}")
            self._service_event = self.sim.schedule(duration, self._on_finish, item, duration)

    # ------------------------------------------------------------------

    def _finish(self, item: Any, duration: float) -> None:
        self._service_event = None
        self.completed += 1
        self.busy_time += duration
        self.on_complete(item)
        # Items offered during on_complete queued behind this one: the
        # server stays busy until the queue is empty.
        queue = self._queue
        if self._paused or not queue:
            self._busy = False
            return
        item = queue.popleft()
        duration = self.service_time(item)
        if duration < 0:
            raise ValueError(f"negative service time {duration} from {self.name}")
        self._service_event = self.sim.schedule(duration, self._on_finish, item, duration)

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the server spent busy."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "paused" if self._paused else ("busy" if self._busy else "idle")
        return f"<ServiceQueue {self.name} {state} depth={len(self._queue)}>"
