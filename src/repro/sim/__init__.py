"""Discrete-event simulation engine.

This package provides the deterministic discrete-event kernel that every
other subsystem (links, switches, NICs, host stacks, applications) is built
on.  The design is deliberately small:

* :class:`~repro.sim.engine.Simulator` owns the virtual clock and the event
  queue.  ``Simulator.schedule`` returns the queue entry itself as a
  handle; pass it to ``Simulator.cancel`` or ``Simulator.is_pending``.
* :mod:`~repro.sim.timer` provides one-shot and periodic timers on top of
  the kernel.
* :mod:`~repro.sim.rng` provides named, independently-seeded random streams
  so that component behaviour is reproducible regardless of the order in
  which other components draw random numbers.
* :mod:`~repro.sim.units` centralises unit conversions (seconds,
  microseconds, bits-per-second, frame sizes) so magic numbers do not leak
  into the models.
* tracing lives in :mod:`repro.obs.tracing`; every kernel carries a
  :class:`~repro.obs.tracing.PacketTracer` at ``sim.tracer``.

All simulation times are ``float`` seconds.  Determinism is guaranteed by
the kernel's per-instant FIFO buckets: events scheduled for the same
instant run in the order they were scheduled.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.timer import PeriodicTimer, Timer
from repro.obs.tracing.tracer import PacketTracer as Tracer, TraceRecord

__all__ = [
    "PeriodicTimer",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timer",
    "TraceRecord",
    "Tracer",
]
