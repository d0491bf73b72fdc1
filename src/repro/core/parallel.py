"""Fault-tolerant parallel execution of independent sweep points.

Every experiment in this repository is a grid of *independent,
deterministic* discrete-event simulations: each point builds its own
:class:`~repro.core.testbed.Testbed` from an explicit seed, runs it, and
returns a small picklable record.  That makes the sweeps embarrassingly
parallel, and :class:`SweepExecutor` exploits it with a fork-based
worker pool while preserving the repository's determinism contract:

* **Deterministic per-point seeding** — a point's result is a pure
  function of its :class:`SweepPointSpec` (the seed travels inside the
  spec's kwargs; :func:`derive_seed` derives stable per-index seeds for
  grids that need distinct streams), never of scheduling order.  The
  same property makes retries sound: a re-run of a failed point uses
  the identical spec and therefore produces the identical result.
* **Ordered collection** — results are returned in spec order regardless
  of which worker finished first, so serial and parallel runs produce
  byte-identical result tables.
* **Fault tolerance** — a worker exception no longer throws away the
  rest of the grid: the failing point is named (label + index), retried
  up to ``retries`` times, and every completed point is preserved.
  Per-point wall-clock timeouts (``point_timeout``) kill hung workers;
  dead workers (crash, OOM-kill, SIGKILL) are detected via their pipe
  closing and their in-flight point is rescheduled instead of hanging
  the sweep.  On exhausted retries the executor either raises a
  :class:`SweepError` carrying the partial results (``on_failure=
  "raise"``, the default) or degrades gracefully and returns a
  :class:`PointFailure` record in the failed point's result slot
  (``on_failure="record"``).
* **Probes** — metrics, tracing, profiling and chaos collectors (see
  :mod:`repro.core.probe`) run around every point on both paths, and
  each point's snapshots are deposited into them in spec order.
* **Checkpoint / resume** — with a
  :class:`~repro.core.checkpoint.SweepCheckpoint` attached, every
  completed ``(spec-key, result, snapshots)`` record is appended to a
  JSONL file as it finishes; a later run over the same specs resumes
  from the checkpoint and produces byte-identical output to an
  uninterrupted run (the checkpoint stores results through the
  versioned :mod:`repro.experiments.results` envelope, whose round-trip
  contract guarantees re-serialization stability).
* **Progress forwarding** — per-point progress lines are emitted in the
  parent process, in spec order, so ``--jobs 8`` still shows a live
  ticker; retries and resumed points are annotated.
* **Graceful serial fallback** — ``jobs=1``, a single point, an
  unpicklable spec, a platform without ``fork``, or running inside a
  daemonic worker (no nested pools) all degrade to the plain serial
  loop with identical results (timeouts need a worker process and are
  not enforced on the serial path; retries and failure records are).

The worker count resolves, in order, from an explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, and ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core import probe

if TYPE_CHECKING:
    import multiprocessing

    from repro.core.checkpoint import SweepCheckpoint

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: ``on_failure`` modes: raise a :class:`SweepError` (default) or record
#: a :class:`PointFailure` in the failed point's result slot.
ON_FAILURE_RAISE = "raise"
ON_FAILURE_RECORD = "record"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit arg > ``REPRO_JOBS`` > cpu count.

    Invalid values — non-integers, zero, negatives — raise ``ValueError``
    whichever way they arrive, rather than silently running serially or
    silently clamping.
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs}")
        return jobs
    env = os.environ.get(JOBS_ENV_VAR, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be a positive integer, got {value}"
            )
        return value
    return os.cpu_count() or 1


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, well-mixed per-point seed (splitmix64 finalizer).

    Adjacent ``(base_seed, index)`` pairs map to widely separated seeds,
    so sweep points that need *distinct* random streams cannot collide
    the way ``base_seed + index`` grids do when the base seeds of two
    series are themselves consecutive.
    """
    mask = (1 << 64) - 1
    z = ((base_seed & mask) * 0x9E3779B97F4A7C15 + index + 1) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z & 0x7FFFFFFF


@dataclass(frozen=True)
class SweepPointSpec:
    """One schedulable sweep point: ``fn(**kwargs)`` plus a progress label.

    ``fn`` must be picklable (a module-level function or a bound method
    of a picklable object) for the point to run in a worker process;
    unpicklable specs fall back to serial execution (when the whole grid
    is unpicklable) or surface as per-point failures (when only some
    specs are).
    """

    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PointFailure:
    """A sweep point that exhausted its retries.

    ``kind`` is one of ``"error"`` (the point function raised),
    ``"timeout"`` (exceeded ``point_timeout`` wall-clock seconds),
    ``"worker-died"`` (the worker process vanished mid-point — crash,
    OOM-kill, SIGKILL), or ``"unpicklable"`` (the spec could not be
    shipped to a worker).  In ``on_failure="record"`` mode this object
    occupies the failed point's result slot; it formats as
    ``FAILED(<kind>)`` in tables and floats to NaN.
    """

    label: str
    index: int
    kind: str
    error: str
    attempts: int = 1
    traceback: Optional[str] = None
    schema_version: int = 1

    def __float__(self) -> float:
        return float("nan")

    def __format__(self, format_spec: str) -> str:
        return f"FAILED({self.kind})"

    def describe(self) -> str:
        """Human-readable one-liner for CLI summaries."""
        return (
            f"point {self.index + 1} ({self.label}) failed after "
            f"{self.attempts} attempt(s): {self.kind}: {self.error}"
        )


@dataclass
class CompletedPoint:
    """One preserved result attached to a :class:`SweepError`."""

    index: int
    label: str
    value: Any
    #: Probe name -> this point's snapshots.
    snapshots: Dict[str, list] = field(default_factory=dict)


@dataclass
class SweepStats:
    """Fault-handling counts of one :meth:`SweepExecutor.run` call."""

    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    failures: int = 0
    resumed: int = 0


class SweepError(RuntimeError):
    """A sweep point exhausted its retries (``on_failure="raise"``).

    Unlike a bare worker exception, this names the failing point and
    carries everything the run completed before the failure:

    * ``failure`` — the :class:`PointFailure` that aborted the sweep,
    * ``failures`` — all failures recorded so far (one, in raise mode),
    * ``completed`` — the :class:`CompletedPoint` records finished
      before the abort, in spec order (they are also in the checkpoint,
      when one is attached).
    """

    def __init__(
        self,
        failure: PointFailure,
        failures: Sequence[PointFailure],
        completed: Sequence[CompletedPoint],
    ):
        self.failure = failure
        self.failures = list(failures)
        self.completed = list(completed)
        super().__init__(
            f"sweep point {failure.index + 1} ({failure.label!r}) failed after "
            f"{failure.attempts} attempt(s) [{failure.kind}]: {failure.error}; "
            f"{len(self.completed)} completed point(s) preserved"
        )


def _call_spec_collecting(
    payload: Tuple[SweepPointSpec, Dict[str, Any]]
) -> Tuple[Any, Dict[str, list]]:
    """Run one spec with every probe session open in this process.

    Used for *both* the serial and the pooled path, so a point's
    snapshots are identical whatever ``jobs`` is; they travel back to the
    parent alongside the point's result, keyed by probe name.
    ``payload`` is ``(spec, {probe name: config})``; with no probes the
    point just runs (a sweep nested inside a probed point stays legal).
    """
    spec, configs = payload
    if not configs:
        return spec.fn(**spec.kwargs), {}
    probe.start(configs)
    ok = False
    try:
        value = spec.fn(**spec.kwargs)
        ok = True
    finally:
        snapshots = probe.finish(ok)
    return value, snapshots


# ``multiprocessing`` and ``pickle`` are imported where the pooled path
# needs them: a serial sweep never loads them.


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None when unavailable."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _picklable(spec: SweepPointSpec) -> bool:
    import pickle

    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

_OK = "ok"
_ERR = "error"


def _pool_worker_main(conn) -> None:
    """Worker loop: receive ``(index, payload)``, run, send the outcome.

    A ``None`` task (or the pipe closing) ends the worker.  Exceptions
    from the point function travel back as ``(index, "error", (message,
    traceback))`` so the parent can retry or file a failure record; an
    unpicklable *result* is downgraded to an error message rather than
    killing the worker.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, payload = task
        try:
            message = (index, _OK, _call_spec_collecting(payload))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            message = (
                index,
                _ERR,
                (f"{type(exc).__name__}: {exc}", traceback.format_exc()),
            )
        try:
            conn.send(message)
        except BaseException as exc:  # unpicklable result
            try:
                conn.send(
                    (
                        index,
                        _ERR,
                        (f"result not picklable: {type(exc).__name__}: {exc}", None),
                    )
                )
            except BaseException:
                return


class _PoolWorker:
    """One live worker process and its parent-side pipe end."""

    __slots__ = ("process", "conn", "index", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: Spec index currently running on this worker (None = idle).
        self.index: Optional[int] = None
        #: Wall-clock deadline of the in-flight point (monotonic seconds).
        self.deadline: Optional[float] = None


class _RunState:
    """Book-keeping of one :meth:`SweepExecutor.run` call."""

    __slots__ = (
        "specs",
        "keys",
        "slots",
        "attempts",
        "pending",
        "failures",
        "abort",
        "next_announce",
        "announced",
    )

    def __init__(self, specs: Sequence[SweepPointSpec]):
        self.specs = specs
        self.keys: Optional[List[str]] = None
        #: Per-spec outcome: None = unresolved, (value, {probe name:
        #: snapshots}) = completed, PointFailure = exhausted retries.
        self.slots: List[Any] = [None] * len(specs)
        self.attempts = [0] * len(specs)
        self.pending: Deque[int] = deque()
        self.failures: List[PointFailure] = []
        #: Set to the fatal PointFailure in raise mode; aborts the run.
        self.abort: Optional[PointFailure] = None
        self.next_announce = 0
        self.announced = [False] * len(specs)


class SweepExecutor:
    """Runs a list of :class:`SweepPointSpec` and returns ordered results.

    Parameters
    ----------
    jobs:
        Worker processes; None resolves via :func:`resolve_jobs`.
    progress:
        Optional ``progress(line)`` callback, always invoked in the
        parent process.
    probes:
        Collectors following the :mod:`repro.core.probe` contract —
        :class:`~repro.obs.collect.MetricsCollector`,
        :class:`~repro.obs.tracing.collect.TraceCollector`,
        :class:`~repro.obs.profiling.collect.ProfileCollector`,
        :class:`~repro.chaos.runtime.ChaosCollector`.  Each point runs
        with one session per probe open, and its snapshots are deposited
        into the probes in spec order — identical output for any
        ``jobs`` value.  A point that exhausts its retries is reported
        through ``add_failure`` so every probe stays 1:1 with the specs.
        A probe with an ``executor_registry`` (the metrics collector)
        also receives the ``sweep_point_retries`` /
        ``sweep_point_timeouts`` / ``sweep_point_failures`` /
        ``sweep_worker_deaths`` / ``sweep_points_resumed`` counters.
    retries:
        Re-runs granted to a failed or timed-out point (with its
        identical deterministic spec) before it counts as failed.
    point_timeout:
        Wall-clock seconds one point may run before its worker is killed
        and the point is retried/failed.  Requires the pool path; the
        serial fallback cannot enforce it.
    checkpoint:
        A :class:`~repro.core.checkpoint.SweepCheckpoint` (or a path,
        which opens one in resume mode).  Completed points are appended
        incrementally; points already in the checkpoint are restored
        without re-running and the final output is byte-identical to an
        uninterrupted run.
    on_failure:
        ``"raise"`` (default): abort on the first exhausted point with a
        :class:`SweepError` carrying all completed results.  Points
        already running on other workers finish first; nothing new
        starts.
        ``"record"``: keep going; the failed point's result slot holds a
        :class:`PointFailure` and the full failure list lands in
        ``executor.failures``.

    Examples
    --------
    >>> from repro.core.parallel import SweepExecutor, SweepPointSpec
    >>> executor = SweepExecutor(jobs=1)
    >>> specs = [SweepPointSpec(f"make {n}", dict, {"x": n}) for n in (1, 2)]
    >>> executor.run(specs)
    [{'x': 1}, {'x': 2}]
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        probes: Sequence[probe.Probe] = (),
        *,
        retries: int = 0,
        point_timeout: Optional[float] = None,
        checkpoint: Union[SweepCheckpoint, str, None] = None,
        on_failure: str = ON_FAILURE_RAISE,
    ):
        self.jobs = resolve_jobs(jobs)
        self.progress = progress
        self.probes = tuple(probes)
        #: Probe name -> picklable config, shipped with every point.
        self.configs: Dict[str, Any] = {}
        for item in self.probes:
            if item.name in self.configs:
                raise ValueError(f"two probes named {item.name!r}")
            self.configs[item.name] = item.config
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError(f"point_timeout must be positive, got {point_timeout}")
        self.point_timeout = point_timeout
        if isinstance(checkpoint, str):
            from repro.core.checkpoint import SweepCheckpoint

            checkpoint = SweepCheckpoint(checkpoint)
        self.checkpoint = checkpoint
        if on_failure not in (ON_FAILURE_RAISE, ON_FAILURE_RECORD):
            raise ValueError(
                f"on_failure must be 'raise' or 'record', got {on_failure!r}"
            )
        self.on_failure = on_failure
        self.stats = SweepStats()
        #: PointFailure records of the last run (``on_failure="record"``).
        self.failures: List[PointFailure] = []

    def _deposit(self, label: str, snapshots: Dict[str, list]) -> None:
        for item in self.probes:
            item.add_point(label, snapshots.get(item.name) or [])

    def run(self, specs: Iterable[SweepPointSpec]) -> List[Any]:
        """Execute every spec; results are returned in spec order.

        Completed points are restored from the checkpoint (when one is
        attached) or executed — serially or on the worker pool — with
        retries, timeouts, and dead-worker rescheduling as configured.
        """
        spec_list = list(specs)
        self.stats = SweepStats()
        self.failures = []
        if not spec_list:
            return []
        state = _RunState(spec_list)
        self._restore_from_checkpoint(state)
        if state.pending:
            context = None if self._must_run_serially(state) else _fork_context()
            if context is None:
                self._run_serial(state)
            else:
                self._run_pool(context, state)
        return self._assemble(state)

    # ------------------------------------------------------------------
    # Checkpoint restore
    # ------------------------------------------------------------------

    def _restore_from_checkpoint(self, state: _RunState) -> None:
        total = len(state.specs)
        if self.checkpoint is not None:
            state.keys = [
                self.checkpoint.spec_key(spec, self.configs) for spec in state.specs
            ]
        for index, spec in enumerate(state.specs):
            restored = (
                self.checkpoint.lookup(state.keys[index])
                if state.keys is not None
                else None
            )
            if restored is not None:
                state.slots[index] = restored
                self.stats.resumed += 1
                self._announce(index + 1, total, f"{spec.label} (resumed)")
                state.announced[index] = True
            else:
                state.pending.append(index)

    # ------------------------------------------------------------------
    # Outcome handling (shared by the serial and pooled paths)
    # ------------------------------------------------------------------

    def _complete(self, index: int, outcome, state: _RunState) -> None:
        value, snapshots = outcome
        state.slots[index] = (value, snapshots)
        if self.checkpoint is not None and state.keys is not None:
            self.checkpoint.record(
                state.keys[index], index, state.specs[index].label, value, snapshots
            )
        self._release_announcements(state)

    def _attempt_failed(
        self,
        index: int,
        kind: str,
        error: str,
        tb: Optional[str],
        state: _RunState,
        retryable: bool = True,
    ) -> None:
        state.attempts[index] += 1
        spec = state.specs[index]
        # After an abort nothing is re-dispatched: a point that fails
        # while the in-flight points drain is a failure, not a retry.
        if retryable and state.abort is None and state.attempts[index] <= self.retries:
            self.stats.retries += 1
            if self.progress is not None:
                self.progress(
                    f"[retry {state.attempts[index]}/{self.retries}] "
                    f"{spec.label} ({kind}: {error})"
                )
            state.pending.append(index)
            return
        failure = PointFailure(
            label=spec.label,
            index=index,
            kind=kind,
            error=error,
            attempts=state.attempts[index],
            traceback=tb,
        )
        self.stats.failures += 1
        state.failures.append(failure)
        if self.on_failure == ON_FAILURE_RAISE:
            if state.abort is None:
                state.abort = failure
        else:
            state.slots[index] = failure
            self._release_announcements(state)

    def _release_announcements(self, state: _RunState) -> None:
        """Announce completed points in spec order (pool path)."""
        total = len(state.specs)
        while state.next_announce < total and state.slots[state.next_announce] is not None:
            index = state.next_announce
            if not state.announced[index]:
                label = state.specs[index].label
                if isinstance(state.slots[index], PointFailure):
                    label += " [FAILED]"
                self._announce(index + 1, total, label)
                state.announced[index] = True
            state.next_announce += 1

    def _assemble(self, state: _RunState) -> List[Any]:
        if state.abort is not None:
            completed = [
                CompletedPoint(
                    index=index,
                    label=state.specs[index].label,
                    value=slot[0],
                    snapshots=slot[1],
                )
                for index, slot in enumerate(state.slots)
                if slot is not None and not isinstance(slot, PointFailure)
            ]
            for point in completed:
                self._deposit(point.label, point.snapshots)
            self._export_stats()
            raise SweepError(state.abort, state.failures, completed)
        results: List[Any] = []
        for index, slot in enumerate(state.slots):
            spec = state.specs[index]
            if isinstance(slot, PointFailure):
                for item in self.probes:
                    item.add_failure(spec.label, slot)
                results.append(slot)
            else:
                value, snapshots = slot
                self._deposit(spec.label, snapshots)
                results.append(value)
        self.failures = list(state.failures)
        self._export_stats()
        return results

    def _export_stats(self) -> None:
        """Mirror the run's fault counters into the metrics collector."""
        for item in self.probes:
            registry = getattr(item, "executor_registry", None)
            if registry is None:
                continue
            registry.counter("sweep_point_retries").inc(self.stats.retries)
            registry.counter("sweep_point_timeouts").inc(self.stats.timeouts)
            registry.counter("sweep_point_failures").inc(self.stats.failures)
            registry.counter("sweep_worker_deaths").inc(self.stats.worker_deaths)
            registry.counter("sweep_points_resumed").inc(self.stats.resumed)

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------

    def _must_run_serially(self, state: _RunState) -> bool:
        """Whether ``state`` runs inline rather than on a worker pool."""
        if self.jobs <= 1 and self.point_timeout is None:
            return True
        if len(state.pending) == 1 and self.point_timeout is None:
            return True
        import multiprocessing

        if multiprocessing.current_process().daemon:
            # Daemonic pool workers may not spawn children; a sweep
            # launched from inside another sweep runs inline.
            return True
        # Probe one representative spec; a grid whose callable is a
        # closure/lambda degrades to serial wholesale, while an isolated
        # unpicklable spec inside an otherwise-picklable grid surfaces
        # as that point's failure when dispatch pickles it.
        return not _picklable(state.specs[state.pending[0]])

    def _run_serial(self, state: _RunState) -> None:
        total = len(state.specs)
        while state.pending and state.abort is None:
            index = state.pending.popleft()
            spec = state.specs[index]
            if not state.announced[index]:
                self._announce(index + 1, total, spec.label)
                state.announced[index] = True
            try:
                outcome = _call_spec_collecting((spec, self.configs))
            except Exception as exc:
                self._attempt_failed(
                    index,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                    state,
                )
                continue
            self._complete(index, outcome, state)

    # ------------------------------------------------------------------
    # Pooled path
    # ------------------------------------------------------------------

    def _spawn_worker(self, context) -> _PoolWorker:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def _spawn_or_none(self, context) -> Optional[_PoolWorker]:
        try:
            return self._spawn_worker(context)
        except OSError:
            return None

    def _kill_worker(self, worker: _PoolWorker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(0.5)
            if process.is_alive():
                process.kill()
        process.join()

    def _retire_worker(
        self, worker: _PoolWorker, workers: List[_PoolWorker]
    ) -> None:
        self._kill_worker(worker)
        if worker in workers:
            workers.remove(worker)

    def _ensure_workers(
        self, workers: List[_PoolWorker], state: _RunState, context
    ) -> None:
        """Respawn replacements while more points than workers remain."""
        if state.abort is not None:
            return
        remaining = len(state.pending) + sum(
            1 for worker in workers if worker.index is not None
        )
        while len(workers) < min(self.jobs, remaining):
            replacement = self._spawn_or_none(context)
            if replacement is None:
                return
            workers.append(replacement)

    def _handle_worker_death(
        self,
        worker: _PoolWorker,
        workers: List[_PoolWorker],
        state: _RunState,
        context,
    ) -> None:
        index = worker.index
        exitcode = worker.process.exitcode
        self._retire_worker(worker, workers)
        if index is not None:
            self.stats.worker_deaths += 1
            self._attempt_failed(
                index,
                "worker-died",
                f"worker process died mid-point (exitcode {exitcode})",
                None,
                state,
            )
        self._ensure_workers(workers, state, context)

    def _dispatch(
        self,
        worker: _PoolWorker,
        workers: List[_PoolWorker],
        state: _RunState,
        context,
    ) -> None:
        while state.pending and state.abort is None:
            index = state.pending.popleft()
            try:
                worker.conn.send((index, (state.specs[index], self.configs)))
            except (BrokenPipeError, OSError):
                # The worker died while idle; put the point back and
                # replace the worker.
                state.pending.appendleft(index)
                self._handle_worker_death(worker, workers, state, context)
                return
            except Exception as exc:
                # The spec itself cannot reach a worker process: a
                # per-point pickling error is that point's failure, not
                # the whole grid's.
                self._attempt_failed(
                    index,
                    "unpicklable",
                    f"spec cannot be pickled: {type(exc).__name__}: {exc}",
                    None,
                    state,
                    retryable=False,
                )
                continue
            worker.index = index
            if self.point_timeout is not None:
                worker.deadline = time.monotonic() + self.point_timeout
            return

    def _run_pool(self, context, state: _RunState) -> None:
        from multiprocessing import connection as mp_connection

        workers: List[_PoolWorker] = []
        try:
            for _ in range(min(self.jobs, len(state.pending))):
                workers.append(self._spawn_worker(context))
        except OSError:
            # Process creation can fail under tight rlimits; the sweep
            # is still correct serially, just slower.
            for worker in list(workers):
                self._retire_worker(worker, workers)
            self._run_serial(state)
            return
        try:
            while True:
                # After an abort nothing new is dispatched, but the points
                # already running are collected (each still bounded by
                # point_timeout) so the SweepError carries them.
                if state.abort is None:
                    for worker in list(workers):
                        if worker.index is None:
                            self._dispatch(worker, workers, state, context)
                in_flight = [w for w in workers if w.index is not None]
                if not in_flight:
                    if state.abort is not None or not state.pending:
                        break
                    # Every worker is gone and none could be respawned:
                    # finish the remaining points inline.
                    self._ensure_workers(workers, state, context)
                    if not workers:
                        self._run_serial(state)
                        break
                    continue
                timeout = None
                if self.point_timeout is not None:
                    now = time.monotonic()
                    timeout = max(
                        0.0, min(w.deadline for w in in_flight) - now
                    )
                ready = mp_connection.wait([w.conn for w in in_flight], timeout)
                for conn in ready:
                    worker = next((w for w in workers if w.conn is conn), None)
                    if worker is None or worker.index is None:
                        continue
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        self._handle_worker_death(worker, workers, state, context)
                        continue
                    index, status, data = message
                    worker.index = None
                    worker.deadline = None
                    if status == _OK:
                        self._complete(index, data, state)
                    else:
                        error, tb = data
                        self._attempt_failed(index, "error", error, tb, state)
                if self.point_timeout is not None:
                    now = time.monotonic()
                    for worker in list(workers):
                        if worker.index is not None and worker.deadline is not None and now >= worker.deadline:
                            index = worker.index
                            self.stats.timeouts += 1
                            self._retire_worker(worker, workers)
                            self._attempt_failed(
                                index,
                                "timeout",
                                f"point exceeded point_timeout={self.point_timeout}s "
                                "wall-clock; worker killed",
                                None,
                                state,
                            )
                            self._ensure_workers(workers, state, context)
        finally:
            for worker in list(workers):
                self._retire_worker(worker, workers)

    def _announce(self, index: int, total: int, label: str) -> None:
        if self.progress is not None:
            self.progress(f"[{index}/{total}] {label}")
