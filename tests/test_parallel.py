"""Tests for the parallel sweep executor (repro.core.parallel).

The executor's contract: results are returned in spec order and are
identical no matter how many worker processes run the points; progress
is emitted in the parent; anything that cannot run in a pool degrades
to the serial loop instead of failing.
"""

from __future__ import annotations

import time

import pytest

from repro.core.parallel import (
    JOBS_ENV_VAR,
    SweepError,
    SweepExecutor,
    SweepPointSpec,
    _RunState,
    derive_seed,
    resolve_jobs,
)


def _square(x):
    return x * x


def _fail(message):
    raise ValueError(message)


def _slow_square(x, seconds):
    time.sleep(seconds)
    return x * x


def _specs(values):
    return [
        SweepPointSpec(label=f"point x={value}", fn=_square, kwargs={"x": value})
        for value in values
    ]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_explicit_zero_or_negative_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-4)

    def test_env_zero_or_negative_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs()
        monkeypatch.setenv(JOBS_ENV_VAR, "-2")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs()

    def test_env_var_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_defaults_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(base, index) for base in range(4) for index in range(64)}
        assert len(seeds) == 4 * 64

    def test_fits_in_31_bits(self):
        for index in range(100):
            assert 0 <= derive_seed(12345, index) < 2**31


class TestSweepExecutor:
    def test_serial_results_in_spec_order(self):
        assert SweepExecutor(jobs=1).run(_specs([3, 1, 2])) == [9, 1, 4]

    def test_parallel_results_match_serial(self):
        specs = _specs(range(10))
        serial = SweepExecutor(jobs=1).run(specs)
        parallel = SweepExecutor(jobs=4).run(specs)
        assert parallel == serial == [x * x for x in range(10)]

    def test_empty_spec_list(self):
        assert SweepExecutor(jobs=4).run([]) == []

    def test_progress_emitted_in_parent_serial(self):
        lines = []
        SweepExecutor(jobs=1, progress=lines.append).run(_specs([1, 2]))
        assert lines == ["[1/2] point x=1", "[2/2] point x=2"]

    def test_progress_emitted_in_parent_parallel(self):
        lines = []
        SweepExecutor(jobs=4, progress=lines.append).run(_specs([1, 2, 3]))
        assert lines == ["[1/3] point x=1", "[2/3] point x=2", "[3/3] point x=3"]

    def test_unpicklable_fn_falls_back_to_serial(self):
        captured = []
        specs = [
            SweepPointSpec(label=f"x={x}", fn=lambda x: captured.append(x) or x, kwargs={"x": x})
            for x in (1, 2)
        ]
        assert SweepExecutor(jobs=4).run(specs) == [1, 2]
        # The closure observed the calls: proof the points ran in-process.
        assert captured == [1, 2]

    def test_worker_exception_propagates_serial(self):
        specs = [
            SweepPointSpec(label="ok", fn=_square, kwargs={"x": 2}),
            SweepPointSpec(label="boom", fn=_fail, kwargs={"message": "bad point"}),
        ]
        with pytest.raises(SweepError, match="bad point") as excinfo:
            SweepExecutor(jobs=1).run(specs)
        # The error names the failing point and preserves completed work.
        assert "boom" in str(excinfo.value)
        assert "point 2" in str(excinfo.value)
        assert excinfo.value.failure.label == "boom"
        assert excinfo.value.failure.index == 1
        assert [(p.index, p.label, p.value) for p in excinfo.value.completed] == [
            (0, "ok", 4)
        ]

    def test_worker_exception_propagates_parallel(self):
        specs = [
            SweepPointSpec(label="ok", fn=_square, kwargs={"x": 2}),
            SweepPointSpec(label="boom", fn=_fail, kwargs={"message": "bad point"}),
        ]
        with pytest.raises(SweepError, match="bad point") as excinfo:
            SweepExecutor(jobs=2).run(specs)
        assert excinfo.value.failure.label == "boom"
        assert (0, "ok", 4) in [
            (p.index, p.label, p.value) for p in excinfo.value.completed
        ]

    def test_abort_keeps_points_already_in_flight(self):
        # The failure lands while the slow point is still running on the
        # other worker: the abort must wait for it, not kill it.
        specs = [
            SweepPointSpec(label="slow", fn=_slow_square, kwargs={"x": 3, "seconds": 0.5}),
            SweepPointSpec(label="boom", fn=_fail, kwargs={"message": "bad point"}),
            SweepPointSpec(label="never", fn=_square, kwargs={"x": 4}),
        ]
        with pytest.raises(SweepError, match="bad point") as excinfo:
            SweepExecutor(jobs=2).run(specs)
        assert excinfo.value.failure.label == "boom"
        assert (0, 9) in [(p.index, p.value) for p in excinfo.value.completed]

    def test_failure_after_abort_is_recorded_not_retried(self):
        executor = SweepExecutor(jobs=2, retries=2)
        state = _RunState(_specs([1, 2]))
        executor._attempt_failed(0, "unpicklable", "first", None, state, retryable=False)
        assert state.abort is not None and state.abort.index == 0
        # Point 1 was in flight when point 0 aborted the run; it fails
        # with retries left but is never run again.
        executor._attempt_failed(1, "error", "ValueError: second", None, state)
        assert not state.pending
        assert [f.index for f in state.failures] == [0, 1]
        assert state.abort.index == 0
        assert executor.stats.retries == 0

    def test_single_spec_runs_inline(self):
        assert SweepExecutor(jobs=8).run(_specs([5])) == [25]

