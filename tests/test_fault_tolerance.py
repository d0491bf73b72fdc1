"""Fault-tolerance tests for the sweep executor (repro.core.parallel).

The contract under test: a worker crash (SIGKILL), a hung point, or a
raising point loses *zero* completed work; failed points are retried
with identical deterministic seeds and, on exhausted retries, either
abort with a :class:`SweepError` that names the point or occupy their
result slot as a :class:`PointFailure`; a checkpointed sweep resumes
after interruption and produces byte-identical serialized output to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal

import pytest

from repro.apps.flood import FloodGenerator, FloodKind, FloodSpec
from repro.chaos import ChaosCollector
from repro.core.checkpoint import SweepCheckpoint
from repro.core.parallel import (
    PointFailure,
    SweepError,
    SweepExecutor,
    SweepPointSpec,
)
from repro.core.testbed import DeviceKind, Testbed
from repro.experiments.results import serialize, to_json
from repro.firewall.builders import allow_all
from repro.obs import MetricsCollector, ProfileCollector, TraceCollector, TraceConfig


# ----------------------------------------------------------------------
# Module-level point functions (must be picklable for the pool path).
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _square_logged(x, log_dir):
    """Square ``x`` and leave one file per execution (counts re-runs)."""
    with open(os.path.join(log_dir, f"ran_{x}_{os.getpid()}_{id(object())}"), "w"):
        pass
    return x * x


def _kill_once(x, marker):
    """SIGKILL the worker on the first attempt, succeed on the retry."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _hang_once(x, marker):
    """Sleep far past any test timeout on the first attempt only."""
    import time

    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(60)
    return x * x


def _fail_always(x):
    raise ValueError(f"bad point {x}")


def _fail_once(x, marker):
    """Raise on the first attempt for this marker, then succeed."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise ValueError(f"transient failure at {x}")
    return x * x


def _specs(values):
    return [
        SweepPointSpec(label=f"point x={value}", fn=_square, kwargs={"x": value})
        for value in values
    ]


def _flooded_bed_point(seed):
    """Flood an EFW testbed through a client link flap (picklable)."""
    bed = Testbed(device=DeviceKind.EFW, seed=seed, efw_lockup_enabled=False)
    bed.install_target_policy(allow_all())
    flood = FloodGenerator(bed.client, FloodSpec(kind=FloodKind.UDP, dst_port=7777))
    flood.start(bed.target.ip, 3000)
    bed.run(0.3)
    flood.stop()
    return bed.target.nic.rx_allowed


def _bed_specs():
    return [
        SweepPointSpec(label=f"bed {seed}", fn=_flooded_bed_point, kwargs={"seed": seed})
        for seed in (1, 2, 3)
    ]


def _four_probes():
    """All four probes: profile, metrics, trace and chaos."""
    return (
        ProfileCollector(),
        MetricsCollector(interval=0.05),
        TraceCollector(TraceConfig(sample_every=7, flight=True)),
        ChaosCollector(scenario="link-flap", invariants="warn"),
    )


def _collections(probes, profile_times=True):
    """Digest of every probe's collection as JSON (profile times optional).

    Key order is kept, so equal digests mean byte-identical exports.
    """
    profile, metrics, trace, chaos = probes
    if profile_times:
        profiles = serialize(profile.experiment("x"))
    else:
        profiles = [
            (point.label, [[(e.name, e.calls) for e in s.entries] for s in point.snapshots])
            for point in profile.points
        ]
    collections = [
        profiles,
        # (metrics.executor counts resumed points, so it differs.)
        serialize(metrics.points),
        serialize(trace.experiment("x")),
        serialize(chaos.points),
    ]
    return [hashlib.sha256(json.dumps(c).encode()).hexdigest() for c in collections]


def _executions(log_dir):
    return len(os.listdir(log_dir))


# ----------------------------------------------------------------------
# Worker death (SIGKILL mid-point)
# ----------------------------------------------------------------------


class TestWorkerDeath:
    def test_killed_worker_is_detected_and_point_retried(self, tmp_path):
        marker = str(tmp_path / "killed")
        specs = _specs([2, 3])
        specs.append(
            SweepPointSpec(
                label="assassin",
                fn=_kill_once,
                kwargs={"x": 5, "marker": marker},
            )
        )
        executor = SweepExecutor(jobs=2, retries=1)
        assert executor.run(specs) == [4, 9, 25]
        assert executor.stats.worker_deaths == 1
        assert executor.stats.retries == 1
        assert executor.stats.failures == 0

    def test_killed_worker_without_retries_names_the_point(self, tmp_path):
        marker = str(tmp_path / "killed")
        specs = _specs([2]) + [
            SweepPointSpec(
                label="assassin",
                fn=_kill_once,
                kwargs={"x": 5, "marker": marker},
            )
        ]
        with pytest.raises(SweepError, match="assassin") as excinfo:
            SweepExecutor(jobs=2, retries=0).run(specs)
        assert excinfo.value.failure.kind == "worker-died"
        # Zero completed points are lost: the survivor is preserved.
        assert [(p.index, p.value) for p in excinfo.value.completed] == [(0, 4)]


# ----------------------------------------------------------------------
# Retries and failure recording
# ----------------------------------------------------------------------


class TestRetriesAndRecording:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_transient_failure_recovers_with_retry(self, jobs, tmp_path):
        marker = str(tmp_path / "flaky")
        specs = _specs([2]) + [
            SweepPointSpec(
                label="flaky",
                fn=_fail_once,
                kwargs={"x": 3, "marker": marker},
            )
        ]
        executor = SweepExecutor(jobs=jobs, retries=2)
        assert executor.run(specs) == [4, 9]
        assert executor.stats.retries == 1
        assert executor.stats.failures == 0

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_record_mode_keeps_going_and_records_the_failure(self, jobs):
        specs = _specs([2]) + [
            SweepPointSpec(label="doomed", fn=_fail_always, kwargs={"x": 9}),
        ] + _specs([4])
        executor = SweepExecutor(jobs=jobs, retries=1, on_failure="record")
        results = executor.run(specs)
        assert results[0] == 4 and results[2] == 16
        failure = results[1]
        assert isinstance(failure, PointFailure)
        assert failure.label == "doomed"
        assert failure.index == 1
        assert failure.kind == "error"
        assert failure.attempts == 2  # first try + one retry
        assert "bad point 9" in failure.error
        assert executor.failures == [failure]
        assert executor.stats.retries == 1
        assert executor.stats.failures == 1
        # The failure renders safely in tables and numeric contexts.
        assert f"{failure:,.1f}" == "FAILED(error)"
        import math

        assert math.isnan(float(failure))

    def test_retry_reruns_with_identical_kwargs(self, tmp_path):
        # The retried attempt is the same deterministic call: same spec,
        # same kwargs (the seed travels in kwargs), so its result equals
        # what an untroubled run would have produced.
        marker = str(tmp_path / "flaky")
        spec = SweepPointSpec(
            label="flaky", fn=_fail_once, kwargs={"x": 7, "marker": marker}
        )
        executor = SweepExecutor(jobs=1, retries=1)
        assert executor.run([spec]) == [49]


# ----------------------------------------------------------------------
# Point timeouts
# ----------------------------------------------------------------------


class TestPointTimeout:
    def test_hung_point_is_killed_and_retried(self, tmp_path):
        marker = str(tmp_path / "hung")
        specs = _specs([2]) + [
            SweepPointSpec(
                label="sleeper",
                fn=_hang_once,
                kwargs={"x": 3, "marker": marker},
            )
        ]
        executor = SweepExecutor(jobs=2, retries=1, point_timeout=1.5)
        assert executor.run(specs) == [4, 9]
        assert executor.stats.timeouts == 1
        assert executor.stats.retries == 1

    def test_timeout_without_retry_records_failure(self, tmp_path):
        marker = str(tmp_path / "hung")
        specs = [
            SweepPointSpec(
                label="sleeper",
                fn=_hang_once,
                kwargs={"x": 3, "marker": marker},
            )
        ] + _specs([2])
        executor = SweepExecutor(
            jobs=2, point_timeout=1.0, on_failure="record"
        )
        results = executor.run(specs)
        assert isinstance(results[0], PointFailure)
        assert results[0].kind == "timeout"
        assert results[1] == 4
        assert executor.stats.timeouts == 1

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="point_timeout"):
            SweepExecutor(point_timeout=0)
        with pytest.raises(ValueError, match="retries"):
            SweepExecutor(retries=-1)
        with pytest.raises(ValueError, match="on_failure"):
            SweepExecutor(on_failure="shrug")


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_resume_skips_completed_points_byte_identically(self, tmp_path):
        log_a = tmp_path / "log_a"
        log_a.mkdir()
        path = str(tmp_path / "ckpt.jsonl")
        values = [2, 3, 4, 5]

        def logged_specs(log_dir):
            return [
                SweepPointSpec(
                    label=f"point x={value}",
                    fn=_square_logged,
                    kwargs={"x": value, "log_dir": str(log_dir)},
                )
                for value in values
            ]

        with SweepCheckpoint(path, resume=False) as checkpoint:
            first = SweepExecutor(jobs=1, checkpoint=checkpoint).run(
                logged_specs(log_a)
            )
        assert first == [v * v for v in values]
        assert _executions(log_a) == len(values)

        # Resuming re-runs nothing and reproduces the results exactly.
        with SweepCheckpoint(path, resume=True) as checkpoint:
            executor = SweepExecutor(jobs=4, checkpoint=checkpoint)
            resumed = executor.run(logged_specs(log_a))
        assert _executions(log_a) == len(values)  # no new executions
        assert executor.stats.resumed == len(values)
        assert to_json(resumed) == to_json(first)

        # Serial and parallel uninterrupted runs serialize identically too.
        serial = SweepExecutor(jobs=1).run(_specs(values))
        parallel = SweepExecutor(jobs=4).run(_specs(values))
        assert to_json(serial) == to_json(parallel) == to_json(
            [v * v for v in values]
        )

    def test_interrupted_sweep_resumes_to_clean_result(self, tmp_path):
        marker = str(tmp_path / "flaky")
        path = str(tmp_path / "ckpt.jsonl")
        specs = _specs([2, 3]) + [
            SweepPointSpec(
                label="flaky", fn=_fail_once, kwargs={"x": 6, "marker": marker}
            )
        ] + _specs([7])

        with SweepCheckpoint(path, resume=False) as checkpoint:
            with pytest.raises(SweepError, match="flaky"):
                SweepExecutor(jobs=1, checkpoint=checkpoint).run(specs)
        # Completed points made it to disk before the abort.
        assert len(SweepCheckpoint(path)) >= 2

        with SweepCheckpoint(path, resume=True) as checkpoint:
            executor = SweepExecutor(jobs=2, checkpoint=checkpoint)
            resumed = executor.run(specs)
        assert resumed == [4, 9, 36, 49]
        assert executor.stats.resumed >= 2
        # Byte-identical to a clean, never-interrupted run of the same
        # grid (marker now exists, so the flaky point just succeeds).
        clean = SweepExecutor(jobs=1).run(specs)
        assert to_json(resumed) == to_json(clean)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path, resume=False) as checkpoint:
            SweepExecutor(jobs=1, checkpoint=checkpoint).run(_specs([2, 3]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"schema_version": 1, "key": "abc", "resu')  # torn
        with SweepCheckpoint(path, resume=True) as checkpoint:
            executor = SweepExecutor(jobs=1, checkpoint=checkpoint)
            assert executor.run(_specs([2, 3])) == [4, 9]
        assert executor.stats.resumed == 2

    def test_checkpoint_path_string_is_accepted(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        assert SweepExecutor(jobs=1, checkpoint=path).run(_specs([3])) == [9]
        executor = SweepExecutor(jobs=1, checkpoint=path)
        assert executor.run(_specs([3])) == [9]
        assert executor.stats.resumed == 1

    def test_all_four_probes_round_trip_byte_identically(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        first_probes = _four_probes()
        with SweepCheckpoint(path, resume=False) as checkpoint:
            first = SweepExecutor(
                jobs=1, probes=first_probes, checkpoint=checkpoint
            ).run(_bed_specs())
        assert first_probes[3].snapshots()[0].faults_injected == 1
        resumed_probes = _four_probes()
        with SweepCheckpoint(path, resume=True) as checkpoint:
            executor = SweepExecutor(jobs=2, probes=resumed_probes, checkpoint=checkpoint)
            resumed = executor.run(_bed_specs())
        assert executor.stats.resumed == 3
        assert to_json(resumed) == to_json(first)
        assert _collections(resumed_probes) == _collections(first_probes)
        # A different probe set is a different point identity: without
        # the chaos probe the points re-run, and no link flap eats frames.
        with SweepCheckpoint(path, resume=True) as checkpoint:
            executor = SweepExecutor(jobs=1, checkpoint=checkpoint)
            plain = executor.run(_bed_specs())
        assert executor.stats.resumed == 0
        assert plain[0] > first[0]

    def test_v1_record_for_the_same_spec_is_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        [spec] = _specs([3])
        key = SweepCheckpoint.spec_key(spec, {})
        with open(path, "w", encoding="utf-8") as stream:
            record = {
                "schema_version": 1,
                "key": key,
                "index": 0,
                "label": spec.label,
                "result": 999,
                "metrics": None,
                "trace": None,
                "profile": None,
            }
            stream.write(json.dumps(record) + "\n")
        with SweepCheckpoint(path, resume=True) as checkpoint:
            assert len(checkpoint) == 0
            executor = SweepExecutor(jobs=1, checkpoint=checkpoint)
            assert executor.run([spec]) == [9]
        assert executor.stats.resumed == 0

    def test_changed_config_ignores_stale_records(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with SweepCheckpoint(path, resume=False) as checkpoint:
            SweepExecutor(jobs=1, checkpoint=checkpoint).run(_specs([2]))
        # Same label, different kwargs -> different key -> re-run.
        other = [SweepPointSpec(label="point x=2", fn=_square, kwargs={"x": 4})]
        with SweepCheckpoint(path, resume=True) as checkpoint:
            executor = SweepExecutor(jobs=1, checkpoint=checkpoint)
            assert executor.run(other) == [16]
        assert executor.stats.resumed == 0


# ----------------------------------------------------------------------
# Unpicklable specs inside an otherwise-poolable grid
# ----------------------------------------------------------------------


class TestUnpicklableMidGrid:
    def test_unpicklable_spec_fails_cleanly_without_hanging(self):
        specs = _specs([2]) + [
            SweepPointSpec(label="closure", fn=lambda: 1, kwargs={})
        ] + _specs([3])
        executor = SweepExecutor(jobs=2, on_failure="record")
        results = executor.run(specs)
        assert results[0] == 4 and results[2] == 9
        assert isinstance(results[1], PointFailure)
        assert results[1].kind == "unpicklable"


# ----------------------------------------------------------------------
# Probe collection across --jobs
# ----------------------------------------------------------------------


class TestProbeCollection:
    def test_all_four_probes_collect_identically_for_any_jobs(self):
        serial_probes = _four_probes()
        serial = SweepExecutor(jobs=1, probes=serial_probes).run(_bed_specs())
        parallel_probes = _four_probes()
        parallel = SweepExecutor(jobs=2, probes=parallel_probes).run(_bed_specs())
        assert serial == parallel
        # Measured profile times vary run to run; the structure must not.
        assert _collections(serial_probes, profile_times=False) == _collections(
            parallel_probes, profile_times=False
        )
        assert all(len(probe.points) == 3 for probe in serial_probes)


# ----------------------------------------------------------------------
# Executor counters surface in the metrics registry
# ----------------------------------------------------------------------


class TestExecutorCounters:
    def test_counters_mirrored_into_collector(self, tmp_path):
        marker = str(tmp_path / "flaky")
        collector = MetricsCollector(interval=0.5)
        specs = _specs([2]) + [
            SweepPointSpec(
                label="flaky", fn=_fail_once, kwargs={"x": 3, "marker": marker}
            )
        ]
        executor = SweepExecutor(jobs=1, probes=(collector,), retries=1)
        executor.run(specs)
        counters = collector.executor_registry.read_all()
        assert counters["sweep_point_retries"] == 1
        assert counters["sweep_point_failures"] == 0
        assert counters["sweep_point_timeouts"] == 0
        assert counters["sweep_worker_deaths"] == 0
        assert counters["sweep_points_resumed"] == 0

    def test_failure_deposits_incident_in_trace(self):
        from repro.obs.tracing import TraceCollector, TraceConfig

        tracer = TraceCollector(TraceConfig(spans=False, flight=False))
        specs = _specs([2]) + [
            SweepPointSpec(label="doomed", fn=_fail_always, kwargs={"x": 9}),
        ]
        executor = SweepExecutor(
            jobs=1, probes=(tracer,), on_failure="record"
        )
        executor.run(specs)
        incidents = tracer.incidents()
        assert any(inc.kind == "sweep-point-failure" for inc in incidents)
        assert any("doomed" in (inc.source or "") for inc in incidents)
