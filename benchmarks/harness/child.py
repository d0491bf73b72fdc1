"""One fresh-process run of one benchmark workload.

    python benchmarks/harness/child.py WORKLOAD SEED MODE

``MODE`` is one of

* ``setup``: stop at the first ``Simulator.run`` entry and report the
  set-up time only;
* ``timed``: run the workload untraced;
* ``traced``: run it under the span recorder (see ``recorder.py``).

The child prints one JSON object on stdout.  ``run.py`` starts it with
``PYTHONPATH`` pointing at ``src`` and ``PYTHONHASHSEED=0``.

The child also samples the speed of the machine it runs on, by timing
:func:`reference_work`, a fixed piece of pure-Python work that shares no
code with ``repro``: :data:`SETUP_SAMPLES` times at start, and every
:data:`REFERENCE_PERIOD_S` from a SIGALRM handler during a timed run.
The samples' own time is taken out of the measured times, and
``setup_s`` and ``wall_s`` are those times rescaled to the speed at
which a sample takes :data:`REFERENCE_NOMINAL_S`, each stretch between
two samples by the samples around it.  On a shared machine whose speed
drifts by +-10% over minutes, and changes within a run when the process
moves to another vCPU, the rescaled times vary by a few percent.
"""

import time

#: Child start, taken before ``repro`` is imported: the origin of setup_s.
START = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

#: name -> (experiment id, MeasurementSettings fields, Preset grid fields).
#: Each workload is a serial batch of sweep points; the seed is
#: ``MeasurementSettings.seed``.
WORKLOADS = {
    "flood-64b": ("fig3a", {"duration": 0.5}, {"flood_rates": (30000, 50000), "repetitions": 1}),
    "bulk-tcp": ("fig2", {"duration": 4.0}, {"depths": (1, 64), "vpg_counts": ()}),
    "http-vpg": ("table1", {"http_duration": 3.0}, {"depths": (1, 64), "vpg_counts": (1, 4)}),
    "fleet-64": ("fleet", {"duration": 0.4}, {"fleet_sizes": (64,), "flood_shares": (0.5,)}),
}

MODES = ("setup", "timed", "traced")

#: Seconds between two reference samples during a timed run.
REFERENCE_PERIOD_S = 0.2
#: Reference samples taken at child start, for rescaling set-up time.
SETUP_SAMPLES = 5
#: Samples whose median rescales one stretch of a run.
REFERENCE_WINDOW = 5
#: Median time of one :func:`reference_work` call on an idle 2 GHz
#: 2-vCPU VM; the speed that ``wall_s`` is rescaled to.
REFERENCE_NOMINAL_S = 0.0024


class _Item:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time, seq, payload):
        self.time = time
        self.seq = seq
        self.payload = payload

    def key(self):
        return self.seq & 255


def reference_work(items: int = 2000) -> int:
    """Fixed work in the simulator's idiom: slotted objects, a heap of
    timed entries, dict probes and method calls."""
    heap = []
    table = {}
    for seq in range(items):
        item = _Item(float(seq % 97), seq, (seq, seq + 1))
        heapq.heappush(heap, (item.time, seq, item))
        table[item.key()] = item
    total = 0
    while heap:
        item = heapq.heappop(heap)[2]
        total += table.get(item.key(), item).payload[0]
    return total


class SpeedSampler:
    """Times :func:`reference_work`, on demand or every
    :data:`REFERENCE_PERIOD_S` once started."""

    def __init__(self):
        #: (start, duration) of every sample, in ``perf_counter`` seconds.
        self.samples = []

    def sample(self, *_signal_args) -> None:
        """Take one sample; also the SIGALRM handler."""
        # A collection triggered here would traverse the simulator's
        # heap and charge it to the reference.
        enabled = gc.isenabled()
        gc.disable()
        begun = time.perf_counter()
        reference_work()
        self.samples.append((begun, time.perf_counter() - begun))
        if enabled:
            gc.enable()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sampled_s(self) -> float:
        """Time spent in the samples themselves."""
        return sum(took for _begun, took in self.samples)

    def median_s(self) -> float:
        return statistics.median(took for _begun, took in self.samples)

    def rescale(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` outside the samples, at the
        speed where a sample takes :data:`REFERENCE_NOMINAL_S`.

        Each stretch is rescaled by the median of the
        :data:`REFERENCE_WINDOW` samples nearest to it, not by one median
        of the run: the host's speed changes within a run.
        """
        took = [duration for _begun, duration in self.samples]
        stretch_starts = [start] + [begun + duration for begun, duration in self.samples]
        stretch_ends = [begun for begun, _duration in self.samples] + [end]
        half = REFERENCE_WINDOW // 2
        total = 0.0
        for index, (low, high) in enumerate(zip(stretch_starts, stretch_ends)):
            nearest = max(index - 1, 0)  # the sample just before the stretch
            window = took[max(nearest - half, 0): nearest + half + 1]
            total += (high - low) * REFERENCE_NOMINAL_S / statistics.median(window)
        return total


class _SetupReached(BaseException):
    """Stops a ``setup`` run; a BaseException so the sweep cannot catch it."""


def _on_first_run(simulator, action) -> dict:
    """Call ``action`` at the first ``Simulator.run`` entry, once."""
    seen = {}
    original = simulator.__dict__["run"]

    def first_run(sim, *args, **kwargs):
        seen["at"] = time.perf_counter()
        simulator.run = original
        action()
        return original(sim, *args, **kwargs)

    simulator.run = first_run
    return seen


def _stop_setup() -> None:
    raise _SetupReached


def _count_delivered_frames(link_port) -> list:
    """Sum ``rx_frames`` of every ``LinkPort`` as it is collected.

    Each delivery adds one to the receiving port's ``rx_frames``, so
    the sum over all ports, once every testbed is garbage, is the
    number of link deliveries, counted without a per-frame hook.
    """
    total = [0]

    def finalizer(port):
        total[0] += port.rx_frames

    link_port.__del__ = finalizer
    return total


def run(workload: str, seed: int, mode: str, setup_speed: SpeedSampler) -> dict:
    """Run one workload in this process and describe the outcome.

    ``setup_speed`` holds reference samples taken since :data:`START`;
    set-up time is rescaled by them.
    """
    from repro.core.methodology import MeasurementSettings
    from repro.experiments import results, runner
    from repro.experiments.config import RunConfig
    from repro.experiments.presets import Preset
    from repro.net.link import LinkPort
    from repro.sim.engine import Simulator

    experiment, settings, grid = WORKLOADS[workload]
    preset = Preset(name=workload, settings=MeasurementSettings(seed=seed, **settings), **grid)
    config = RunConfig(jobs=1, preset=preset)
    if mode == "setup":
        first_run = _on_first_run(Simulator, _stop_setup)
        try:
            runner.run_experiment_result(experiment, config=config)
        except _SetupReached:
            return _setup_times(first_run["at"], setup_speed)
        raise RuntimeError("the workload never entered Simulator.run")
    delivered = _count_delivered_frames(LinkPort)
    sampler = SpeedSampler()
    if mode == "timed":
        first_run = _on_first_run(Simulator, sampler.start)
    else:
        import recorder as recorder_module

        costs = recorder_module.calibrate()
        recorder = recorder_module.Recorder()
        recorder.install()
    called = time.perf_counter()
    try:
        result = runner.run_experiment_result(experiment, config=config)
    finally:
        sampler.stop()
        returned = time.perf_counter()
        if mode == "traced":
            recorder.uninstall()
    envelope = results.to_json(result)
    del result
    gc.collect()
    out = {
        "window_s": returned - called - sampler.sampled_s(),
        "digest": hashlib.sha256(envelope.encode()).hexdigest(),
        "point_failures": envelope.count('"_type": "PointFailure"'),
        "frames": delivered[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "timed":
        out.update(_setup_times(first_run["at"], setup_speed))
        out["raw_wall_s"] = returned - first_run["at"] - sampler.sampled_s()
        out["reference_s"] = sampler.median_s()
        out["wall_s"] = sampler.rescale(first_run["at"], returned)
    else:
        # The host's speed drifts during a run, so the wrapping costs are
        # the mean of a calibration before and one after it.
        costs = [(before + after) / 2 for before, after in zip(costs, recorder_module.calibrate())]
        out["layers"] = recorder.metrics(int(out["window_s"] * 1e9), *costs)
    return out


def _setup_times(first_run_at: float, setup_speed: SpeedSampler) -> dict:
    return {
        "setup_s": setup_speed.rescale(START, first_run_at),
        "raw_setup_s": first_run_at - START - setup_speed.sampled_s(),
    }


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[2] not in MODES:
        print(f"usage: child.py {{{','.join(WORKLOADS)}}} SEED {{{','.join(MODES)}}}", file=sys.stderr)
        return 2
    setup_speed = SpeedSampler()
    for _ in range(SETUP_SAMPLES):
        setup_speed.sample()
    print(json.dumps(run(argv[0], int(argv[1]), argv[2], setup_speed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
