"""Observability: run-time metrics for the simulated testbed.

The paper's results are all *measurements under stress*; this package is
the layer that makes those runs diagnosable while they happen:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms, plus the zero-cost
  :data:`NULL_REGISTRY` used when observability is off,
* :mod:`repro.obs.sampler` — an engine-driven :class:`Sampler` that
  snapshots every registered metric on a sim-time interval into time
  series (:class:`MetricsSnapshot`),
* :mod:`repro.obs.collect` — the metrics probe
  (:class:`MetricsCollector`, see :mod:`repro.core.probe`) whose
  per-sweep-point output is identical for any ``jobs`` worker count,
* :mod:`repro.obs.instrument` — kernel gauges (events executed /
  cancelled, heap depth),
* :mod:`repro.obs.export` — CSV export of collected series (JSON goes
  through :mod:`repro.experiments.results`),
* :mod:`repro.obs.tracing` — causal per-packet lifecycle spans, the
  always-cheap flight recorder, the incident watchdog, and Chrome
  trace-event / JSONL exporters,
* :mod:`repro.obs.profiling` — wall-clock profiling of the simulation's
  *own* host-CPU cost: per-component hotspot attribution hooked into the
  kernel's dispatch loop, collapsed-stack flamegraph export, and
  sweep-level profile aggregation (:class:`ProfileCollector`).

Components self-register against ``sim.metrics`` at construction; with
the default :data:`NULL_REGISTRY` every registration returns a shared
no-op instrument and nothing is stored, so instrumented hot paths cost
nothing when observability is disabled.
"""

from repro import _lazy

__all__ = [
    "Counter",
    "DEFAULT_SAMPLE_INTERVAL",
    "ExperimentMetrics",
    "ExperimentProfile",
    "ExperimentTrace",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Incident",
    "MetricSeries",
    "MetricsCollector",
    "MetricsConfig",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NullRegistry",
    "PacketTracer",
    "PointMetrics",
    "PointProfile",
    "ProfileCollector",
    "ProfileConfig",
    "ProfileEntry",
    "ProfileSnapshot",
    "Profiler",
    "RateEwma",
    "Sampler",
    "SpanRecord",
    "StackEntry",
    "TraceCollector",
    "TraceConfig",
    "TraceRecord",
    "Watchdog",
    "arm_tracing",
    "chrome_trace",
    "collapsed_stacks",
    "flatten_rows",
    "hotspot_table",
    "instrument_simulator",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_trace_jsonl",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".collect": (
        "DEFAULT_SAMPLE_INTERVAL",
        "ExperimentMetrics",
        "MetricsCollector",
        "MetricsConfig",
        "PointMetrics",
    ),
    ".ewma": ("RateEwma",),
    ".export": ("flatten_rows", "write_metrics_csv"),
    ".instrument": ("instrument_simulator",),
    ".registry": ("NULL_REGISTRY", "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry"),
    ".profiling": (
        "NULL_PROFILER",
        "ExperimentProfile",
        "PointProfile",
        "ProfileCollector",
        "ProfileConfig",
        "ProfileEntry",
        "ProfileSnapshot",
        "Profiler",
        "StackEntry",
        "collapsed_stacks",
        "hotspot_table",
        "write_collapsed",
    ),
    ".sampler": ("MetricSeries", "MetricsSnapshot", "Sampler"),
    ".tracing": (
        "ExperimentTrace",
        "FlightRecorder",
        "Incident",
        "PacketTracer",
        "SpanRecord",
        "TraceCollector",
        "TraceConfig",
        "TraceRecord",
        "Watchdog",
        "arm_tracing",
        "chrome_trace",
        "write_chrome_trace",
        "write_trace_jsonl",
    ),
})
