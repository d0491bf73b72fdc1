"""Causal packet-lifecycle tracing for the simulated testbed.

This package follows every (sampled) packet end-to-end — app send → NIC
TX queue → firewall classify → link/switch transit → RX queue → firewall
→ app deliver/drop — as parented spans in virtual time, and turns the
failure signatures of the paper's experiments into first-class incidents:

* :mod:`~repro.obs.tracing.tracer` — :class:`PacketTracer` (one per
  kernel, at ``sim.tracer``), spans, events, contexts, sampling, and the
  span-duration → metrics histogram bridge,
* :mod:`~repro.obs.tracing.flight` — the :class:`FlightRecorder`
  bounded incident ring, armed even when full tracing is off,
* :mod:`~repro.obs.tracing.watchdog` — the :class:`Watchdog` anomaly
  detector (EFW lockup onset/recovery, queue saturation, flow-cache
  thrash, zero-goodput) filing :class:`Incident` records,
* :mod:`~repro.obs.tracing.collect` — the tracing probe
  (:class:`TraceCollector`, see :mod:`repro.core.probe`), identical for
  any ``jobs`` worker count,
* :mod:`~repro.obs.tracing.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and flat JSONL exporters.

For ad-hoc scripts, :func:`arm_tracing` arms a testbed's tracer in one
call::

    from repro.obs.tracing import arm_tracing
    tracer = arm_tracing(bed.sim, flight=True)
    ...run...
    for incident in tracer.incidents:
        print(incident.describe())
"""

from repro.obs.tracing.collect import (
    ExperimentTrace,
    PointTrace,
    TraceCollector,
    TraceConfig,
    TraceSnapshot,
    arm_tracer,
    snapshot_tracer,
)
from repro.obs.tracing.export import (
    chrome_trace,
    trace_jsonl_lines,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.tracing.flight import DEFAULT_FLIGHT_SIZE, FlightRecorder
from repro.obs.tracing.tracer import (
    PacketTracer,
    SpanRecord,
    TraceContext,
    TraceRecord,
)
from repro.obs.tracing.watchdog import Incident, Watchdog


def arm_tracing(
    sim,
    *,
    spans: bool = True,
    sample_every: int = 1,
    flight: bool = False,
    flight_size: int = DEFAULT_FLIGHT_SIZE,
    watchdog: bool = True,
):
    """Arm ``sim``'s tracer for ad-hoc use; returns the tracer."""
    config = TraceConfig(
        spans=spans,
        sample_every=sample_every,
        flight=flight,
        flight_size=flight_size,
        watchdog=watchdog,
    )
    return arm_tracer(sim, config)


__all__ = [
    "DEFAULT_FLIGHT_SIZE",
    "ExperimentTrace",
    "FlightRecorder",
    "Incident",
    "PacketTracer",
    "PointTrace",
    "SpanRecord",
    "TraceCollector",
    "TraceConfig",
    "TraceContext",
    "TraceRecord",
    "TraceSnapshot",
    "Watchdog",
    "arm_tracer",
    "arm_tracing",
    "chrome_trace",
    "snapshot_tracer",
    "trace_jsonl_lines",
    "write_chrome_trace",
    "write_trace_jsonl",
]
