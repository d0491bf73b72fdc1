"""The watchdog: turns raw trace records into first-class incidents.

The paper's headline anomaly — the EFW silently wedging under a ~1000 pps
deny flood — is invisible to counters until the bandwidth numbers come
back empty.  The :class:`Watchdog` subscribes to the tracer's record
stream and files an :class:`Incident` the moment a known failure
signature appears:

* ``lockup`` — the NIC firmware wedged (onset from the ``lockup`` event
  emitted by :mod:`repro.nic.faults`; recovery stamped when the matching
  ``agent-restart`` event arrives),
* ``queue-saturation`` — a service queue or link port sustained-dropped
  more than ``saturation_drops`` items within ``saturation_window``
  virtual seconds,
* ``flow-cache-thrash`` — a rule-set's flow cache evicted faster than
  ``thrash_evictions`` entries per ``thrash_window`` seconds,
* ``zero-goodput`` — traffic kept being sent but nothing reached any
  application for at least ``goodput_window`` seconds (detected at
  :meth:`finalize`; requires span tracing, since it reads the
  ``app.send``/``app.deliver`` stages).

Saturation and thrash fire once per source per run — the incident marks
the onset; the flight-recorder dump attached to it holds the build-up.
Incidents land in ``tracer.incidents`` and travel back in the result
envelope (see :mod:`repro.obs.tracing.collect`).

:class:`Incident` is also the one record every other producer of "what
went wrong at virtual time t" keeps: the invariant monitor's violations
(:mod:`repro.chaos.invariants`), the chaos injector's fault log
(:mod:`repro.chaos.schedule`), the flood detector's episodes
(:mod:`repro.defense.detector`) and the mitigation controller's actions
(:mod:`repro.defense.controller`).  Each keeps its incidents in its own
list and files the same objects on the tracer, which keeps them only
while it is hot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.obs.tracing.tracer import PacketTracer, SpanRecord, TraceRecord


@dataclass
class Incident:
    """One detected anomaly, with optional recovery and flight dump."""

    kind: str
    source: str
    time: float
    detail: Dict[str, Any] = field(default_factory=dict)
    recovered_at: Optional[float] = None
    #: Flight-recorder snapshot taken at onset (None when no recorder armed).
    dump: Optional[List[Any]] = None

    def describe(self) -> str:
        """Human-readable one-liner for CLI summaries."""
        line = f"{self.kind} on {self.source} at t={self.time:.3f}s"
        if self.recovered_at is not None:
            line += f" (recovered t={self.recovered_at:.3f}s)"
        extras = " ".join(
            f"{key}={value}"
            for key, value in sorted(self.detail.items())
            if key != "last_stage"
        )
        if extras:
            line += f": {extras}"
        last_stage = self.detail.get("last_stage")
        if last_stage:
            line += f"; last span before silence: {last_stage}"
        return line


class Watchdog:
    """Streams the tracer's records and files incidents on the tracer.

    Constructing a watchdog registers it as a tracer listener, which also
    flips the tracer ``hot`` so event sites start feeding it.
    """

    def __init__(
        self,
        tracer: PacketTracer,
        *,
        saturation_drops: int = 200,
        saturation_window: float = 0.05,
        thrash_evictions: int = 20_000,
        thrash_window: float = 0.25,
        goodput_window: float = 0.25,
    ):
        self.tracer = tracer
        self.saturation_drops = saturation_drops
        self.saturation_window = saturation_window
        self.thrash_evictions = thrash_evictions
        self.thrash_window = thrash_window
        self.goodput_window = goodput_window
        self._open_lockups: Dict[str, Incident] = {}
        self._drop_times: Dict[str, Deque[float]] = {}
        self._evictions: Dict[str, Deque] = {}
        self._fired: set = set()
        self._sends = 0
        self._delivers = 0
        self._first_send: Optional[float] = None
        self._last_send: Optional[float] = None
        self._last_deliver: Optional[float] = None
        self._finalized = False
        tracer.watchdog = self
        tracer.add_listener(self._observe)

    # ------------------------------------------------------------------

    def _observe(self, record: Any) -> None:
        if type(record) is SpanRecord:
            name = record.name
            if name == "app.send":
                self._sends += 1
                if self._first_send is None:
                    self._first_send = record.start
                self._last_send = record.start
            elif name == "app.deliver":
                self._delivers += 1
                self._last_deliver = record.end
            return
        name = record.event
        if name == "lockup":
            self._on_lockup(record)
        elif name == "agent-restart":
            self._on_restart(record)
        elif name in ("drop-full", "drop-paused", "drop-queue-full"):
            self._on_drop(record)
        elif name == "flow-cache-evict":
            self._on_evictions(record)

    # ------------------------------------------------------------------

    def _on_lockup(self, record: TraceRecord) -> None:
        incident = Incident(
            kind="lockup",
            source=record.source,
            time=record.time,
            detail=dict(record.fields),
        )
        self._open_lockups[record.source] = incident
        self.tracer.record_incident(incident)

    def _on_restart(self, record: TraceRecord) -> None:
        incident = self._open_lockups.pop(record.source, None)
        if incident is not None:
            incident.recovered_at = record.time

    def _on_drop(self, record: TraceRecord) -> None:
        source = record.source
        key = ("queue-saturation", source)
        if key in self._fired:
            return
        times = self._drop_times.get(source)
        if times is None:
            times = self._drop_times[source] = deque()
        times.append(record.time)
        horizon = record.time - self.saturation_window
        while times and times[0] < horizon:
            times.popleft()
        if len(times) >= self.saturation_drops:
            self._fired.add(key)
            incident = Incident(
                kind="queue-saturation",
                source=source,
                time=record.time,
                detail={
                    "drops": len(times),
                    "window_s": self.saturation_window,
                },
            )
            self.tracer.record_incident(incident)
            del self._drop_times[source]

    def _on_evictions(self, record: TraceRecord) -> None:
        source = record.source
        key = ("flow-cache-thrash", source)
        if key in self._fired:
            return
        batches = self._evictions.get(source)
        if batches is None:
            batches = self._evictions[source] = deque()
        batches.append((record.time, record.fields.get("count", 1)))
        horizon = record.time - self.thrash_window
        while batches and batches[0][0] < horizon:
            batches.popleft()
        evicted = sum(count for _, count in batches)
        if evicted >= self.thrash_evictions:
            self._fired.add(key)
            incident = Incident(
                kind="flow-cache-thrash",
                source=source,
                time=record.time,
                detail={
                    "evictions": evicted,
                    "window_s": self.thrash_window,
                },
            )
            self.tracer.record_incident(incident)
            del self._evictions[source]

    # ------------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """End-of-run checks (zero-goodput needs the whole timeline)."""
        if self._finalized:
            return
        self._finalized = True
        if self._sends < 10 or self._last_send is None:
            return
        floor = self._last_deliver if self._last_deliver is not None else self._first_send
        silent_for = self._last_send - floor
        if silent_for >= self.goodput_window:
            incident = Incident(
                kind="zero-goodput",
                source="testbed",
                time=floor,
                detail={
                    "silent_for_s": round(silent_for, 6),
                    "sends": self._sends,
                    "delivers": self._delivers,
                },
            )
            self.tracer.record_incident(incident)
