"""Span recorder for the benchmark's traced run.

The recorder patches public entry points of each simulator layer at run
time, from outside ``src/``, and restores them on
:meth:`Recorder.uninstall`.  Every patched call is a span.  A span's
*self time* is its duration minus the time of the spans it encloses, and
it is charged to the span's layer.  Three kinds of entry point are
wrapped:

* callbacks handed to the kernel (``Simulator.schedule``/``schedule_at``,
  the ``Timer``/``PeriodicTimer`` constructors and
  ``TimerWheel.schedule``/``schedule_periodic``), each charged to the
  layer of the module that owns the callback;
* synchronous calls from one layer into the next (:data:`BOUNDARIES`);
* set-up and sweep calls, charged to ``core``.

Wrapping costs time, and a span reports that time as part of its
caller's self time.  :func:`calibrate` measures the cost of one span and
of one patched ``schedule`` call, and :meth:`Recorder.metrics` subtracts
``child spans x span cost + schedules x schedule cost`` from each
layer's self time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: The layers, in report order.
LAYERS = ("sim", "net.link", "net.switch", "nic", "firewall", "crypto", "host", "apps", "core")

#: Module prefix -> layer; the first match wins, anything else is ``core``.
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.net.switch", "net.switch"),
    ("repro.net", "net.link"),
    ("repro.nic", "nic"),
    ("repro.firewall", "firewall"),
    ("repro.crypto", "crypto"),
    ("repro.host", "host"),
    ("repro.apps", "apps"),
)

#: Synchronous layer boundaries: (module, class, method, layer).
BOUNDARIES = (
    ("repro.net.link", "LinkPort", "send", "net.link"),
    ("repro.net.switch", "EthernetSwitch", "receive_frame", "net.switch"),
    ("repro.nic.base", "BaseNic", "receive_frame", "nic"),
    ("repro.nic.base", "BaseNic", "send_packet", "nic"),
    ("repro.firewall.ruleset", "RuleSet", "evaluate", "firewall"),
    ("repro.firewall.ruleset", "RuleSet", "evaluate_encrypted", "firewall"),
    ("repro.firewall.iptables", "IptablesFilter", "filter_input", "firewall"),
    ("repro.firewall.iptables", "IptablesFilter", "filter_output", "firewall"),
    ("repro.crypto.vpg", "VpgContext", "seal", "crypto"),
    ("repro.crypto.vpg", "VpgContext", "open", "crypto"),
    ("repro.host.host", "Host", "deliver_packet", "host"),
    ("repro.host.host", "Host", "transmit", "host"),
    ("repro.host.ip", "IpLayer", "send_packet", "host"),
    ("repro.host.ip", "IpLayer", "packet_arrived", "host"),
    ("repro.host.tcp", "TcpManager", "segment_arrived", "host"),
    ("repro.core.testbed", "Testbed", "__init__", "core"),
    ("repro.core.testbed", "Testbed", "install_target_policy", "core"),
    ("repro.core.fleet", "FleetTestbed", "__init__", "core"),
    ("repro.core.fleet", "FleetTestbed", "distribute_policies", "core"),
    ("repro.core.parallel", "SweepExecutor", "run", "core"),
)

#: Constructors and methods taking a callback: (module, class, method,
#: index of the callback among the positional arguments, self included).
CALLBACK_TAKERS = (
    ("repro.sim.timer", "Timer", "__init__", 2),
    ("repro.sim.timer", "PeriodicTimer", "__init__", 3),
    ("repro.sim.timer", "TimerWheel", "schedule", 2),
    ("repro.sim.timer", "TimerWheel", "schedule_periodic", 2),
)

# Indices into a cell, the per-entry-point accumulator.
SELF_NS, CALLS, CHILD_SPANS, SCHEDULES, FLAGGED = range(5)


def module_layer(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "core"


def queue_layer(queue) -> str:
    """A ``ServiceQueue`` serves the component named by its category
    ("nic.efw.proc" or "firewall.iptables.proc"), not its own module."""
    return "firewall" if queue.profile_category.startswith("firewall") else "nic"


def _returned_false(args, result) -> bool:
    return result is False


def _cache_hit(args, result) -> bool:
    return args[0].last_engine == "cache"


#: Boundaries whose outcome is counted in the cell's FLAGGED slot.
_FLAGS = {
    ("LinkPort", "send"): _returned_false,
    ("RuleSet", "evaluate"): _cache_hit,
    ("RuleSet", "evaluate_encrypted"): _cache_hit,
}


def _class(module: str, name: str):
    return getattr(importlib.import_module(module), name)


class Recorder:
    """Per-layer span accounting over the patched entry points.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: (layer, entry point) -> [self_ns, calls, child_spans, schedules, flagged]
        self.cells: Dict[Tuple[str, str], List[int]] = {}
        #: Stack of open spans, each [child_ns, cell]; the bottom frame
        #: stands for code outside every span.
        self._stack: List[list] = [[0, [0, 0, 0, 0, 0]]]
        self._callback_cells: Dict[Any, List[int]] = {}
        self._patches: List[Tuple[type, str, Any]] = []
        #: Kernel counters summed over every ``Simulator.run`` call.
        self.events = 0
        self.cancelled = 0
        self._queue_type = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def cell(self, layer: str, name: str) -> List[int]:
        """The accumulator of one entry point, created on first use."""
        key = (layer, name)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0, 0, 0, 0, 0]
        return cell

    def span(self, cell: List[int], fn: Callable, flag=None) -> Callable:
        """Wrap ``fn`` so each call is a span charged to ``cell``.

        ``flag(args, result)``, when given, counts calls whose outcome
        matters (a drop, a cache hit) in the cell's FLAGGED slot.
        """
        clock = self.clock
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0, cell]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[SELF_NS] += elapsed - frame[0]
                cell[CALLS] += 1
                parent = stack[-1]
                parent[0] += elapsed
                parent[1][CHILD_SPANS] += 1
            if flag is not None and flag(args, result):
                cell[FLAGGED] += 1
            return result

        return wrapper

    def _make_dispatch(self) -> Callable:
        """The span every kernel-dispatched callback runs inside."""
        clock = self.clock
        stack = self._stack

        def dispatch(cell, callback, *args):
            frame = [0, cell]
            stack.append(frame)
            start = clock()
            try:
                callback(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[SELF_NS] += elapsed - frame[0]
                cell[CALLS] += 1
                parent = stack[-1]
                parent[0] += elapsed
                parent[1][CHILD_SPANS] += 1

        return dispatch

    def callback_cell(self, callback: Callable) -> List[int]:
        """The cell of a callback, named by the code that owns it."""
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            key = (type(owner), getattr(callback, "__func__", None))
            if key[0] is self._queue_type:
                key = key + (queue_layer(owner),)
        else:
            target = getattr(callback, "func", callback)  # functools.partial
            key = getattr(target, "__code__", target)
        cell = self._callback_cells.get(key)
        if cell is None:
            cell = self._callback_cells[key] = self._resolve_callback(callback)
        return cell

    def _resolve_callback(self, callback: Callable) -> List[int]:
        owner = getattr(callback, "__self__", None)
        if owner is not None and type(owner) is self._queue_type:
            return self.cell(queue_layer(owner), "ServiceQueue._finish")
        if owner is not None and hasattr(callback, "__func__"):
            layer = module_layer(type(owner).__module__)
            return self.cell(layer, callback.__func__.__qualname__)
        target = getattr(callback, "func", callback)
        layer = module_layer(getattr(target, "__module__", None) or "")
        return self.cell(layer, getattr(target, "__qualname__", type(target).__qualname__))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def make_schedule(self, original: Callable) -> Callable:
        """A ``Simulator.schedule``/``schedule_at`` that wraps the callback."""
        stack = self._stack
        dispatch = self._make_dispatch()
        callback_cell = self.callback_cell

        def schedule(sim, when, callback, *args):
            stack[-1][1][SCHEDULES] += 1
            return original(sim, when, dispatch, callback_cell(callback), callback, *args)

        return schedule

    def _make_callback_taker(self, original: Callable, index: int) -> Callable:
        dispatch = self._make_dispatch()
        callback_cell = self.callback_cell

        def wrap(callback):
            return functools.partial(dispatch, callback_cell(callback), callback)

        def taker(*args, **kwargs):
            args = args[:index] + (wrap(args[index]),) + args[index + 1:]
            return original(*args, **kwargs)

        return taker

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def install(self) -> None:
        """Patch every entry point; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        simulator = _class("repro.sim.engine", "Simulator")
        queue = self._queue_type = _class("repro.nic.queues", "ServiceQueue")
        for name in ("schedule", "schedule_at"):
            self._patch(simulator, name, self.make_schedule(simulator.__dict__[name]))
        for module, cls_name, name, index in CALLBACK_TAKERS:
            cls = _class(module, cls_name)
            self._patch(cls, name, self._make_callback_taker(cls.__dict__[name], index))
        for module, cls_name, name, layer in BOUNDARIES:
            cls = _class(module, cls_name)
            cell = self.cell(layer, f"{cls_name}.{name}")
            flag = _FLAGS.get((cls_name, name))
            self._patch(cls, name, self.span(cell, cls.__dict__[name], flag))
        self._patch(simulator, "run", self._make_run(simulator.__dict__["run"]))
        self._patch(queue, "offer", self._make_offer(queue.__dict__["offer"]))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def _make_run(self, original: Callable) -> Callable:
        run_span = self.span(self.cell("sim", "Simulator.run"), original)

        def run(sim, *args, **kwargs):
            executed, cancelled = sim.events_executed, sim.events_cancelled
            try:
                return run_span(sim, *args, **kwargs)
            finally:
                self.events += sim.events_executed - executed
                self.cancelled += sim.events_cancelled - cancelled

        return run

    def _make_offer(self, original: Callable) -> Callable:
        spans = {
            layer: self.span(self.cell(layer, "ServiceQueue.offer"), original, _returned_false)
            for layer in ("nic", "firewall")
        }

        def offer(queue, item):
            return spans[queue_layer(queue)](queue, item)

        return offer

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _calls(self, layer: str, name: str) -> int:
        cell = self.cells.get((layer, name))
        return cell[CALLS] if cell is not None else 0

    def _flagged(self, layer: str, name: str) -> int:
        cell = self.cells.get((layer, name))
        return cell[FLAGGED] if cell is not None else 0

    def frames(self) -> int:
        """Link frame deliveries (``LinkPort._deliver`` events)."""
        return self._calls("net.link", "LinkPort._deliver")

    def metrics(self, window_ns: int, span_cost_ns: float, schedule_cost_ns: float) -> Dict[str, float]:
        """Per-layer metrics by name (units are in ``BENCHMARK.json``).

        ``window_ns`` is the traced wall time the spans ran in.  Self
        times are corrected for the measured wrapping cost, and
        ``self_pct`` is a share of the window less that cost (the
        estimated untraced wall time).  ``trace.coverage_pct`` is the
        uncorrected self time of all spans as a share of the window.
        """
        raw = dict.fromkeys(LAYERS, 0)
        corrected = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        overhead = 0.0
        cells = list(self.cells.items()) + [(("", ""), self._stack[0][1])]
        for (layer, _name), cell in cells:
            cost = cell[CHILD_SPANS] * span_cost_ns + cell[SCHEDULES] * schedule_cost_ns
            overhead += cost
            if layer:
                raw[layer] += cell[SELF_NS]
                corrected[layer] += cell[SELF_NS] - cost
                calls[layer] += cell[CALLS]
        frames = self.frames()
        base = max(window_ns - overhead, 1.0)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            self_ns = max(corrected[layer], 0.0)
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ns_per_frame"] = _ratio(self_ns, frames)
            out[f"{layer}.self_pct"] = 100.0 * self_ns / base
        executed = self.events
        sim_self = max(corrected["sim"], 0.0)
        out["sim.events"] = executed
        out["sim.events_per_frame"] = _ratio(executed, frames)
        out["sim.cancelled_pct"] = 100.0 * _ratio(self.cancelled, executed + self.cancelled)
        out["sim.ns_per_event"] = _ratio(sim_self, executed)
        out["net.link.frames"] = frames
        out["net.link.drop_pct"] = 100.0 * _ratio(
            self._flagged("net.link", "LinkPort.send"), self._calls("net.link", "LinkPort.send")
        )
        out["net.switch.frames"] = self._calls("net.switch", "EthernetSwitch.receive_frame")
        out["nic.drop_pct"] = 100.0 * _ratio(
            self._flagged("nic", "ServiceQueue.offer"), self._calls("nic", "ServiceQueue.offer")
        )
        lookups = ("RuleSet.evaluate", "RuleSet.evaluate_encrypted")
        out["firewall.cache_hit_pct"] = 100.0 * _ratio(
            sum(self._flagged("firewall", name) for name in lookups),
            sum(self._calls("firewall", name) for name in lookups),
        )
        out["host.packets"] = self._calls("host", "Host.deliver_packet") + self._calls(
            "host", "Host.transmit"
        )
        out["apps.flood_packets"] = self._calls("apps", "FloodGenerator._send_one") + self._calls(
            "apps", "FloodGenerator._send_one_jittered"
        )
        out["trace.coverage_pct"] = 100.0 * sum(raw.values()) / window_ns
        out["trace.span_cost_ns"] = span_cost_ns
        out["trace.schedule_cost_ns"] = schedule_cost_ns
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Owner:
    def method(self):
        pass


def _noop(_arg) -> None:
    pass


def calibrate(clock: Callable[[], int] = time.perf_counter_ns, calls: int = 5000, rounds: int = 21) -> Tuple[float, float]:
    """Measure ``(span cost, schedule cost)`` in nanoseconds.

    The span cost is the median, over ``rounds``, of the per-call time
    of a wrapped no-op less that of the bare no-op.  The schedule cost
    is the same difference for a patched ``Simulator.schedule`` of a
    bound method against the original, each on a fresh kernel.  The
    garbage collector is paused so the Events the loop allocates do not
    trigger collections in one loop and not the other; the order of the
    two loops alternates between rounds.
    """
    simulator = _class("repro.sim.engine", "Simulator")
    original = simulator.__dict__["schedule"]
    callback = _Owner().method
    costs: Tuple[List[float], List[float]] = ([], [])
    enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(rounds):
            recorder = Recorder(clock)
            wrapped = recorder.span(recorder.cell("core", "calibration"), _noop)
            legs = (
                (wrapped, _noop, lambda: (None,)),
                (recorder.make_schedule(original), original, lambda: (simulator(), 0.0, callback)),
            )
            for leg, (patched, bare, make_args) in zip(costs, legs):
                order = (patched, bare) if round_index % 2 == 0 else (bare, patched)
                per_call = {fn: _per_call(clock, fn, make_args(), calls) for fn in order}
                leg.append(per_call[patched] - per_call[bare])
    finally:
        if enabled:
            gc.enable()
    return statistics.median(costs[0]), statistics.median(costs[1])


def _per_call(clock: Callable[[], int], fn: Callable, args: tuple, calls: int) -> float:
    start = clock()
    for _ in range(calls):
        fn(*args)
    return (clock() - start) / calls
