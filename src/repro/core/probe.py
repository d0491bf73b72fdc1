"""One contract for everything that watches a sweep point.

Metrics, packet tracing, wall-clock profiling and chaos/invariant
monitoring share one lifecycle, and this module is the only place it
lives:

* A **probe** is the parent-side collector passed as
  ``RunConfig(probes=...)`` or ``SweepExecutor(probes=...)``.  It has a
  ``name``, the key its snapshots travel under in worker results and
  checkpoint records.  It has a picklable ``config``.  And it has
  ``add_point(label, snapshots)`` and ``add_failure(label, failure)``,
  which the executor calls once per sweep point, in spec order.
* The ``config`` is shipped to the process that runs the point and is
  hashed into the point's checkpoint key.  ``config.start()`` opens a
  per-process **session** with ``attach_simulator(sim)``,
  ``attach_testbed(bed)`` and ``finish(ok) -> snapshots``.

While a point runs, its sessions sit in one process-wide list.  Every
testbed calls :func:`attach_simulator` right after creating its kernel
and :func:`attach_testbed` once it is fully built; both are a loop over
an empty list when nothing is armed.  The serial and the pooled path
both run points between :func:`start` and :func:`finish`, so a point's
snapshots are identical for any ``jobs``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Protocol, Tuple


class ProbeSession(Protocol):
    """One probe's state while one sweep point runs in this process."""

    def attach_simulator(self, sim) -> None:
        """Arm a kernel right after it is created."""

    def attach_testbed(self, bed) -> None:
        """Arm a testbed once its constructor has built everything."""

    def finish(self, ok: bool) -> list:
        """Stop, and return this point's snapshots.

        ``ok`` is False when the point itself raised; end-state checks
        are then skipped so they cannot mask the original error.
        """


class Probe(Protocol):
    """A parent-side collector the sweep executor feeds in spec order."""

    name: str
    #: Picklable; ``config.start()`` returns a :class:`ProbeSession`.
    config: Any

    def add_point(self, label: str, snapshots: list) -> None:
        """Deposit one completed point's snapshots."""

    def add_failure(self, label: str, failure) -> None:
        """Keep the collection 1:1 with the specs for a failed point."""


#: ``(probe name, session)`` of the point running in this process, in
#: start order: the one process-global activation state.
_SESSIONS: List[Tuple[str, ProbeSession]] = []


def active() -> bool:
    """True while a sweep point runs with probes in this process."""
    return bool(_SESSIONS)


def start(configs: Mapping[str, Any]) -> None:
    """Open one session per ``{probe name: config}``, in order."""
    if _SESSIONS:
        raise RuntimeError("probes are already active in this process")
    try:
        for name, config in configs.items():
            _SESSIONS.append((name, config.start()))
    except BaseException:
        finish(ok=False)
        raise


def finish(ok: bool = True) -> Dict[str, list]:
    """Close every session, last started first; snapshots by probe name.

    Every session is finished even when one raises (a fail-fast
    invariant violation found by the final check), so a pooled worker
    stays reusable; the first error is re-raised after the teardown.
    """
    sessions = _SESSIONS[::-1]
    _SESSIONS.clear()
    snapshots: Dict[str, list] = {}
    error = None
    for name, session in sessions:
        try:
            snapshots[name] = session.finish(ok)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None:
                error = exc
    if error is not None:
        raise error
    return snapshots


def attach_simulator(sim) -> None:
    """Let every active session arm a freshly created kernel."""
    for _, session in _SESSIONS:
        session.attach_simulator(sim)


def attach_testbed(bed) -> None:
    """Let every active session arm a fully built testbed."""
    for _, session in _SESSIONS:
        session.attach_testbed(bed)
