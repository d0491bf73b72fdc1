"""Chaos engineering: cross-layer fault injection and runtime invariants.

The subsystem has three parts:

* :mod:`repro.chaos.faults` — typed fault injections (link flaps,
  switch port failures, header corruption bursts, policy-server
  outages, agent crashes) that mutate a live testbed through the same
  surfaces real failures would hit,
* :mod:`repro.chaos.schedule` — named scenarios and the
  :class:`ChaosInjector` that fires them at scheduled virtual times,
  audited, and logged as one incident per fault,
* :mod:`repro.chaos.invariants` — the :class:`InvariantMonitor` suite
  (packet conservation, bounded queues, clock monotonicity, defense
  liveness, policy convergence) that runs alongside any experiment in
  ``warn`` or ``fail-fast`` mode and files each violation as an
  incident.

:mod:`repro.chaos.runtime` wires both into the sweep machinery as a
probe: ``RunConfig(probes=(ChaosCollector("compound", "fail-fast"),))``
— or the CLI's ``--chaos`` / ``--invariants`` flags — arms them on
every point of any experiment and keeps each point's
:class:`ChaosSnapshot`.
"""

from repro.chaos.faults import (
    AgentCrash,
    LinkFlap,
    PacketCorruption,
    PolicyServerOutage,
    SwitchPortFail,
)
from repro.chaos.invariants import (
    InvariantMonitor,
    InvariantViolationError,
    note_flood,
)
from repro.chaos.runtime import ChaosCollector, ChaosConfig, ChaosSnapshot, PointChaos
from repro.chaos.schedule import (
    SCENARIOS,
    ChaosInjector,
    ChaosSchedule,
    build_scenario,
)

__all__ = [
    "AgentCrash",
    "ChaosCollector",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosSchedule",
    "ChaosSnapshot",
    "InvariantMonitor",
    "InvariantViolationError",
    "LinkFlap",
    "PacketCorruption",
    "PointChaos",
    "PolicyServerOutage",
    "SCENARIOS",
    "SwitchPortFail",
    "build_scenario",
    "note_flood",
]
