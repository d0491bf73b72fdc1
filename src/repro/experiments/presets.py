"""The shared :class:`Preset` grid contract for experiment ``run()``.

Every experiment module exposes the same entry point::

    run(config: RunConfig | None = None)

``config.preset`` carries the sweep grid: measurement windows plus the
union of grid knobs the experiments understand (``depths``,
``vpg_counts``, ``flood_rates``, ...).  A field left at ``None`` means
"use the module's paper-default"; so ``Preset()`` (= :data:`FULL`)
regenerates the paper artefacts exactly, and :data:`QUICK` holds the
trimmed per-experiment grids behind the CLI's ``--quick`` flag.

Everything else that shapes a run (progress callback, worker-process
count, probes, fault tolerance) lives on
:class:`~repro.experiments.RunConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.methodology import MeasurementSettings


@dataclass(frozen=True)
class Preset:
    """One named sweep grid; ``None`` fields fall back to module defaults.

    The fields are the union of every experiment's grid knobs; each
    module reads only the ones it understands (via :meth:`grid`).
    """

    name: str = "full"
    #: Measurement windows/seed; None = the module's ``MeasurementSettings()``.
    settings: Optional[MeasurementSettings] = None
    #: Rule-set depths (fig2, fig3b, table1, extension).
    depths: Optional[Tuple[int, ...]] = None
    #: VPG counts (fig2, table1, ablations' lazy-decrypt).
    vpg_counts: Optional[Tuple[int, ...]] = None
    #: Flood rates in packets/second (fig3a).
    flood_rates: Optional[Tuple[float, ...]] = None
    #: Bandwidth measurements averaged per flood rate (fig3a).
    repetitions: Optional[int] = None
    #: Bandwidth-probe window inside rate searches (fig3b), seconds.
    probe_duration: Optional[float] = None
    #: RX ring sizes (ablations' ring-size).
    ring_sizes: Optional[Tuple[int, ...]] = None
    #: iptables chain depth (ablations' stateful-firewall).
    stateful_depth: Optional[int] = None
    #: Protected-target counts on the fabric (fleet, mitigation).
    fleet_sizes: Optional[Tuple[int, ...]] = None
    #: Fractions of the fleet under attack (fleet).
    flood_shares: Optional[Tuple[float, ...]] = None
    #: Defense modes swept on the single testbed (mitigation).
    defense_modes: Optional[Tuple[str, ...]] = None
    #: Defense modes swept on the fleet fabric (mitigation).
    fleet_defense_modes: Optional[Tuple[str, ...]] = None
    #: Fault scenarios swept (chaos).
    chaos_scenarios: Optional[Tuple[str, ...]] = None
    #: Post-settle goodput windows measured per point (chaos).
    recovery_slices: Optional[int] = None

    def grid(self, field_name: str, default: Any) -> Any:
        """This preset's value for one grid knob, or ``default`` if unset."""
        value = getattr(self, field_name)
        return default if value is None else value

    def measurement(self) -> MeasurementSettings:
        """The preset's measurement settings (module default when unset)."""
        return self.settings if self.settings is not None else MeasurementSettings()


#: The paper-default grids: every knob deferred to the module defaults.
FULL = Preset(name="full")

#: Trimmed per-experiment grids: a full pass finishes in minutes instead
#: of tens of minutes, while keeping the paper's qualitative shapes.
QUICK: Dict[str, Preset] = {
    "fig2": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.5),
        depths=(1, 8, 16, 32, 64),
        vpg_counts=(1, 4),
    ),
    "fig3a": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.5),
        flood_rates=(0, 10000, 20000, 30000, 40000, 50000),
        repetitions=1,
    ),
    "fig3b": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.5),
        depths=(1, 16, 64),
        probe_duration=0.5,
    ),
    "table1": Preset(
        name="quick",
        settings=MeasurementSettings(http_duration=1.5),
        depths=(1, 32, 64),
        vpg_counts=(1, 4),
    ),
    "ablations": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.5),
        vpg_counts=(1, 8),
        ring_sizes=(16, 256),
        stateful_depth=128,
    ),
    "extension": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.5),
        depths=(1, 64),
    ),
    "fleet": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.4),
        fleet_sizes=(4, 8),
        flood_shares=(0.0, 0.5),
    ),
    "mitigation": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.3),
        defense_modes=("off", "rate-limit", "quarantine"),
        fleet_defense_modes=("off", "quarantine"),
        fleet_sizes=(4,),
    ),
    "chaos": Preset(
        name="quick",
        settings=MeasurementSettings(duration=0.25),
        chaos_scenarios=("none", "link-flap", "policy-outage", "compound"),
        recovery_slices=3,
    ),
}


def preset_for(experiment_id: str, name: str = "full") -> Preset:
    """The named preset ("full" or "quick") for one experiment id."""
    if name == "full":
        return FULL
    if name == "quick":
        return QUICK.get(experiment_id, Preset(name="quick"))
    raise KeyError(f"unknown preset {name!r}; choose 'full' or 'quick'")


def resolve_preset(experiment_id: str, preset: Union[None, str, Preset]) -> Preset:
    """Normalize a ``run(preset=...)`` argument to a :class:`Preset`.

    Accepts a :class:`Preset` (returned as-is), a preset name
    ("full"/"quick"), or None (= :data:`FULL`).
    """
    if preset is None:
        return FULL
    if isinstance(preset, str):
        return preset_for(experiment_id, preset)
    if isinstance(preset, Preset):
        return preset
    raise TypeError(f"preset must be a Preset, 'full'/'quick', or None, got {preset!r}")
