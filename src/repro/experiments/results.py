"""Result serialization: experiment outputs as versioned JSON.

Every experiment module returns a small dataclass tree (series lists,
measurement records).  :func:`serialize` converts any of them to plain
JSON-compatible structures, :func:`to_json`/:func:`write_json` wrap the
payload in a ``{"schema_version": N, "result": ...}`` envelope so
archives can be reloaded and diffed across revisions, and
:func:`deserialize` is the ``_type``-tag-driven inverse: it rebuilds the
dataclass tree from an archived payload (:func:`read_json` does both
steps from a file).

Round-trip contract: JSON has no tuples, NaN/inf, or enum objects, so
``deserialize(serialize(x))`` returns an equivalent tree in which tuples
come back as lists and enums as their values — re-serializing it yields
byte-identical JSON (``serialize(deserialize(s)) == s``), which is what
diffing archived runs needs.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Any, Dict, Optional, Type

from repro.net.addresses import Ipv4Address, MacAddress

#: Value types that serialize to their text form.
_ADDRESS_TYPES = (Ipv4Address, MacAddress)

#: Version of the archived-JSON envelope; bump on incompatible layout
#: changes so :func:`deserialize` can reject archives from the future.
RESULTS_SCHEMA_VERSION = 1


def serialize(value: Any) -> Any:
    """Recursively convert dataclasses/enums/tuples to JSON-safe values.

    * dataclasses become dicts (with a ``_type`` tag for readability),
    * enums become their ``value``,
    * NaN/inf floats become None (JSON has no spelling for them),
    * addresses become their text form (they are ``int`` subclasses, so
      this is tested before the plain-int branch),
    * dict keys are stringified when not already strings.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        record = {"_type": type(value).__name__}
        for field in dataclasses.fields(value):
            record[field.name] = serialize(getattr(value, field.name))
        return record
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): serialize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [serialize(item) for item in value]
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        return value
    if isinstance(value, _ADDRESS_TYPES):
        return str(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    # Objects with their own dict-ish content (e.g. result aggregates
    # that are not dataclasses) fall back to their __dict__.
    if hasattr(value, "__dict__"):
        return {
            "_type": type(value).__name__,
            **{key: serialize(item) for key, item in vars(value).items()},
        }
    return str(value)


def envelope(value: Any) -> Dict[str, Any]:
    """The archived form: serialized payload plus the schema version."""
    return {"schema_version": RESULTS_SCHEMA_VERSION, "result": serialize(value)}


def to_json(value: Any, indent: int = 2) -> str:
    """Serialize to a versioned JSON string."""
    return json.dumps(envelope(value), indent=indent, sort_keys=True)


def write_json(value: Any, path: str) -> None:
    """Serialize ``value`` and write it to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(to_json(value))
        stream.write("\n")


# ---------------------------------------------------------------------------
# Deserialization (the _type-tag-driven inverse)
# ---------------------------------------------------------------------------

#: Extra types registered via :func:`register_result_type`.
_EXTRA_TYPES: Dict[str, Type] = {}

_TYPE_REGISTRY: Optional[Dict[str, Type]] = None


def register_result_type(cls: Type) -> Type:
    """Register a dataclass so :func:`deserialize` can rebuild it.

    The built-in experiment/metrics result types are discovered
    automatically; use this (also usable as a class decorator) for types
    defined elsewhere.
    """
    _EXTRA_TYPES[cls.__name__] = cls
    global _TYPE_REGISTRY
    _TYPE_REGISTRY = None
    return cls


def _build_type_registry() -> Dict[str, Type]:
    """Scan the result-bearing modules for dataclasses, by class name.

    Imported lazily to keep module import light and avoid cycles (the
    experiment modules import this one).
    """
    from repro.core import fleet, methodology, metrics, parallel, throughput
    from repro.defense import controller as defense_controller
    from repro.defense import detector as defense_detector
    from repro.chaos import faults as chaos_fault_types
    from repro.chaos import invariants as chaos_invariants
    from repro.chaos import runtime as chaos_runtime
    from repro.chaos import schedule as chaos_schedule
    from repro.experiments import (
        ablations,
        chaos_faults,
        extension_hardened,
        fig2_bandwidth,
        fig3a_flood,
        fig3b_minflood,
        fleet_flood,
        mitigation,
        table1_http,
    )
    from repro.obs import collect, sampler
    from repro.obs.profiling import collect as profile_collect
    from repro.policy import push as policy_push
    from repro.obs.tracing import collect as trace_collect
    from repro.obs.tracing import tracer as trace_tracer
    from repro.obs.tracing import watchdog as trace_watchdog

    registry: Dict[str, Type] = {}
    modules = (
        methodology,
        metrics,
        parallel,
        throughput,
        fig2_bandwidth,
        fig3a_flood,
        fig3b_minflood,
        table1_http,
        extension_hardened,
        ablations,
        fleet,
        fleet_flood,
        mitigation,
        chaos_faults,
        chaos_fault_types,
        chaos_invariants,
        chaos_runtime,
        chaos_schedule,
        policy_push,
        defense_detector,
        defense_controller,
        sampler,
        collect,
        profile_collect,
        trace_collect,
        trace_tracer,
        trace_watchdog,
    )
    for module in modules:
        for name, obj in vars(module).items():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                registry.setdefault(name, obj)
    registry.update(_EXTRA_TYPES)
    return registry


def _type_registry() -> Dict[str, Type]:
    global _TYPE_REGISTRY
    if _TYPE_REGISTRY is None:
        _TYPE_REGISTRY = _build_type_registry()
    return _TYPE_REGISTRY


def deserialize(value: Any) -> Any:
    """Rebuild the dataclass tree :func:`serialize` flattened.

    Accepts either the raw serialized payload or the full
    ``{"schema_version", "result"}`` envelope.  ``_type``-tagged dicts
    are reconstructed via the registered dataclass of that name (extra
    keys from newer revisions are ignored; unknown ``_type`` tags come
    back as plain dicts, tag included, so nothing is lost).  Tuples and
    enums stay in their JSON spelling (lists / enum values): re-serializing
    the returned tree reproduces the input exactly.
    """
    if isinstance(value, dict):
        if "_type" not in value and "schema_version" in value and "result" in value:
            version = value["schema_version"]
            if not isinstance(version, int) or version > RESULTS_SCHEMA_VERSION:
                raise ValueError(
                    f"archive schema_version {version!r} is newer than this "
                    f"revision's {RESULTS_SCHEMA_VERSION}"
                )
            return deserialize(value["result"])
        tag = value.get("_type")
        cls = _type_registry().get(tag) if isinstance(tag, str) else None
        if cls is None:
            return {key: deserialize(item) for key, item in value.items()}
        field_names = {field.name for field in dataclasses.fields(cls) if field.init}
        kwargs = {
            key: deserialize(item)
            for key, item in value.items()
            if key in field_names
        }
        return cls(**kwargs)
    if isinstance(value, list):
        return [deserialize(item) for item in value]
    return value


def from_json(text: str) -> Any:
    """Parse a :func:`to_json` string back into the result tree."""
    return deserialize(json.loads(text))


def read_json(path: str) -> Any:
    """Load and deserialize an archive written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as stream:
        return from_json(stream.read())
