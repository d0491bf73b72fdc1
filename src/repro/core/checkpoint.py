"""Incremental on-disk checkpointing of completed sweep points.

Long sweeps — flood grids driving goodput to zero, the EFW Deny-All
lockup case — are exactly the runs most likely to die half-way.
:class:`SweepCheckpoint` makes them resumable: the executor appends one
JSONL record per completed point *as it finishes*, and a later run over
the same specs restores those points instead of re-running them.

Each record holds::

    {"schema_version": 2, "key": "<sha256>", "index": N, "label": "...",
     "result": <serialized>, "probes": {"<probe name>": <serialized>, ...}}

``key`` identifies the point by everything that determines its outcome:
the spec's label, its function's qualified name, its kwargs (which carry
the deterministic seed), and the config of every probe armed on it (see
:mod:`repro.core.probe`).  Payloads go through the versioned
:mod:`repro.experiments.results` envelope, whose round-trip contract
(``serialize(deserialize(s)) == s``) is what makes a resumed run's
archived output byte-identical to an uninterrupted run's.

The file is append-only and flushed per record, so a crashed or killed
run loses at most the point being written; a torn final line is skipped
on load.  Records whose key no longer matches (changed grid, changed
probe config, changed code path name) or whose schema version differs
are simply ignored and the point re-runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Mapping, Optional, Tuple

#: Version of the per-line checkpoint record; bump on incompatible
#: layout changes so older files are re-run rather than misread.
CHECKPOINT_SCHEMA_VERSION = 3


def _results():
    # Imported lazily: repro.experiments.results sits above the
    # experiments package whose modules import repro.core.parallel.
    from repro.experiments import results

    return results


class SweepCheckpoint:
    """Append-only JSONL store of completed sweep points.

    Parameters
    ----------
    path:
        The checkpoint file.  Parent directories are created.
    resume:
        When True (default), existing records are loaded and matching
        points are restored without re-running; when False the file is
        truncated and the sweep starts fresh.
    """

    def __init__(self, path: str, resume: bool = True):
        self.path = str(path)
        self._records: Dict[str, dict] = {}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if resume and os.path.exists(self.path):
            self._load()
        self._stream = open(self.path, "a" if resume else "w", encoding="utf-8")

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn final line from a killed run: everything
                    # before it is still good.
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
                    continue
                key = record.get("key")
                if isinstance(key, str) and "result" in record:
                    self._records[key] = record

    # ------------------------------------------------------------------
    # Point identity
    # ------------------------------------------------------------------

    @staticmethod
    def spec_key(spec, probe_configs: Mapping[str, Any]) -> str:
        """Stable identity of one sweep point under one set of probes."""
        serialize = _results().serialize
        fn = spec.fn
        identity = {
            "label": spec.label,
            "fn": f"{getattr(fn, '__module__', '?')}."
            f"{getattr(fn, '__qualname__', getattr(fn, '__name__', repr(fn)))}",
            "kwargs": serialize(spec.kwargs),
            "probes": serialize(dict(probe_configs)),
        }
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Optional[Tuple[Any, Dict[str, list]]]:
        """The restored ``(value, {probe name: snapshots})``, or None."""
        record = self._records.get(key)
        if record is None:
            return None
        deserialize = _results().deserialize
        snapshots = {
            name: deserialize(payload) for name, payload in record["probes"].items()
        }
        return deserialize(record["result"]), snapshots

    def record(
        self, key: str, index: int, label: str, value: Any, snapshots: Dict[str, list]
    ) -> None:
        """Append one completed point and flush it to disk."""
        serialize = _results().serialize
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "index": index,
            "label": label,
            "result": serialize(value),
            "probes": serialize(snapshots),
        }
        self._records[key] = record
        # Key order is kept as written (no sort_keys), so restored dicts
        # (span attrs, metric labels) iterate exactly like the originals
        # and a resumed run's exports stay byte-identical.
        self._stream.write(json.dumps(record, separators=(",", ":")))
        self._stream.write("\n")
        self._stream.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._stream.closed:
            self._stream.close()

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
