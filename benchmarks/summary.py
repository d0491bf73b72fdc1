"""The shared writer for ``BENCH_parallel.json``.

Three scripts write sections of the one summary file:
``parallel_bench.py`` (quick-preset timings and the overhead legs),
``fleet_bench.py`` (``fleet``) and ``mitigation_bench.py``
(``mitigation``).  Each merges its own top-level keys into what is
already there, so no script's run drops another script's results.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

#: The summary file at the repository root.
SUMMARY_PATH = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_parallel.json")
)


def merge_sections(path: str, sections: Dict[str, Any]) -> None:
    """Write ``sections``' keys into the JSON object at ``path``.

    Keys already in the file and not in ``sections`` are kept; a missing
    or unreadable file starts from an empty object.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        data = {}
    data.update(sections)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    print(f"(wrote {', '.join(sections)} to {path})", file=sys.stderr)
