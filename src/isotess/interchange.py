"""Graph interchange files.

A single JSON record describes a metric graph:

```
{
  "format": "metric-graph",
  "schema_version": 1,
  "vertices": [{"id": 0, "rotation": [0, 1, 2]}, ...],
  "edges":    [{"id": 0, "ends": [0, 1], "length": "1"}, ...],
  "frontier_vertices": [7, 8],
  "true_degree": {"7": 4, "8": 4},
  "unbounded_face_reps": [[3, 2]],
  "family": {"kind": "pq", "p": 4, "q": 4, "radius": 3}   # optional
}
```

The file is UTF-8 text.  Vertex and edge ids, edge ends, rotation
entries, frontier vertices, true degrees and face reps are JSON integers
(not floats or booleans); ``true_degree`` keys are decimal strings, each
spelled exactly ``str(v)`` for a vertex ``v`` of the record ("00", " 0"
and ids of no vertex are rejected as InputFormatError).
Rotation lists are cyclic clockwise sequences; lengths are rational
strings ("p/q" or decimal).  ``unbounded_face_reps`` names one directed
edge ``[edge, head]`` lying on each unbounded face.  Everything else is
order-insensitive.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .errors import InputFormatError

FORMAT = "metric-graph"
SCHEMA_VERSION = 1


def dumps_record(record: Mapping) -> str:
    """Canonical serialization: sorted keys, two-space indent."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def save(record: Mapping, path: str | Path) -> None:
    Path(path).write_text(dumps_record(record), encoding="utf-8")


def load_record(path: str | Path, data: bytes | None = None) -> dict:
    """Parse the record in ``data``, the bytes of ``path`` (read when None)."""
    if data is None:
        data = Path(path).read_bytes()
    try:
        record = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                               f"column {exc.colno}") from exc
    if not isinstance(record, dict):
        raise InputFormatError(f"{path}: top-level record must be an object")
    fmt = record.get("format", FORMAT)
    if fmt != FORMAT:
        raise InputFormatError(f"{path}: unknown format {fmt!r}")
    return record


def canonical_rotation(rotation: list[int]) -> list[int]:
    """Rotate a cyclic list to start at its smallest entry (for stable files)."""
    if not rotation:
        return []
    k = rotation.index(min(rotation))
    return rotation[k:] + rotation[:k]


def make_record(rotation: Mapping[int, list[int]],
                edge_ends: Mapping[int, tuple[int, int]],
                lengths: Mapping[int, object],
                frontier: set[int] | frozenset[int] = frozenset(),
                true_degree: Mapping[int, int] | None = None,
                unbounded_face_reps: list[tuple[int, int]] | None = None,
                family: Mapping | None = None) -> dict:
    record = {
        "format": FORMAT,
        "schema_version": SCHEMA_VERSION,
        "vertices": [
            {"id": v, "rotation": canonical_rotation(list(rotation[v]))}
            for v in sorted(rotation)
        ],
        "edges": [
            {"id": e, "ends": [min(edge_ends[e]), max(edge_ends[e])],
             "length": str(lengths[e])}
            for e in sorted(edge_ends)
        ],
        "frontier_vertices": sorted(frontier),
        "true_degree": {str(v): int(d) for v, d in sorted((true_degree or {}).items())},
        "unbounded_face_reps": [[int(e), int(h)] for e, h in (unbounded_face_reps or [])],
    }
    if family is not None:
        record["family"] = dict(family)
    return record
