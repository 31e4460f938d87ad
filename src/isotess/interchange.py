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
Rotation lists are cyclic clockwise sequences.  A length is a JSON
integer or a string of one grammar, the same on every Python: after
surrounding whitespace, an optional sign, then either p/q or a decimal
with an optional exponent, all in ASCII digits ("1/4", "0.25", ".5",
"2.5e-3").  Nothing else is a length: "1 /2", "1_000" and non-ASCII
digits such as U+0663 are InputFormatError.  Integers, and the
numerators and denominators of lengths, have at most
``sys.get_int_max_str_digits()`` decimal digits (4,300 by default), so
that every value can be written back; longer ones are InputFormatError,
as is a record nested deeper than Python's recursion limit.
``unbounded_face_reps`` names one directed edge ``[edge, head]`` lying on
each unbounded face.  Everything else is order-insensitive.

Files are written in the canonical form defined by :func:`canonical_json`,
which reports share.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Mapping

from .errors import InputFormatError

FORMAT = "metric-graph"
SCHEMA_VERSION = 1


def _float(x: float) -> str:
    """A float as the json module writes it."""
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


# the exact scalar types, each with the function giving its JSON text
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def canonical_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    This is the canonical form of reports and interchange files: object
    keys sorted, each member and element on its own line indented two
    spaces per level, "," ending a line and ": " after a key, empty
    containers as ``{}`` and ``[]``, strings ASCII-only with ``\\uXXXX``
    escapes, floats as ``repr`` with infinities as ``Infinity`` and
    ``-Infinity``.

    ``json.dumps`` runs its pure-Python encoder whenever an indent is set.
    This writer recurses in Python only over containers that hold
    containers.  A container of scalars goes to the json module's C
    encoder in one call, with the newline and indent in its item
    separator, and gets its first and last line breaks around that.
    """
    out: list[str] = []
    _write(value, 0, out, {})
    return "".join(out)


def _write(x, depth: int, out: list[str], flat: dict) -> None:
    """Append the canonical form of ``x`` at nesting ``depth`` to ``out``.

    ``flat`` holds the C encoder of each depth, made on first use.
    """
    is_dict = isinstance(x, dict)
    if is_dict:
        values = x.values()
    elif isinstance(x, (list, tuple)):
        values = x
    else:
        out.append(_scalar(x))
        return
    if not values:
        out.append("{}" if is_dict else "[]")
        return
    pad = "\n" + "  " * (depth + 1)
    if set(map(type, values)) <= _SCALAR_TEXT.keys():
        encode = flat.get(depth)
        if encode is None:
            encode = flat[depth] = c_make_encoder(
                None, _not_serializable, encode_basestring_ascii, None,
                ": ", "," + pad, True, False, True)
        text = "".join(encode(x, 0))
        out.append(text[0] + pad + text[1:-1] + pad[:-2] + text[-1])
        return
    sep = ("{" if is_dict else "[") + pad
    for key in sorted(x) if is_dict else range(len(x)):
        item = x[key]
        if is_dict:
            head = sep + encode_basestring_ascii(key if type(key) is str else _key(key)) + ": "
        else:
            head = sep
        text = _SCALAR_TEXT.get(type(item))
        if text is None:
            out.append(head)
            _write(item, depth + 1, out, flat)
        else:
            out.append(head + text(item))
        sep = "," + pad
    out.append(pad[:-2] + ("}" if is_dict else "]"))


def _not_serializable(x):
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _scalar(x) -> str:
    """One JSON scalar of any type the json module accepts, subclasses included."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return _SCALAR_TEXT[type(x)](x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    return _not_serializable(x)


def _key(key) -> str:
    """An object key converted to a string as the json module converts it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is None or key is True or key is False:
        return _SCALAR_TEXT[type(key)](key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def dumps_record(record: Mapping) -> str:
    """The record in the canonical form of :func:`canonical_json`, newline-terminated."""
    return canonical_json(record) + "\n"


def save(record: Mapping, path: str | Path) -> None:
    Path(path).write_text(dumps_record(record), encoding="utf-8")


def load_record(path: str | Path, data: bytes | None = None) -> dict:
    """Parse the record in ``data``, the bytes of ``path`` (read when None).

    InputFormatError when the bytes are not UTF-8 or not JSON, hold an
    integer longer than Python's digit limit, nest deeper than its
    recursion limit, or are not a record object.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        record = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                               f"column {exc.colno}") from exc
    except ValueError as exc:
        # an integer literal longer than sys.get_int_max_str_digits()
        raise InputFormatError(f"{path}: a JSON integer has too many digits") from exc
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nested deeper than Python's "
                               f"recursion limit") from None
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
