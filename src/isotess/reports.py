"""Report records: canonical JSON with exact rationals as "p/q" strings.

A report writes every value by one rule.  Exact values are "p/q" strings
("p" when whole); infinity is "inf"; a quantity that depends on hidden
data (a vertex or tile next to the frontier) is "indeterminate"; an
absent field is null.  Besides counts, ids and the echoed budget, JSON
numbers appear only for the float closed forms, the Cheeger upper end
(and the lower end when a float closed form is the best lower bound) and
the echoed tolerance.  Tuples are written as lists.
:func:`value_json` writes one quantity, where None means indeterminate;
:func:`jsonable` writes a whole library result, where None means absent.

The canonical form is defined once, by :func:`isotess.interchange.canonical_json`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from .errors import OutOfRange
from .interchange import canonical_json
from .rational import INF, format_extended

SCHEMA_VERSION = 1


def value_json(x) -> str | int | float:
    """Fractions, infinity and None (indeterminate) as strings; ints and
    finite floats as themselves.

    OutOfRange for a value with more digits than Python writes
    (``sys.get_int_max_str_digits()``).
    """
    try:
        if x is None or isinstance(x, Fraction):
            return format_extended(x)
    except ValueError:
        raise OutOfRange(f"a report value has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if isinstance(x, (int, float)):
        return format_extended(x) if x == INF else x
    raise TypeError(f"unexpected value {x!r}")


def jsonable(x):
    """A library result as a report writes it.

    Fractions and floats go through :func:`value_json`, a dataclass
    becomes the dict of its fields, tuples and lists become lists and
    dicts keep their keys, each item converted; None stays null, and
    strings, ints and bools stay as they are.
    """
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, (Fraction, float)):
        return value_json(x)
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if dataclasses.is_dataclass(x):
        return {f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"unexpected value {x!r}")


def make_report(command: str, result: dict, *, input_bytes: bytes | None = None,
                family: dict | None = None, **echo) -> dict:
    """The report of ``command``; ``echo`` holds the settings it echoes
    (budget and tolerance), written beside ``result``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "isotess",
        "command": command,
        "input": {
            "sha256": hashlib.sha256(input_bytes).hexdigest() if input_bytes else None,
            "family": family,
        },
        "result": result,
        **echo,
    }


def dumps_report(report: dict) -> str:
    """The report in the canonical form of :func:`~isotess.interchange.canonical_json`."""
    return canonical_json(report) + "\n"


def emit(report: dict, output: str | None) -> str:
    text = dumps_report(report)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    return text
