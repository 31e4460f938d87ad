"""Report records: canonical JSON with exact values as strings.

A report writes every value by one rule.  A rational is a "p/q" string
("p" when whole).  A quadratic irrational a + b*sqrt(d), a
:class:`~isotess.rational.Surd` (the closed forms of the (p, q) family
and what is computed from them), is one string "A+B*sqrt(d)" or
"A-B*sqrt(d)": A is a, written as a rational, B is |b| written as a
rational, d is the decimal integer under the root, and there are no
spaces, so alpha of (7, 3) is "-5/22+7/22*sqrt(5)".  Infinity is "inf";
a quantity that depends on hidden data (a vertex or tile next to the
frontier) is "indeterminate"; an absent field is null.  JSON numbers
appear only for counts, ids and the echoed budget, and a finite float is
refused.  Tuples are written as lists.
:func:`value_json` writes one quantity, where None means indeterminate;
:func:`jsonable` writes a whole library result, where None means absent.

The canonical form is defined once, by :func:`isotess.interchange.canonical_json`.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

from .errors import OutOfRange
from .interchange import canonical_json
from .rational import INF, Surd, format_extended

SCHEMA_VERSION = 1


def value_json(x) -> str | int:
    """Fractions, Surds, infinity and None (indeterminate) as strings;
    ints as themselves; anything else, a finite float included, is a
    TypeError.

    OutOfRange for a value with more digits than Python writes
    (``sys.get_int_max_str_digits()``).
    """
    try:
        # None and Fraction first: curvature reports write one per edge
        if x is None or isinstance(x, Fraction) or isinstance(x, Surd) or x == INF:
            return format_extended(x)
    except ValueError:
        raise OutOfRange(f"a report value has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if isinstance(x, int):
        return x
    raise TypeError(f"unexpected value {x!r}")


def jsonable(x):
    """A library result as a report writes it.

    Fractions, Surds and floats go through :func:`value_json`, a dataclass
    becomes the dict of its fields, tuples and lists become lists and
    dicts keep their keys, each item converted; None stays null, and
    strings, ints and bools stay as they are.
    """
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, (Fraction, Surd, float)):
        return value_json(x)
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if dataclasses.is_dataclass(x):
        return {f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"unexpected value {x!r}")


def make_report(command: str, result: dict, *, input_sha256: str | None = None,
                family: dict | None = None, **echo) -> dict:
    """The report of ``command``; ``input_sha256`` is the hex digest of the
    input file, and ``echo`` holds the settings it echoes (the budget),
    written beside ``result``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "isotess",
        "command": command,
        "input": {
            "sha256": input_sha256,
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
