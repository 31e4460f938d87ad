"""Report records: canonical JSON with exact rationals as "p/q" strings.

The canonical form is defined once, by :func:`isotess.interchange.canonical_json`.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from .errors import OutOfRange
from .interchange import canonical_json
from .isoperimetry import AlphaBracket, Bound
from .rational import format_extended

SCHEMA_VERSION = 1


def value_json(x) -> str | float | None:
    """Fractions and infinities as strings, floats as floats.

    OutOfRange for a value with more digits than Python writes
    (``sys.get_int_max_str_digits()``).
    """
    try:
        if x is None or isinstance(x, Fraction):
            return format_extended(x)
        if isinstance(x, int):
            return str(x)
    except ValueError:
        raise OutOfRange(f"a report value has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if isinstance(x, float):
        return format_extended(x) if x == float("inf") else x
    raise TypeError(f"unexpected value {x!r}")


def bound_json(b: Bound) -> dict:
    return {
        "value": value_json(b.value),
        "provenance": b.provenance,
        "side": b.side,
        "certified": b.certified,
        "target": b.target,
        "witness": list(b.witness) if b.witness is not None else None,
        "note": b.note,
    }


def bracket_json(br: AlphaBracket) -> dict:
    def opt(x):
        return None if x is None else value_json(x)

    out = {
        "bounds": [bound_json(b) for b in br.bounds],
        "best_lower": opt(br.best_lower),
        "best_upper": opt(br.best_upper),
        "alpha_exact": opt(br.alpha_exact),
        "restricted_alpha": None,
        "cheeger": None,
    }
    if br.restricted_alpha is not None:
        out["restricted_alpha"] = {
            "value": value_json(br.restricted_alpha["value"]),
            "witness": list(br.restricted_alpha["witness"] or ()),
            "exhaustive": br.restricted_alpha["exhaustive"],
        }
    if br.cheeger is not None:
        out["cheeger"] = {
            "lambda0_lower": value_json(br.cheeger["lambda0_lower"]),
            "lambda0_upper": value_json(br.cheeger["lambda0_upper"]),
            "ell_min": value_json(br.cheeger["ell_min"]),
            "certified": br.cheeger["certified"],
        }
    return out


def make_report(command: str, result: dict, *, input_bytes: bytes | None = None,
                family: dict | None = None, budget: dict | None = None,
                tolerance: float | None = None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "isotess",
        "command": command,
        "input": {
            "sha256": hashlib.sha256(input_bytes).hexdigest() if input_bytes else None,
            "family": family,
        },
        "result": result,
    }
    if budget is not None:
        report["budget"] = budget
    if tolerance is not None:
        report["tolerance"] = tolerance
    return report


def dumps_report(report: dict) -> str:
    """The report in the canonical form of :func:`~isotess.interchange.canonical_json`."""
    return canonical_json(report) + "\n"


def emit(report: dict, output: str | None) -> str:
    text = dumps_report(report)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    return text
