"""Exact rational arithmetic helpers with an explicit +infinity element.

Every graph quantity that is stored or reported (lengths, weights,
perimeters, characteristic values, curvatures) is a `fractions.Fraction`.
Hot loops work on the integer numerators and denominators instead and
build one Fraction per result: :func:`scaled_sum` adds (numerator,
denominator) pairs as ints over the lcm of their own denominators, and
:func:`exact_sum` does the same for Fractions and normalises once.
Edge lengths come as such pairs from a per-graph integer table,
``MetricGraph.length_parts``, built on first use; every sum still takes
the lcm of its own terms, and no scale is stored for the whole graph.
Unbounded tile perimeters are represented by ``INF`` (the float
infinity), and every reciprocal taken through :func:`reciprocal` obeys
the convention 1/inf == 0 exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

INF = float("inf")

# A finite Fraction or the INF sentinel.
Extended = Fraction | float


def is_inf(x: Extended) -> bool:
    return isinstance(x, float) and math.isinf(x)


def reciprocal(x: Extended) -> Fraction:
    """1/x as an exact Fraction; zero when x is infinite."""
    if is_inf(x):
        return Fraction(0)
    return Fraction(1) / x


def scaled_sum(parts: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(num, scale) with num/scale the sum of the fractions n/d in ``parts``.

    ``scale`` is the lcm of the denominators d; the numerators are scaled
    to it and added as ints, and nothing is normalised.  The empty sum is
    (0, 1).
    """
    scale = math.lcm(*{d for _, d in parts})
    return sum([n * (scale // d) for n, d in parts]), scale


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The sum of ``values`` as one Fraction: :func:`scaled_sum`, normalised once."""
    return Fraction(*scaled_sum([(x.numerator, x.denominator) for x in values]))


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q", a decimal string like "0.25", or an integer."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise ValueError(f"not a rational: {text!r}")


def format_extended(x: Extended | None) -> str:
    """Serialize as "p/q" / "p", "inf", or "indeterminate" for None."""
    if x is None:
        return "indeterminate"
    if is_inf(x):
        return "inf"
    return str(x)
