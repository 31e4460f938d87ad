"""Exact rational arithmetic helpers with an explicit +infinity element.

Every graph quantity that is stored or reported (lengths, weights,
perimeters, characteristic values, curvatures) is a `fractions.Fraction`.
Hot loops work on the integer numerators and denominators instead and
build one Fraction per result: :func:`exact_sum` adds its terms over the
lcm of their denominators.  Unbounded tile perimeters are represented by
``INF`` (the float infinity), and every reciprocal taken through
:func:`reciprocal` obeys the convention 1/inf == 0 exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

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


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The sum of ``values`` as one Fraction, normalised once.

    The numerators are scaled to the lcm of the denominators and added as
    ints; the empty sum is 0.
    """
    values = list(values)
    scale = math.lcm(*[x.denominator for x in values])
    return Fraction(sum([x.numerator * (scale // x.denominator) for x in values]), scale)


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
