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
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence

INF = float("inf")

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")

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


def _digit_limit() -> int:
    """Python's limit on the decimal digits of an int converted to or from text; 0 for none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


def _too_long(n: int, limit: int) -> bool:
    """Whether ``n`` has more than ``limit`` decimal digits."""
    # n < 2**(3 limit) = 8**limit has at most ``limit`` digits
    return n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q", a decimal string like "0.25", or an integer.

    Python reads and writes ints of at most ``sys.get_int_max_str_digits()``
    decimal digits.  A string whose numerator or denominator would be
    longer is a ValueError, since the value could not be written back.
    The integer and fraction digits before an exponent are each within
    the limit, or Fraction rejects them, so a nonzero value whose decimal
    exponent exceeds three times the limit is too long: such an exponent
    is rejected before any arithmetic, zero mantissa or not, and the rest
    are checked once the Fraction is built.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        text = text.strip()
        limit = _digit_limit()
        if not limit:
            return Fraction(text)
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent.group(1))) > 3 * limit:
            raise ValueError("decimal exponent out of range")
        value = Fraction(text)
        if _too_long(value.numerator, limit) or _too_long(value.denominator, limit):
            raise ValueError(f"numerator or denominator has more than {limit} digits")
        return value
    raise ValueError(f"not a rational: {text!r}")


def format_extended(x: Extended | None) -> str:
    """Serialize as "p/q" / "p", "inf", or "indeterminate" for None."""
    if x is None:
        return "indeterminate"
    if is_inf(x):
        return "inf"
    return str(x)
