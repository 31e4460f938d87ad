"""Exact rational arithmetic helpers with an explicit +infinity element.

Every graph quantity that is stored or reported (lengths, weights,
perimeters, characteristic values, curvatures) is a `fractions.Fraction`.
Hot loops work on the integer numerators and denominators instead and
build one Fraction per result: :func:`scaled_sum` adds (numerator,
denominator) pairs as ints over the lcm of their own denominators.
Measures take their ints from ``MetricGraph.length_ints``.
Unbounded tile perimeters are represented by ``INF`` (the float
infinity), and every reciprocal taken through :func:`reciprocal` obeys
the convention 1/inf == 0 exactly.

The closed forms of the (p, q) family are not rational: each lies in one
quadratic field Q(sqrt(d)), and :class:`Surd` holds them exactly as
a + b sqrt(d) over Fractions.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Sequence

INF = float("inf")

# the grammar of a rational string (parse_rational); group 1 is the exponent
_RATIONAL = re.compile(r"[-+]?(?:[0-9]+/[0-9]+"
                       r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]([-+]?[0-9]+))?)")

# A finite Fraction or the INF sentinel.
Extended = Fraction | float


def is_inf(x: Extended) -> bool:
    return isinstance(x, float) and math.isinf(x)


def reciprocal(x: Extended) -> Fraction:
    """1/x as an exact Fraction; zero when x is infinite."""
    if is_inf(x):
        return Fraction(0)
    return Fraction(1) / x


# terms that scaled_sum adds flat, over the lcm of their own denominators
_CHUNK = 32


def scaled_sum(parts: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(num, scale) with num/scale the sum of the fractions n/d in ``parts``.

    ``scale`` is the lcm of the denominators d, and nothing is normalised.
    Up to 32 terms are added flat: the numerators are scaled to the lcm
    and added as ints.  A longer sum adds chunks of 32 terms that way and
    merges the chunk sums pairwise, each pair over the lcm of its two
    scales, so each term is scaled to its chunk's lcm only, and the lcm of
    all the denominators is formed by the last merge.  The empty sum is
    (0, 1).
    """
    if len(parts) <= _CHUNK:
        scale = math.lcm(*{d for _, d in parts})
        return sum([n * (scale // d) for n, d in parts]), scale
    sums = [scaled_sum(parts[i:i + _CHUNK]) for i in range(0, len(parts), _CHUNK)]
    while len(sums) > 1:
        merged = []
        for (n1, s1), (n2, s2) in zip(sums[::2], sums[1::2]):
            scale = math.lcm(s1, s2)
            merged.append((n1 * (scale // s1) + n2 * (scale // s2), scale))
        if len(sums) % 2:
            merged.append(sums[-1])
        sums = merged
    return sums[0]


class Surd:
    """An exact a + b*sqrt(d): Fractions a and b != 0, an int d > 0 not a square.

    ``Surd(a, b, d)`` returns the Fraction a + b*sqrt(d) instead when b is 0
    or d is a square, so every Surd is irrational.  Sums, products and
    quotients with ints, Fractions and Surds of the same d stay exact, and
    so do comparisons, in either operand order; the sign of a + b*sqrt(d)
    with a and b of opposite signs is the sign of the larger of a^2 and
    b^2 d.  Mixing two values of different d is a ValueError.  ``str``
    writes the one string that :mod:`isotess.reports` defines.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a, b, d: int):
        a, b = Fraction(a), Fraction(b)
        root = math.isqrt(d)
        if not b or root * root == d:
            return a + b * root
        self = super().__new__(cls)
        self.a, self.b, self.d = a, b, d
        return self

    def _parts(self, other) -> tuple | None:
        """(a, b) of ``other`` over this d; None for a type it does not mix with."""
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError(f"sqrt({self.d}) and sqrt({other.d}) in one expression")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), 0
        return None

    def __add__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else Surd(self.a + o[0], self.b + o[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else Surd(self.a - o[0], self.b - o[1], self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b = o
        return Surd(self.a * a + self.b * b * self.d, self.a * b + self.b * a, self.d)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d  # nonzero: d is not a square
        return Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self * (1 / Surd(o[0], o[1], self.d))

    def __rtruediv__(self, other):
        return self._inverse() * other

    def _sign(self) -> int:
        a, b = self.a, self.b
        sign_a, sign_b = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sign_a * sign_b >= 0:
            return sign_b
        return sign_a if a * a > b * b * self.d else sign_b

    def _compare(self, other, signs: tuple[int, ...]):
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return diff
        return (diff._sign() if isinstance(diff, Surd) else (diff > 0) - (diff < 0)) in signs

    def __eq__(self, other):
        return self._compare(other, (0,))

    def __lt__(self, other):
        return self._compare(other, (-1,))

    def __le__(self, other):
        return self._compare(other, (-1, 0))

    def __gt__(self, other):
        return self._compare(other, (1,))

    def __ge__(self, other):
        return self._compare(other, (0, 1))

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __str__(self):
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.d})"

    def __repr__(self):
        return f"Surd('{self}')"


def _digit_limit() -> int:
    """Python's limit on the decimal digits of an int converted to or from text; 0 for none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


def _too_long(n: int, limit: int) -> bool:
    """Whether ``n`` has more than ``limit`` decimal digits."""
    # n < 2**(3 limit) = 8**limit has at most ``limit`` digits
    return n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q", a decimal string like "0.25" or "-1.5e3", or an integer.

    A string, stripped of surrounding whitespace, must match the length
    grammar of :mod:`isotess.interchange`, the same on every Python;
    anything else is a ValueError, whatever ``Fraction`` would make of it.

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
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    limit = _digit_limit()
    exponent = match.group(1)
    if limit and exponent and abs(int(exponent)) > 3 * limit:
        raise ValueError("decimal exponent out of range")
    value = Fraction(match.group())
    if limit and (_too_long(value.numerator, limit) or _too_long(value.denominator, limit)):
        raise ValueError(f"numerator or denominator has more than {limit} digits")
    return value


def format_extended(x: Extended | Surd | None) -> str:
    """Serialize as "p/q" / "p", a Surd's string, "inf", or "indeterminate" for None."""
    if x is None:
        return "indeterminate"
    if is_inf(x):
        return "inf"
    return str(x)
