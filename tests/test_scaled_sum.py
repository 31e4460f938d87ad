"""``rational.scaled_sum``: flat up to 32 terms, chunked and merged beyond."""

import math
import random
from fractions import Fraction

import pytest

from isotess.rational import scaled_sum


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 65, 1000])
def test_scaled_sum_is_the_sum_over_the_lcm(n):
    rng = random.Random(f"scaled_sum:{n}")
    # small denominators repeat, so chunks share factors; large ones do not
    parts = [(rng.randint(-10**6, 10**6),
              rng.randint(1, 12) if rng.random() < 0.5 else rng.randint(1, 10**9))
             for _ in range(n)]
    num, scale = scaled_sum(parts)
    assert scale == math.lcm(*(d for _, d in parts))
    assert Fraction(num, scale) == sum((Fraction(n, d) for n, d in parts), Fraction(0))
    # the numerator is scaled to the lcm, not normalised
    assert num == sum(n * (scale // d) for n, d in parts)
