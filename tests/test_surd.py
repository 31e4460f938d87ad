"""``rational.Surd``: exact a + b*sqrt(d), its sign, order and collapse."""

from fractions import Fraction

import pytest

from isotess.rational import Surd

ROOT5 = Surd(0, 1, 5)  # 2.236...


@pytest.mark.parametrize("a,b,sign", [
    (3, -1, 1),    # 3 - sqrt(5): 9 > 5
    (-3, 1, -1),   # -3 + sqrt(5)
    (2, -1, -1),   # 2 - sqrt(5): 4 < 5
    (-2, 1, 1),    # -2 + sqrt(5)
    (Fraction(9, 4), -1, 1),    # 81/16 > 5
    (Fraction(-9, 4), 1, -1),
    (Fraction(11, 5), -1, -1),  # 121/25 < 5
    (Fraction(-11, 5), 1, 1),
])
def test_sign_when_a_and_b_differ_in_sign(a, b, sign):
    x = Surd(a, b, 5)
    assert (x > 0, x < 0) == (sign > 0, sign < 0)
    assert (0 < x, 0 > x) == (sign > 0, sign < 0)
    assert (x >= 0, x <= 0) == (sign > 0, sign < 0)


def test_sign_when_a_and_b_agree_or_a_is_zero():
    assert Surd(1, 1, 5) > 0 and Surd(-1, -1, 5) < 0
    assert ROOT5 > 0 and -ROOT5 < 0


def test_order_against_fraction_and_int_in_both_operand_orders():
    for low, high in ((2, 3), (Fraction(223, 100), Fraction(224, 100))):
        assert low < ROOT5 < high
        assert high > ROOT5 > low
        assert ROOT5 > low and low < ROOT5
        assert ROOT5 <= high and high >= ROOT5
        assert not ROOT5 < low and not high < ROOT5
    assert Surd(Fraction(-5, 22), Fraction(7, 22), 5) < Fraction(1, 2)
    assert Fraction(1, 2) > Surd(Fraction(-5, 22), Fraction(7, 22), 5)


def test_equality_and_hash():
    x = Surd(Fraction(1, 2), 3, 5)
    assert x == Surd(Fraction(2, 4), 3, 5) and hash(x) == hash(Surd(Fraction(1, 2), 3, 5))
    assert x != Surd(Fraction(1, 2), 2, 5)
    for rational in (2, Fraction(1, 2), Fraction(0)):
        assert x != rational and rational != x
        assert not x == rational and not rational == x
    assert len({x, Surd(Fraction(1, 2), 3, 5), Fraction(1, 2), 2}) == 3
    assert {ROOT5: "a"}[Surd(0, 1, 5)] == "a"


def test_max_and_min_over_a_mixed_list():
    values = [Fraction(1, 2), 2, ROOT5, Surd(3, -1, 5), 3, Fraction(9, 4)]
    assert max(values) == 3 and min(values) == Fraction(1, 2)
    assert max(values[:3] + values[5:]) == Fraction(9, 4)
    assert max([2, ROOT5, Fraction(11, 5)]) is ROOT5
    assert min([Fraction(4, 5), Surd(3, -1, 5), 1]) == Surd(3, -1, 5)  # 0.76...


def test_collapse_to_fraction():
    assert type(Surd(Fraction(3, 7), 0, 5)) is Fraction
    assert Surd(Fraction(3, 7), 0, 5) == Fraction(3, 7)
    assert Surd(1, 2, 9) == 7 and type(Surd(1, 2, 9)) is Fraction
    assert type(Surd(5, 1, 0)) is Fraction
    for b_zero in (ROOT5 - ROOT5, ROOT5 * ROOT5, (1 + ROOT5) * (1 - ROOT5),
                   ROOT5 / ROOT5, Surd(1, 1, 5) - ROOT5):
        assert type(b_zero) is Fraction
    assert (ROOT5 - ROOT5, ROOT5 * ROOT5, (1 + ROOT5) * (1 - ROOT5)) == (0, 5, -4)


def test_arithmetic_is_exact():
    x = Surd(Fraction(-5, 22), Fraction(7, 22), 5)  # alpha of (7, 3)
    assert 1 / x * x == 1 and x / x == 1
    assert 2 * x == x + x == x * 2 and x - 1 == -(1 - x)
    assert 2 / (1 + ROOT5) == Surd(Fraction(-1, 2), Fraction(1, 2), 5)
    assert x * x == Surd(Fraction(135, 242), Fraction(-35, 242), 5)
    with pytest.raises(ZeroDivisionError):
        ROOT5 / 0


def test_mixing_two_radicands_raises():
    root7 = Surd(0, 1, 7)
    for mix in (lambda: ROOT5 + root7, lambda: ROOT5 * root7, lambda: ROOT5 / root7,
                lambda: ROOT5 < root7, lambda: ROOT5 == root7):
        with pytest.raises(ValueError):
            mix()


def test_other_types_are_refused():
    with pytest.raises(TypeError):
        ROOT5 + 1.0
    with pytest.raises(TypeError):
        ROOT5 < 2.5
    assert ROOT5 != "sqrt(5)"


def test_canonical_string():
    assert str(Surd(Fraction(-5, 22), Fraction(7, 22), 5)) == "-5/22+7/22*sqrt(5)"
    assert str(Surd(Fraction(1, 2), Fraction(-3), 12)) == "1/2-3*sqrt(12)"
    assert str(Surd(0, Fraction(1, 7), 5)) == "0+1/7*sqrt(5)"
    assert repr(ROOT5) == "Surd('0+1*sqrt(5)')"
