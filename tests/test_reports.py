"""``reports.jsonable``: a library result written as a report writes it."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from isotess.errors import OutOfRange
from isotess.isoperimetry import AlphaBracket, Bound
from isotess.rational import INF, Surd
from isotess.reports import jsonable, value_json


@dataclass(frozen=True)
class Inner:
    value: Fraction
    ids: tuple[int, ...]


@dataclass
class Outer:
    inner: Inner
    items: list
    absent: Fraction | None = None


@pytest.mark.parametrize("x,want", [
    (Fraction(3, 7), "3/7"),
    (Fraction(4), "4"),
    (INF, "inf"),
    pytest.param(Surd(Fraction(-5, 22), Fraction(7, 22), 5), "-5/22+7/22*sqrt(5)",
                 id="surd"),
    (None, None),
    (12, 12),
    (True, True),
    ("text", "text"),
    ((1, Fraction(1, 2), None), [1, "1/2", None]),
    ({"a": (), "b": [INF]}, {"a": [], "b": ["inf"]}),
])
def test_scalars_and_containers(x, want):
    got = jsonable(x)
    assert got == want and type(got) is type(want)


def test_nested_dataclass():
    x = Outer(Inner(Fraction(-2, 3), (4, 5)), [Inner(INF, ())])
    assert jsonable(x) == {
        "inner": {"value": "-2/3", "ids": [4, 5]},
        "items": [{"value": "inf", "ids": []}],
        "absent": None,
    }


def test_bracket_fields_and_bound_fields():
    bound = Bound(value=Fraction(1, 2), provenance="p", side="lower",
                  certified=True, witness=(3, 1))
    got = jsonable(AlphaBracket(bounds=[bound], best_lower=Fraction(1, 2)))
    assert got == {
        "bounds": [{"value": "1/2", "provenance": "p", "side": "lower",
                    "certified": True, "target": "alpha", "witness": [3, 1],
                    "note": ""}],
        "best_lower": "1/2", "best_upper": None, "alpha_exact": None,
        "restricted_alpha": None, "cheeger": None,
    }


def test_none_is_null_in_a_result_and_indeterminate_as_a_quantity():
    assert jsonable({"x": None}) == {"x": None}
    assert value_json(None) == "indeterminate"
    assert value_json(7) == 7 and value_json(INF) == "inf"


@pytest.mark.parametrize("x", [0.5, 0.0, -INF])
def test_floats_other_than_inf_are_refused(x):
    for convert in (jsonable, value_json):
        with pytest.raises(TypeError):
            convert(x)


def test_more_digits_than_python_writes_is_out_of_range():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python writes ints of any length")
    huge = Fraction(10 ** (limit + 1) + 1, 3)
    for convert in (jsonable, value_json):
        with pytest.raises(OutOfRange, match=str(limit)):
            convert({"v": [huge]} if convert is jsonable else huge)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes"])
def test_other_values_raise(bad):
    with pytest.raises(TypeError):
        jsonable(bad)
