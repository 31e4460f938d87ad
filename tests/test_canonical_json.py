"""``interchange.canonical_json`` against ``json.dumps(sort_keys=True, indent=2)``.

The writer hands containers of scalars to the C encoder and recurses in
Python over the rest; it must produce the json module's indented output
byte for byte, on payloads chosen to hit the escapes, the empty and
nested containers and every scalar type, and on seeded random nests.  The
reports of every command are checked in test_cli.py.
"""

from __future__ import annotations

import json
import math
import random
from enum import IntEnum
from fractions import Fraction

import pytest

from isotess.interchange import canonical_json, dumps_record, make_record


def dumps(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


class Colour(IntEnum):
    RED = 1


class Name(str):
    pass


PAYLOADS = {
    "non-ascii": {"é": "naïve", "日本": ["東京", "\U0001F600"], "k": " ﻿"},
    "control-characters": ["\x00\x01\x1f", "tab\tnewline\ncr\r", "\b\f\x7f", {"\x00": "\x1f"}],
    "quotes-in-keys": {'a"b': 1, "c\\d": [2], "/": {"'": "\"\\"}, "": ""},
    "empty-containers": [{}, [], {"a": {}, "b": [], "c": [[], {}, [[]], [{}]]},
                         [[[[]]]], {"d": {"e": {"f": {}}}}],
    "empty-top-dict": {},
    "empty-top-list": [],
    "scalars-mixed-with-containers": [1, [2], {"x": None}, "s", [], 3.5, True],
    "bool-none-int-float": {"t": True, "f": False, "n": None, "i": -7, "big": 10**40,
                            "zero": 0.0, "neg-zero": -0.0, "tiny": 5e-324,
                            "huge": 1.7976931348623157e308, "third": 1 / 3,
                            "inf": math.inf, "-inf": -math.inf, "nan": math.nan},
    "floats-in-mixed": [math.inf, [math.inf, -math.inf], {"x": [-math.inf]}, 1e16],
    "tuples": {"t": (1, (2, 3), ()), "u": [(), ("a", {"b": (None,)})]},
    "non-str-keys": [{1: "a", 10: "b", 2: "c"}, {1.5: 0, 0.25: [1]},
                     {True: [False]}, {None: {None: None}}],
    "subclasses": {"enum": Colour.RED, "str": Name("x"), "in-list": [Colour.RED, Name("y")],
                   "mixed": [Colour.RED, [Name("z")]]},
    "top-level-string": "a\"bé",
    "top-level-int": 12,
    "top-level-float": -math.inf,
    "top-level-none": None,
    "top-level-bool": False,
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payloads_match_json_dumps(name):
    assert canonical_json(PAYLOADS[name]) == dumps(PAYLOADS[name])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 255, 256, 257, 1000, 4097])
def test_flat_lists_of_any_length(n):
    rng = random.Random(n)
    ints = list(range(n))
    strings = [chr(rng.randrange(0x20, 0x3000)) * rng.randrange(3) for _ in range(n)]
    table = {str(i): rng.choice([i, -i / 7, None, True, "v"]) for i in range(n)}
    for flat in (ints, strings, table, {"wrapped": ints}, [ints, table]):
        assert canonical_json(flat) == dumps(flat)


def _nest(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 5 else 6)
    if kind == 0:
        return rng.choice(["", "a", "é", "\"", "\\", "\n", "\x00", "\U0001F600", "[{,:}]"])
    if kind == 1:
        return rng.choice([0, 1, -1, 2**70, -(2**70)])
    if kind == 2:
        return rng.choice([0.5, -0.0, 1e-7, 1e22, math.inf, -math.inf])
    if kind in (3, 4, 5):
        return rng.choice([None, True, False])
    if kind in (6, 7):
        return [_nest(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {rng.choice(["a", "b", "c", "d", "é", "\"q\"", "", "10", "9"]): _nest(rng, depth + 1)
            for _ in range(rng.randrange(5))}


@pytest.mark.parametrize("seed", range(40))
def test_random_nests_match_json_dumps(seed):
    rng = random.Random(f"canonical:{seed}")
    for _ in range(25):
        payload = _nest(rng, 0)
        assert canonical_json(payload) == dumps(payload), (seed, payload)


def test_record_matches_json_dumps():
    record = make_record({0: [0, 2], 1: [1, 0], 2: [2, 1]},
                         {0: (0, 1), 1: (1, 2), 2: (2, 0)},
                         {0: Fraction(1), 1: Fraction(3, 2), 2: "0.25"},
                         frontier={2}, true_degree={2: 5},
                         unbounded_face_reps=[(0, 0)],
                         family={"kind": "pq", "p": 7, "q": "inf", "radius": 1})
    assert dumps_record(record) == dumps(record) + "\n"


@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, object(), [1, Fraction(1, 3)],
                                 {"a": [b"bytes"]}, {(1, 2): 3}, {"a": 1, 2: "b"}])
def test_unserialisable_values_raise_like_json(bad):
    with pytest.raises(TypeError):
        dumps(bad)
    with pytest.raises(TypeError):
        canonical_json(bad)
