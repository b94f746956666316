"""Canonical JSON emitter: byte-identical to the plain recursive form."""

import json
import math

import numpy as np
import pytest

from wedgegroup.serialization import (
    canonical_dumps,
    complex_matrix_to_json,
    complex_vector_to_json,
    four_vector_to_json,
    matrix_to_json,
)
from wedgegroup import FourVector, make_boost


def _reference_dumps(obj):
    """The emitter written one value at a time, kept as the reference."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite float cannot be serialized")
        return format(0.0 if x == 0.0 else x, ".17g")
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError("object keys must be strings")
        items = [json.dumps(k) + ":" + _reference_dumps(obj[k]) for k in sorted(obj)]
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_dumps(item) for item in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_mixed_values():
    obj = {
        "b": [1.5, -0.0, 0.0, 2.0, 1e-300, -3.25e17],
        "a": (1, np.int64(-7), np.float64(-0.0), np.float64(0.1), True, False, None),
        "nested": [[0.1, 0.2], [], [[-0.0], "x"], {"k": [np.float64(1.0), 2.0]}],
        "s": "ü\"\n",
        "array": np.array([[1.0, -0.0], [3.0, 4.5]]),
    }
    text = canonical_dumps(obj)
    assert text == _reference_dumps(obj)
    assert text.startswith('{"a":[1,-7,0,0.10000000000000001,true,false,null],"array":[[1,0],[3,4.5]]')
    assert '"b":[1.5,0,0,2,1e-300,-3.25e+17]' in text
    assert "-0" not in text


def test_flat_float_list_is_joined_like_single_floats():
    values = [0.1, -0.0, 1.0 / 3.0, -2.5e-8, 123456789.0]
    assert canonical_dumps(values) == "[" + ",".join(canonical_dumps(v) for v in values) + "]"
    assert canonical_dumps(tuple(values)) == canonical_dumps(values)
    assert canonical_dumps([]) == "[]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_floats_are_rejected(bad):
    for obj in (bad, [1.0, bad], [[1.0], {"x": [2, bad]}]):
        with pytest.raises(ValueError):
            canonical_dumps(obj)


def test_non_string_keys_and_unknown_types_are_rejected():
    with pytest.raises(TypeError):
        canonical_dumps({1: 2.0})
    with pytest.raises(TypeError):
        canonical_dumps([{"a": {2.0: "x"}}])
    with pytest.raises(TypeError):
        canonical_dumps([1.0, object()])


def _random_value(rng, depth):
    pick = int(rng.integers(0, 10 if depth < 4 else 6))
    if pick == 0:
        return float(rng.choice([0.0, -0.0, 1.0, -1e-12, 3.5e200]))
    if pick == 1:
        return float(rng.normal() * 10.0 ** rng.integers(-20, 20))
    if pick == 2:
        return [None, True, False][int(rng.integers(0, 3))]
    if pick == 3:
        return int(rng.integers(-1000, 1000))
    if pick == 4:
        return np.float64(rng.normal()) if rng.uniform() < 0.5 else np.int64(rng.integers(-9, 9))
    if pick == 5:
        return "".join(rng.choice(list("ab\"\\é\n"), size=int(rng.integers(0, 5))))
    if pick == 6:
        return [float(x) for x in rng.normal(size=int(rng.integers(0, 6)))]
    n = int(rng.integers(0, 5))
    items = [_random_value(rng, depth + 1) for _ in range(n)]
    if pick == 7:
        return items
    if pick == 8:
        return tuple(items)
    return {f"k{int(rng.integers(0, 50))}": item for item in items}


def test_matches_reference_on_random_nested_values():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        obj = _random_value(rng, 0)
        assert canonical_dumps(obj) == _reference_dumps(obj)


def test_value_type_encoders():
    lam = make_boost([0, 1, 0], 0.5)
    assert matrix_to_json(lam) == [float(x) for x in lam.m.ravel()]
    assert all(type(x) is float for x in matrix_to_json(lam))
    v = FourVector(1, -0.0, 2, 3)
    assert four_vector_to_json(v) == [1.0, 0.0, 2.0, 3.0]
    m = np.array([[1 + 2j, -3j], [0.5, 4 - 1j]])
    assert complex_matrix_to_json(m) == [[[1.0, 2.0], [0.0, -3.0]], [[0.5, 0.0], [4.0, -1.0]]]
    assert complex_vector_to_json(m[0]) == [[1.0, 2.0], [0.0, -3.0]]
