"""Canonical JSON forms for the library's value types.

The CLI promises byte-identical output for identical invocations, so floats
are rendered with a fixed 17-significant-digit format and object keys are
emitted in sorted order; the stock json module cannot control float
rendering, hence the small hand-rolled emitter.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .minkowski import FourVector, LorentzElement, PoincareElement
from .wedges import Wedge

__all__ = [
    "canonical_dumps",
    "four_vector_to_json",
    "matrix_to_json",
    "poincare_to_json",
    "reflection_to_json",
    "wedge_to_json",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
    "complex_vector_to_json",
    "complex_vector_from_json",
]


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize the sign of zero
    return format(x, ".17g")


def canonical_dumps(obj) -> str:
    """JSON text with sorted keys and fixed-precision floats."""
    pieces = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out):
    # the exact types that make up most of a payload first; subclasses
    # (np.float64, named tuples, ...) take the isinstance chain
    kind = type(obj)
    if kind is float:
        out.append(_float_repr(obj))
    elif kind is list or kind is tuple:
        _emit_sequence(obj, out)
    elif kind is dict:
        _emit_dict(obj, out)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_repr(float(obj)))
    elif isinstance(obj, dict):
        _emit_dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _emit_sequence(obj, out)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_dict(obj, out):
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise TypeError("object keys must be strings")
        if i:
            out.append(",")
        out.append(_quote(key))
        out.append(":")
        _emit(obj[key], out)
    out.append("}")


def _emit_sequence(obj, out):
    if all(type(item) is float for item in obj):
        # a flat list of floats, the bulk of every payload, in one join
        out.append("[" + ",".join([_float_repr(item) for item in obj]) + "]")
        return
    out.append("[")
    for i, item in enumerate(obj):
        if i:
            out.append(",")
        _emit(item, out)
    out.append("]")


def _real_list(values, expected=None):
    arr = np.asarray(values, dtype=float).ravel()
    if expected is not None and arr.size != expected:
        raise ValueError(f"expected {expected} reals, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    return arr


def four_vector_to_json(v: FourVector):
    return v.array.tolist()


def matrix_to_json(m: LorentzElement):
    return m.m.ravel().tolist()


def poincare_to_json(g: PoincareElement):
    return {
        "matrix": matrix_to_json(g.lorentz),
        "translation": four_vector_to_json(g.translation),
    }


def reflection_to_json(r):
    out = poincare_to_json(r.element)
    out["validated"] = True
    return out


def wedge_to_json(w: Wedge):
    return {
        "l1": four_vector_to_json(w.l1),
        "l2": four_vector_to_json(w.l2),
        "p": four_vector_to_json(w.p),
    }


def complex_matrix_to_json(m):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def complex_vector_to_json(v):
    arr = np.asarray(v, dtype=complex).ravel()
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_vector_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a vector of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    return arr[:, 0] + 1j * arr[:, 1]
