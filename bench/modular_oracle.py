"""modular-oracle: algebra and vector pairs answered the way `wedgegroup
modular` receives them, plus the duality and modular-flow audits.

Each request carries the algebra's generators and a vector as JSON [re, im]
arrays.  The handler closes the algebra, computes the modular data and its
invariant residuals, the commutant and the J M J duality residual, and one
modular-flow invariance residual.
"""

from __future__ import annotations

import json

import numpy as np

from common import Request, exact_counts
from spans import NULL_TRACER
from wedgegroup import (
    MatrixAlgebra,
    WedgeGroupError,
    block_factor_algebra,
    commutant,
    entangled_vector,
    matrix_units,
    modular_data,
    random_algebra_with_vector,
    span_residual,
)
from wedgegroup.serialization import (
    canonical_dumps,
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_vector_from_json,
    complex_vector_to_json,
)

NAME = "modular-oracle"
RATE = 11  # requests per second of --seconds, besides the one at d = 16

# Fresh algebras, each later resent once with a new vector: random pairs
# ("random", d) and one-leg tensor factors ("tensor", n) with d = n^2.
# random_algebra_with_vector(max_dim=d) reaches exactly d for these d.  The
# costs rise smoothly from d = 5 to d = 8 around the median request, so a
# machine that slows down moves the median smoothly instead of making it
# jump between two clusters of equal-cost requests.
FRESH = {
    ("random", 4): 2,
    ("tensor", 2): 1,
    ("random", 5): 1,
    ("random", 6): 2,
    ("random", 7): 2,
    ("random", 8): 2,
    ("tensor", 3): 2,
}
# vectors that must be rejected, and the error class each must raise
REJECT = {("not-cyclic", 2): "NotCyclic", ("not-separating", 3): "NotSeparating"}
REJECT_SHARE = 0.04
FLOW_T = 0.6180339887498949
TOL = 1e-8  # residual bound, as the modular command applies it
CLOSED_FORM_TOL = 1e-9


def _encode(generators, omega):
    d = generators[0].shape[0]
    body = {
        "algebra": {"d": d, "generators": [complex_matrix_to_json(g) for g in generators]},
        "vector": complex_vector_to_json(omega),
    }
    return json.dumps(body)


def _random_at(rng, d):
    for _ in range(1000):
        algebra, omega = random_algebra_with_vector(rng, max_dim=d)
        if algebra.d == d:
            return algebra, omega
    raise RuntimeError(f"no random algebra of dimension {d}")


def _tensor_vector(rng, n):
    weights = rng.uniform(0.2, 1.0, size=n)
    weights = weights / np.sum(weights)
    rho = np.diag(weights.astype(complex))
    return entangled_vector(weights), np.kron(rho, np.linalg.inv(rho))


def _fresh(kind, size, rng):
    """Generators, a first vector and its closed form (or None)."""
    if kind == "random":
        algebra, omega = _random_at(rng, size)
        return list(algebra.generators), omega, None
    algebra = block_factor_algebra(size)
    omega, closed = _tensor_vector(rng, size)
    return list(algebra.generators), omega, closed


def _new_vector(kind, size, generators, omega, rng):
    """Another cyclic separating vector for the same algebra."""
    if kind == "tensor":
        return _tensor_vector(rng, size)
    # a Omega with a = 1 + small algebra element is invertible, hence again
    # cyclic and separating
    coeffs = rng.normal(size=len(generators)) + 1j * rng.normal(size=len(generators))
    coeffs *= 0.5 / np.sum(np.abs(coeffs))
    a = np.eye(len(omega)) + sum(c * g for c, g in zip(coeffs, generators))
    v = a @ omega
    return v / np.linalg.norm(v), None


def _reject(kind, size, rng):
    if kind == "not-cyclic":
        # a product vector's orbit under M_n x 1 is only n-dimensional
        generators = list(block_factor_algebra(size).generators)
        omega = np.zeros(size * size, dtype=complex)
        omega[0] = 1.0
    else:
        # every vector is cyclic for the full matrix algebra, none separating
        generators = matrix_units(size)
        omega = rng.normal(size=size) + 1j * rng.normal(size=size)
    return generators, omega


def generate(rng, seconds):
    n = max(30, int(round(RATE * seconds)))
    n_reject = max(len(REJECT), int(round(REJECT_SHARE * n)))
    fresh = exact_counts({k: c / sum(FRESH.values()) for k, c in FRESH.items()}, (n - n_reject) // 2)
    reject = exact_counts({k: 1 / len(REJECT) for k in REJECT}, n_reject)
    # (sort key, request); a resent algebra is keyed after its first send
    keyed = []
    templates = [k for k, c in fresh.items() for _ in range(c)]
    templates = [templates[i] for i in rng.permutation(len(templates))]
    slots = len(templates)
    for position, (kind, size) in enumerate(templates):
        generators, omega, closed = _fresh(kind, size, rng)
        d = generators[0].shape[0]
        expect = {"omega": omega, "closed": closed, "error": None, "d": d, "repeat": False}
        keyed.append((position, Request(_encode(generators, omega), kind, expect)))
        omega2, closed2 = _new_vector(kind, size, generators, omega, rng)
        expect2 = dict(expect, omega=omega2, closed=closed2, repeat=True)
        keyed.append((rng.uniform(position + 0.5, slots), Request(_encode(generators, omega2), kind, expect2)))
    for (kind, size), count in reject.items():
        for _ in range(count):
            generators, omega = _reject(kind, size, rng)
            expect = {"omega": omega, "closed": None, "error": REJECT[(kind, size)], "d": len(omega), "repeat": False}
            keyed.append((rng.uniform(0, slots), Request(_encode(generators, omega), kind, expect)))
    # one request at the dimension cap, never resent
    generators, omega, closed = _fresh("tensor", 4, rng)
    expect = {"omega": omega, "closed": closed, "error": None, "d": 16, "repeat": False}
    keyed.append((rng.uniform(0, slots), Request(_encode(generators, omega), "tensor", expect)))
    keyed.sort(key=lambda item: item[0])
    return [request for _, request in keyed]


def _warmup_requests(rng):
    out = []
    for kind, size in (("random", 4), ("tensor", 2)):
        generators, omega, closed = _fresh(kind, size, rng)
        out.append(Request(_encode(generators, omega), kind, None))
    generators, omega = _reject("not-separating", 2, rng)
    out.append(Request(_encode(generators, omega), "not-separating", None))
    return out


def warm_up(rng):
    for request in _warmup_requests(rng):
        handle(request.text, NULL_TRACER)


def input_record(requests):
    kinds = [r.kind for r in requests]
    dims = [r.expect["d"] for r in requests]
    return {
        "requests": len(requests),
        "shares": {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))},
        "dimensions": {str(d): dims.count(d) for d in sorted(set(dims))},
        "repeated_algebra_share": sum(r.expect["repeat"] for r in requests) / len(requests),
    }


def handle(text, tr):
    with tr.span("serialization.decode"):
        body = json.loads(text)
        generators = [complex_matrix_from_json(g) for g in body["algebra"]["generators"]]
        omega = complex_vector_from_json(body["vector"])
    with tr.span("modular.closure"):
        algebra = MatrixAlgebra(generators)
        basis = algebra.basis()
    try:
        with tr.span("modular.modular_data"):
            md = modular_data(algebra, omega)
    except WedgeGroupError as exc:
        tr.count("modular.modular_data.rejected")
        with tr.span("serialization.encode"):
            return canonical_dumps(
                {"payload": {"error": type(exc).__name__, "message": str(exc)}, "status": "fail"}
            )
    with tr.span("modular.invariants"):
        residuals = md.invariant_residuals(omega)
    with tr.span("modular.commutant"):
        commutant_basis = commutant(algebra).basis()
    with tr.span("modular.duality"):
        duality = span_residual([md.conjugate(b) for b in basis], commutant_basis)
    with tr.span("modular.flow"):
        u = md.delta_power(1j * FLOW_T)
        flow = span_residual([u @ b @ u.conj().T for b in basis], basis)
    with tr.span("serialization.encode"):
        payload = {
            "J": complex_matrix_to_json(md.j.matrix),
            "Delta": complex_matrix_to_json(md.delta),
            "residuals": residuals,
            "duality": duality,
            "flow": flow,
        }
        return canonical_dumps({"payload": payload, "status": "ok"})


def check(request, text):
    """None when the response is right, else the reason it is wrong."""
    response = json.loads(text)
    payload = response["payload"]
    expect = request.expect
    if expect["error"] is not None:
        if response["status"] == "fail" and payload["error"] == expect["error"]:
            return None
        return f"expected rejection with {expect['error']}"
    if response["status"] != "ok":
        return f"unexpected rejection: {payload.get('error')}"
    if max(payload["residuals"].values()) > TOL:
        return "invariant residuals too large"
    if payload["duality"] > TOL:
        return "J M J is not the commutant"
    if payload["flow"] > TOL:
        return "modular flow does not preserve the algebra"
    j = complex_matrix_from_json(payload["J"])
    delta = complex_matrix_from_json(payload["Delta"])
    omega = expect["omega"]
    d = len(omega)
    scale = max(1.0, float(np.linalg.norm(delta)))
    if np.linalg.norm(delta - delta.conj().T) > TOL * scale:
        return "Delta is not Hermitian"
    if np.linalg.norm(delta @ omega - omega) > TOL * scale:
        return "Delta does not fix the vector"
    if np.linalg.norm(j @ np.conj(j) - np.eye(d)) > TOL or np.linalg.norm(j @ np.conj(omega) - omega) > TOL:
        return "J is not an involution fixing the vector"
    closed = expect["closed"]
    if closed is not None and np.linalg.norm(delta - closed) > CLOSED_FORM_TOL * max(1.0, float(np.linalg.norm(closed))):
        return "Delta differs from the tensor-factor closed form"
    return None
