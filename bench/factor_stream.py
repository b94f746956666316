"""factor-stream: single Lorentz matrices in, factorisation and wedge answers out.

Each request is one proper orthochronous 4x4 matrix as 16 JSON reals.  The
handler validates it, splits it into rotation times boost, classifies it,
factors it into two reflections and verifies them, maps the standard wedge
about an admissible direction and checks the covariance of its reflection
and of its causal complement, tests that a small double cone inside the
image wedge is strictly inside it, and encodes the answer canonically.

Inputs and the oracle are built with plain numpy so that the check does not
depend on the library it checks.
"""

from __future__ import annotations

import json

import numpy as np

from common import Request, exact_counts, seeded_order
from spans import NULL_TRACER
from wedgegroup import (
    DoubleCone,
    FourVector,
    LorentzElement,
    PoincareElement,
    WedgeGroupError,
    act,
    admissible_directions,
    causal_complement,
    classify_conjugacy,
    factor_into_reflections,
    is_reflection,
    polar_decompose,
    reflection_for_wedge,
    standard_wedge,
    strictly_inside,
    wedges_equal,
)
from wedgegroup.serialization import canonical_dumps, reflection_to_json, wedge_to_json

NAME = "factor-stream"
# requests per second of --seconds; sized so the timed phase lasts about
# --seconds at the commit that defined the benchmark
RATE = 400

# share of each input kind; the identity is one request per run because
# every input is distinct
MIX = {
    "generic": 0.70,
    "high-rapidity": 0.07,
    "pure-boost": 0.05,
    "pure-rotation": 0.05,
    "stability": 0.04,
    "near-pi": 0.03,
    "reject-non-lorentz": 0.02,
    "reject-improper": 0.02,
    "reject-antichronous": 0.02,
}
EXPECTED_ERROR = {
    "reject-non-lorentz": "ValueError",
    "reject-improper": "NotProper",
    "reject-antichronous": "NotOrthochronous",
}

# double cone of radius CONE_R about the point CONE_D * e of the standard
# wedge about e; its image must be strictly inside the image wedge even at
# rapidity 6, where the stability margin of strictly_inside grows fastest
CONE_D, CONE_R = 2.0, 0.25

# oracle tolerance, relative to max(1, |matrix|_F^2)
TOL = 1e-9
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def rotation(axis, angle):
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    out = np.eye(4)
    out[1:, 1:] = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return out


def boost(direction, rapidity):
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    out = np.eye(4)
    out[0, 0] = ch
    out[0, 1:] = out[1:, 0] = sh * direction
    out[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(direction, direction)
    return out


def _matrix(kind, rng):
    if kind == "generic":
        return rotation(unit(rng), rng.uniform(0.0, np.pi)) @ boost(unit(rng), rng.uniform(0.0, 3.0))
    if kind == "high-rapidity":
        return rotation(unit(rng), rng.uniform(0.0, np.pi)) @ boost(unit(rng), rng.uniform(3.0, 6.0))
    if kind == "pure-boost":
        return boost(unit(rng), rng.uniform(0.01, 3.0))
    if kind == "pure-rotation":
        return rotation(unit(rng), rng.uniform(0.01, np.pi - 0.01))
    if kind == "stability":
        axis = unit(rng)
        return rotation(axis, rng.uniform(0.01, np.pi - 0.01)) @ boost(axis, rng.uniform(0.01, 3.0))
    if kind == "near-pi":
        # both branches of the rotation-axis extraction, far from the
        # involution threshold of the conjugacy classification
        lam = rotation(unit(rng), np.pi - 10.0 ** rng.uniform(-7.0, -3.0))
        if rng.uniform() < 0.5:
            lam = lam @ boost(unit(rng), rng.uniform(0.0, 1.0))
        return lam
    base = rotation(unit(rng), rng.uniform(0.0, np.pi)) @ boost(unit(rng), rng.uniform(0.0, 2.0))
    if kind == "reject-non-lorentz":
        return base + rng.normal(scale=1e-2, size=(4, 4))
    if kind == "reject-improper":
        return np.diag([1.0, 1.0, 1.0, -1.0]) @ base
    if kind == "reject-antichronous":
        return -base
    raise ValueError(kind)


def generate(rng, seconds):
    n = max(50, int(round(RATE * seconds)))
    counts = exact_counts(MIX, n - 1)
    counts["identity"] = 1
    kinds = seeded_order(rng, counts)
    requests = []
    for kind in kinds:
        lam = np.eye(4) if kind == "identity" else _matrix(kind, rng)
        text = json.dumps([float(x) for x in lam.ravel()])
        requests.append(Request(text, kind, lam))
    if len({r.text for r in requests}) != len(requests):
        raise RuntimeError("factor-stream inputs must be distinct")
    return requests


def _warmup_requests(rng):
    return [
        Request(json.dumps([float(x) for x in _matrix(kind, rng).ravel()]), kind, None)
        for kind in MIX
    ]


def warm_up(rng):
    for request in _warmup_requests(rng):
        handle(request.text, NULL_TRACER)


def input_record(requests):
    kinds = [r.kind for r in requests]
    return {"requests": len(kinds), "shares": {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))}}


def _fail(exc):
    return canonical_dumps(
        {"payload": {"error": type(exc).__name__, "message": str(exc)}, "status": "fail"}
    )


def handle(text, tr):
    with tr.span("serialization.decode"):
        values = np.asarray(json.loads(text), dtype=float).reshape(4, 4)
    try:
        with tr.span("minkowski.validate"):
            lam = LorentzElement(values)
            lam.require_proper_orthochronous()
    except (WedgeGroupError, ValueError) as exc:
        tr.count("minkowski.validate.rejected")
        with tr.span("serialization.encode"):
            return _fail(exc)
    with tr.span("minkowski.polar"):
        pd = polar_decompose(lam)
    with tr.span("minkowski.classify"):
        cls = classify_conjugacy(lam)
    with tr.span("reflections.factor"):
        e = admissible_directions(lam)[0]
        r1, r2 = factor_into_reflections(lam, direction=e)
    g = PoincareElement(lam)
    with tr.span("reflections.verify"):
        valid = [is_reflection(r1.element), is_reflection(r2.element)]
        residual = (r1.element @ r2.element).distance_to(g)
    with tr.span("wedges.act"):
        w = standard_wedge(e)
        gw = act(g, w)
    with tr.span("reflections.for_wedge"):
        j_gw = reflection_for_wedge(gw)
        covariance = j_gw.distance_to(reflection_for_wedge(w).conjugated_by(g))
    with tr.span("wedges.equal"):
        gw_c = causal_complement(gw)
        with tr.span("wedges.act"):
            g_wc = act(g, causal_complement(w))
        complement_equal = wedges_equal(gw_c, g_wc)
        complement_distinct = not wedges_equal(gw, gw_c)
    with tr.span("wedges.localize"):
        centre = CONE_D * e
        cone = DoubleCone(g.apply(FourVector(-CONE_R, *centre)), g.apply(FourVector(CONE_R, *centre)))
        localized = strictly_inside(cone, gw)
    with tr.span("serialization.encode"):
        payload = {
            "class": cls.value,
            "polar": {
                "axis": None if pd.axis is None else [float(c) for c in pd.axis],
                "angle": pd.angle,
                "boost_dir": None if pd.boost_dir is None else [float(c) for c in pd.boost_dir],
                "rapidity": pd.rapidity,
            },
            "direction": [float(c) for c in e],
            "reflections": [reflection_to_json(r1), reflection_to_json(r2)],
            "is_reflection": valid,
            "residual": residual,
            "wedge": wedge_to_json(gw),
            "wedge_reflection": reflection_to_json(j_gw),
            "covariance_residual": covariance,
            "complement_equal": complement_equal,
            "complement_distinct": complement_distinct,
            "localized": localized,
        }
        return canonical_dumps({"payload": payload, "status": "ok"})


def _affine(data):
    out = np.eye(5)
    out[:4, :4] = np.reshape(data["matrix"], (4, 4))
    out[:4, 4] = data["translation"]
    return out


def _reflection_defect(a):
    """Worst violation of: involution, metric preserved, time reversed,
    fixed set a spacelike plane (trace 0, which with the rest forces det 1)."""
    m = a[:4, :4]
    return max(
        np.linalg.norm(a @ a - np.eye(5)),
        np.linalg.norm(m.T @ ETA @ m - ETA),
        abs(np.trace(m)),
        0.0 if m[0, 0] < 0 else np.inf,
    )


def check(request, text):
    """None when the response is right, else the reason it is wrong."""
    response = json.loads(text)
    payload = response["payload"]
    if request.kind in EXPECTED_ERROR:
        if response["status"] == "fail" and payload["error"] == EXPECTED_ERROR[request.kind]:
            return None
        return f"expected rejection with {EXPECTED_ERROR[request.kind]}"
    if response["status"] != "ok":
        return f"unexpected rejection: {payload.get('error')}"
    lam = request.expect
    scale = max(1.0, float(np.sum(lam * lam)))
    tol = TOL * scale
    expected_class = "identity" if request.kind == "identity" else "conjugate-into-L0"
    if payload["class"] != expected_class:
        return f"class {payload['class']} != {expected_class}"
    polar = payload["polar"]
    r = np.eye(4) if polar["axis"] is None else rotation(np.array(polar["axis"]), polar["angle"])
    b = np.eye(4) if polar["boost_dir"] is None else boost(np.array(polar["boost_dir"]), polar["rapidity"])
    if np.linalg.norm(r @ b - lam) > tol:
        return "polar factors do not reproduce the matrix"
    e = np.array(payload["direction"])
    for constraint in (polar["axis"], polar["boost_dir"]):
        if constraint is not None and abs(e @ np.array(constraint)) > 1e-8:
            return "direction is not admissible"
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        return "direction is not a unit vector"
    factors = [_affine(f) for f in payload["reflections"]]
    if payload["is_reflection"] != [True, True]:
        return "factors reported as non-reflections"
    if any(_reflection_defect(f) > TOL * max(1.0, float(np.sum(f * f))) for f in factors):
        return "a factor is not a reflection"
    target = np.eye(5)
    target[:4, :4] = lam
    if np.linalg.norm(factors[0] @ factors[1] - target) > tol or payload["residual"] > tol:
        return "factor product does not reproduce the matrix"
    wedge = payload["wedge"]
    for key, sign in (("l1", 1.0), ("l2", -1.0)):
        ray = lam @ np.concatenate([[1.0], sign * e])
        if np.linalg.norm(np.array(wedge[key]) - ray / ray[0]) > tol:
            return f"image wedge normal {key} is wrong"
    if np.linalg.norm(wedge["p"]) > tol:
        return "image wedge edge point is wrong"
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    flip[1:, 1:] -= 2.0 * np.outer(e, e)
    expected_j = np.eye(5)
    expected_j[:4, :4] = lam @ flip @ ETA @ lam.T @ ETA
    if np.linalg.norm(_affine(payload["wedge_reflection"]) - expected_j) > tol:
        return "reflection of the image wedge is wrong"
    if payload["covariance_residual"] > tol:
        return "covariance residual too large"
    if payload["complement_equal"] is not True or payload["complement_distinct"] is not True:
        return "causal complement answers are wrong"
    if payload["localized"] is not True:
        return "localisation answer is wrong"
    return None
