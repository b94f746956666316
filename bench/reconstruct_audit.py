"""reconstruct-audit: reflection-map audits answered the way `wedgegroup
reconstruct` answers them.

Each request is a map spec plus a sample count and a seed.  The handler
builds the map, runs the axiom audit and the group-law audit (which stops
early when its axiom precheck fails), and encodes the two reports.
"""

from __future__ import annotations

import json

import numpy as np

from common import Request, exact_counts, seeded_order
from spans import NULL_TRACER
from wedgegroup import WedgeGroupError, builtin_map, verify_axioms, verify_homomorphism
from wedgegroup.serialization import canonical_dumps

NAME = "reconstruct-audit"
RATE = 8  # requests per second of --seconds

MIX = {"conjugated": 0.55, "tautological": 0.30, "spinorial-negative": 0.15}
# sample counts per request span a decade; each map kind gets its own
# log-spaced ladder so every seed draws the same amount of work
MIN_SAMPLES, MAX_SAMPLES = 6, 60

# the audits' own pass thresholds, and the order-one defect the negative
# control must show
AXIOM_THRESHOLD, HOMOMORPHISM_THRESHOLD = 1e-7, 1e-8


def _ladder(count):
    if count == 1:
        return [MIN_SAMPLES]
    ratio = MAX_SAMPLES / MIN_SAMPLES
    return [int(round(MIN_SAMPLES * ratio ** (i / (count - 1)))) for i in range(count)]


def _conjugator(rng):
    # well conditioned, so honest maps stay at the round-off floor
    while True:
        g = rng.normal(size=(4, 4))
        if abs(np.linalg.det(g)) >= 0.5 and np.linalg.cond(g) <= 15.0:
            return [float(v) for v in g.ravel()]


def _request(kind, samples, rng):
    spec = {"kind": kind}
    if kind == "conjugated":
        spec["G"] = _conjugator(rng)
    body = {"spec": spec, "samples": int(samples), "seed": int(rng.integers(2**32))}
    return Request(json.dumps(body), kind, int(samples))


def generate(rng, seconds):
    n = max(20, int(round(RATE * seconds)))
    counts = exact_counts(MIX, n)
    ladders = {k: list(rng.permutation(_ladder(c))) for k, c in counts.items()}
    return [_request(kind, ladders[kind].pop(), rng) for kind in seeded_order(rng, counts)]


def _warmup_requests(rng):
    return [_request(kind, 4, rng) for kind in MIX]


def warm_up(rng):
    for request in _warmup_requests(rng):
        handle(request.text, NULL_TRACER)


def input_record(requests):
    kinds = [r.kind for r in requests]
    samples = [r.expect for r in requests]
    return {
        "requests": len(kinds),
        "shares": {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))},
        "samples": {"min": min(samples), "max": max(samples), "total": sum(samples)},
    }


def handle(text, tr):
    with tr.span("serialization.decode"):
        body = json.loads(text)
        spec, samples, seed = body["spec"], int(body["samples"]), int(body["seed"])
    with tr.span("reconstruction.build_map"):
        jmap = builtin_map(spec)
    with tr.span("reconstruction.axioms"):
        axioms = verify_axioms(jmap, samples, seed)
    tr.count("reconstruction.axioms.samples", axioms["samples"])
    with tr.span("reconstruction.homomorphism"):
        try:
            homomorphism = verify_homomorphism(jmap, samples, seed)
        except WedgeGroupError:
            homomorphism = {"check": "homomorphism", "samples": 0, "max_residual": 1.0, "pass": False}
    tr.count("reconstruction.homomorphism.samples", homomorphism["samples"])
    if samples and not homomorphism["samples"]:
        tr.count("reconstruction.homomorphism.short_circuit")
    with tr.span("serialization.encode"):
        status = "ok" if axioms["pass"] and homomorphism["pass"] else "fail"
        return canonical_dumps(
            {"payload": {"axioms": axioms, "homomorphism": homomorphism}, "status": status}
        )


def check(request, text):
    """None when the response is right, else the reason it is wrong."""
    response = json.loads(text)
    axioms = response["payload"]["axioms"]
    homomorphism = response["payload"]["homomorphism"]
    samples = request.expect
    if axioms["samples"] != samples:
        return "axiom audit ran the wrong number of samples"
    if request.kind == "spinorial-negative":
        if response["status"] != "fail" or axioms["pass"] or axioms["max_residual"] < 1.0:
            return "negative control passed the axiom audit"
        if homomorphism["pass"] or homomorphism["samples"] != 0:
            return "negative control was not stopped by the axiom precheck"
        return None
    if response["status"] != "ok":
        return "honest map failed its audit"
    if not (axioms["pass"] and axioms["max_residual"] <= AXIOM_THRESHOLD):
        return "honest map failed the axiom audit"
    if not (homomorphism["pass"] and homomorphism["max_residual"] <= HOMOMORPHISM_THRESHOLD):
        return "honest map failed the group-law audit"
    if homomorphism["samples"] != samples:
        return "group-law audit ran the wrong number of samples"
    return None
