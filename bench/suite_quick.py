"""suite-quick: the acceptance suite at the quick level, one run per request.

Untraced, each request is `run_suite(level="quick", parallel=nproc)`, the
repository's only concurrent code path.  Traced, the same checks run one at
a time with the arguments run_suite passes them, each inside its own span,
so the traced wall time also contains the switch from the thread pool to
serial execution.
"""

from __future__ import annotations

import json
import os

from common import Request
from wedgegroup import run_suite, suite
from wedgegroup.serialization import canonical_dumps

NAME = "suite-quick"
RATE = 0.2  # requests per second of --seconds

# (check name, check function, seed offset, level key), in run_suite's order
CHECKS = (
    ("factorization", suite.check_factorization, 1, "factorization"),
    ("ambiguity-classification", suite.check_ambiguity, 2, "ambiguity"),
    ("e-independence", suite.check_e_independence, 3, "e_independence"),
    ("homomorphism", suite.check_homomorphism, 4, "homomorphism"),
    ("translation-extension", suite.check_translation_extension, 5, "translation"),
    ("negative-control", suite.check_negative_control, 6, "negative"),
    ("continuity", suite.check_continuity, 7, "continuity"),
    ("modular-oracle", suite.check_modular, 8, "modular"),
)
# the smallest arguments that run every line of each check once
_WARM = {
    "factorization": dict(samples=2),
    "ambiguity": dict(samples=1, trials=1),
    "e_independence": dict(samples=2, directions=2),
    "homomorphism": dict(samples=4, restriction_samples=1),
    "translation": dict(samples=2),
    "negative": dict(samples=1),
    "continuity": dict(steps=2),
    "modular": dict(samples=1),
}


def workers():
    return os.cpu_count() or 1


def generate(rng, seconds):
    n = max(2, int(round(RATE * seconds)))
    seeds = rng.choice(2**31, size=n, replace=False)
    return [Request(json.dumps({"seed": int(s)}), "quick", None) for s in seeds]


def warm_up(rng):
    seed = int(rng.integers(2**31))
    for _, check, offset, key in CHECKS:
        check(seed + offset, **_WARM[key])


def input_record(requests):
    return {"requests": len(requests), "level": "quick", "parallel": workers()}


def handle(text, tr):
    with tr.span("serialization.decode"):
        seed = int(json.loads(text)["seed"])
    if tr.enabled:
        config = suite._LEVELS["quick"]
        reports = []
        for name, check, offset, key in CHECKS:
            with tr.span(f"suite.{name}"):
                reports.append(check(seed + offset, **config[key]))
    else:
        reports = run_suite(level="quick", seed=seed, parallel=workers())
    with tr.span("serialization.encode"):
        ok = all(r["pass"] for r in reports)
        payload = {"level": "quick", "seed": seed, "reports": reports}
        return canonical_dumps({"payload": payload, "status": "ok" if ok else "fail"})


def check(request, text):
    """None when the response is right, else the reason it is wrong."""
    response = json.loads(text)
    reports = response["payload"]["reports"]
    if [r["check"] for r in reports] != [name for name, *_ in CHECKS]:
        return "the suite did not report every check once, in order"
    failing = [r["check"] for r in reports if r["pass"] is not True]
    if failing or response["status"] != "ok":
        return f"checks failed: {failing}"
    return None
