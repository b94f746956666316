"""Composable acceptance checks bundled for the command-line suite.

Each check returns a uniform report dict; run_suite executes all of them,
one after another, at a chosen effort level (every check is pure and
independently seeded).
"""

from __future__ import annotations

import numpy as np

from .minkowski import FourVector, PoincareElement, frobenius, make_boost, make_rotation
from .modular import (
    block_factor_algebra,
    entangled_vector,
    modular_data,
    random_algebra_with_vector,
    verify_modular_relations,
)
from .reconstruction import (
    builtin_map,
    random_conjugated_map,
    translation_reflection,
    u_translation,
    u_translation_fixed_reflection,
    v_of_boost,
    v_of_proper,
    v_of_rotation,
    verify_axioms,
    verify_homomorphism,
)
from .reflections import (
    factor_into_reflections,
    is_reflection,
    perpendicular_unit,
    reflection_about_axis,
    stability_group_element,
    verify_ambiguity_classification,
)
from .sampling import random_lorentz, random_reflection, random_unit3

__all__ = ["run_suite", "SUITE_CHECKS"]


def _report(check, samples, max_residual, ok):
    return {
        "check": check,
        "samples": int(samples),
        "max_residual": float(max_residual),
        "pass": bool(ok),
    }


def check_factorization(seed, samples):
    """Every sampled proper orthochronous element splits into two valid
    reflections whose product reproduces it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(samples):
        lam = make_rotation(random_unit3(rng), float(rng.uniform(0.0, np.pi))) @ make_boost(
            random_unit3(rng), float(rng.uniform(0.0, 3.0))
        )
        r1, r2 = factor_into_reflections(lam)
        residual = frobenius((r1.element @ r2.element).lorentz.m - lam.m)
        worst = max(worst, residual)
        if not (is_reflection(r1.element, tol=1e-9) and is_reflection(r2.element, tol=1e-9)):
            ok = False
    return _report("factorization", samples, worst, ok and worst <= 1e-9)


def check_ambiguity(seed, samples, trials):
    """Alternative factorizations all come from commuting-group conjugation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(samples):
        theta = float(rng.uniform(0.15, np.pi - 0.15))
        chi = float(rng.uniform(0.15, 2.0))
        core = stability_group_element(random_unit3(rng), theta, chi)
        g = random_lorentz(rng, max_rapidity=2.0)
        lam = g @ core @ g.inverse()
        report = verify_ambiguity_classification(
            lam, trials, int(rng.integers(2 ** 32))
        )
        worst = max(worst, report["max_residual"])
        ok = ok and report["pass"]
    return _report("ambiguity-classification", samples, worst, ok and worst <= 1e-8)


def check_e_independence(seed, samples, directions=10):
    """The rotation/boost extension does not depend on the admissible
    direction, across a fan of explicit choices and two built-in maps."""
    rng = np.random.default_rng(seed)
    maps = [builtin_map({"kind": "tautological"}), random_conjugated_map(rng)]
    worst = 0.0
    for k in range(samples):
        axis = random_unit3(rng)
        e1 = perpendicular_unit(axis)
        e2 = np.cross(axis, e1)
        angles = np.linspace(0.0, np.pi, directions, endpoint=False)
        if k % 2 == 0:
            element = make_rotation(axis, float(rng.uniform(0.1, np.pi - 0.1)))
            evaluate = v_of_rotation
        else:
            element = make_boost(axis, float(rng.uniform(0.1, 2.5)))
            evaluate = v_of_boost
        for jmap in maps:
            values = [
                evaluate(jmap, element, direction=np.cos(a) * e1 + np.sin(a) * e2)
                for a in angles
            ]
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    worst = max(worst, values[i].distance_to(values[j]))
    return _report("e-independence", samples, worst, worst <= 1e-9)


def check_homomorphism(seed, samples, restriction_samples):
    """Group law on both components plus translations, and the restriction
    of the extension back to reflections, across six maps."""
    rng = np.random.default_rng(seed)
    maps = [builtin_map({"kind": "tautological"})]
    maps += [random_conjugated_map(rng) for _ in range(5)]
    per_map = max(1, samples // len(maps))
    per_map_restriction = max(1, restriction_samples // len(maps))
    worst = 0.0
    ok = True
    for jmap in maps:
        report = verify_homomorphism(jmap, per_map, int(rng.integers(2 ** 32)))
        worst = max(worst, report["max_residual"])
        ok = ok and report["pass"]
        for _ in range(per_map_restriction):
            base = reflection_about_axis(random_unit3(rng))
            mover = PoincareElement(random_lorentz(rng, max_rapidity=1.5))
            refl = base.conjugated_by(mover)
            restricted = v_of_proper(jmap, refl.element.lorentz)
            ok = ok and restricted.distance_to(jmap(refl)) <= 1e-10
    return _report("homomorphism", samples, worst, ok and worst <= 1e-8)


def _random_future_timelike(rng, scale=2.0):
    space = rng.normal(scale=scale, size=3)
    margin = float(rng.uniform(0.3, 2.0))
    t = np.sqrt(float(space @ space)) + margin
    return FourVector.from_array(np.concatenate([[t], space]))


def check_translation_extension(seed, samples):
    """Additivity, inverses, independence of all the choices made in the
    translation construction, and Lorentz covariance."""
    rng = np.random.default_rng(seed)
    maps = [builtin_map({"kind": "tautological"}), random_conjugated_map(rng)]
    per_map = max(1, samples // len(maps))
    worst = 0.0
    for jmap in maps:
        ident = jmap.identity()
        for i in range(per_map):
            z1 = FourVector.from_array(rng.normal(scale=2.0, size=4))
            z2 = FourVector.from_array(rng.normal(scale=2.0, size=4))
            lhs = u_translation(jmap, z1) @ u_translation(jmap, z2)
            rhs = u_translation(jmap, z1 + z2)
            worst = max(worst, lhs.distance_to(rhs))

            x = _random_future_timelike(rng)
            round_trip = u_translation(jmap, x) @ u_translation(jmap, -x)
            worst = max(worst, round_trip.distance_to(ident))

            # the same timelike translation through a random negating plane
            companion = np.concatenate([[0.0], random_unit3(rng)])
            if abs(np.dot(companion[1:], x.array[1:])) < 0.99 * np.linalg.norm(x.array[1:]):
                via_random = u_translation_fixed_reflection(
                    jmap, translation_reflection(x, companion=companion), x
                )
                worst = max(worst, via_random.distance_to(u_translation(jmap, x)))

            # alternative split of a general vector into timelike pieces
            shift = _random_future_timelike(rng, scale=1.0)
            t_extra = float(np.linalg.norm(z1.array)) + 1.0
            head = FourVector.from_array(
                0.5 * z1.array + shift.array + np.array([t_extra, 0, 0, 0])
            )
            tail = FourVector.from_array(
                -0.5 * z1.array + shift.array + np.array([t_extra, 0, 0, 0])
            )
            alt = u_translation(jmap, head) @ u_translation(jmap, -tail)
            worst = max(worst, alt.distance_to(u_translation(jmap, z1)))

            lam = random_lorentz(rng, max_rapidity=2.0)
            v = v_of_proper(jmap, lam)
            conjugated = v @ u_translation(jmap, x) @ v.inverse()
            worst = max(worst, conjugated.distance_to(u_translation(jmap, lam.apply(x))))
    return _report("translation-extension", samples, worst, worst <= 1e-8)


def check_negative_control(seed, samples):
    """The deliberately projective lift must fail the axiom audit with an
    involution defect of order one."""
    rng = np.random.default_rng(seed)
    jmap = builtin_map({"kind": "spinorial-negative"})
    report = verify_axioms(jmap, samples, seed)
    r = random_reflection(rng)
    value = jmap(r)
    involution_residual = (value @ value).distance_to(jmap.identity())
    ok = (not report["pass"]) and involution_residual >= 1.0
    return _report("negative-control", samples, involution_residual, ok)


def check_continuity(seed, steps=20):
    """Boost families with halving rapidity map to elements converging
    monotonically to the identity, however the admissible direction moves."""
    rng = np.random.default_rng(seed)
    jmap = builtin_map({"kind": "tautological"})
    axis = random_unit3(rng)
    e1 = perpendicular_unit(axis)
    e2 = np.cross(axis, e1)
    ident = jmap.identity()
    distances = []
    for k in range(1, steps + 1):
        angle = 2.399963229728653 * k  # golden-angle sweep of the direction
        direction = np.cos(angle) * e1 + np.sin(angle) * e2
        boost = make_boost(axis, 2.0 ** (-k))
        value = v_of_boost(jmap, boost, direction=direction)
        distances.append(value.distance_to(ident))
    monotone = all(b < a for a, b in zip(distances, distances[1:]))
    final = distances[-1]
    return _report("continuity", steps, final, monotone and final < 1e-5)


def check_modular(seed, samples):
    """Random modular pairs satisfy the construction invariants and duality;
    the tensor-factor closed form is reproduced."""
    rng = np.random.default_rng(seed)
    pairs = [random_algebra_with_vector(rng) for _ in range(samples)]
    report = verify_modular_relations(pairs, samples=1)
    worst = report["max_residual"]
    ok = report["pass"]
    for n in (2, 3):
        weights = rng.uniform(0.2, 1.0, size=n)
        weights = weights / np.sum(weights)
        algebra = block_factor_algebra(n, side="left")
        omega = entangled_vector(weights)
        md = modular_data(algebra, omega)
        rho = np.diag(weights.astype(complex))
        closed_form = np.kron(rho, np.linalg.inv(rho))
        defect = float(np.linalg.norm(md.delta - closed_form))
        ok = ok and defect <= 1e-9
        worst = max(worst, defect)
    return _report("modular-oracle", samples, worst, ok)


_LEVELS = {
    "full": {
        "factorization": dict(samples=10000),
        "ambiguity": dict(samples=100, trials=10),
        "e_independence": dict(samples=1000),
        "homomorphism": dict(samples=10000, restriction_samples=1000),
        "translation": dict(samples=1000),
        "negative": dict(samples=32),
        "continuity": dict(steps=20),
        "modular": dict(samples=100),
    },
    "quick": {
        "factorization": dict(samples=1000),
        "ambiguity": dict(samples=10, trials=5),
        "e_independence": dict(samples=60),
        "homomorphism": dict(samples=600, restriction_samples=120),
        "translation": dict(samples=100),
        "negative": dict(samples=8),
        "continuity": dict(steps=20),
        "modular": dict(samples=10),
    },
}

SUITE_CHECKS = (
    "factorization",
    "ambiguity-classification",
    "e-independence",
    "homomorphism",
    "translation-extension",
    "negative-control",
    "continuity",
    "modular-oracle",
)


def run_suite(level="full", seed=42, parallel=None, force_fail=False):
    """Run every acceptance check in a fixed order; returns their reports.

    ``parallel`` is accepted and ignored: the checks are pure Python, so a
    thread pool ran them slower than serial, and the output is the same for
    any value.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}")
    cfg = _LEVELS[level]
    base = int(seed)
    reports = [
        check_factorization(base + 1, **cfg["factorization"]),
        check_ambiguity(base + 2, **cfg["ambiguity"]),
        check_e_independence(base + 3, **cfg["e_independence"]),
        check_homomorphism(base + 4, **cfg["homomorphism"]),
        check_translation_extension(base + 5, **cfg["translation"]),
        check_negative_control(base + 6, **cfg["negative"]),
        check_continuity(base + 7, **cfg["continuity"]),
        check_modular(base + 8, **cfg["modular"]),
    ]
    if force_fail:
        reports.append(_report("forced-failure", 0, 1.0, False))
    return reports
