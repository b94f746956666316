"""Rebuilding a group representation from an involution-valued map on
reflections.

Given a map J that sends every reflection to an involution in a matrix group
(possibly antilinear) and respects conjugation of reflections by reflections,
the functions here extend J to the proper orthochronous Lorentz group, then
to both components of the proper group, and finally to the full proper
Poincare group including translations.  Every extension step is accompanied
by a redundant second evaluation that raises AxiomViolation when the input
map does not actually satisfy the axioms: a Lorentz element takes the pair of
factor_into_reflections, checked against its polar factors, and a translation
by z one reflection negating z, checked against a split of z into two timelike
pieces.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AxiomViolation, BadSpec, DegenerateEdge, NotAdmissible, NotProper, PreconditionViolated
)
from .minkowski import (
    METRIC,
    _I4,
    FourVector,
    LorentzElement,
    PoincareElement,
    make_boost,
    make_rotation,
    polar_decompose,
)
from .reflections import (
    Reflection,
    _admissible,
    _direction,
    _factor,
    reflection_about_axis,
    reflection_conjugator,
)
from .tolerances import resolve_tol

__all__ = [
    "TargetElement",
    "ReflectionMap",
    "builtin_map",
    "random_conjugated_map",
    "reference_reflection",
    "translation_reflection",
    "verify_axioms",
    "v_of_rotation",
    "v_of_boost",
    "v_of_lorentz",
    "v_of_proper",
    "u_translation_fixed_reflection",
    "u_translation",
    "u_poincare",
    "verify_homomorphism",
    "verify_continuity_probe",
]

_CROSS_TOL = 1e-6


class TargetElement:
    """Element of the representation target: a complex matrix together with
    an antilinearity flag, composing with a conjugation twist.

    (U1, a1) . (U2, a2) = (U1 * conj(U2) if a1 else U1 * U2, a1 xor a2)
    """

    __slots__ = ("matrix", "antilinear")

    def __init__(self, matrix, antilinear=False):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("target element needs a square matrix")
        self.matrix = m
        self.antilinear = bool(antilinear)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim), False)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def compose(self, other: "TargetElement") -> "TargetElement":
        rhs = np.conj(other.matrix) if self.antilinear else other.matrix
        return TargetElement(self.matrix @ rhs, self.antilinear ^ other.antilinear)

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "TargetElement":
        inv = np.linalg.inv(self.matrix)
        if self.antilinear:
            inv = np.conj(inv)
        return TargetElement(inv, self.antilinear)

    def distance_to(self, other: "TargetElement") -> float:
        if self.antilinear != other.antilinear:
            return float("inf")
        return float(np.linalg.norm(self.matrix - other.matrix))

    def is_identity(self, tol=1e-9) -> bool:
        return not self.antilinear and float(
            np.linalg.norm(self.matrix - np.eye(self.dim))
        ) <= tol

    def __repr__(self):
        kind = "antilinear" if self.antilinear else "linear"
        return f"TargetElement({kind}, dim={self.dim})"


class ReflectionMap:
    """A map from reflections into the flagged-matrix target group.

    The evaluator must be pure; the descriptor records how the map was built
    so runs can be reproduced from serialized form.
    """

    __slots__ = ("_evaluator", "descriptor", "dim")

    def __init__(self, evaluator, descriptor, dim):
        self._evaluator = evaluator
        self.descriptor = dict(descriptor)
        self.dim = int(dim)

    def __call__(self, reflection: Reflection) -> TargetElement:
        return self._evaluator(reflection)

    def identity(self) -> TargetElement:
        return TargetElement.identity(self.dim)

    def __repr__(self):
        return f"ReflectionMap({self.descriptor!r})"


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_SPIN_FLIP = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def _spin_lift(lam: LorentzElement) -> np.ndarray:
    """An SL(2, C) matrix covering the proper orthochronous lam, via its
    polar factors; the sign choice is irrelevant for conjugation."""
    pd = polar_decompose(lam)
    a = np.eye(2, dtype=complex)
    if pd.axis is not None:
        sig = sum(pd.axis[k] * _PAULI[k] for k in range(3))
        a = np.cos(pd.angle / 2) * np.eye(2) - 1.0j * np.sin(pd.angle / 2) * sig
    b = np.eye(2, dtype=complex)
    if pd.boost_dir is not None:
        sig = sum(pd.boost_dir[k] * _PAULI[k] for k in range(3))
        b = np.cosh(pd.rapidity / 2) * np.eye(2) + np.sinh(pd.rapidity / 2) * sig
    return a @ b


def builtin_map(spec) -> ReflectionMap:
    """Construct one of the built-in reflection maps from its JSON spec.

    tautological: the reflection itself as a real 5x5 affine matrix, flagged
    antilinear.  conjugated: the tautological value conjugated by a fixed
    invertible real matrix G (4x4, acting on the linear block, or full 5x5).
    spinorial-negative: a spin-cover lift whose square is -1 -- deliberately
    not an involution, used as the negative control.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BadSpec("map spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "tautological":
        def evaluate(r: Reflection) -> TargetElement:
            return TargetElement(r.element.affine(), antilinear=True)

        return ReflectionMap(evaluate, {"kind": "tautological"}, 5)
    if kind == "conjugated":
        g = spec.get("G")
        if g is None:
            raise BadSpec("conjugated map needs a 'G' array")
        flat = np.asarray(g, dtype=float).ravel()
        if flat.size == 16:
            ghat = np.eye(5)
            ghat[:4, :4] = flat.reshape(4, 4)
        elif flat.size == 25:
            ghat = flat.reshape(5, 5)
        else:
            raise BadSpec("'G' must contain 16 or 25 reals")
        if not np.all(np.isfinite(ghat)):
            raise BadSpec("'G' entries must be finite")
        if abs(np.linalg.det(ghat)) < 1e-12:
            raise BadSpec("'G' must be invertible")
        ghat_inv = np.linalg.inv(ghat)

        def evaluate(r: Reflection) -> TargetElement:
            return TargetElement(ghat @ r.element.affine() @ ghat_inv, antilinear=True)

        return ReflectionMap(evaluate, {"kind": "conjugated", "G": [float(v) for v in flat]}, 5)
    if kind == "spinorial-negative":
        def evaluate(r: Reflection) -> TargetElement:
            carrier = reflection_conjugator(r).lorentz
            a = _spin_lift(carrier)
            return TargetElement(a @ _SPIN_FLIP @ np.linalg.inv(np.conj(a)), antilinear=True)

        return ReflectionMap(evaluate, {"kind": "spinorial-negative"}, 2)
    raise BadSpec(f"unknown map kind {kind!r}")


def random_conjugated_map(rng) -> ReflectionMap:
    """A conjugated built-in map with a random, well-conditioned 4x4 G.

    The conditioning gate keeps round-off in conjugated values far below the
    verification thresholds while leaving G generic.
    """
    while True:
        g = rng.normal(size=(4, 4))
        if abs(np.linalg.det(g)) >= 0.5 and np.linalg.cond(g) <= 15.0:
            return builtin_map({"kind": "conjugated", "G": [float(v) for v in g.ravel()]})


def reference_reflection() -> Reflection:
    """The fixed reflection used to reach the antichronous component: the
    reflection about the edge of the standard x-direction wedge."""
    return reflection_about_axis([1.0, 0.0, 0.0])


def verify_axioms(J: ReflectionMap, samples: int, seed, threshold=1e-7):
    """Check the two defining relations of a reflection map on random data.

    Per sample: J(r)^2 = 1 and J(r1) J(r2) J(r1) = J(r1 r2 r1) for random
    reflections.  Reports the worst residual; samples = 0 passes vacuously.
    """
    from .sampling import random_reflection

    rng = np.random.default_rng(seed)
    ident = J.identity()
    worst = 0.0
    for _ in range(int(samples)):
        # moderate rapidity: honest maps then sit at the round-off floor,
        # while broken ones fail at order one whatever the sampling breadth
        r1 = random_reflection(rng, max_rapidity=1.0)
        r2 = random_reflection(rng, max_rapidity=1.0)
        j1 = J(r1)
        worst = max(worst, (j1 @ j1).distance_to(ident))
        conjugated = r2.conjugated_by(r1.element)
        lhs = j1 @ J(r2) @ j1
        worst = max(worst, lhs.distance_to(J(conjugated)))
        if not np.isfinite(worst):
            break
    return {
        "check": "reflection-map-axioms",
        "samples": int(samples),
        "max_residual": float(worst),
        "pass": bool(worst <= threshold),
    }


def _crosschecked(value: TargetElement, alt: TargetElement, what) -> TargetElement:
    """value, once a second admissible construction agrees with it;
    AxiomViolation naming what disagreed otherwise."""
    scale = max(1.0, float(np.linalg.norm(value.matrix)))
    if value.distance_to(alt) > _CROSS_TOL * scale:
        raise AxiomViolation(
            f"{what}; the supplied map does not satisfy the reflection-map axioms"
        )
    return value


def _v_of_split(J, lam: LorentzElement, direction, tol) -> TargetElement:
    """V(lam) = J(r1) . J(r2) for the pair r1 = R flip(e), r2 = flip(e) B of
    factor_into_reflections, from the polar split lam = R B.

    An explicit direction is checked and used as is.  The default one is
    cross-checked against V(R) . V(B), each factor F as J(F flip(e')) .
    J(flip(e')), with e' the first of the admissible pair of its axis, or
    the second when the first is +-e.  When R or B has no axis (angle or
    rapidity at most tol) the check takes lam whole, with e' the second of
    the pair whose first is e.
    """
    pd = polar_decompose(lam, tol)
    if direction is None:
        e, other = _admissible(pd.axis, pd.boost_dir)
    else:
        e = _direction(pd, direction, tol)
    r1, r2 = _factor(pd.rotation, pd.boost, e)
    value = J(r1) @ J(r2)
    if direction is not None:
        return value
    if pd.axis is None or pd.boost_dir is None:
        f1, f2 = _factor(lam, None, other)
        return _crosschecked(value, J(f1) @ J(f2), "value depends on the admissible direction")
    alt = []
    for factor, axis in ((pd.rotation, pd.axis), (pd.boost, pd.boost_dir)):
        first, second = _admissible(axis, None)
        f1, f2 = _factor(factor, None, second if abs(float(first @ e)) > 1.0 - 1e-6 else first)
        alt.append(J(f1) @ J(f2))
    return _crosschecked(value, alt[0] @ alt[1], "value depends on the admissible direction")


def v_of_rotation(J: ReflectionMap, rot: LorentzElement, direction=None, tol=None) -> TargetElement:
    """Extend J to a rotation: J(R flip(e)) . J(flip(e)) for admissible e.

    e must be orthogonal to the rotation axis; the default rule picks a
    deterministic one and the result is cross-checked against a second
    admissible choice (AxiomViolation on disagreement).  An explicit
    direction overrides the default, skipping the cross-check.
    PreconditionViolated when the polar split at tol has a boost direction.
    """
    tol = resolve_tol(tol)
    if polar_decompose(rot, tol).boost_dir is not None:
        raise PreconditionViolated("input has a nontrivial boost part")
    return _v_of_split(J, rot, direction, tol)


def v_of_boost(J: ReflectionMap, boost: LorentzElement, direction=None, tol=None) -> TargetElement:
    """Extend J to a boost: J(flip(e)) . J(flip(e) B) for admissible e
    orthogonal to the boost direction; same cross-check policy as rotations.
    PreconditionViolated when the polar split at tol has a rotation axis."""
    tol = resolve_tol(tol)
    if polar_decompose(boost, tol).axis is not None:
        raise PreconditionViolated("input has a nontrivial rotation part")
    return _v_of_split(J, boost, direction, tol)


def v_of_lorentz(J: ReflectionMap, lam: LorentzElement, tol=None) -> TargetElement:
    """Extend J to a proper orthochronous element through the pair of
    factor_into_reflections: V(lam) = J(r1) . J(r2), from the one split of
    lam, cross-checked against V(R) . V(B)."""
    return _v_of_split(J, lam, None, resolve_tol(tol))


def v_of_proper(J: ReflectionMap, g, reference: Reflection | None = None, tol=None) -> TargetElement:
    """Extend J to both components of the proper Lorentz group.

    Orthochronous input delegates to v_of_lorentz; antichronous input g is
    written as g = r0 * (r0 g) with the fixed reference reflection r0, and
    V(g) = J(r0) . V(r0 g).  Restricted to reflections this reproduces J.
    """
    tol = resolve_tol(tol)
    if isinstance(g, Reflection):
        if float(np.linalg.norm(g.element.translation.array)) > 100 * tol:
            raise NotProper("only linear elements live in the Lorentz group")
        g = g.element.lorentz
    if not g.is_proper:
        raise NotProper(f"det = {g.det:.6f} is not +1")
    if g.is_orthochronous:
        return v_of_lorentz(J, g, tol=tol)
    r0 = reference if reference is not None else reference_reflection()
    rest = r0.element.lorentz @ g
    return J(r0) @ v_of_lorentz(J, rest, tol=tol)


def u_translation_fixed_reflection(J: ReflectionMap, refl: Reflection, x: FourVector, tol=None) -> TargetElement:
    """Translation representer from a single reflection family:
    U(x) = J(refl shifted by x) . J(refl), for x negated by the linear part.

    Shifting a reflection by such an x yields another reflection, and the
    two compose to the pure translation by x.
    """
    tol = resolve_tol(tol)
    lam = refl.element.lorentz
    moved = lam.m @ x.array
    scale = max(1.0, float(np.linalg.norm(x.array)))
    if float(np.linalg.norm(moved + x.array)) > 100 * tol * scale:
        raise NotAdmissible("translation is not negated by the reflection")
    shifted = Reflection(
        PoincareElement(lam, FourVector.from_array(refl.element.translation.array + x.array)),
        validate=False,
    )
    return J(shifted) @ J(refl)


def translation_reflection(z: FourVector, companion=None) -> Reflection:
    """A linear reflection negating the timelike vector z.

    The negated plane is spanned by z and a companion spatial axis c; the
    default companion is the coordinate axis least aligned with z, so the
    construction is deterministic.  With a = z.z, b = z.c and d = c.c, the
    Minkowski projector onto the plane is the inverse of its 2x2 Gram matrix,

        P x = [(d (z.x) - b (c.x)) z + (a (c.x) - b (z.x)) c] / (a d - b^2),

    and the reflection is 1 - 2P.  The plane is timelike exactly when
    a d - b^2 < 0; DegenerateEdge is raised otherwise.
    """
    arr = z.array
    if companion is None:
        idx = int(np.argmin(np.abs(arr[1:])))
        companion = np.zeros(4)
        companion[1 + idx] = 1.0
    else:
        companion = np.asarray(companion, dtype=float).reshape(4)
    gz, gc = METRIC @ arr, METRIC @ companion
    a, b, d = float(arr @ gz), float(arr @ gc), float(companion @ gc)
    det = a * d - b * b
    if not det < 0.0:
        raise DegenerateEdge("the plane of z and its companion is not timelike")
    proj = (np.outer(d * arr - b * companion, gz) + np.outer(a * companion - b * arr, gc)) / det
    return Reflection(PoincareElement(LorentzElement._product(_I4 - 2.0 * proj)), validate=False)


def u_translation(J: ReflectionMap, z: FourVector, tol=None) -> TargetElement:
    """Translation representer U(z) = J(r shifted by z) . J(r), with r the
    reflection negating span{z, c}: c is the time axis e0 when
    |z_spatial|^2 >= z.z and the spatial axis least aligned with z otherwise,
    so the plane is timelike.  Cross-checked against the split
    z = (z/2 + t e0) + (z/2 - t e0), t = |z| + 1, each timelike piece through
    its own negating reflection.
    """
    tol = resolve_tol(tol)
    arr = z.array
    norm = float(np.linalg.norm(arr))
    if norm <= 1e3 * tol:
        return J.identity()
    e0, spatial_sq = _I4[0], float(arr[1:] @ arr[1:])
    companion = e0 if spatial_sq >= arr[0] ** 2 - spatial_sq else None
    value = u_translation_fixed_reflection(J, translation_reflection(z, companion), z, tol=tol)
    pieces = [FourVector.from_array(0.5 * arr + s * (norm + 1.0) * e0) for s in (1.0, -1.0)]
    x, minus_y = (u_translation_fixed_reflection(J, translation_reflection(p), p, tol=tol) for p in pieces)
    return _crosschecked(value, x @ minus_y, "translation value depends on the negating reflection")


def u_poincare(J: ReflectionMap, g: PoincareElement, tol=None) -> TargetElement:
    """Full extension to the proper Poincare group:
    U(lam, a) = U(1, a) . V(lam)."""
    tol = resolve_tol(tol)
    if isinstance(g, Reflection):
        g = g.element
    if isinstance(g, LorentzElement):
        g = PoincareElement(g)
    return u_translation(J, g.translation, tol=tol) @ v_of_proper(J, g.lorentz, tol=tol)


def verify_homomorphism(J: ReflectionMap, samples: int, seed, tol=None, threshold=1e-8):
    """Random group-law audit of the extension built from J.

    Rotates through four check shapes: products in the proper Lorentz group
    (both components), products of general Poincare elements, one-parameter
    subgroups of rotations/boosts, and rotation-boost covariance.  A quick
    axiom pre-check short-circuits maps that are not reflection maps
    (reported as a failing run with zero homomorphism samples).
    """
    from .sampling import random_poincare, random_proper, random_unit3

    tol = resolve_tol(tol)
    rng = np.random.default_rng(seed)
    precheck = verify_axioms(J, min(int(samples), 16), rng.integers(2 ** 32))
    if not precheck["pass"]:
        return {
            "check": "homomorphism",
            "samples": 0,
            "max_residual": precheck["max_residual"],
            "pass": False,
        }
    worst = 0.0
    for i in range(int(samples)):
        shape = i % 4
        if shape == 0:
            # moderate rapidities keep the polar re-splits of products far
            # more accurate than the pass threshold
            g1, g2 = random_proper(rng, max_rapidity=2.0), random_proper(rng, max_rapidity=2.0)
            lhs = v_of_proper(J, g1 @ g2, tol=tol)
            rhs = v_of_proper(J, g1, tol=tol) @ v_of_proper(J, g2, tol=tol)
        elif shape == 1:
            g1, g2 = random_poincare(rng, max_rapidity=2.0), random_poincare(rng, max_rapidity=2.0)
            lhs = u_poincare(J, g1 @ g2, tol=tol)
            rhs = u_poincare(J, g1, tol=tol) @ u_poincare(J, g2, tol=tol)
        elif shape == 2:
            axis = random_unit3(rng)
            u, v = rng.uniform(-1.5, 1.5, size=2)
            if i % 8 == 2:
                make = lambda s: make_rotation(axis, s, tol)
                of = lambda m: v_of_rotation(J, m, tol=tol)
            else:
                make = lambda s: make_boost(axis, abs(s), tol)
                of = lambda m: v_of_boost(J, m, tol=tol)
                u, v = abs(u), abs(v)
            lhs = of(make(u + v))
            rhs = of(make(u)) @ of(make(v))
        else:
            rot = make_rotation(random_unit3(rng), float(rng.uniform(0.0, np.pi)), tol)
            boost = make_boost(random_unit3(rng), float(rng.uniform(0.0, 2.5)), tol)
            vr = v_of_rotation(J, rot, tol=tol)
            lhs = vr @ v_of_boost(J, boost, tol=tol) @ vr.inverse()
            rhs = v_of_lorentz(J, rot @ boost @ rot.inverse(), tol=tol)
        worst = max(worst, lhs.distance_to(rhs))
    return {
        "check": "homomorphism",
        "samples": int(samples),
        "max_residual": float(worst),
        "pass": bool(worst <= threshold),
    }


def verify_continuity_probe(J: ReflectionMap, path, steps: int, tol=None):
    """Discrete modulus of continuity of J along a reflection path, plus that
    of the induced family V(r r0) of motions from the first point r0.

    path is a callable on [0, 1] or a sequence of reflections.  The reported
    residual is the largest successive-step distance of J(r) and of V(r r0),
    each V taken as v_of_lorentz takes it (cross-checked, AxiomViolation on
    disagreement); an antilinearity-flag change along the path makes the
    probe fail outright.
    """
    tol = resolve_tol(tol)
    if callable(path):
        points = [path(k / max(int(steps), 1)) for k in range(int(steps) + 1)]
    else:
        points = list(path)
    if not points:
        return {"check": "continuity-probe", "samples": 0, "max_residual": 0.0, "pass": True}
    values = [J(r) for r in points]
    worst = 0.0
    flags_ok = all(v.antilinear == values[0].antilinear for v in values)
    for a, b in zip(values, values[1:]):
        worst = max(worst, a.distance_to(b))
    induced = [_v_of_split(J, (r.element @ points[0].element).lorentz, None, tol) for r in points]
    for a, b in zip(induced, induced[1:]):
        worst = max(worst, a.distance_to(b))
    return {
        "check": "continuity-probe",
        "samples": len(points) - 1,
        "max_residual": float(worst),
        "pass": bool(flags_ok and np.isfinite(worst)),
    }
