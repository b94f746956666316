"""Spacetime reflections across spacelike planes and their factorizations.

A reflection here is a Poincare transformation that squares to the identity,
has unit determinant, reverses the direction of time, and fixes a
two-dimensional spacelike plane pointwise.  Every proper orthochronous
transformation close to such data factors into a product of two reflections
sharing one factor direction; the factorization is pinned down by the polar
decomposition of the linear part.
"""

from __future__ import annotations

import numpy as np

from .errors import NotAdmissible, NotCommuting, PreconditionViolated, ZeroAxis
from .minkowski import (
    METRIC,
    _I4,
    ConjugacyClass,
    FourVector,
    LorentzElement,
    PoincareElement,
    _cross,
    _perpendicular_unit,
    canonical_sign,
    classify_conjugacy,
    frobenius,
    make_boost,
    make_rotation,
    polar_decompose,
)
from .tolerances import resolve_tol
from .wedges import (
    EdgePlane,
    Wedge,
    _edge_plane,
    _frame,
    _normal_projector,
    _null_pair,
)

__all__ = [
    "Reflection",
    "reflection_about_axis",
    "reflection_for_wedge",
    "is_reflection",
    "perpendicular_unit",
    "admissible_directions",
    "factor_into_reflections",
    "stability_group_element",
    "ambiguity_conjugate",
    "verify_ambiguity_classification",
    "reflection_conjugator",
]


_TIME_FLIP = np.diag([-1.0, 1.0, 1.0, 1.0])


class Reflection:
    """An involutive, unit-determinant, time-reversing Poincare element.

    The fixed-point set of such an element is an affine plane; construction
    checks it is two-dimensional and spacelike.
    """

    __slots__ = ("_g", "_plane")

    def __init__(self, element, tol=None, validate=True):
        if validate:
            tol = resolve_tol(tol)
        if not isinstance(element, PoincareElement):
            raise TypeError("expected a PoincareElement")
        self._g = element
        self._plane = None
        if validate:
            self._validate(tol)

    def _validate(self, tol):
        lam = self._g.lorentz.m
        a = self._g.translation.array
        # g * g = (lam lam, a + lam a), the identity test of
        # PoincareElement.is_identity written out.  The round-off of lam lam
        # is about eps |lam|^2: exact reflections reach 460 eps |lam|^2 at
        # rapidity 6-12, and lam times a boost of rapidity 1e-4 at rapidity
        # 6 at least 5.3e5 eps |lam|^2, so 1e3 eps |lam|^2 on top of
        # 100 tol |lam| accepts the one and rejects the other.  The
        # round-off of lam a grows with |lam| |a|, and so does its bound.
        lam_size = frobenius(lam)
        bound = 100 * tol * max(1.0, lam_size) + 1e3 * np.finfo(float).eps * lam_size ** 2
        if not (
            frobenius(lam @ lam, _I4) <= bound
            and frobenius(a + lam @ a) <= 100 * tol * max(1.0, lam_size * frobenius(a))
        ):
            raise PreconditionViolated("element does not square to the identity")
        if lam[0, 0] >= 0:
            raise PreconditionViolated("element does not reverse time orientation")
        # An involution negating k dimensions has trace 4 - 2k and determinant
        # (-1)^k; a reflection has k = 2, and time reversal then makes the
        # negated plane timelike.  The trace carries the round-off of lam,
        # the determinant that of lam^2, too much at high rapidity.
        if abs(np.trace(lam)) > 1.0:
            raise PreconditionViolated(
                "fixed-point set is not a two-dimensional plane"
            )

    def _negated_frame(self):
        """``_frame`` of the negated plane, whose Minkowski projector is
        (1 - lam)/2, and the fixed point a/2 (lam a = -a by g*g = 1)."""
        g = self._g
        return _frame(*_null_pair(0.5 * (_I4 - g.lorentz.m))), 0.5 * g.translation.array

    @property
    def element(self) -> PoincareElement:
        return self._g

    @property
    def fixed_plane(self) -> EdgePlane:
        """The fixed plane: the edge of the frame of the negated plane,
        through a/2.  PreconditionViolated unless (1 - lam)/2 is a Minkowski
        projector onto a timelike plane, to a fixed relative 1e-6."""
        if self._plane is None:
            self._plane = _edge_plane(*self._negated_frame())
        return self._plane

    def apply(self, x: FourVector) -> FourVector:
        return self._g.apply(x)

    def conjugated_by(self, g: PoincareElement) -> "Reflection":
        """The reflection g r g^-1; fixes the g-image of the fixed plane."""
        return Reflection(g @ self._g @ g.inverse(), validate=False)

    def distance_to(self, other: "Reflection") -> float:
        return self._g.distance_to(other._g)

    def __repr__(self):
        return f"Reflection({self._g!r})"


def reflection_about_axis(direction) -> Reflection:
    """Linear reflection that flips time and the given spatial direction.

    Fixes the spatial plane orthogonal to the direction; for the z axis the
    matrix is diag(-1, 1, 1, -1).
    """
    e = _unit_spatial(direction)
    m = _TIME_FLIP.copy()
    m[1:, 1:] -= 2.0 * np.outer(e, e)
    return Reflection(PoincareElement(LorentzElement._product(m)), validate=False)


def reflection_for_wedge(w: Wedge) -> Reflection:
    """The unique reflection whose fixed plane is the edge of the wedge.

    With P the Minkowski projector onto span{l1, l2} of the normals,
    P x = [(l2.x) l1 + (l1.x) l2] / (l1.l2), the reflection is
    x -> (1 - 2P) x + 2P p: it negates span{l1, l2} and fixes the edge
    through p pointwise.
    """
    return _reflection_from_normals(w.l1.array, w.l2.array, w.p.array)


def _reflection_from_normals(l1, l2, p):
    """reflection_for_wedge on the raw normal and edge-point arrays."""
    proj = _normal_projector(l1, l2)
    lam = LorentzElement._product(_I4 - 2.0 * proj)
    return Reflection(PoincareElement(lam, FourVector.from_array(2.0 * proj @ p)), validate=False)


def is_reflection(element, tol=None) -> bool:
    """Whether a Poincare element is a reflection across a spacelike plane."""
    try:
        Reflection(element, tol=tol)
    except (PreconditionViolated, TypeError):
        return False
    return True


def _unit_spatial(direction):
    d = np.asarray(direction, dtype=float).reshape(3)
    n = frobenius(d)
    if n < 1e-12:
        raise ZeroAxis("spatial direction has zero length")
    return d / n


def perpendicular_unit(v):
    """A deterministic unit vector orthogonal to the given spatial vector.

    Picks the coordinate axis least aligned with v, projects out v, and fixes
    the overall sign so the first nonzero component is positive.
    """
    return _perpendicular_unit(_unit_spatial(v))


def admissible_directions(lam: LorentzElement, tol=None):
    """Unit directions orthogonal to both the rotation axis and the boost
    direction of the polar decomposition of lam.

    Returns a pair of candidates.  When both axes are defined and independent
    the direction is unique up to sign and both entries are meaningful cross
    checks; in degenerate cases a deterministic completion is used and the
    second entry is an alternative valid choice.
    """
    pd = polar_decompose(lam, tol)
    return _admissible(pd.axis, pd.boost_dir)


def _admissible(axis, boost_dir):
    """admissible_directions of a unit rotation axis and boost direction."""
    if axis is not None and boost_dir is not None:
        cross = _cross(axis, boost_dir)
        n = frobenius(cross)
        if n > 1e-8:
            e = canonical_sign(cross / n)
            return e, -e
        # parallel axes: anything orthogonal to the common line works
        e1 = perpendicular_unit(axis)
        e2 = _cross(axis, e1)
        return e1, canonical_sign(e2 / frobenius(e2))
    constraint = axis if axis is not None else boost_dir
    if constraint is None:
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    e1 = perpendicular_unit(constraint)
    e2 = _cross(constraint / frobenius(constraint), e1)
    return e1, canonical_sign(e2)


def _direction(pd, direction, tol):
    """The default admissible direction of a polar split, or the explicit
    one, made unit and checked orthogonal to both axes to 100 tol."""
    if direction is None:
        return _admissible(pd.axis, pd.boost_dir)[0]
    e = _unit_spatial(direction)
    if pd.axis is not None and abs(np.dot(e, pd.axis)) > 100 * tol:
        raise NotAdmissible("direction is not orthogonal to the rotation axis")
    if pd.boost_dir is not None and abs(np.dot(e, pd.boost_dir)) > 100 * tol:
        raise NotAdmissible("direction is not orthogonal to the boost direction")
    return e


def _factor(rotation, boost, e):
    """The linear reflections R flip(e) and flip(e) B, where None stands
    for B = 1; R may be any factor whose axis is orthogonal to e."""
    flip = reflection_about_axis(e)
    m = flip.element.lorentz
    first = Reflection(PoincareElement(rotation @ m), validate=False)
    return first, flip if boost is None else Reflection(PoincareElement(m @ boost), validate=False)


def factor_into_reflections(lam: LorentzElement, direction=None, tol=None):
    """Factor a proper orthochronous lam as r1 * r2 with both factors
    reflections about planes orthogonal to a shared spatial direction.

    With R, B the polar factors and e orthogonal to both the rotation axis
    and the boost direction, the factors are R * flip(e) and flip(e) * B,
    where flip(e) is the linear reflection about e.  The product telescopes
    because flip(e) squares to the identity.
    """
    tol = resolve_tol(tol)
    pd = polar_decompose(lam, tol)
    return _factor(pd.rotation, pd.boost, _direction(pd, direction, tol))


def stability_group_element(e0, angle: float, rapidity: float, tol=None) -> LorentzElement:
    """Rotation about e0 composed with a boost along e0.

    These two commute, so the family is abelian with additive parameters; it
    preserves the wedge with direction e0 setwise.
    """
    tol = resolve_tol(tol)
    e = _unit_spatial(e0)
    rot = make_rotation(e, angle, tol)
    boost = make_boost(e, rapidity, tol)
    return rot @ boost


def ambiguity_conjugate(commuting, pair, tol=None):
    """Conjugate both members of a factorization pair by an element that
    commutes with their product.

    Returns (c r1 c^-1, c r2 c^-1); the product of the new pair equals the
    product of the old one, so this walks through the alternative
    factorizations of the same transformation.  NotCommuting is raised when
    the claimed element does not commute with the product.
    """
    tol = resolve_tol(tol)
    r1, r2 = pair
    c = commuting.m if isinstance(commuting, LorentzElement) else np.asarray(commuting, dtype=float)
    prod = (r1.element @ r2.element).lorentz.m
    scale = max(1.0, frobenius(prod))
    if frobenius(c @ prod - prod @ c) > 100 * tol * scale:
        raise NotCommuting("element does not commute with the factored transformation")
    g = PoincareElement(LorentzElement(c, tol=tol, validate=False))
    # conjugate with the numerical inverse rather than the metric transpose:
    # for an input slightly off the group the metric transpose is not its
    # inverse, and the conjugation would amplify that defect by the size of
    # the factors; the true inverse keeps the similarity exact
    g_inv = PoincareElement(LorentzElement(np.linalg.inv(c), validate=False))
    return (
        Reflection(g @ r1.element @ g_inv, validate=False),
        Reflection(g @ r2.element @ g_inv, validate=False),
    )


def _l0_frame(lam: LorentzElement):
    """Orthonormal frame F with F^-1 lam F block-diagonal: a boost in the
    (t, z) block and a rotation in the (x, y) block, for lam not 1.

    X = (lam + lam^-1)/2 - 1 and X = A^2, A = (lam - lam^-1)/2, have double
    eigenvalues cosh chi - 1 and sinh^2 chi on the boost plane, cos theta - 1
    and -sin^2 theta on the rotation plane: mu1,2 = (s1 +- gap)/2 with
    s1 = tr X/2 and gap^2 = tr X^2 - s1^2, and (X - mu2)/gap is the Minkowski
    projector onto the boost plane.  The X with the wider gap is used; A^2
    loses its gap at theta = pi, the first X its digits at small parameters.
    """
    m = lam.m
    inv = METRIC @ m.T @ METRIC
    half = 0.5 * (m - inv)
    splits = []
    for x in (0.5 * (m + inv) - _I4, half @ half):
        s1 = 0.5 * float(np.trace(x))
        splits.append((float(np.sum(x * x.T)) - s1 * s1, s1, x))
    gap_sq, s1, x = max(splits, key=lambda split: split[0])
    gap = np.sqrt(gap_sq)
    f = _frame(*_null_pair((x - 0.5 * (s1 - gap) * _I4) / gap))
    return f[:, [0, 2, 3, 1]]  # (t, x, y, z) -> (tau, u1, u2, sigma)


def _l0_parameters(m):
    """Rotation angle about z and boost rapidity along t-z of a matrix that is
    (approximately) block-diagonal in the (t, z) and (x, y) blocks; the third
    return value is the off-block residual."""
    angle = float(np.arctan2(m[2, 1], m[1, 1]))
    # read the rapidity from the sinh entry: arcsinh never amplifies entry
    # errors, while arctanh of the velocity ratio loses cosh^2 digits once
    # the rapidity is large
    rapidity = float(np.arcsinh(m[3, 0]))
    mask = np.ones((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            mask[i, j] = 0.0
    for i in (1, 2):
        for j in (1, 2):
            mask[i, j] = 0.0
    residual = frobenius(m * mask)
    return angle, rapidity, residual


def _l0_element(angle, rapidity, tol):
    rot = make_rotation([0.0, 0.0, 1.0], angle, tol)
    boost = make_boost([0.0, 0.0, 1.0], rapidity, tol)
    return rot.m @ boost.m


def verify_ambiguity_classification(lam: LorentzElement, trials: int, seed, tol=None):
    """Check that alternative two-reflection factorizations of lam all arise
    from the canonical pair by conjugation inside the group commuting with lam.

    lam must classify as conjugate into the rotation-boost block group (so in
    particular it is not an involution); otherwise PreconditionViolated is
    raised.  Random alternative pairs are produced by conjugating the
    canonical pair with random commuting elements; for each, the conjugator
    carrying the canonical pair onto it is solved for in closed form inside
    the commuting group and the worst reconstruction defect is reported,
    measured relative to the size of the compared factors (conjugation can
    inflate matrix norms arbitrarily, so absolute defects are meaningless).
    """
    tol = resolve_tol(tol)
    kind = classify_conjugacy(lam, tol)
    if kind is not ConjugacyClass.CONJUGATE_INTO_L0:
        raise PreconditionViolated(
            f"classification is {kind.value}; ambiguity analysis needs the rotation-boost class"
        )
    r1, r2 = factor_into_reflections(lam, tol=tol)
    f = _l0_frame(lam)
    f_inv = METRIC @ f.T @ METRIC
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(int(trials)):
        alpha = float(rng.uniform(-np.pi, np.pi))
        beta = float(rng.uniform(-2.0, 2.0))
        commuting = LorentzElement(f @ _l0_element(alpha, beta, tol) @ f_inv, validate=False)
        g1, g2 = ambiguity_conjugate(commuting, (r1, r2), tol=tol)
        # move everything into the block frame; there conjugation by a
        # commuting element d acts as x -> x d^-2, so d^2 is read off from
        # the product of the two factors and halved inside the abelian block
        # group.  The solve and the comparison both happen in that frame:
        # the frame congruence is a bijection of the statements, and going
        # back to world coordinates would only multiply round-off by the
        # squared conditioning of the frame.
        t1 = f_inv @ g1.element.lorentz.m @ f
        t2 = f_inv @ g2.element.lorentz.m @ f
        c1 = f_inv @ r1.element.lorentz.m @ f
        c2 = f_inv @ r2.element.lorentz.m @ f
        d_sq = t1 @ c1
        angle, rapidity, block_res = _l0_parameters(d_sq)
        d = _l0_element(0.5 * angle, 0.5 * rapidity, tol)
        d_inv = _l0_element(-0.5 * angle, -0.5 * rapidity, tol)
        scale = max(1.0, frobenius(t1), frobenius(t2), frobenius(d_sq))
        defect = max(
            frobenius(d @ c1 @ d_inv - t1),
            frobenius(d @ c2 @ d_inv - t2),
            block_res,
        ) / scale
        results.append(defect)
    worst = max(results) if results else 0.0
    return {
        "check": "ambiguity-classification",
        "samples": len(results),
        "max_residual": float(worst),
        "pass": bool(worst <= 1e-8),
    }


def reflection_conjugator(r: Reflection) -> PoincareElement:
    """Poincare element carrying the reflection about the x axis to r: the
    frame map from the standard x-wedge to the wedge of r.  Because a
    reflection is determined by its fixed plane, conjugating the reference
    reflection by the result reproduces r exactly up to roundoff.
    """
    f, point = r._negated_frame()
    return PoincareElement(LorentzElement._product(f), FourVector.from_array(point))
