"""Wedge regions, their edges, causal complements, and inclusion predicates.

A wedge is stored by its two future-lightlike normals l1, l2 (normalized to
time component 1) plus a point p on its edge; membership is the strict pair
of inequalities l1.(x - p) < 0 and l2.(x - p) > 0.  For the standard wedge
about a spatial unit vector e this reduces to  x_spatial . e > |x_t|.  The
causal complement swaps the two normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEdge, PreconditionViolated, ZeroAxis
from .minkowski import (
    METRIC,
    FourVector,
    _cross,
    _norm,
    _perpendicular_unit,
    frobenius,
    classify_vector,
    CausalClass,
    minkowski_inner,
)
from .tolerances import resolve_tol

__all__ = [
    "Wedge",
    "DoubleCone",
    "standard_wedge",
    "act",
    "causal_complement",
    "edge",
    "wedges_equal",
    "strictly_inside",
]


@dataclass(frozen=True)
class EdgePlane:
    """Two-dimensional spacelike affine plane point + span{u1, u2}.

    u1, u2 are Minkowski-orthonormal spacelike directions (u.u = -1) and the
    base point is the representative of the plane Minkowski-orthogonal to
    both directions, so equal planes have equal canonical data up to basis
    rotation in the plane.
    """

    point: FourVector
    u1: FourVector
    u2: FourVector

    def __post_init__(self):
        for u in (self.u1, self.u2):
            if abs(minkowski_inner(u, u) + 1.0) > 1e-6:
                raise DegenerateEdge("edge basis vector is not unit spacelike")
        if abs(minkowski_inner(self.u1, self.u2)) > 1e-6:
            raise DegenerateEdge("edge basis is not orthogonal")

    def point_at(self, s, t):
        return FourVector.from_array(
            self.point.array + s * self.u1.array + t * self.u2.array
        )

    def offplane_residual(self, x):
        """Euclidean norm of the component of x - point off the plane."""
        v = x.array - self.point.array
        v_plane = -minkowski_inner_arr(v, self.u1.array) * self.u1.array
        v_plane = v_plane - minkowski_inner_arr(v, self.u2.array) * self.u2.array
        return float(np.linalg.norm(v - v_plane))

    def contains(self, x, tol=1e-9):
        scale = 1.0 + float(np.linalg.norm(x.array - self.point.array))
        return self.offplane_residual(x) <= tol * scale


def minkowski_inner_arr(a, b):
    return float(a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3])


def _check_normals(l1, l2, tol):
    """ValueError unless arrays l1, l2 are distinct lightlike normals with t = 1."""
    for name, arr in (("l1", l1), ("l2", l2)):
        scale = max(1.0, float(arr @ arr))
        if abs(minkowski_inner_arr(arr, arr)) > 10.0 * tol * scale:
            raise ValueError(f"{name} is not lightlike")
        if abs(arr[0] - 1.0) > 10.0 * tol:
            raise ValueError(f"{name} must be normalized to time component 1")
    if _norm(l1 - l2) <= 1e3 * tol:
        raise ValueError("the two lightlike normals must be distinct")


class Wedge:
    """Open wedge region determined by two lightlike normals and an edge point."""

    __slots__ = ("_l1", "_l2", "_p")

    def __init__(self, l1, l2, p, tol=None):
        _check_normals(l1.array, l2.array, resolve_tol(tol))
        self._l1, self._l2, self._p = l1, l2, p

    @classmethod
    def from_rays(cls, l1, l2, p, tol=None):
        """Build a wedge from unnormalized future-lightlike rays."""
        a1, a2 = _normalized_rays(l1.array, l2.array)
        return cls(FourVector.from_array(a1), FourVector.from_array(a2), p, tol=tol)

    @property
    def l1(self):
        return self._l1

    @property
    def l2(self):
        return self._l2

    @property
    def p(self):
        return self._p

    def margins(self, x):
        """The pair (l1.(x-p), l2.(x-p)); inside means (negative, positive)."""
        d = x.array - self._p.array
        return (
            minkowski_inner_arr(self._l1.array, d),
            minkowski_inner_arr(self._l2.array, d),
        )

    def contains(self, x):
        a, b = self.margins(x)
        return a < 0.0 and b > 0.0

    def __repr__(self):
        return f"Wedge(l1={self._l1!r}, l2={self._l2!r}, p={self._p!r})"


def _normalized_rays(a1, a2):
    """Future-lightlike ray arrays rescaled to time component 1."""
    if a1[0] <= 0 or a2[0] <= 0:
        raise ValueError("normals must be future lightlike")
    return a1 / a1[0], a2 / a2[0]


def _standard_normals(e, tol):
    """Normal arrays (1, e) and (1, -e) of the standard wedge about e."""
    e = np.asarray(e, dtype=float)
    n = _norm(e)
    if n < tol:
        raise ZeroAxis("wedge direction has norm below tolerance")
    e = e / n
    return np.concatenate(([1.0], e)), np.concatenate(([1.0], -e))


def standard_wedge(e, tol=None):
    """Wedge about the spatial unit direction e with edge through the origin."""
    tol = resolve_tol(tol)
    l1, l2 = _standard_normals(e, tol)
    origin = FourVector(0.0, 0.0, 0.0, 0.0)
    return Wedge(FourVector.from_array(l1), FourVector.from_array(l2), origin, tol=tol)


def act(g, w, tol=None):
    """Image of a wedge under a Poincare transformation (orthochronous).

    The transformed normals are rescaled back to time component 1, which
    leaves the defining inequalities unchanged up to positive factors.
    """
    tol = resolve_tol(tol)
    g.lorentz.require_proper_orthochronous(tol)
    m = g.lorentz.m
    l1 = FourVector.from_array(m @ w.l1.array)
    l2 = FourVector.from_array(m @ w.l2.array)
    return Wedge.from_rays(l1, l2, g.apply(w.p), tol=tol)


def causal_complement(w):
    """Swap the two lightlike normals; the edge is shared."""
    return Wedge(w.l2, w.l1, w.p)


def edge(w):
    """Edge plane of a wedge: the set where both defining forms vanish."""
    return _edge_plane(*_wedge_frame(w))


def _edge_plane(f, point):
    """EdgePlane through the point array, spanned by the last two columns of
    a frame from ``_frame``."""
    return EdgePlane(*(FourVector.from_array(a) for a in (point, f[:, 2], f[:, 3])))


def _frame(l1, l2):
    """Proper orthochronous frame [tau, sigma, u1, u2] of the wedge with
    normal arrays l1, l2 (time component 1); u1, u2 span its edge directions.

    With d = n1 - n2 and m = (n1 + n2)/2 from the spatial parts (m.d = 0 and
    |m|^2 + |d|^2/4 = 1): tau = (l1 + l2)/|d|, sigma = (0, d)/|d|,
    u1 = (0, w) with w = unit(d^ x m), or any unit w perpendicular to d when
    m = 0, and u2 = (m.s, s) 2/|d| with s = d^ x w.  As m is parallel to s
    and (d^, w, s) is right-handed, the frame is Minkowski-orthonormal with
    determinant +1.  For the standard x-wedge it is the identity.
    """
    n1, n2 = l1[1:], l2[1:]
    d = n1 - n2
    m = 0.5 * (n1 + n2)
    dn = _norm(d)
    dhat = d / dn
    c = _cross(dhat, m)
    cn = _norm(c)
    # below round-off size m is zero, and every w perpendicular to d works
    w = c / cn if cn > 1e-15 else _perpendicular_unit(dhat)
    s = _cross(dhat, w)
    f = np.zeros((4, 4))
    f[:, 0] = (l1 + l2) / dn
    f[1:, 1] = dhat
    f[1:, 2] = w
    f[0, 3] = 2.0 * float(m @ s) / dn
    f[1:, 3] = (2.0 / dn) * s
    return f


def _normal_projector(l1, l2):
    """Minkowski projector onto span{l1, l2} of the normal arrays of a wedge,

        P x = [(l2.x) l1 + (l1.x) l2] / (l1.l2).

    It fixes both normals and annihilates the edge directions (the
    Minkowski-orthogonal complement of span{l1, l2}), so 1 - P projects onto
    the directions of the edge plane.
    """
    return (np.outer(l1, METRIC @ l2) + np.outer(l2, METRIC @ l1)) / minkowski_inner_arr(l1, l2)


_NOT_PROJECTOR = "not a projector onto a timelike plane"


def _null_pair(q):
    """Normal arrays (time component 1) of the timelike plane onto which q is
    the Minkowski projector, the inverse of ``_normal_projector``: q e_t / q00
    is (l1 + l2)/2, and the rank-one remainder q - (q e_t)(q e_t)^T g / q00
    is sigma sigma^T with sigma = (l1 - l2) sqrt(q00)/2.  PreconditionViolated
    unless q is such a projector, to a fixed relative 1e-6; the message names
    the quantity that failed next to its bound.
    """
    q00 = q[0, 0]
    if not q00 > 0.0:
        raise PreconditionViolated(f"{_NOT_PROJECTOR}: q00 = {q00:.3e}, not > 0")
    col = q[:, 0]
    rest = q - np.outer(col, METRIC @ col) / q00
    k = int(np.argmax(np.diagonal(rest)))
    if not rest[k, k] > 0.0:
        raise PreconditionViolated(f"{_NOT_PROJECTOR}: rest[{k}, {k}] = {rest[k, k]:.3e}, not > 0")
    half = np.zeros(4)
    half[1:] = rest[1:, k] / np.sqrt(rest[k, k] * q00)
    l1, l2 = col / q00 + half, col / q00 - half
    null = max(abs(minkowski_inner_arr(l1, l1)), abs(minkowski_inner_arr(l2, l2)))
    if not null <= 1e-6:
        raise PreconditionViolated(f"{_NOT_PROJECTOR}: null defect {null:.3e}, not <= 1e-6")
    residual = frobenius(_normal_projector(l1, l2), q)
    bound = 1e-6 * max(1.0, frobenius(q))
    if not residual <= bound:
        raise PreconditionViolated(
            f"{_NOT_PROJECTOR}: projector residual {residual:.3e}, not <= {bound:.3e}"
        )
    return l1, l2


def wedges_equal(w1, w2, tol=1e-9):
    """Equality as regions: same normalized normals and the same edge plane.

    Once the normals agree within ``tol``, the edges coincide exactly when
    d = p2 - p1 lies in the edge plane of w1, i.e. when its off-plane part
    P d (P the projector of w1 onto span{l1, l2}) satisfies
    |P d| <= max(tol, 1e-9) * (1 + |d - P d|) in the Euclidean norm.
    """
    if _norm(w1.l1.array - w2.l1.array) > tol:
        return False
    if _norm(w1.l2.array - w2.l2.array) > tol:
        return False
    d = w2.p.array - w1.p.array
    off = _normal_projector(w1.l1.array, w1.l2.array) @ d
    bound = max(tol, 1e-9) * (1.0 + _norm(d - off))
    return bool(_norm(off) <= bound)


class DoubleCone:
    """Open intersection of a forward and a backward light cone."""

    __slots__ = ("_past", "_future")

    def __init__(self, apex_past, apex_future, tol=None):
        d = apex_future - apex_past
        if classify_vector(d, tol) is not CausalClass.TIMELIKE_FUTURE:
            raise ValueError("apexes must be separated by a future timelike vector")
        self._past, self._future = apex_past, apex_future

    @property
    def apex_past(self):
        return self._past

    @property
    def apex_future(self):
        return self._future

    @property
    def center(self):
        return FourVector.from_array(0.5 * (self._past.array + self._future.array))

    def contains(self, x):
        up = x - self._past
        down = self._future - x
        return (
            minkowski_inner(up, up) > 0.0
            and up.t > 0.0
            and minkowski_inner(down, down) > 0.0
            and down.t > 0.0
        )


def strictly_inside(c, w, neighborhood=1e-6):
    """True iff the closed double cone c stays inside every wedge within the
    neighborhood nu of w: every point x of c has l1.(x - p) <= -2 nu (1 + |x - p|)
    and l2.(x - p) >= 2 nu (1 + |x - p|).

    Both normals are future lightlike, so over the closed cone l1.x is largest
    at the future apex and l2.x smallest at the past apex.  The cone is the
    convex hull of its apexes and its equator, all within |future - past|/2
    of the centre in the Euclidean norm, so by the triangle inequality
    reach = 1 + |centre - p| + |future - past|/2 bounds 1 + |x - p|.  With
    m = 2 nu reach the test is l1.(future - p) <= -m and l2.(past - p) >= m.
    """
    parr = w.p.array
    past, future = c.apex_past.array, c.apex_future.array
    half = 0.5 * (future - past)
    reach = 1.0 + _norm(past + half - parr) + _norm(half)
    m = 2.0 * neighborhood * reach
    return bool(
        minkowski_inner_arr(w.l1.array, future - parr) <= -m
        and minkowski_inner_arr(w.l2.array, past - parr) >= m
    )


def _wedge_frame(w):
    """``_frame`` of a wedge, and the point of its edge Minkowski-orthogonal
    to the edge directions."""
    l1, l2 = w.l1.array, w.l2.array
    return _frame(l1, l2), _normal_projector(l1, l2) @ w.p.array
