"""Four-vector algebra and matrix-level Lorentz / Poincare group elements.

Conventions
-----------
Metric signature (+, -, -, -), components ordered (t, x, y, z).  Rotations
are counterclockwise about their axis; boosts are parametrized by rapidity,
which is additive along a fixed direction.  Canonical rotation angles lie in
[0, pi]; at angle pi the axis sign is fixed by making its first nonzero
component positive.  Rapidity is reported >= 0 together with a unit boost
direction.  Axes of the identity (angle 0, rapidity 0) are undefined and
reported as ``None``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotOrthochronous, NotProper, ZeroAxis
from .tolerances import resolve_tol

__all__ = [
    "METRIC",
    "FourVector",
    "LorentzElement",
    "PoincareElement",
    "PolarData",
    "CausalClass",
    "ConjugacyClass",
    "minkowski_inner",
    "classify_vector",
    "polar_decompose",
    "make_rotation",
    "make_boost",
    "classify_conjugacy",
    "frobenius",
]

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
_METRIC_SIGNS = np.diag(METRIC).copy()
_I4 = np.eye(4)

# sin(theta) below which the rotation axis is extracted from the symmetric
# part of the matrix (near-pi branch) instead of the antisymmetric part.
_PI_BRANCH_SIN = 1e-6


def frobenius(a, b=None):
    """Frobenius distance between two matrices (or norm of one)."""
    a = np.asarray(a, dtype=float)
    if b is not None:
        a = a - np.asarray(b, dtype=float)
    return _norm(a)


def _norm(a):
    # np.linalg.norm's own reduction for real input (ravel, dot, sqrt),
    # without its argument handling
    a = a.ravel(order="K")
    return math.sqrt(float(a.dot(a)))


def _finite_floats(values, shape, name):
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


class FourVector:
    """Point or direction in Minkowski space with components (t, x, y, z)."""

    __slots__ = ("_v",)

    def __init__(self, t, x, y, z):
        v = _finite_floats([t, x, y, z], (4,), "four-vector")
        v.setflags(write=False)
        self._v = v

    @classmethod
    def from_array(cls, values):
        v = _finite_floats(values, (4,), "four-vector")
        v.setflags(write=False)
        out = cls.__new__(cls)
        out._v = v
        return out

    @property
    def array(self):
        """Read-only length-4 numpy view (t, x, y, z)."""
        return self._v

    @property
    def t(self):
        return float(self._v[0])

    @property
    def x(self):
        return float(self._v[1])

    @property
    def y(self):
        return float(self._v[2])

    @property
    def z(self):
        return float(self._v[3])

    def inner(self, other):
        return minkowski_inner(self, other)

    def __add__(self, other):
        return FourVector.from_array(self._v + other._v)

    def __sub__(self, other):
        return FourVector.from_array(self._v - other._v)

    def __neg__(self):
        return FourVector.from_array(-self._v)

    def __mul__(self, scalar):
        return FourVector.from_array(self._v * float(scalar))

    __rmul__ = __mul__

    def isclose(self, other, tol=1e-12):
        return bool(np.max(np.abs(self._v - other._v)) <= tol)

    def to_list(self):
        return [float(c) for c in self._v]

    def __repr__(self):
        t, x, y, z = self._v
        return f"FourVector({t!r}, {x!r}, {y!r}, {z!r})"


ZERO_VECTOR = FourVector(0.0, 0.0, 0.0, 0.0)


def minkowski_inner(a, b):
    """Minkowski inner product a.b with signature (+,-,-,-)."""
    av, bv = a.array, b.array
    return float(av[0] * bv[0] - av[1] * bv[1] - av[2] * bv[2] - av[3] * bv[3])


class CausalClass(enum.Enum):
    TIMELIKE_FUTURE = "timelike-future"
    TIMELIKE_PAST = "timelike-past"
    LIGHTLIKE_FUTURE = "lightlike-future"
    LIGHTLIKE_PAST = "lightlike-past"
    SPACELIKE = "spacelike"
    ZERO = "zero"


def classify_vector(v, tol=None):
    """Causal class of a four-vector.

    The lightlike decision uses |v.v| <= tol * max(1, |v|^2_euclid) so the
    test is scale-aware; the zero class applies when every component is
    below tolerance.
    """
    tol = resolve_tol(tol)
    arr = v.array
    if np.max(np.abs(arr)) <= tol:
        return CausalClass.ZERO
    q = minkowski_inner(v, v)
    scale = max(1.0, float(arr @ arr))
    if abs(q) <= tol * scale:
        return CausalClass.LIGHTLIKE_FUTURE if arr[0] > 0 else CausalClass.LIGHTLIKE_PAST
    if q > 0:
        return CausalClass.TIMELIKE_FUTURE if arr[0] > 0 else CausalClass.TIMELIKE_PAST
    return CausalClass.SPACELIKE


class LorentzElement:
    """Real 4x4 matrix m with m^T g m = g (validated on construction).

    Both determinant signs and both time orientations are admitted; use
    ``is_proper`` / ``is_orthochronous`` to classify.
    """

    __slots__ = ("_m", "_det", "_polar")

    def __init__(self, matrix, tol=None, validate=True):
        m = np.array(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"Lorentz matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("Lorentz matrix must have finite entries")
        if validate:
            tol = resolve_tol(tol)
            # (m^T * signs) is m^T g entry for entry, without the zeros
            defect = _norm((m.T * _METRIC_SIGNS) @ m - METRIC)
            # the defect of a rounded Lorentz matrix grows with |m|^2
            flat = m.ravel()
            scale = max(1.0, float(flat.dot(flat)))
            if defect > 10.0 * tol * scale:
                raise ValueError(f"matrix does not preserve the metric (defect {defect:.3e})")
        m.setflags(write=False)
        self._m = m
        self._det = None
        self._polar = None

    @classmethod
    def _product(cls, m):
        """Wrap a freshly computed product of Lorentz matrices: it is 4x4
        and owned by the caller, so only finiteness is checked; the metric
        check of its factors stands for its own."""
        if not np.isfinite(m).all():
            raise ValueError("Lorentz matrix must have finite entries")
        m.setflags(write=False)
        out = cls.__new__(cls)
        out._m = m
        out._det = None
        out._polar = None
        return out

    @classmethod
    def identity(cls):
        return cls(_I4, validate=False)

    @property
    def m(self):
        """Read-only 4x4 numpy view."""
        return self._m

    @property
    def det(self):
        if self._det is None:
            self._det = float(np.linalg.det(self._m))
        return self._det

    @property
    def is_proper(self):
        return self.det > 0.0

    @property
    def is_orthochronous(self):
        # |m00| >= 1 for every Lorentz matrix, so the sign is decisive.
        return self._m[0, 0] > 0.0

    def require_proper_orthochronous(self, tol=None):
        tol = resolve_tol(tol)
        # det = +-1 once the metric check has passed (for a ``_product`` or
        # validate=False element, its factors'), and its round-off grows like
        # e^(2 chi) with the rapidity chi, so the sign decides
        if not self.is_proper:
            raise NotProper(f"determinant {self.det:.6f} != +1")
        if self._m[0, 0] < 1.0 - 10.0 * tol:
            raise NotOrthochronous(f"m00 = {self._m[0, 0]:.6f} < 1")

    def inverse(self):
        # Group inverse g m^T g; exact up to the input's own metric defect.
        return LorentzElement._product(METRIC @ self._m.T @ METRIC)

    def apply(self, v):
        return FourVector.from_array(self._m @ v.array)

    def __matmul__(self, other):
        return LorentzElement._product(self._m @ other._m)

    def distance_to(self, other):
        return frobenius(self._m, other._m)

    def isclose(self, other, tol=1e-9):
        return self.distance_to(other) <= tol

    def __repr__(self):
        return f"LorentzElement({self._m.tolist()!r})"


class PoincareElement:
    """Affine isometry x -> m x + a with m Lorentz and a a four-vector."""

    __slots__ = ("_lorentz", "_translation")

    def __init__(self, lorentz, translation=None):
        if not isinstance(lorentz, LorentzElement):
            lorentz = LorentzElement(lorentz)
        self._lorentz = lorentz
        self._translation = ZERO_VECTOR if translation is None else translation

    @classmethod
    def identity(cls):
        return cls(LorentzElement.identity(), ZERO_VECTOR)

    @classmethod
    def from_translation(cls, a):
        return cls(LorentzElement.identity(), a)

    @property
    def lorentz(self):
        return self._lorentz

    @property
    def translation(self):
        return self._translation

    def apply(self, v):
        return FourVector.from_array(self._lorentz.m @ v.array + self._translation.array)

    def __matmul__(self, other):
        """Composition (m1, a1)(m2, a2) = (m1 m2, a1 + m1 a2)."""
        lor = self._lorentz @ other._lorentz
        shift = FourVector.from_array(
            self._translation.array + self._lorentz.m @ other._translation.array
        )
        return PoincareElement(lor, shift)

    def inverse(self):
        inv = self._lorentz.inverse()
        return PoincareElement(inv, FourVector.from_array(-(inv.m @ self._translation.array)))

    def affine(self):
        """Homogeneous 5x5 matrix [[m, a], [0, 1]]."""
        out = np.zeros((5, 5))
        out[:4, :4] = self._lorentz.m
        out[:4, 4] = self._translation.array
        out[4, 4] = 1.0
        return out

    def is_identity(self, tol=1e-9):
        return (
            frobenius(self._lorentz.m, _I4) <= tol
            and _norm(self._translation.array) <= tol
        )

    def distance_to(self, other):
        return float(np.linalg.norm(self.affine() - other.affine()))

    def __repr__(self):
        return f"PoincareElement({self._lorentz!r}, {self._translation!r})"


@dataclass(frozen=True)
class PolarData:
    """Unique factorization lam = rotation . boost of a proper orthochronous
    element, together with axis/angle and direction/rapidity parameters.
    ``axis`` and ``boost_dir`` are read-only unit 3-vectors (or None)."""

    rotation: LorentzElement
    boost: LorentzElement
    axis: np.ndarray | None
    angle: float
    boost_dir: np.ndarray | None
    rapidity: float


def canonical_sign(v, tol=1e-8):
    """Flip v so that its first component exceeding tol is positive."""
    for c in v:
        if abs(c) > tol:
            return v if c > 0 else -v
    return v


def _cross(a, b):
    """Cross product of two spatial 3-vectors, term for term as np.cross."""
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def _perpendicular_unit(v):
    """``perpendicular_unit`` for a spatial vector v that is already unit."""
    mags = np.abs(v)
    # first coordinate within tolerance of the smallest, so that round-off
    # dust in v cannot flip the tie-break between exact zeros
    pick = int(np.argmax(mags < mags.min() + 1e-9))
    axis = np.zeros(3)
    axis[pick] = 1.0
    w = axis - np.dot(axis, v) * v
    w /= frobenius(w)
    return canonical_sign(w)


def _rotation_axis_angle(o, tol):
    """Axis (unit vector or None) and angle in [0, pi] of a 3x3 rotation.

    The axis comes from the antisymmetric part; near angle pi, where that
    part degenerates, it is recovered from the symmetric part instead.
    """
    w = 0.5 * np.array([o[2, 1] - o[1, 2], o[0, 2] - o[2, 0], o[1, 0] - o[0, 1]])
    s = _norm(w)
    c = min(1.0, max(-1.0, (float(np.trace(o)) - 1.0) / 2.0))
    angle = float(np.arctan2(s, c))
    if angle <= tol:
        return 0.0, None
    if s >= _PI_BRANCH_SIN or c > 0.0:
        # small angles too: the symmetric part below divides by 1 - c = 0
        return angle, w / s
    # Near pi: (o + o^T)/2 = c I + (1 - c) r r^T.
    rrt = (0.5 * (o + o.T) - c * np.eye(3)) / (1.0 - c)
    col = int(np.argmax(np.diag(rrt)))
    axis = rrt[:, col]
    axis = axis / np.linalg.norm(axis)
    if s > 1e-12:
        if float(w @ axis) < 0:
            axis = -axis
    else:
        axis = canonical_sign(axis)
    return angle, axis


def polar_decompose(lam, tol=None):
    """Split a proper orthochronous element into rotation times boost.

    The factors come from the singular value decomposition of the matrix
    itself: with lam = U S V^T, the boost is V S V^T (the symmetric positive
    square root of lam^T lam) and the rotation is U V^T.  Working on lam
    rather than on the normal matrix lam^T lam keeps the rotation orthogonal
    to round-off even when large rapidities make lam badly conditioned;
    squaring the condition number first would cost four extra digits at
    rapidity five.

    The split is computed once per element and tolerance: lam keeps the
    result for the last resolved tol, and a call at the same tol returns
    that same PolarData (a call at another tol recomputes, since the axis
    and boost thresholds depend on it).  Because callers share it, its
    ``axis`` and ``boost_dir`` arrays are read-only.

    Raises NotProper / NotOrthochronous for inputs off the identity component.
    """
    tol = resolve_tol(tol)
    cached = lam._polar
    if cached is not None and cached[0] == tol:
        return cached[1]
    lam.require_proper_orthochronous(tol)
    m = lam.m
    u, s, vh = np.linalg.svd(m)
    if s[-1] <= 0:
        raise ValueError("polar decomposition: input is numerically singular")
    boost_m = (vh.T * s) @ vh
    boost_m = 0.5 * (boost_m + boost_m.T)
    rot_m = u @ vh

    angle, axis = _rotation_axis_angle(rot_m[1:, 1:], tol)
    bvec = boost_m[1:, 0]
    speed = _norm(bvec)
    rapidity = float(np.arcsinh(speed))
    boost_dir = bvec / speed if rapidity > tol else None
    if boost_dir is None:
        rapidity = 0.0
    else:
        boost_dir.setflags(write=False)
    if axis is None:
        angle = 0.0
    else:
        axis.setflags(write=False)
    pd = PolarData(
        rotation=LorentzElement(rot_m, tol=tol),
        boost=LorentzElement(boost_m, tol=tol),
        axis=axis,
        angle=angle,
        boost_dir=boost_dir,
        rapidity=rapidity,
    )
    lam._polar = (tol, pd)
    return pd


def _unit3(direction, tol, what):
    d = _finite_floats(direction, (3,), what)
    n = _norm(d)
    if n < tol:
        raise ZeroAxis(f"{what} has norm {n:.3e} below tolerance")
    return d / n


def make_rotation(axis, angle, tol=None):
    """Spatial rotation about a unit axis by the given angle (Rodrigues)."""
    tol = resolve_tol(tol)
    r = _unit3(axis, tol, "rotation axis")
    k = np.array([[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]])
    o = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    out = np.eye(4)
    out[1:, 1:] = o
    return LorentzElement(out, tol=tol)


def make_boost(direction, rapidity, tol=None):
    """Boost along a unit direction with the given (additive) rapidity."""
    tol = resolve_tol(tol)
    b = _unit3(direction, tol, "boost direction")
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    out = np.eye(4)
    out[0, 0] = ch
    out[0, 1:] = sh * b
    out[1:, 0] = sh * b
    out[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(b, b)
    return LorentzElement(out, tol=tol)


class ConjugacyClass(enum.Enum):
    IDENTITY = "identity"
    INVOLUTION = "involution"
    CONJUGATE_INTO_L0 = "conjugate-into-L0"
    EXCEPTIONAL = "exceptional"


def classify_conjugacy(lam, tol=None):
    """Conjugacy class of a proper orthochronous element.

    identity / involution are decided by matrix residuals.  The remaining
    split is semisimple (conjugate to a commuting rotation-boost pair fixing
    a wedge, ``conjugate-into-L0``) versus the non-diagonalizable unipotent
    classes (``exceptional``); the latter are detected by the collapse of
    ||(lam-1)^3|| relative to ||lam-1||^3, which is exact for unipotent
    elements because (lam-1)^3 = 0 for them.
    """
    tol = resolve_tol(tol)
    lam.require_proper_orthochronous(tol)
    m = lam.m
    if frobenius(m, _I4) <= 10.0 * tol:
        return ConjugacyClass.IDENTITY
    if frobenius(m @ m, _I4) <= 10.0 * tol:
        return ConjugacyClass.INVOLUTION
    n = m - _I4
    cube_ratio = frobenius(n @ n @ n) / max(frobenius(n) ** 3, 1e-300)
    if cube_ratio <= 1e-6:
        return ConjugacyClass.EXCEPTIONAL
    return ConjugacyClass.CONJUGATE_INTO_L0
