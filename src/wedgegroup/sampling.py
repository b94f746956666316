"""Seeded random generators for group elements, wedges, and reflections.

Everything takes an explicit numpy Generator so that verification runs are
reproducible; samplers are thin wrappers over the constructive operations.
"""

from __future__ import annotations

import numpy as np

from .minkowski import FourVector, LorentzElement, PoincareElement, _norm, make_boost, make_rotation
from .reflections import Reflection, _reflection_from_normals, reflection_about_axis
from .tolerances import resolve_tol
from .wedges import Wedge, _check_normals, _normalized_rays, _standard_normals

__all__ = [
    "random_unit3",
    "random_rotation",
    "random_boost",
    "random_lorentz",
    "random_proper",
    "random_translation",
    "random_poincare",
    "random_wedge",
    "random_reflection",
]

_REFERENCE_FLIP = None


def _reference_flip():
    global _REFERENCE_FLIP
    if _REFERENCE_FLIP is None:
        _REFERENCE_FLIP = reflection_about_axis([1.0, 0.0, 0.0]).element.lorentz
    return _REFERENCE_FLIP


def random_unit3(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = _norm(v)
    while n < 1e-12:  # pragma: no cover - probability zero in practice
        v = rng.normal(size=3)
        n = _norm(v)
    return v / n


def random_rotation(rng, max_angle=np.pi) -> LorentzElement:
    return make_rotation(random_unit3(rng), float(rng.uniform(0.0, max_angle)))


def random_boost(rng, max_rapidity=3.0) -> LorentzElement:
    return make_boost(random_unit3(rng), float(rng.uniform(0.0, max_rapidity)))


def random_lorentz(rng, max_rapidity=3.0) -> LorentzElement:
    """Proper orthochronous element sampled through its polar factors."""
    return random_rotation(rng) @ random_boost(rng, max_rapidity)


def random_proper(rng, max_rapidity=3.0) -> LorentzElement:
    """Proper element from either time orientation, antichronous half the time."""
    lam = random_lorentz(rng, max_rapidity)
    if rng.uniform() < 0.5:
        return _reference_flip() @ lam
    return lam


def random_translation(rng, scale=2.0) -> FourVector:
    return FourVector.from_array(rng.normal(scale=scale, size=4))


def random_poincare(rng, max_rapidity=3.0, scale=2.0) -> PoincareElement:
    return PoincareElement(random_lorentz(rng, max_rapidity), random_translation(rng, scale))


def _wedge_arrays(rng, max_rapidity):
    """random_wedge as raw arrays (l1, l2, p), with the draws, arithmetic and checks
    of act(random_poincare(rng, max_rapidity), standard_wedge(random_unit3(rng)))."""
    tol = resolve_tol(None)
    lam = random_lorentz(rng, max_rapidity)
    a = random_translation(rng).array  # the image of the edge point 0
    l1, l2 = _standard_normals(random_unit3(rng), tol)
    _check_normals(l1, l2, tol)
    lam.require_proper_orthochronous(tol)
    l1, l2 = _normalized_rays(lam.m @ l1, lam.m @ l2)
    _check_normals(l1, l2, tol)
    return l1, l2, a


def random_wedge(rng, max_rapidity=2.0) -> Wedge:
    l1, l2, a = _wedge_arrays(rng, max_rapidity)
    return Wedge(FourVector.from_array(l1), FourVector.from_array(l2), FourVector.from_array(a))


def random_reflection(rng, max_rapidity=2.0) -> Reflection:
    """Reflection about the edge of a random wedge; translation part included.
    Draws in the same order as random_wedge, and equals reflection_for_wedge of
    random_wedge(rng, max_rapidity) exactly, without building the wedge."""
    return _reflection_from_normals(*_wedge_arrays(rng, max_rapidity))
