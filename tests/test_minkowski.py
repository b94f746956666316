"""Metric, Lorentz/Poincare elements, polar splitting, conjugacy classes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgegroup import (
    CausalClass,
    ConjugacyClass,
    FourVector,
    LorentzElement,
    NotOrthochronous,
    NotProper,
    PoincareElement,
    ZeroAxis,
    canonical_sign,
    classify_conjugacy,
    classify_vector,
    make_boost,
    make_rotation,
    minkowski_inner,
    polar_decompose,
    random_lorentz,
    random_proper,
    random_reflection,
)


def test_inner_product_signature():
    a = FourVector(2, 1, 0, 0)
    assert minkowski_inner(a, a) == pytest.approx(3.0)
    assert classify_vector(a) is CausalClass.TIMELIKE_FUTURE

    b = FourVector(0, 1, 0, 0)
    assert minkowski_inner(b, b) == pytest.approx(-1.0)
    assert classify_vector(b) is CausalClass.SPACELIKE

    c = FourVector(-1, 1, 0, 0)
    assert minkowski_inner(c, c) == pytest.approx(0.0)
    assert classify_vector(c) is CausalClass.LIGHTLIKE_PAST


def test_four_vector_arithmetic():
    a = FourVector(1, 2, 3, 4)
    b = FourVector(0.5, 0, -1, 2)
    assert (a + b).to_list() == [1.5, 2.0, 2.0, 6.0]
    assert (a - b).to_list() == [0.5, 2.0, 4.0, 2.0]
    assert (-a).t == -1
    assert (a * 2.0).z == 8.0
    assert minkowski_inner(a, b) == pytest.approx(1 * 0.5 - 0 + 3 - 8)


def test_boost_fixes_lightlike_ray():
    # a boost along x stretches the lightlike vector t = x by e^rapidity
    chi = 1.0
    b = make_boost([1, 0, 0], chi)
    ray = FourVector(1, 1, 0, 0)
    moved = b.apply(ray)
    assert np.allclose(moved.array, np.exp(chi) * ray.array, atol=1e-12)


def test_boost_matrix_entries():
    b = make_boost([1, 0, 0], 1.0).m
    assert b[0, 0] == pytest.approx(1.5430806348152437)  # cosh 1
    assert b[0, 1] == pytest.approx(1.1752011936438014)  # sinh 1
    assert b[2, 2] == 1.0 and b[3, 3] == 1.0


def test_rotation_quarter_turn_counterclockwise():
    r = make_rotation([0, 0, 1], np.pi / 2)
    moved = r.apply(FourVector(0, 1, 0, 0))
    assert np.allclose(moved.array, [0, 0, 1, 0], atol=1e-15)


def _polar_oracle(m):
    # Euclidean polar factors of a Lorentz matrix stay in the group:
    # boost = (m^T m)^(1/2) by symmetric eigendecomposition, rotation = rest.
    w, q = np.linalg.eigh(m.T @ m)
    boost = (q * np.sqrt(w)) @ q.T
    return m @ np.linalg.inv(boost), boost


def test_polar_of_rotation_boost_product():
    lam = make_rotation([0, 0, 1], np.pi / 2) @ make_boost([1, 0, 0], 1.0)
    rot_m, boost_m = _polar_oracle(lam.m)

    pd = polar_decompose(lam)
    assert np.allclose(pd.rotation.m, rot_m, atol=1e-12)
    assert np.allclose(pd.boost.m, boost_m, atol=1e-12)
    assert pd.angle == pytest.approx(np.pi / 2)
    assert np.allclose(pd.axis, [0, 0, 1], atol=1e-12)
    assert pd.rapidity == pytest.approx(1.0)
    assert np.allclose(pd.boost_dir, [1, 0, 0], atol=1e-12)


def test_polar_identity_and_pure_factors():
    pd = polar_decompose(LorentzElement.identity())
    assert pd.axis is None and pd.angle == 0.0
    assert pd.boost_dir is None and pd.rapidity == 0.0

    pd = polar_decompose(make_boost([0, 1, 0], 0.7))
    assert pd.axis is None
    assert pd.rapidity == pytest.approx(0.7)
    assert np.allclose(pd.boost_dir, [0, 1, 0], atol=1e-12)

    pd = polar_decompose(make_rotation([1, 0, 0], 0.3))
    assert pd.boost_dir is None
    assert pd.angle == pytest.approx(0.3)


def test_polar_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = random_lorentz(rng)
        pd = polar_decompose(lam)
        assert (pd.rotation @ pd.boost).distance_to(lam) <= 1e-10
        # boost factor symmetric, rotation factor fixes time
        assert np.allclose(pd.boost.m, pd.boost.m.T, atol=1e-10)
        assert pd.rotation.m[0, 0] == pytest.approx(1.0)


@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
)
@settings(max_examples=60, deadline=None)
def test_parameter_additivity(u, v, axis):
    if np.linalg.norm(axis) < 1e-3:
        axis = (0.0, 1.0, 0.0)
    r = make_rotation(axis, u) @ make_rotation(axis, v)
    assert r.distance_to(make_rotation(axis, u + v)) <= 1e-12
    b = make_boost(axis, u) @ make_boost(axis, v)
    assert b.distance_to(make_boost(axis, u + v)) <= 1e-12


def test_rotation_axis_near_pi():
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    pd = polar_decompose(make_rotation(axis, np.pi))
    assert pd.angle == pytest.approx(np.pi)
    # at angle pi the axis is defined up to sign
    assert np.allclose(canonical_sign(pd.axis), canonical_sign(axis), atol=1e-8)

    pd = polar_decompose(make_rotation(axis, 3.14))
    assert pd.angle == pytest.approx(3.14)
    assert np.allclose(pd.axis, axis, atol=1e-6)


def test_classify_small_cases():
    assert classify_conjugacy(LorentzElement.identity()) is ConjugacyClass.IDENTITY
    assert classify_conjugacy(make_rotation([0, 0, 1], np.pi)) is ConjugacyClass.INVOLUTION
    lam = make_rotation([0, 0, 1], 1.0) @ make_boost([0, 0, 1], 0.5)
    assert classify_conjugacy(lam) is ConjugacyClass.CONJUGATE_INTO_L0


def _null_rotation(a):
    """Parabolic element fixing the lightlike direction (1, 0, 1, 0)."""
    m = np.eye(4)
    m[0, 0] = 1 + a * a / 2
    m[0, 1] = a
    m[0, 2] = -a * a / 2
    m[1, 0] = a
    m[1, 2] = -a
    m[2, 0] = a * a / 2
    m[2, 1] = a
    m[2, 2] = 1 - a * a / 2
    return LorentzElement(m)


def test_classify_null_rotation_exceptional():
    lam = _null_rotation(0.8)
    assert lam.apply(FourVector(1, 0, 1, 0)).isclose(FourVector(1, 0, 1, 0))
    assert classify_conjugacy(lam) is ConjugacyClass.EXCEPTIONAL


def test_classify_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    reps = [
        make_rotation([0, 1, 0], np.pi),
        make_rotation([1, 0, 0], 0.9) @ make_boost([1, 0, 0], 1.2),
        _null_rotation(1.5),
    ]
    for lam in reps:
        kind = classify_conjugacy(lam)
        for _ in range(20):
            g = random_proper(rng)
            moved = g @ lam @ g.inverse()
            assert classify_conjugacy(moved) is kind


@given(st.lists(st.floats(-2, 2), min_size=3, max_size=4))
@settings(max_examples=80, deadline=None)
def test_canonical_sign(vals):
    v = np.array(vals)
    out = canonical_sign(v)
    assert np.array_equal(out, v) or np.array_equal(out, -v)
    lead = [c for c in out if abs(c) > 1e-8]
    if lead:
        assert lead[0] > 0


def test_lorentz_element_rejects_garbage():
    with pytest.raises(ValueError):
        LorentzElement(np.arange(16.0).reshape(4, 4))
    with pytest.raises(ValueError):
        LorentzElement(np.full((4, 4), np.nan), validate=False)


def test_component_errors():
    time_reversal = LorentzElement(np.diag([-1.0, 1, 1, -1]))
    with pytest.raises(NotOrthochronous):
        polar_decompose(time_reversal)
    parity_x = LorentzElement(np.diag([1.0, -1, 1, 1]))
    with pytest.raises(NotProper):
        parity_x.require_proper_orthochronous()
    with pytest.raises(ZeroAxis):
        make_rotation([0, 0, 0], 1.0)


@pytest.mark.parametrize("angle", [2e-9, 1e-8, 1e-7, 1e-6])
def test_polar_axis_of_small_rotations(angle):
    # the axis read from the symmetric part divides by 1 - cos(angle); for
    # these angles it came out NaN (2e-9, 1e-8) or 5% off (1e-7)
    axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    pd = polar_decompose(make_rotation(axis, angle))
    assert pd.angle == pytest.approx(angle, rel=1e-6)
    assert np.linalg.norm(pd.axis - axis) <= 1e-6


def test_properness_is_the_sign_of_det_at_high_rapidity():
    # det - 1 of an exact product reaches -1e-4 at rapidity 14, so a bound
    # on |det - 1| stopped this sampler after 22 draws
    rng = np.random.default_rng(5)
    for _ in range(2000):
        random_reflection(rng, max_rapidity=12.0)
    parity_x = LorentzElement(np.diag([1.0, -1, 1, 1]))
    for rapidity in np.linspace(6.0, 14.0, 17):
        with pytest.raises(NotProper):
            (parity_x @ make_boost([0.3, 0.4, 0.5], rapidity)).require_proper_orthochronous()


def test_poincare_composition_and_inverse():
    rng = np.random.default_rng(3)
    g = PoincareElement(make_boost([0, 1, 0], 0.4), FourVector(1, 0, 2, 0))
    h = PoincareElement(make_rotation([1, 0, 0], 1.1), FourVector(0, -1, 0, 3))
    x = FourVector(*rng.normal(size=4))
    assert (g @ h).apply(x).isclose(g.apply(h.apply(x)), tol=1e-12)
    assert (g @ g.inverse()).is_identity(tol=1e-12)
    assert (g.inverse() @ g).is_identity(tol=1e-12)


def test_polar_split_is_computed_once_per_element(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    lam = make_rotation([1, 2, 3], 0.7) @ make_boost([0, 1, -1], 1.3)
    pd = polar_decompose(lam)
    assert polar_decompose(lam) is pd
    assert polar_decompose(lam, tol=1e-9) is pd
    assert len(calls) == 1


@pytest.mark.parametrize("first", [1e-9, 1e-6])
def test_polar_split_follows_the_tolerance(first):
    # rapidity 1e-7 is a boost at tol 1e-9 and the identity at tol 1e-6,
    # whichever tolerance the element saw first
    lam = make_boost([1, 0, 0], 1e-7)
    order = (first, 1e-6 if first == 1e-9 else 1e-9)
    for tol in order + order:
        pd = polar_decompose(lam, tol=tol)
        if tol == 1e-9:
            assert pd.boost_dir is not None
            assert pd.rapidity == pytest.approx(1e-7)
        else:
            assert pd.boost_dir is None
            assert pd.rapidity == 0.0


def test_failed_polar_split_is_not_cached():
    antichronous = LorentzElement(-np.eye(4))
    for _ in range(3):
        with pytest.raises(NotOrthochronous):
            polar_decompose(antichronous)


def test_polar_data_arrays_are_read_only():
    pd = polar_decompose(make_rotation([0, 0, 1], 0.4) @ make_boost([1, 0, 0], 0.3))
    with pytest.raises(ValueError):
        pd.axis[0] = 0.0
    with pytest.raises(ValueError):
        pd.boost_dir[0] = 0.0
