"""Reflections across spacelike planes: construction, factorization, ambiguity."""

import numpy as np
import pytest

from wedgegroup import (
    FourVector,
    LorentzElement,
    NotCommuting,
    PoincareElement,
    PreconditionViolated,
    Reflection,
    act,
    admissible_directions,
    ambiguity_conjugate,
    canonical_sign,
    causal_complement,
    factor_into_reflections,
    is_reflection,
    make_boost,
    make_rotation,
    perpendicular_unit,
    random_lorentz,
    random_poincare,
    random_reflection,
    random_unit3,
    random_wedge,
    reflection_about_axis,
    reflection_conjugator,
    reflection_for_wedge,
    stability_group_element,
    standard_wedge,
    verify_ambiguity_classification,
    wedges_equal,
)
from wedgegroup.minkowski import frobenius

Z_FLIP = reflection_about_axis([0, 0, 1])


def test_axis_reflection_matrix():
    assert np.allclose(Z_FLIP.element.lorentz.m, np.diag([-1.0, 1.0, 1.0, -1.0]))
    assert np.allclose(Z_FLIP.element.translation.array, 0.0)
    sq = Z_FLIP.element @ Z_FLIP.element
    assert sq.is_identity(tol=1e-15)


def test_axis_reflection_fixed_plane():
    pl = Z_FLIP.fixed_plane
    # plane through the origin spanned by e_x, e_y
    assert np.allclose(pl.point.array, 0.0)
    for u in (pl.u1, pl.u2):
        assert u.t == pytest.approx(0.0)
        assert u.z == pytest.approx(0.0)
    assert pl.contains(FourVector(0, -4, 2, 0))
    assert not pl.contains(FourVector(0, -4, 2, 0.1))


def test_reflection_for_standard_wedge():
    lam = reflection_for_wedge(standard_wedge([0, 0, 1]))
    assert lam.distance_to(Z_FLIP) <= 1e-12


def test_reflection_for_translated_wedge():
    shift = PoincareElement.from_translation(FourVector(0, 1.5, 0, -2))
    w = act(shift, standard_wedge([0, 0, 1]))
    lam = reflection_for_wedge(w)
    expected = Z_FLIP.conjugated_by(shift)
    assert lam.distance_to(expected) <= 1e-12


def test_reflection_swaps_wedge_with_complement():
    # lam maps the wedge onto its causal complement as a point set (act()
    # refuses antichronous maps, so this is checked through membership)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        w = random_wedge(rng, max_rapidity=1.5)
        lam = reflection_for_wedge(w)
        wprime = causal_complement(w)
        for _ in range(4):
            x = FourVector(*(w.p.array + rng.normal(scale=2.0, size=4)))
            assert wprime.contains(lam.apply(x)) == w.contains(x)
            assert w.contains(lam.apply(x)) == wprime.contains(x)


def test_is_reflection_negatives():
    assert not is_reflection(PoincareElement(make_rotation([0, 0, 1], np.pi)))
    total_inversion = PoincareElement(LorentzElement(-np.eye(4)))
    assert not is_reflection(total_inversion)
    assert not is_reflection(PoincareElement(make_boost([1, 0, 0], 1.0)))
    assert not is_reflection(PoincareElement.identity())
    # shifting along a negated direction moves the plane but keeps the
    # involution; shifting along a fixed direction destroys it
    negated_dir = PoincareElement.from_translation(FourVector(0, 0, 0, 1))
    fixed_dir = PoincareElement.from_translation(FourVector(0, 1, 0, 0))
    shifted = negated_dir @ Z_FLIP.element
    assert is_reflection(shifted)
    assert Reflection(shifted).fixed_plane.contains(FourVector(0, 3, -1, 0.5))
    assert not is_reflection(fixed_dir @ Z_FLIP.element)


def test_validation_messages():
    with pytest.raises(PreconditionViolated, match="reverse time"):
        Reflection(PoincareElement(make_rotation([0, 0, 1], np.pi)))
    with pytest.raises(PreconditionViolated, match="two-dimensional"):
        Reflection(PoincareElement(LorentzElement(-np.eye(4))))
    with pytest.raises(PreconditionViolated, match="square"):
        Reflection(PoincareElement(make_boost([1, 0, 0], 1.0)))
    # time-reversing involutions with determinant -1
    for diag in ([-1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, 1.0]):
        with pytest.raises(PreconditionViolated, match="two-dimensional"):
            Reflection(PoincareElement(LorentzElement(np.diag(diag))))


@pytest.mark.parametrize(
    "element",
    [
        PoincareElement.identity(),
        PoincareElement(make_boost([1, 0, 0], 1.0)),
        PoincareElement(make_rotation([0, 0, 1], np.pi)),
        PoincareElement(LorentzElement(-np.eye(4))),
        PoincareElement(LorentzElement(np.diag([-1.0, 1.0, 1.0, 1.0]))),
        PoincareElement(LorentzElement(np.diag([-1.0, -1.0, -1.0, 1.0]))),
        # 1 - 2P for the span of the timelike (1, 0.5, 0, 0), (1, -0.5, 0, 0),
        # with P built by the null-normal formula, which then is no projector
        PoincareElement(LorentzElement(np.diag([-2.2, 0.2, 1.0, 1.0]), validate=False)),
    ],
)
def test_unvalidated_non_reflection_has_no_fixed_plane(element):
    r = Reflection(element, validate=False)
    with pytest.raises(PreconditionViolated):
        r.fixed_plane
    with pytest.raises(PreconditionViolated):
        reflection_conjugator(r)


def test_high_rapidity_reflections_validate():
    # the involution bounds grow with |lam|^2 and |lam| |a|, as the round-off
    # does; a boost of rapidity 0.1 after each sample still fails them
    rng = np.random.default_rng(60)
    for _ in range(2000):
        r = random_reflection(rng, max_rapidity=6.0)
        Reflection(r.element)
        bent = r.element.lorentz @ make_boost(random_unit3(rng), 0.1)
        assert not is_reflection(PoincareElement(bent, r.element.translation))


def test_near_involutions_at_high_rapidity_are_rejected():
    # a boost of rapidity 1e-4 moves lam lam by about 1e-4 |lam|; a bound
    # growing with |lam|^2 accepted about a third of these at |lam| near 1e5
    rng = np.random.default_rng(5)
    for _ in range(2000):
        r = random_reflection(rng, max_rapidity=6.0)
        assert is_reflection(r.element)
        bent = r.element.lorentz @ make_boost(random_unit3(rng), 1e-4)
        assert not is_reflection(PoincareElement(bent, r.element.translation))


def test_exact_reflections_validate_at_high_rapidity():
    # the round-off of lam lam grows like eps |lam|^2; without a term for
    # it, 87 of these 2000 failed at rapidity 11
    for max_rapidity in (11.0, 12.0):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            assert is_reflection(random_reflection(rng, max_rapidity=max_rapidity).element)


def test_perpendicular_unit():
    rng = np.random.default_rng(37)
    for _ in range(100):
        v = rng.normal(size=3)
        u = perpendicular_unit(v)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert abs(u @ v) <= 1e-9 * np.linalg.norm(v)
        assert np.array_equal(u, canonical_sign(u))


def test_admissible_directions_cross_rule():
    # rotation about z times boost along x: e must be parallel to z cross x = y
    lam = make_rotation([0, 0, 1], 0.9) @ make_boost([1, 0, 0], 0.7)
    e1, e2 = admissible_directions(lam)
    assert np.allclose(e1, [0, 1, 0], atol=1e-12)
    assert np.allclose(e2, [0, -1, 0], atol=1e-12)


def test_admissible_directions_degenerate_rules():
    e1, _ = admissible_directions(LorentzElement.identity())
    assert np.allclose(e1, [1, 0, 0])  # free choice, fixed deterministically
    e1, _ = admissible_directions(make_boost([0, 0, 1], 1.0))
    assert np.allclose(e1, [1, 0, 0])  # anything orthogonal to z; rule picks x
    e1, e2 = admissible_directions(make_rotation([0, 0, 1], 0.5))
    assert abs(e1 @ np.array([0, 0, 1.0])) <= 1e-12
    assert abs(e2 @ np.array([0, 0, 1.0])) <= 1e-12
    assert abs(e1 @ e2) <= 1e-12  # independent pair when the axis is free


def test_factor_identity():
    r1, r2 = factor_into_reflections(LorentzElement.identity())
    x_flip = reflection_about_axis([1, 0, 0])
    assert r1.distance_to(x_flip) <= 1e-12
    assert r2.distance_to(x_flip) <= 1e-12


def test_factor_pure_boost():
    boost = make_boost([0, 0, 1], 1.0)
    r1, r2 = factor_into_reflections(boost)
    # admissible direction for a z boost is the x axis
    assert r1.distance_to(reflection_about_axis([1, 0, 0])) <= 1e-12
    prod = r1.element @ r2.element
    assert prod.lorentz.distance_to(boost) <= 1e-12
    assert np.linalg.norm(prod.translation.array) <= 1e-12


def test_factor_rotation_boost_product():
    rot = make_rotation([0, 0, 1], 1.1)
    boost = make_boost([1, 0, 0], 0.8)
    r1, r2 = factor_into_reflections(rot @ boost)
    # shared direction is z cross x = y: first factor R * flip(y), second flip(y) * B
    y_flip = reflection_about_axis([0, 1, 0]).element
    assert r1.element.distance_to(PoincareElement(rot) @ y_flip) <= 1e-12
    assert r2.element.distance_to(y_flip @ PoincareElement(boost)) <= 1e-12
    for r in (r1, r2):
        assert is_reflection(r.element)
    prod = r1.element @ r2.element
    assert prod.lorentz.distance_to(rot @ boost) <= 1e-10


def test_factor_random_products():
    rng = np.random.default_rng(41)
    for _ in range(200):
        lam = random_lorentz(rng, max_rapidity=2.0)
        r1, r2 = factor_into_reflections(lam)
        assert is_reflection(r1.element) and is_reflection(r2.element)
        assert (r1.element @ r2.element).lorentz.distance_to(lam) <= 1e-9


def test_reflection_conjugates_boost_to_inverse():
    # for e orthogonal to the boost direction: lambda_e B lambda_e = B^-1
    lam_e = reflection_about_axis([0, 1, 0]).element.lorentz
    boost = make_boost([1, 0, 0], 1.3)
    assert (lam_e @ boost).distance_to(boost.inverse() @ lam_e) <= 1e-12
    rot = make_rotation([1, 0, 0], 0.7)
    assert (rot @ lam_e).distance_to(lam_e @ rot.inverse()) <= 1e-12


def test_stability_group_element():
    assert stability_group_element([0, 0, 1], 0.0, 0.0).distance_to(
        LorentzElement.identity()
    ) <= 1e-15

    g = stability_group_element([0, 0, 1], 0.8, 1.1)
    w = standard_wedge([0, 0, 1])
    assert wedges_equal(act(PoincareElement(g), w), w, tol=1e-10)
    # one-parameter structure: half parameters square to the full element
    half = stability_group_element([0, 0, 1], 0.4, 0.55)
    assert (half @ half).distance_to(g) <= 1e-12


def test_ambiguity_conjugate_by_identity():
    pair = factor_into_reflections(make_boost([0, 0, 1], 1.0))
    g1, g2 = ambiguity_conjugate(LorentzElement.identity(), pair)
    assert g1.distance_to(pair[0]) <= 1e-15
    assert g2.distance_to(pair[1]) <= 1e-15


def test_ambiguity_conjugate_preserves_product():
    lam = stability_group_element([0, 1, 0], 1.0, 0.6)
    pair = factor_into_reflections(lam)
    commuting = stability_group_element([0, 1, 0], 0.3, -0.9)
    g1, g2 = ambiguity_conjugate(commuting, pair)
    for g in (g1, g2):
        assert is_reflection(g.element)
    prod = g1.element @ g2.element
    assert prod.lorentz.distance_to(lam) <= 1e-10


def test_ambiguity_conjugate_rejects_noncommuting():
    pair = factor_into_reflections(make_boost([0, 0, 1], 1.0))
    with pytest.raises(NotCommuting):
        ambiguity_conjugate(make_rotation([1, 0, 0], 0.4), pair)


def test_verify_ambiguity_report():
    report = verify_ambiguity_classification(make_boost([0, 0, 1], 1.0), 0, seed=1)
    assert report["samples"] == 0
    assert report["pass"] is True

    # a boost, and rotations, one of them conjugated by a boost
    g = make_boost([0.3, -1.0, 0.2], 1.7)
    for lam in (
        make_boost([0, 0, 1], 1.0),
        make_rotation([1, 2, 3], 2.5),
        g @ make_rotation([1, 0, 0], 0.7) @ g.inverse(),
    ):
        report = verify_ambiguity_classification(lam, 100, seed=1)
        assert report["check"] == "ambiguity-classification"
        assert report["samples"] == 100
        assert report["max_residual"] <= 1e-8
        assert report["pass"] is True


def test_verify_ambiguity_near_degenerate_cores():
    # a rapidity just above tol next to a finite angle
    g = make_boost([1, 2, 0], 0.7)
    lam = g @ stability_group_element([0.3, -0.5, 0.8], 1.0, 1e-8) @ g.inverse()
    assert verify_ambiguity_classification(lam, 10, 0)["pass"] is True
    # conjugated cores by family of (angle, rapidity) ranges: a frame from
    # a general eigensolver fails on about a quarter of the draws of all but
    # the third, and one from the spectral projector of (lam + lam^-1)/2
    # alone on the second and third
    families = (
        ((0.15, 3.0), (1e-7, 1e-6)),
        ((1e-7, 1e-6), (1e-7, 1e-6)),
        ((1e-4, 1e-3), (1e-4, 1e-3)),
        ((np.pi - 1e-5, np.pi - 1e-7), (1e-7, 1e-6)),
    )
    rng = np.random.default_rng(2)
    for angles, rapidities in families:
        for _ in range(40):
            core = stability_group_element(
                random_unit3(rng), rng.uniform(*angles), rng.uniform(*rapidities)
            )
            g = random_lorentz(rng, max_rapidity=2.0)
            report = verify_ambiguity_classification(g @ core @ g.inverse(), 10, 0)
            assert report["pass"] is True, (angles, rapidities, report["max_residual"])


def test_verify_ambiguity_rejects_involutions():
    with pytest.raises(PreconditionViolated):
        verify_ambiguity_classification(make_rotation([0, 0, 1], np.pi), 5, seed=1)
    with pytest.raises(PreconditionViolated):
        verify_ambiguity_classification(LorentzElement.identity(), 5, seed=1)


def test_reflection_conjugator_solves_every_reflection():
    # the same seed draws r and the wedge it is the reflection of
    rng, wedge_rng = np.random.default_rng(43), np.random.default_rng(43)
    base = reflection_about_axis([1, 0, 0])
    for _ in range(100):
        r = random_reflection(rng)
        g = reflection_conjugator(r)
        g.lorentz.require_proper_orthochronous()
        moved = g @ base.element @ g.inverse()
        assert moved.distance_to(r.element) <= 1e-9
        w, image = random_wedge(wedge_rng), act(g, standard_wedge([1, 0, 0]))
        assert wedges_equal(image, w) or wedges_equal(image, causal_complement(w))


def test_conjugation_equivariance():
    rng = np.random.default_rng(47)
    for _ in range(50):
        w = random_wedge(rng, max_rapidity=1.0)
        g = random_poincare(rng, max_rapidity=1.0, scale=1.0)
        lhs = reflection_for_wedge(act(g, w))
        rhs = reflection_for_wedge(w).conjugated_by(g)
        assert lhs.distance_to(rhs) <= 1e-9


def _same_reflection(a, b):
    return np.array_equal(a.element.lorentz.m, b.element.lorentz.m) and np.array_equal(
        a.element.translation.array, b.element.translation.array
    )


@pytest.mark.parametrize("max_rapidity", [1.0, 2.0, 6.0])
def test_random_reflection_is_exactly_the_wedge_reflection(max_rapidity):
    # the one-pass sampler makes the draws of random_wedge in the same order,
    # so under one seed it reproduces both the reflection of random_wedge and
    # that of the composed public path act -> standard_wedge bit for bit
    seed = int(10 * max_rapidity)
    direct, via_wedge, composed = (np.random.default_rng(seed) for _ in range(3))
    for _ in range(2000):
        r = random_reflection(direct, max_rapidity=max_rapidity)
        w = random_wedge(via_wedge, max_rapidity=max_rapidity)
        assert _same_reflection(r, reflection_for_wedge(w))
        g = random_poincare(composed, max_rapidity)
        w_ref = act(g, standard_wedge(random_unit3(composed)))
        assert _same_reflection(r, reflection_for_wedge(w_ref))
        # the default tolerance up to |lam| = 100; beyond that the round-off
        # of lam^2 - 1 grows with |lam|^2, and so does the tolerance
        scale = max(1.0, frobenius(r.element.lorentz.m) ** 2 / 1e4)
        Reflection(r.element, tol=1e-9 * scale)
