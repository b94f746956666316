"""Extending a map on reflections to the connected groups, and its audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgegroup import (
    AxiomViolation,
    BadSpec,
    DegenerateEdge,
    FourVector,
    LorentzElement,
    NotAdmissible,
    NotProper,
    PoincareElement,
    PreconditionViolated,
    Reflection,
    ReflectionMap,
    TargetElement,
    ambiguity_conjugate,
    builtin_map,
    factor_into_reflections,
    make_boost,
    make_rotation,
    random_boost,
    random_conjugated_map,
    random_lorentz,
    random_poincare,
    random_reflection,
    random_rotation,
    random_unit3,
    reference_reflection,
    reflection_about_axis,
    stability_group_element,
    translation_reflection,
    u_poincare,
    u_translation,
    u_translation_fixed_reflection,
    v_of_boost,
    v_of_lorentz,
    v_of_proper,
    v_of_rotation,
    verify_axioms,
    verify_continuity_probe,
    verify_homomorphism,
)

TAUT = builtin_map({"kind": "tautological"})


def _crooked_map(key_row):
    """Tautological map corrupted by a data-dependent scale; not a
    reflection map, and inconsistent across admissible choices."""

    def evaluate(r):
        m = r.element.affine()
        scale = 1.25 if m[key_row, key_row] > 0 else 0.8
        return TargetElement(scale * m, antilinear=True)

    return ReflectionMap(evaluate, {"kind": "crooked"}, 5)


# ---------------------------------------------------------------- target group


def test_target_element_compose_flags():
    a = TargetElement([[1j, 0], [0, 2]], antilinear=True)
    b = TargetElement([[0, 1], [1j, 0]], antilinear=False)
    ab = a @ b
    assert ab.antilinear is True
    assert np.allclose(ab.matrix, a.matrix @ np.conj(b.matrix))
    ba = b @ a
    assert ba.antilinear is True
    assert np.allclose(ba.matrix, b.matrix @ a.matrix)
    assert (a @ a).antilinear is False


def test_target_element_inverse():
    rng = np.random.default_rng(1)
    for anti in (False, True):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = TargetElement(m, antilinear=anti)
        assert (g @ g.inverse()).is_identity(tol=1e-12)
        assert (g.inverse() @ g).is_identity(tol=1e-12)


def test_target_element_misc():
    with pytest.raises(ValueError):
        TargetElement(np.zeros((2, 3)))
    lin = TargetElement(np.eye(2))
    anti = TargetElement(np.eye(2), antilinear=True)
    assert lin.distance_to(anti) == np.inf
    assert TargetElement.identity(4).is_identity()
    assert not anti.is_identity()


# ---------------------------------------------------------------- builtin maps


def test_tautological_map_values():
    r = reflection_about_axis([0, 0, 1])
    val = TAUT(r)
    assert val.antilinear is True
    expected = np.eye(5)
    expected[:4, :4] = np.diag([-1.0, 1.0, 1.0, -1.0])
    assert np.allclose(val.matrix, expected)


def test_conjugated_with_identity_reduces_to_tautological():
    for g in (np.eye(4).ravel(), np.eye(5).ravel()):
        jmap = builtin_map({"kind": "conjugated", "G": list(g)})
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = random_reflection(rng)
            assert jmap(r).distance_to(TAUT(r)) <= 1e-12


def test_builtin_map_bad_specs():
    with pytest.raises(BadSpec):
        builtin_map({"kind": "nonsense"})
    with pytest.raises(BadSpec):
        builtin_map(["tautological"])
    with pytest.raises(BadSpec):
        builtin_map({"kind": "conjugated"})
    with pytest.raises(BadSpec):
        builtin_map({"kind": "conjugated", "G": [1.0] * 7})
    with pytest.raises(BadSpec):
        builtin_map({"kind": "conjugated", "G": [0.0] * 16})
    with pytest.raises(BadSpec):
        builtin_map({"kind": "conjugated", "G": [np.inf] + [0.0] * 15})


def test_spinorial_negative_squares_to_minus_one():
    sp = builtin_map({"kind": "spinorial-negative"})
    rng = np.random.default_rng(3)
    for _ in range(10):
        j = sp(random_reflection(rng))
        sq = j @ j
        assert sq.antilinear is False
        assert np.allclose(sq.matrix, -np.eye(2), atol=1e-9)
        # Frobenius distance of -1 to 1 in dimension 2
        assert sq.distance_to(TargetElement.identity(2)) == pytest.approx(2 * np.sqrt(2))


# --------------------------------------------------------------------- axioms


def test_verify_axioms_tautological():
    report = verify_axioms(TAUT, 1000, seed=7)
    assert report["check"] == "reflection-map-axioms"
    assert report["samples"] == 1000
    assert report["max_residual"] <= 1e-12
    assert report["pass"] is True


def test_verify_axioms_vacuous_and_failing():
    assert verify_axioms(TAUT, 0, seed=1)["pass"] is True
    report = verify_axioms(builtin_map({"kind": "spinorial-negative"}), 50, seed=1)
    assert report["pass"] is False
    assert report["max_residual"] >= 1.0


# -------------------------------------------------------------- v_of_* values


def test_v_of_rotation_identity_and_value():
    assert v_of_rotation(TAUT, LorentzElement.identity()).is_identity(tol=1e-12)
    rot = make_rotation([0, 1, 0], 1.2)
    val = v_of_rotation(TAUT, rot)
    assert val.antilinear is False
    assert np.allclose(val.matrix, PoincareElement(rot).affine(), atol=1e-12)


def test_v_of_boost_tautological_value():
    boost = make_boost([0.6, 0, 0.8], 0.9)
    val = v_of_boost(TAUT, boost)
    assert np.allclose(val.matrix, PoincareElement(boost).affine(), atol=1e-12)


def test_v_of_rotation_conjugated_map():
    rng = np.random.default_rng(11)
    jmap = random_conjugated_map(rng)
    g = np.eye(5)
    g[:4, :4] = np.asarray(jmap.descriptor["G"]).reshape(4, 4)
    rot = make_rotation([0, 0, 1], 0.4)
    expected = g @ PoincareElement(rot).affine() @ np.linalg.inv(g)
    assert np.allclose(v_of_rotation(jmap, rot).matrix, expected, atol=1e-10)


def test_v_semantic_gates():
    with pytest.raises(PreconditionViolated):
        v_of_rotation(TAUT, make_boost([1, 0, 0], 0.5))
    with pytest.raises(PreconditionViolated):
        v_of_boost(TAUT, make_rotation([1, 0, 0], 0.5))
    with pytest.raises(NotAdmissible):
        v_of_rotation(TAUT, make_rotation([0, 0, 1], 0.5), direction=[0, 1, 1])
    with pytest.raises(NotAdmissible):
        v_of_boost(TAUT, make_boost([0, 0, 1], 0.5), direction=[0, 0, 1])


def test_pure_factor_gates_follow_tol():
    # a second factor of rapidity or angle 5e-7 is a factor at tol 1e-12 and
    # nothing at tol 1e-6
    lam = make_rotation([0, 0, 1], 0.7) @ make_boost([1, 0, 0], 5e-7)
    with pytest.raises(PreconditionViolated):
        v_of_rotation(TAUT, lam, tol=1e-12)
    v_of_rotation(TAUT, lam, tol=1e-6)
    lam = make_rotation([1, 0, 0], 5e-7) @ make_boost([0, 0, 1], 0.7)
    with pytest.raises(PreconditionViolated):
        v_of_boost(TAUT, lam, tol=1e-12)
    v_of_boost(TAUT, lam, tol=1e-6)
    # the round-off of honest pure factors stays below the default tol
    rng = np.random.default_rng(3)
    for _ in range(50):
        v_of_rotation(TAUT, random_rotation(rng))
        for rapidity in (1.0, 6.0, 12.0):
            v_of_boost(TAUT, make_boost(random_unit3(rng), rapidity))


def test_extension_keeps_a_factor_below_tol():
    # at tol 1e-4 a factor of angle or rapidity 2e-6 has no axis; it stays
    # in the value and in its cross-check, so the honest map passes
    rot, boost = make_rotation([0, 0, 1], 0.7), make_boost([1, 0, 0], 0.7)
    tiny_rot, tiny_boost = make_rotation([0, 1, 0], 2e-6), make_boost([1, 0, 0], 2e-6)
    for extend, lam in ((v_of_rotation, rot @ tiny_boost), (v_of_boost, tiny_rot @ boost)):
        expected = TargetElement(PoincareElement(lam).affine())
        assert extend(TAUT, lam, tol=1e-4).distance_to(expected) <= 1e-12
        assert v_of_lorentz(TAUT, lam, tol=1e-4).distance_to(expected) <= 1e-12


def test_v_independent_of_direction():
    rot = make_rotation([0, 0, 1], 1.0)
    vals = [
        v_of_rotation(TAUT, rot, direction=d)
        for d in ([1, 0, 0], [0, 1, 0], [0.6, 0.8, 0], [-1, 1, 0])
    ]
    for v in vals[1:]:
        assert vals[0].distance_to(v) <= 1e-12


def test_crosscheck_flags_broken_maps():
    with pytest.raises(AxiomViolation):
        v_of_rotation(_crooked_map(1), make_rotation([0, 0, 1], 0.7))
    with pytest.raises(AxiomViolation):
        u_translation(_crooked_map(2), FourVector(2, 0.3, 0.1, 0))


def test_crosscheck_detection_on_crooked_maps():
    # how many of 200 elements each extension rejects for a crooked map;
    # the floors are the counts of V(R) . V(B) with two directions per
    # factor, which the J(r1) . J(r2) form and its cross-check replaced
    def fired(extend, J, element):
        try:
            extend(J, element)
        except AxiomViolation:
            return 1
        return 0

    floors = {1: (160, 82, 117), 2: (156, 89, 136), 3: (167, 71, 147)}
    for key_row, (lorentz_floor, rotation_floor, boost_floor) in floors.items():
        J = _crooked_map(key_row)
        rng = np.random.default_rng(0)
        lorentz = sum(
            fired(v_of_lorentz, J, random_lorentz(rng, max_rapidity=2.0)) for _ in range(200)
        )
        rng = np.random.default_rng(1)
        rotation = boost = 0
        for _ in range(200):
            rotation += fired(v_of_rotation, J, random_rotation(rng))
            boost += fired(v_of_boost, J, random_boost(rng, max_rapidity=2.0))
        assert lorentz >= lorentz_floor
        assert rotation >= rotation_floor
        assert boost >= boost_floor


def test_translation_crosscheck_detection_on_crooked_maps():
    # how many of 200 translations u_translation rejects for a crooked map;
    # the floors are the counts of the recursive split, whose timelike
    # pieces were cross-checked through a second companion, which the one
    # negating reflection and its split cross-check replaced
    for key_row, floor in {1: 129, 2: 134, 3: 137}.items():
        J = _crooked_map(key_row)
        rng = np.random.default_rng(11)
        fired = 0
        for _ in range(200):
            try:
                u_translation(J, FourVector(*rng.normal(size=4)))
            except AxiomViolation:
                fired += 1
        assert fired >= floor


_UNIT3 = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda v: np.linalg.norm(v) > 0.1
)


@given(
    st.sampled_from(
        ["generic", "near-pi", "parallel", "antiparallel", "rotation", "boost", "identity"]
    ),
    _UNIT3,
    _UNIT3,
    st.floats(0.0, np.pi),
    st.floats(0.0, 6.0),
    st.floats(1e-12, 1e-9),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_factor_pair_over_the_degenerate_mix(kind, axis, other, angle, rapidity, offset):
    if kind == "near-pi":
        angle = np.pi - offset
    if kind in ("parallel", "antiparallel"):
        other = np.asarray(axis) * (1.0 if kind == "parallel" else -1.0)
    if kind in ("boost", "identity"):
        angle = 0.0
    if kind in ("rotation", "identity"):
        rapidity = 0.0
    lam = make_rotation(axis, angle) @ make_boost(other, rapidity)
    bound = 1e-12 * max(1.0, np.linalg.norm(lam.m) ** 2)
    r1, r2 = factor_into_reflections(lam)
    assert np.linalg.norm((r1.element @ r2.element).lorentz.m - lam.m) <= bound
    Reflection(r1.element)
    Reflection(r2.element)
    expected = TargetElement(PoincareElement(lam).affine())
    assert v_of_lorentz(TAUT, lam).distance_to(expected) <= bound


def test_v_of_lorentz_tautological():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        lam = random_lorentz(rng, max_rapidity=2.0)
        val = v_of_lorentz(TAUT, lam)
        assert np.allclose(val.matrix, PoincareElement(lam).affine(), atol=1e-9)


def test_v_equals_any_factorization_pair():
    # for elements in the rotation-boost class, J(r1') J(r2') is the same
    # for every alternative factorization produced by the ambiguity action
    rng = np.random.default_rng(17)
    for _ in range(10):
        lam = stability_group_element([0, 0, 1], rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.5))
        v = v_of_lorentz(TAUT, lam)
        pair = factor_into_reflections(lam)
        for _ in range(10):
            mover = stability_group_element(
                [0, 0, 1], rng.uniform(-np.pi, np.pi), rng.uniform(-1.5, 1.5)
            )
            g1, g2 = ambiguity_conjugate(mover, pair)
            alt = TAUT(g1) @ TAUT(g2)
            assert alt.distance_to(v) <= 1e-8


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_v_of_lorentz_splits_each_element_once(monkeypatch):
    # the rotation and boost values come from the factors of the one split
    rng = np.random.default_rng(29)
    elements = [random_lorentz(rng, max_rapidity=2.0) for _ in range(8)]
    calls = _count_svds(monkeypatch)
    for lam in elements:
        v_of_lorentz(TAUT, lam)
    assert len(calls) == len(elements)


def test_continuity_probe_splits_each_point_once(monkeypatch):
    lam = reflection_about_axis([0, 1, 0])
    moves = [make_rotation([0, 0, 1], 0.1 * k) @ make_boost([1, 0, 0], 0.1 * k) for k in range(5)]
    family = [lam.conjugated_by(PoincareElement(g)) for g in moves]
    calls = _count_svds(monkeypatch)
    report = verify_continuity_probe(TAUT, family, steps=len(family) - 1)
    assert report["pass"] is True
    assert len(calls) == len(family)


def test_v_of_proper_reference_and_restriction():
    lam0 = reference_reflection()
    val = v_of_proper(TAUT, lam0)
    assert val.distance_to(TAUT(lam0)) <= 1e-12

    rng = np.random.default_rng(19)
    for _ in range(1000):
        linear = random_reflection(rng).element.lorentz
        got = v_of_proper(TAUT, linear)
        assert got.distance_to(TargetElement(PoincareElement(linear).affine(), True)) <= 1e-10


def test_v_of_proper_cross_component_homomorphism():
    rng = np.random.default_rng(23)
    lam0 = reference_reflection().element.lorentz
    for _ in range(50):
        g1 = lam0 @ random_lorentz(rng, max_rapidity=1.5)
        g2 = lam0 @ random_lorentz(rng, max_rapidity=1.5)
        lhs = v_of_proper(TAUT, g1) @ v_of_proper(TAUT, g2)
        rhs = v_of_proper(TAUT, g1 @ g2)
        assert lhs.distance_to(rhs) <= 1e-9


def test_v_of_proper_rejects_improper():
    with pytest.raises(NotProper):
        v_of_proper(TAUT, LorentzElement(np.diag([1.0, -1.0, 1.0, 1.0])))


# ----------------------------------------------------------------- translations


def test_u_translation_fixed_reflection():
    lam = reflection_about_axis([0, 0, 1])
    zero = u_translation_fixed_reflection(TAUT, lam, FourVector(0, 0, 0, 0))
    assert zero.is_identity(tol=1e-12)

    x = FourVector(0.7, 0, 0, -1.2)  # negated by lam: t and z components only
    val = u_translation_fixed_reflection(TAUT, lam, x)
    assert np.allclose(val.matrix, PoincareElement.from_translation(x).affine(), atol=1e-12)
    back = u_translation_fixed_reflection(TAUT, lam, -x)
    assert (val @ back).is_identity(tol=1e-12)

    with pytest.raises(NotAdmissible):
        u_translation_fixed_reflection(TAUT, lam, FourVector(0, 1, 0, 0))


def test_u_translation_values_and_additivity():
    assert u_translation(TAUT, FourVector(0, 0, 0, 0)).is_identity(tol=1e-12)
    # spacelike example through the timelike difference decomposition
    z = FourVector(0, 1, 0, 0)
    assert np.allclose(
        u_translation(TAUT, z).matrix,
        PoincareElement.from_translation(z).affine(),
        atol=1e-12,
    )
    rng = np.random.default_rng(29)
    for _ in range(100):
        z1 = FourVector(*rng.normal(scale=2.0, size=4))
        z2 = FourVector(*rng.normal(scale=2.0, size=4))
        lhs = u_translation(TAUT, z1) @ u_translation(TAUT, z2)
        rhs = u_translation(TAUT, z1 + z2)
        assert lhs.distance_to(rhs) <= 1e-9


def test_u_translation_lorentz_covariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam = random_lorentz(rng, max_rapidity=1.5)
        x = FourVector(*rng.normal(scale=1.5, size=4))
        v = v_of_lorentz(TAUT, lam)
        lhs = v @ u_translation(TAUT, x) @ v.inverse()
        rhs = u_translation(TAUT, FourVector.from_array(lam.m @ x.array))
        assert lhs.distance_to(rhs) <= 1e-9


def test_u_poincare_tautological_and_reflections():
    assert u_poincare(TAUT, PoincareElement.identity()).is_identity(tol=1e-12)
    rng = np.random.default_rng(37)
    for _ in range(1000):
        g = random_poincare(rng, max_rapidity=2.0)
        assert np.allclose(u_poincare(TAUT, g).matrix, g.affine(), atol=1e-8)
    for _ in range(50):
        r = random_reflection(rng)
        got = u_poincare(TAUT, r)
        assert got.distance_to(TAUT(r)) <= 1e-9


G4 = np.diag([1.0, -1.0, -1.0, -1.0])


def _eigh_translation_reflection(z, c):
    """Reference: Minkowski-orthonormal tau, sigma of span{z, c} from the
    eigenvectors of its 2x2 Gram matrix, and 1 - 2 (tau tau^T - sigma sigma^T) g."""
    gram = np.array([[z @ G4 @ z, z @ G4 @ c], [c @ G4 @ z, c @ G4 @ c]])
    w, q = np.linalg.eigh(gram)  # ascending: w[0] < 0 < w[1] for a timelike plane
    sigma = (q[0, 0] * z + q[1, 0] * c) / np.sqrt(-w[0])
    tau = (q[0, 1] * z + q[1, 1] * c) / np.sqrt(w[1])
    return np.eye(4) - 2.0 * (np.outer(tau, tau) - np.outer(sigma, sigma)) @ G4


def _timelike_vectors(rng, count):
    """Seeded timelike z with |z| in [1e-3, 1e3] and (z.z)/|z|^2 in [1e-2, 1]."""
    for _ in range(count):
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        ratio = 10.0 ** rng.uniform(-2.0, 0.0)
        t = size * np.sqrt(0.5 * (1.0 + ratio)) * rng.choice([-1.0, 1.0])
        s = size * np.sqrt(0.5 * (1.0 - ratio))
        yield np.concatenate([[t], s * random_unit3(rng)])


def test_translation_reflection_closed_form():
    rng = np.random.default_rng(53)
    for z in _timelike_vectors(rng, 2000):
        order = np.argsort(np.abs(z[1:]))
        for rank in (0, 1):
            c = np.zeros(4)
            c[1 + order[rank]] = 1.0
            # rank 0 is the default companion, rank 1 the cross-check's
            companion = None if rank == 0 else c
            r = translation_reflection(FourVector.from_array(z), companion=companion)
            Reflection(r.element)
            lam = r.element.lorentz.m
            bound = 1e-12 * max(1.0, np.linalg.norm(lam))
            assert np.linalg.norm(lam @ z + z) <= bound * np.linalg.norm(z)
            assert np.linalg.norm(lam @ c + c) <= bound
            # the Minkowski complement of span{z, c} is fixed pointwise
            _, _, vh = np.linalg.svd(np.stack([G4 @ z, G4 @ c]))
            for v in vh[2:]:
                assert np.linalg.norm(lam @ v - v) <= bound
            assert np.linalg.norm(lam - _eigh_translation_reflection(z, c)) <= bound


def test_translation_reflection_rejects_spacelike():
    for z in (FourVector(0.0, 1.0, 0.5, 0.0), FourVector(0.5, 0.0, 2.0, 1.0)):
        with pytest.raises(DegenerateEdge):
            translation_reflection(z)


# -------------------------------------------------------------------- verifiers


def test_verify_homomorphism_tautological():
    report = verify_homomorphism(TAUT, 200, seed=5)
    assert report["check"] == "homomorphism"
    assert report["samples"] == 200
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-10


def test_verify_homomorphism_conjugated():
    rng = np.random.default_rng(41)
    report = verify_homomorphism(random_conjugated_map(rng), 200, seed=5)
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-9


def test_verify_homomorphism_short_circuits_bad_maps():
    report = verify_homomorphism(builtin_map({"kind": "spinorial-negative"}), 200, seed=5)
    assert report == {
        "check": "homomorphism",
        "samples": 0,
        "max_residual": report["max_residual"],
        "pass": False,
    }
    assert report["max_residual"] >= 1.0


def test_continuity_probe_constant_path():
    lam = reflection_about_axis([1, 0, 0])
    report = verify_continuity_probe(TAUT, lambda t: lam, steps=5)
    assert report["samples"] == 5
    assert report["max_residual"] <= 1e-12
    assert report["pass"] is True


def test_continuity_probe_scales_with_step():
    lam = reflection_about_axis([1, 0, 0])

    def path(width):
        def at(t):
            g = PoincareElement(make_rotation([0, 0, 1], width * t))
            return lam.conjugated_by(g)

        return at

    coarse = verify_continuity_probe(TAUT, path(0.4), steps=8)
    fine = verify_continuity_probe(TAUT, path(0.4), steps=64)
    assert coarse["pass"] and fine["pass"]
    assert fine["max_residual"] < coarse["max_residual"]
    # halving the path width roughly halves the modulus
    half = verify_continuity_probe(TAUT, path(0.2), steps=8)
    ratio = half["max_residual"] / coarse["max_residual"]
    assert 0.3 < ratio < 0.7


def test_continuity_probe_boost_families_converge():
    lam = reflection_about_axis([0, 1, 0])
    axes = ([1, 0, 0], [0, 0, 1], [0.6, 0, 0.8])
    for axis in axes:
        family = [
            lam.conjugated_by(PoincareElement(make_boost(axis, 2.0 ** -k)))
            for k in range(14)
        ]
        report = verify_continuity_probe(TAUT, family, steps=len(family) - 1)
        assert report["pass"] is True
        tail = TAUT(family[-1])
        assert tail.distance_to(TAUT(lam)) <= 1e-3
