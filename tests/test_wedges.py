"""Wedge regions, their edges, causal complements, covariance, double cones."""

import numpy as np
import pytest

from wedgegroup import (
    DoubleCone,
    FourVector,
    METRIC,
    PoincareElement,
    PreconditionViolated,
    Wedge,
    act,
    LorentzElement,
    causal_complement,
    make_boost,
    make_rotation,
    minkowski_inner,
    random_poincare,
    random_unit3,
    random_wedge,
    reflection_for_wedge,
    standard_wedge,
    strictly_inside,
    wedges_equal,
)
from wedgegroup.wedges import _frame, _normal_projector, _null_pair

RIGHT = standard_wedge([1, 0, 0])


def _edge(w):
    """Directions u1, u2 of the edge of w (the last two columns of its frame)
    and the point of the edge Minkowski-orthogonal to them."""
    l1, l2 = w.l1.array, w.l2.array
    f = _frame(l1, l2)
    return f[:, 2], f[:, 3], _normal_projector(l1, l2) @ w.p.array


def _offplane(w, x):
    """Euclidean size of the part of x - p off the edge plane of w: its
    projection onto the normal plane."""
    return float(np.linalg.norm(_normal_projector(w.l1.array, w.l2.array) @ (x - w.p.array)))


def test_membership_examples():
    assert RIGHT.contains(FourVector(0, 2, 0, 0))
    assert not RIGHT.contains(FourVector(3, 2, 0, 0))
    assert RIGHT.contains(FourVector(1, 2, 0, 0))
    # boundary is excluded (open region)
    assert not RIGHT.contains(FourVector(2, 2, 0, 0))
    assert not RIGHT.contains(FourVector(0, 0, 0, 0))


def test_membership_matches_inequality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        e = random_unit3(rng)
        w = standard_wedge(e)
        pts = rng.normal(scale=3.0, size=(500, 4))
        for row in pts:
            expected = float(e @ row[1:]) > abs(row[0])
            assert w.contains(FourVector(*row)) == expected


def test_act_identity_and_translation():
    assert wedges_equal(act(PoincareElement.identity(), RIGHT), RIGHT)
    shift = FourVector(0.5, 1.0, -2.0, 0.25)
    moved = act(PoincareElement.from_translation(shift), RIGHT)
    assert moved.p.isclose(RIGHT.p + shift)
    assert moved.contains(FourVector(0, 2, 0, 0) + shift)
    assert not moved.contains(FourVector(3, 2, 0, 0) + shift)


def test_act_commutes_with_membership():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = random_wedge(rng)
        g = random_poincare(rng)
        gw = act(g, w)
        x = FourVector(*rng.normal(scale=2.5, size=4))
        assert gw.contains(g.apply(x)) == w.contains(x)


def test_act_composition():
    # moderate rapidities: the compared data is held to absolute tolerances
    rng = np.random.default_rng(8)
    for _ in range(25):
        w = random_wedge(rng, max_rapidity=1.0)
        g = random_poincare(rng, max_rapidity=1.5, scale=1.0)
        h = random_poincare(rng, max_rapidity=1.5, scale=1.0)
        assert wedges_equal(act(g @ h, w), act(g, act(h, w)), tol=1e-8)


def test_wedges_equal_under_edge_translations():
    # moving the edge point within its own edge plane leaves the region alone;
    # moving it off the plane along a normal, however little, does not
    rng = np.random.default_rng(37)
    for _ in range(100):
        w = random_wedge(rng, max_rapidity=2.0)
        u1, u2, _ = _edge(w)
        s, t = rng.uniform(-5.0, 5.0, size=2)
        shift = s * u1 + t * u2
        same = wedges_equal(w, Wedge(w.l1, w.l2, FourVector.from_array(w.p.array + shift)))
        assert type(same) is bool and same
        moved = Wedge(w.l1, w.l2, FourVector.from_array(w.p.array + 1e-6 * w.l1.array))
        differ = wedges_equal(w, moved)
        assert type(differ) is bool and not differ


def test_act_on_checked_elements_at_tight_tol():
    # the image normals under an element that passed the entry check are
    # not checked again, so at tol 1e-14 act returns for every such element,
    # with normals lightlike to round-off
    tol = 1e-14
    rng = np.random.default_rng(0)
    for _ in range(300):
        rot = make_rotation(random_unit3(rng), rng.uniform(0.0, np.pi))
        boost = make_boost(random_unit3(rng), rng.uniform(0.0, 12.0))
        g = PoincareElement(LorentzElement(rot.m @ boost.m, tol=tol))
        for _ in range(4):
            w = standard_wedge(random_unit3(rng))
            for v in (w, causal_complement(w)):
                image = act(g, v, tol)
                # lightlike to the bound the check applies at the default tol
                for n in (image.l1.array, image.l2.array):
                    assert abs(n @ METRIC @ n) <= 1e-8 * (n @ n)


def test_causal_complement_is_opposite_wedge():
    left = causal_complement(RIGHT)
    assert wedges_equal(left, standard_wedge([-1, 0, 0]))
    assert left.contains(FourVector(0, -2, 0, 0))
    assert not left.contains(FourVector(0, 2, 0, 0))


def test_causal_complement_involutive_and_spacelike():
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = random_wedge(rng)
        assert wedges_equal(causal_complement(causal_complement(w)), w)
    # every point of W is spacelike to every point of W'
    wprime = causal_complement(RIGHT)
    inside, outside = [], []
    while len(inside) < 40 or len(outside) < 40:
        x = FourVector(*rng.normal(scale=3.0, size=4))
        if RIGHT.contains(x):
            inside.append(x)
        elif wprime.contains(x):
            outside.append(x)
    for x in inside[:40]:
        for y in outside[:40]:
            assert minkowski_inner(x - y, x - y) < 0


def test_edge_of_standard_wedge():
    assert np.array_equal(_frame(RIGHT.l1.array, RIGHT.l2.array), np.eye(4))
    u1, u2, point = _edge(RIGHT)
    assert np.allclose(point, 0.0, atol=1e-12)
    span = np.stack([u1, u2])
    # the edge plane is {t = x = 0}, i.e. span of e_y and e_z
    assert np.allclose(span[:, 0], 0.0, atol=1e-12)
    assert np.allclose(span[:, 1], 0.0, atol=1e-12)
    assert abs(np.linalg.det(span[:, 2:])) == pytest.approx(1.0)
    on_edge, off_edge = np.array([0.0, 0.0, -3.0, 7.0]), np.array([0.0, 0.1, -3.0, 7.0])
    assert _offplane(RIGHT, on_edge) <= 1e-9 * (1.0 + np.linalg.norm(on_edge - point))
    assert not _offplane(RIGHT, off_edge) <= 1e-9 * (1.0 + np.linalg.norm(off_edge - point))


@pytest.mark.parametrize("max_rapidity", [1.0, 3.0, 6.0])
def test_edge_matches_svd_reference(max_rapidity):
    # the closed-form frame against a reference basis of the edge directions:
    # the null space of the two normal forms, from an SVD
    rng = np.random.default_rng(int(10 * max_rapidity) + 1)
    for _ in range(2000):
        w = random_wedge(rng, max_rapidity=max_rapidity)
        u1, u2, point = _edge(w)
        u = np.stack([u1, u2])
        ref = np.linalg.svd(np.stack([METRIC @ w.l1.array, METRIC @ w.l2.array]))[2][2:]
        assert np.linalg.norm(u - (u @ ref.T) @ ref) <= 1e-9 * np.linalg.norm(u)
        assert np.abs(u @ METRIC @ u.T + np.eye(2)).max() <= 1e-9
        f = _frame(w.l1.array, w.l2.array)
        scale = np.linalg.norm(f) ** 2
        assert np.abs(f.T @ METRIC @ f - METRIC).max() <= 1e-9 * scale
        assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-9 * scale)
        assert f[0, 0] > 0.0
        # the base point lies on the edge through p
        reach = 1.0 + np.linalg.norm(point - w.p.array)
        assert np.abs(w.margins(FourVector.from_array(point))).max() <= 1e-9 * reach


def test_edge_covariance():
    rng = np.random.default_rng(17)
    for _ in range(30):
        w = random_wedge(rng, max_rapidity=1.0)
        g = random_poincare(rng, max_rapidity=1.5, scale=1.0)
        gw = act(g, w)
        (u1, u2, point), (v1, v2, point2) = _edge(w), _edge(gw)
        for s, t in ((0, 0), (1, 0), (0, 1), (-2, 3)):
            image = g.apply(FourVector.from_array(point + s * u1 + t * u2))
            assert _offplane(gw, image.array) <= 1e-10
            back = g.inverse().apply(FourVector.from_array(point2 + s * v1 + t * v2))
            assert _offplane(w, back.array) <= 1e-10


def test_edge_fixed_by_its_reflection():
    rng = np.random.default_rng(19)
    for _ in range(20):
        w = random_wedge(rng)
        lam = reflection_for_wedge(w)
        u1, u2, point = _edge(w)
        for s, t in ((0, 0), (1, 0), (0, 1), (0.5, -0.5)):
            x = FourVector.from_array(point + s * u1 + t * u2)
            assert float(np.linalg.norm(lam.apply(x).array - x.array)) <= 1e-12 * (
                1 + np.linalg.norm(x.array)
            )


def _cone(center, radius):
    c = np.asarray(center, dtype=float)
    return DoubleCone(
        FourVector(*(c - [radius, 0, 0, 0])),
        FourVector(*(c + [radius, 0, 0, 0])),
    )


def test_double_cone_validation():
    with pytest.raises(ValueError):
        DoubleCone(FourVector(0, 0, 0, 0), FourVector(0, 1, 0, 0))
    with pytest.raises(ValueError):
        DoubleCone(FourVector(1, 0, 0, 0), FourVector(0, 0, 0, 0))


def test_strictly_inside_cases():
    inside = strictly_inside(_cone([0, 2, 0, 0], 0.5), RIGHT)
    assert type(inside) is bool and inside
    # touching the edge of the wedge at the origin
    assert not strictly_inside(_cone([0, 0, 0, 0], 2.0), RIGHT)
    # entirely on the wrong side
    assert not strictly_inside(_cone([0, -2, 0, 0], 0.5), RIGHT)


def test_strictly_inside_monotone_in_radius():
    seen_true = False
    for radius in (1.9, 1.5, 1.0, 0.5, 0.25, 0.1):
        ok = strictly_inside(_cone([0, 2, 0, 0], radius), RIGHT)
        if seen_true:
            assert ok  # shrinking the cone can only help
        seen_true = seen_true or ok
    assert seen_true


def test_strictly_inside_holds_on_the_whole_cone():
    # whenever the apex test accepts, the margin test holds at both apexes and
    # on the equatorial sphere, where the two light cones of the cone meet;
    # each cone is slid along e until it sits delta inside the nearer null
    # boundary of the standard wedge, so the margins decide
    rng = np.random.default_rng(41)
    accepted = {0.0: 0, 1e-6: 0, 1e-3: 0}
    for _ in range(150):
        e = random_unit3(rng)
        l1, l2 = np.concatenate([[1.0], e]), np.concatenate([[1.0], -e])
        d = make_boost(random_unit3(rng), float(rng.uniform(0.0, 1.5))).m[:, 0]
        rho = float(rng.uniform(0.05, 1.0))
        centre = np.concatenate([[rng.normal()], rng.normal(size=3)])
        a = float((centre + rho * d) @ METRIC @ l1)
        b = float((centre - rho * d) @ METRIC @ l2)
        delta = 10.0 ** rng.uniform(-4.0, -1.0)
        centre[1:] += (delta + max(a, -b)) * e
        past, future = centre - rho * d, centre + rho * d
        g = random_poincare(rng, max_rapidity=2.0, scale=1.0)
        w = act(g, standard_wedge(e))
        cone = DoubleCone(g.apply(FourVector(*past)), g.apply(FourVector(*future)))
        v = np.hstack([np.zeros((256, 1)), rng.normal(size=(256, 3))])
        v = v - np.outer(v @ METRIC @ d, d)  # Minkowski-orthogonal to the unit axis d
        v = v / np.sqrt(-np.einsum("ij,jk,ik->i", v, METRIC, v))[:, None]
        points = np.vstack([past, future, centre + rho * v]) @ g.lorentz.m.T + g.translation.array
        rel = points - w.p.array
        for nu in accepted:
            ok = strictly_inside(cone, w, nu)
            assert type(ok) is bool
            if not ok:
                continue
            accepted[nu] += 1
            margin = 2.0 * nu * (1.0 + np.linalg.norm(rel, axis=1))
            assert np.all(rel @ METRIC @ w.l1.array <= -margin)
            assert np.all(rel @ METRIC @ w.l2.array >= margin)
    assert accepted[0.0] == 150 and 0 < accepted[1e-3] < 150


@pytest.mark.parametrize(
    "q, failure",
    [
        (-np.eye(4), r"q00 = -1\.000e\+00, not > 0"),
        (np.diag([1.0, 0.0, 0.0, 0.0]), r"rest\[0, 0\] = 0\.000e\+00, not > 0"),
        (np.diag([1.0, 4.0, 0.0, 0.0]), r"null defect 3\.000e\+00, not <= 1e-6"),
        (np.eye(4), r"projector residual 1\.414e\+00, not <= 2\.000e-06"),
    ],
    ids=["q00", "rest", "null", "residual"],
)
def test_null_pair_names_the_failed_check(q, failure):
    # each non-projector fails a different check, and the message keeps its
    # fixed prefix and appends the failing quantity next to its bound
    prefix = "^not a projector onto a timelike plane: "
    with pytest.raises(PreconditionViolated, match=prefix + failure):
        _null_pair(q)
