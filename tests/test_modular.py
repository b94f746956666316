"""Finite-dimensional modular theory: J, Delta, commutants, duality."""

import tracemalloc

import numpy as np
import pytest

from wedgegroup import (
    MAX_DIM,
    DimensionCapExceeded,
    MatrixAlgebra,
    NotCyclic,
    NotSeparating,
    block_factor_algebra,
    commutant,
    entangled_vector,
    matrix_units,
    modular_data,
    random_algebra_with_vector,
    span_residual,
    verify_modular_relations,
)
from wedgegroup.suite import check_modular


def _swap_matrix(n):
    """Matrix of e_i x e_j -> e_j x e_i on C^n x C^n."""
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[j * n + i, i * n + j] = 1.0
    return s


def test_commutant_of_full_algebra_is_scalars():
    full = MatrixAlgebra(matrix_units(3))
    com = commutant(full)
    assert com.dim_span() == 1
    assert com.contains(np.eye(3))


def test_commutant_of_tensor_factor():
    left = block_factor_algebra(2, side="left")
    right = block_factor_algebra(2, side="right")
    com = commutant(left)
    assert com.dim_span() == right.dim_span() == 4
    assert span_residual(com.basis(), right.basis()) <= 1e-10


def test_double_commutant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        algebra, _ = random_algebra_with_vector(rng)
        again = commutant(commutant(algebra))
        assert span_residual(again.basis(), algebra.basis()) <= 1e-9


def test_modular_data_closed_form():
    # M_2 x 1 with vector sum_i sqrt(p_i) e_i x e_i: the modular operator is
    # rho x rho^-1 and the conjugation is coordinate swap with conjugation
    p = np.array([0.8, 0.2])
    algebra = block_factor_algebra(2, side="left")
    omega = entangled_vector(p)
    md = modular_data(algebra, omega)

    delta_expected = np.kron(np.diag(p), np.diag(1.0 / p))
    assert np.allclose(md.delta, delta_expected, atol=1e-10)
    assert md.j.antilinear is True
    assert np.allclose(md.j.matrix, _swap_matrix(2), atol=1e-10)


def test_modular_data_tracial_state():
    algebra = block_factor_algebra(3, side="left")
    md = modular_data(algebra, entangled_vector(np.ones(3)))
    assert np.allclose(md.delta, np.eye(9), atol=1e-10)


def test_j_is_independent_of_weights():
    algebra = block_factor_algebra(2, side="left")
    for p in ([0.5, 0.5], [0.9, 0.1], [0.3, 0.7]):
        md = modular_data(algebra, entangled_vector(np.array(p)))
        assert np.allclose(md.j.matrix, _swap_matrix(2), atol=1e-9)


def test_invariant_residuals():
    rng = np.random.default_rng(5)
    for _ in range(20):
        algebra, omega = random_algebra_with_vector(rng)
        md = modular_data(algebra, omega)
        res = md.invariant_residuals(omega)
        assert res["involution"] <= 1e-10
        assert res["fixes_vector"] <= 1e-10
        assert res["delta_fixes_vector"] <= 1e-10
        assert res["inverts_delta"] <= 1e-8


def test_duality_j_maps_algebra_to_commutant():
    rng = np.random.default_rng(7)
    for _ in range(10):
        algebra, omega = random_algebra_with_vector(rng)
        md = modular_data(algebra, omega)
        conjugated = [md.conjugate(b) for b in algebra.basis()]
        assert span_residual(conjugated, commutant(algebra).basis()) <= 1e-8


def test_modular_rotation_preserves_algebra():
    rng = np.random.default_rng(9)
    algebra, omega = random_algebra_with_vector(rng)
    md = modular_data(algebra, omega)
    for t in (0.3, 1.0, 2.7):
        u = md.delta_power(1j * t)
        rotated = [u @ b @ u.conj().T for b in algebra.basis()]
        assert span_residual(rotated, algebra.basis()) <= 1e-8


def test_takesaki_sanity():
    # a generating subset whose closure is forced to the full factor: the
    # modular group fixes it and its orbit of the vector spans, so the spans
    # must agree
    algebra = block_factor_algebra(2, side="left")
    omega = entangled_vector(np.array([0.6, 0.4]))
    e = matrix_units(2)
    sub = MatrixAlgebra([np.kron(e[1], np.eye(2)), np.kron(e[2], np.eye(2))])
    assert sub.dim_span() == algebra.dim_span() == 4
    md = modular_data(algebra, omega)
    u = md.delta_power(1j * 0.77)
    rotated = [u @ b @ u.conj().T for b in sub.basis()]
    assert span_residual(rotated, algebra.basis()) <= 1e-9
    orbit = np.column_stack([b @ omega for b in sub.basis()])
    assert np.linalg.matrix_rank(orbit, tol=1e-9) == 4


def test_not_cyclic_product_vector():
    algebra = block_factor_algebra(2, side="left")
    omega = np.zeros(4, dtype=complex)
    omega[0] = 1.0  # e_0 x e_0: orbit misses the second right leg
    with pytest.raises(NotCyclic):
        modular_data(algebra, omega)


def test_not_separating_full_algebra():
    # the full matrix algebra has trivial commutant, so no vector separates
    full = MatrixAlgebra(matrix_units(2))
    omega = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    with pytest.raises(NotSeparating):
        modular_data(full, omega)


def test_shape_mismatch():
    algebra = block_factor_algebra(2, side="left")
    with pytest.raises(ValueError):
        modular_data(algebra, np.ones(3, dtype=complex))


def test_dimension_cap():
    assert MAX_DIM == 16
    with pytest.raises(DimensionCapExceeded):
        MatrixAlgebra([np.eye(17, dtype=complex)])


def test_algebra_validation():
    with pytest.raises(ValueError):
        MatrixAlgebra([])
    with pytest.raises(ValueError):
        MatrixAlgebra([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        MatrixAlgebra([np.full((2, 2), np.nan)])
    with pytest.raises(ValueError):
        block_factor_algebra(2, side="middle")


def test_algebra_closure_and_contains():
    e = matrix_units(2)
    # generated by a single off-diagonal unit: closure brings in both
    # diagonal projections and the identity
    algebra = MatrixAlgebra([np.kron(e[1], np.eye(2))])
    assert algebra.dim_span() == 4
    assert algebra.contains(np.kron(e[0], np.eye(2)))
    assert not algebra.contains(np.kron(np.eye(2), e[1]))
    with pytest.raises(ValueError):
        algebra.contains(e[1])


@pytest.mark.parametrize("generator", [np.eye(2), np.zeros((2, 2))], ids=["identity", "zero"])
def test_scalar_generators_give_the_scalars(generator):
    # nothing to multiply: closure stops at the identity
    algebra = MatrixAlgebra([generator])
    assert algebra.dim_span() == 1
    assert algebra.contains(2.0 * np.eye(2))
    assert commutant(algebra).dim_span() == 4


def test_verify_modular_relations_single_pair():
    algebra = block_factor_algebra(2, side="left")
    omega = entangled_vector(np.ones(2))
    report = verify_modular_relations([(algebra, omega)], samples=3)
    assert report["check"] == "modular-relations"
    assert report["max_residual"] <= 1e-10
    assert report["pass"] is True


def test_verify_modular_relations_identity_label_action():
    # J J J = J for a single pair under the identity action on labels
    algebra = block_factor_algebra(2, side="left")
    omega = entangled_vector(np.array([0.7, 0.3]))
    report = verify_modular_relations(
        [(algebra, omega)], samples=2, label_action=lambda i, j: j
    )
    assert report["pass"] is True


def test_verify_modular_relations_swapped_family():
    # left and right tensor factors share the same J for the entangled
    # vector; the swap action on labels is realized by the conjugations
    omega = entangled_vector(np.array([0.55, 0.45]))
    pairs = [
        (block_factor_algebra(2, side="left"), omega),
        (block_factor_algebra(2, side="right"), omega),
    ]
    report = verify_modular_relations(
        pairs, samples=2, label_action=lambda i, j: 1 - j if i == 0 else j
    )
    assert report["max_residual"] <= 1e-8
    assert report["pass"] is True


def test_verify_modular_relations_random_pairs():
    rng = np.random.default_rng(11)
    pairs = [random_algebra_with_vector(rng) for _ in range(4)]
    report = verify_modular_relations(pairs, samples=2)
    assert report["pass"] is True


def test_commutant_of_generators_not_closed_under_adjoints():
    # N x 1 with N nilpotent generates M_2 x 1 only together with N* x 1,
    # so the commutant must be 1 x M_2, not all of M_4
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    algebra = MatrixAlgebra([np.kron(n, np.eye(2))])
    com = commutant(algebra)
    assert algebra.dim_span() == 4
    assert com.dim_span() == 4
    right = block_factor_algebra(2, side="right")
    assert span_residual(com.basis(), right.basis()) <= 1e-10
    assert span_residual(commutant(com).basis(), algebra.basis()) <= 1e-10


def test_commutant_matches_stacked_kernel():
    # reference: the null space of the stacked system kron(b, 1) - kron(1, b^T)
    # over every generator and adjoint, from one full SVD at small d
    rng = np.random.default_rng(13)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    algebras = [random_algebra_with_vector(rng, max_dim=6)[0] for _ in range(4)]
    algebras.append(MatrixAlgebra([np.kron(n, np.eye(2)), np.kron(np.eye(2), np.diag([1.0, 2.0]))]))
    for algebra in algebras:
        d = algebra.d
        gens = list(algebra.generators) + [g.conj().T for g in algebra.generators]
        system = np.vstack([np.kron(g, np.eye(d)) - np.kron(np.eye(d), g.T) for g in gens])
        _, s, vh = np.linalg.svd(system)
        s = np.concatenate([s, np.zeros(d * d - len(s))])
        null = [vh[i].conj().reshape(d, d) for i in range(d * d) if s[i] <= 1e-9 * s[0]]
        com = commutant(algebra)
        assert com.dim_span() == len(null)
        assert span_residual(com.basis(), null) <= 1e-9


def test_commutant_reads_the_kernel_from_the_adjoint_when_svd_fails(monkeypatch):
    # every batch SVD fails once, as LAPACK's can; the kernel read from the
    # SVD of the adjoint spans the same commutant
    rng = np.random.default_rng(13)
    algebras = [random_algebra_with_vector(rng, max_dim=6)[0] for _ in range(4)]
    expected = [commutant(algebra).basis() for algebra in algebras]
    calls = []
    svd = np.linalg.svd

    def flaky_svd(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", flaky_svd)
        found = [commutant(algebra).basis() for algebra in algebras]
    assert calls and len(calls) % 2 == 0
    for basis, reference in zip(found, expected):
        assert len(basis) == len(reference)
        assert span_residual(basis, reference) <= 1e-9


def test_suite_modular_check_where_lapack_svd_did_not_converge():
    # the modular check of the quick suite at seed 2099752689 builds a
    # 36 x 36 commutant system on which numpy's LAPACK SVD raised
    assert check_modular(2099752689 + 8, 10)["pass"] is True


@pytest.mark.parametrize(
    "build",
    [lambda: block_factor_algebra(4), lambda: MatrixAlgebra(matrix_units(16))],
    ids=["tensor-factor-16", "full-16"],
)
def test_commutant_and_closure_memory_bounded(build):
    # both run at the dimension cap; a full SVD of the stacked commutator
    # system needs about 300 MB for the first and 69 GB for the second
    tracemalloc.start()
    try:
        alg = build()
        alg.basis()
        commutant(alg).basis()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_modular_data_honours_tol():
    algebra = block_factor_algebra(2, side="left")
    omega = entangled_vector([1 - 1e-6, 1e-6])
    md = modular_data(algebra, omega)
    assert md.invariant_residuals(omega)["fixes_vector"] <= 1e-8
    with pytest.raises(NotCyclic):
        modular_data(algebra, omega, tol=1e-2)
