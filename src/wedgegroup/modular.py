"""Finite-dimensional modular theory for matrix algebras.

For a unital *-algebra of d x d matrices with a cyclic and separating vector,
the antilinear involution S(a Omega) = a* Omega is assembled explicitly and
polar-decomposed into the conjugation J and the positive operator Delta.
This gives a desk-scale oracle for the operator relations quoted against
wedge algebras: J M J equals the commutant, Delta fixes Omega, and the
conjugations of compatible pairs compose geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapExceeded, NotCyclic, NotSeparating
from .reconstruction import TargetElement
from .tolerances import resolve_tol

__all__ = [
    "MAX_DIM",
    "MatrixAlgebra",
    "ModularData",
    "commutant",
    "modular_data",
    "span_residual",
    "matrix_units",
    "block_factor_algebra",
    "random_algebra_with_vector",
    "verify_modular_relations",
]

MAX_DIM = 16
_SPAN_TOL = 1e-10
# complex entries per batch of products: d^4 at the cap, whatever the generators
_CHUNK = MAX_DIM**4


def _extend(rows, q=None):
    """Orthonormal rows for what `rows` adds to the span of the orthonormal
    rows `q` (none by default): two projections, one rank-revealing SVD."""
    q = rows[:0] if q is None else q
    r = rows - (rows @ q.conj().T) @ q
    r -= (r @ q.conj().T) @ q
    _, s, vh = np.linalg.svd(r, full_matrices=False)
    return vh[s > _SPAN_TOL * max(1.0, s[0])]


class MatrixAlgebra:
    """Unital *-algebra of complex d x d matrices given by generators.

    The linear span closed under products and adjoints (always containing
    the identity) is computed lazily; dimensions above MAX_DIM are refused
    to keep closure computations bounded.
    """

    __slots__ = ("_generators", "_d", "_basis")

    def __init__(self, generators):
        mats = [np.asarray(g, dtype=complex) for g in generators]
        if not mats:
            raise ValueError("need at least one generator")
        d = mats[0].shape[0]
        for g in mats:
            if g.ndim != 2 or g.shape != (d, d):
                raise ValueError("generators must be square matrices of equal size")
            if not np.all(np.isfinite(g)):
                raise ValueError("generators must have finite entries")
        if d > MAX_DIM:
            raise DimensionCapExceeded(f"dimension {d} exceeds the cap {MAX_DIM}")
        self._generators = tuple(mats)
        self._d = d
        self._basis = None

    @property
    def d(self):
        return self._d

    @property
    def generators(self):
        return self._generators

    def basis(self):
        """Orthonormal basis (trace inner product) of the closed span.

        Words in the generators and their adjoints span the algebra, so
        closure starts from their span S, each scaled to unit norm for a
        scale-free rank test, and each round multiplies only the directions
        the last round found by S, in batches of about _CHUNK entries, each
        projected off the basis and appended by one thin SVD.
        """
        if self._basis is None:
            d = self._d
            q = np.eye(d, dtype=complex).reshape(1, d * d) / np.sqrt(d)
            step = max(1, _CHUNK // (2 * d * d))
            for i in range(0, len(self._generators), step):
                gens = np.asarray(self._generators[i : i + step])
                gens = gens / np.linalg.norm(gens, axis=(1, 2), keepdims=True).clip(1e-300)
                rows = np.concatenate([gens, gens.conj().transpose(0, 2, 1)])
                q = np.vstack([q, _extend(rows.reshape(-1, d * d), q)])
            newest = q.reshape(-1, d, d)
            mult = newest[1:]  # the identity adds no products
            while len(mult) and len(newest) and len(q) < d * d:
                step = max(1, _CHUNK // (len(newest) * d * d))
                found = []
                for i in range(0, len(mult), step):
                    products = mult[i : i + step, None] @ newest[None]
                    found.append(_extend(products.reshape(-1, d * d), q))
                    q = np.vstack([q, found[-1]])
                newest = np.concatenate(found).reshape(-1, d, d)
            self._basis = q.reshape(-1, d, d)
        return list(self._basis)

    def dim_span(self):
        return len(self.basis())

    def contains(self, x, tol=1e-9):
        """Whether the matrix lies in the closed span."""
        v = np.asarray(x, dtype=complex).reshape(self._d**2)
        q = np.reshape(self.basis(), (-1, v.size))
        r = v - (q.conj() @ v) @ q
        return float(np.linalg.norm(r)) <= tol * max(1.0, np.linalg.norm(v))


def commutant(algebra: MatrixAlgebra) -> MatrixAlgebra:
    """All matrices commuting with the algebra, for any generator set.

    The commutant is the common kernel of X -> bX - Xb over an orthonormal
    basis of the algebra (the same kernel as over the generators and their
    adjoints). Starting from all of M_d, each batch of maps narrows the
    kernel by one thin SVD; a batch holds at most d^4 entries, so memory
    stays O(d^4). The orthonormal kernel is already a *-algebra and serves
    as the commutant's basis without closure.
    """
    d = algebra.d
    mult = np.asarray(algebra.basis())
    # trace parts leave every commutator unchanged; dropping them drops the identity
    mult = mult - np.trace(mult, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
    mult = mult[np.linalg.norm(mult, axis=(1, 2)) > _SPAN_TOL]
    kernel = np.eye(d * d, dtype=complex).reshape(-1, d, d)
    done = 0
    while done < len(mult) and len(kernel) > 1:  # one left: the scalars
        b = mult[done : done + max(1, d * d // len(kernel))]
        done += len(b)
        comm = b[:, None] @ kernel[None] - kernel[None] @ b[:, None]
        system = comm.transpose(0, 2, 3, 1).reshape(-1, len(kernel))
        try:
            _, s, vh = np.linalg.svd(system, full_matrices=False)
        except np.linalg.LinAlgError:
            # LAPACK can fail to converge on a matrix and not on its adjoint,
            # whose left singular vectors are the right ones of the matrix
            u, s, _ = np.linalg.svd(system.conj().T, full_matrices=False)
            vh = u.conj().T
        kernel = np.tensordot(vh[s <= 1e-9 * max(1.0, s[0])].conj(), kernel, axes=1)
    out = MatrixAlgebra(kernel)
    out._basis = kernel
    return out


@dataclass(frozen=True)
class ModularData:
    """Conjugation and positive operator from a cyclic separating vector."""

    j: TargetElement
    delta: np.ndarray

    def conjugate(self, x) -> np.ndarray:
        """The matrix of J x J (a linear operator)."""
        jm = self.j.matrix
        return jm @ np.conj(np.asarray(x, dtype=complex)) @ np.conj(jm)

    def delta_power(self, exponent) -> np.ndarray:
        w, u = np.linalg.eigh(self.delta)
        return (u * np.power(w.astype(complex), exponent)) @ u.conj().T

    def invariant_residuals(self, omega) -> dict:
        om = np.asarray(omega, dtype=complex)
        jm = self.j.matrix
        d = jm.shape[0]
        return {
            "involution": float(np.linalg.norm(jm @ np.conj(jm) - np.eye(d))),
            "fixes_vector": float(np.linalg.norm(jm @ np.conj(om) - om)),
            "delta_fixes_vector": float(np.linalg.norm(self.delta @ om - om)),
            "inverts_delta": float(
                np.linalg.norm(self.conjugate(self.delta) - np.linalg.inv(self.delta))
            ),
        }


def modular_data(algebra: MatrixAlgebra, omega, tol=None) -> ModularData:
    """Assemble S(a Omega) = a* Omega on the algebra and polar-decompose it.

    Omega must be cyclic (algebra orbit spans the space) and separating
    (a Omega = 0 only for a = 0); rank tests at resolve_tol(tol) enforce both.
    """
    tol = resolve_tol(tol)
    om = np.asarray(omega, dtype=complex).reshape(-1)
    d = algebra.d
    if om.shape[0] != d:
        raise ValueError("vector dimension does not match the algebra")
    basis = algebra.basis()
    v = np.column_stack([b @ om for b in basis])
    w = np.column_stack([b.conj().T @ om for b in basis])
    s_vals = np.linalg.svd(v, compute_uv=False)
    rank = int(np.sum(s_vals > tol * max(1.0, s_vals[0])))
    if rank < d:
        raise NotCyclic("the algebra orbit of the vector does not span the space")
    if rank < len(basis):
        raise NotSeparating("a nonzero algebra element annihilates the vector")
    # cyclic and separating force the span dimension to equal d, so the
    # column matrices are square and invertible
    s_mat = w @ np.linalg.inv(np.conj(v))
    delta = s_mat.T @ np.conj(s_mat)
    delta = 0.5 * (delta + delta.conj().T)
    evals, evecs = np.linalg.eigh(delta)
    if evals[0] <= 0:
        raise NotSeparating("the modular operator degenerated numerically")
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    j_mat = s_mat @ np.conj(inv_sqrt)
    return ModularData(j=TargetElement(j_mat, antilinear=True), delta=delta)


def span_residual(basis_a, basis_b) -> float:
    """Symmetric distance between two matrix spans: worst projection defect
    of a unit vector of one span against the orthonormalized other."""
    fa, fb = (_extend(np.reshape(m, (len(m), -1)).astype(complex)) for m in (basis_a, basis_b))
    defects = [ours - (ours @ theirs.conj().T) @ theirs for ours, theirs in ((fa, fb), (fb, fa))]
    return float(max(np.linalg.norm(r, axis=1).max(initial=0.0) for r in defects))


def matrix_units(n):
    """The n^2 matrix units E_ij."""
    return list(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def block_factor_algebra(n, side="left") -> MatrixAlgebra:
    """M_n acting on one tensor leg of C^n x C^n, identity on the other."""
    eye = np.eye(n, dtype=complex)
    if side == "left":
        gens = [np.kron(e, eye) for e in matrix_units(n)]
    elif side == "right":
        gens = [np.kron(eye, e) for e in matrix_units(n)]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return MatrixAlgebra(gens)


def entangled_vector(weights) -> np.ndarray:
    """Sum of sqrt(w_i) e_i x e_i for positive weights summing to one."""
    p = np.asarray(weights, dtype=float)
    p = p / np.sum(p)
    n = p.shape[0]
    om = np.zeros(n * n, dtype=complex)
    om[:: n + 1] = np.sqrt(p)
    return om


def random_algebra_with_vector(rng, max_dim=8):
    """Random (algebra, cyclic separating vector) pair of dimension <= max_dim.

    Direct sums of one-leg tensor factors carry per-block entangled vectors;
    a random unitary conjugation hides the block structure.
    """
    blocks = []
    total = 0
    while True:
        n = int(rng.integers(1, 3))
        if total + n * n > max_dim:
            if blocks:
                break
            continue
        blocks.append(n)
        total += n * n
        if total >= max_dim - 1 or rng.uniform() < 0.3:
            break
    d = total
    gens = []
    omega = np.zeros(d, dtype=complex)
    offset = 0
    for n in blocks:
        size = n * n
        eye_n = np.eye(n, dtype=complex)
        for e in matrix_units(n):
            g = np.zeros((d, d), dtype=complex)
            g[offset : offset + size, offset : offset + size] = np.kron(e, eye_n)
            gens.append(g)
        weights = rng.uniform(0.2, 1.0, size=n)
        omega[offset : offset + size] = entangled_vector(weights) * float(
            rng.uniform(0.5, 1.0)
        )
        offset += size
    omega = omega / np.linalg.norm(omega)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    gens = [q @ g @ q.conj().T for g in gens]
    return MatrixAlgebra(gens), q @ omega


def verify_modular_relations(pairs, samples, label_action=None, tol=None):
    """Audit the modular invariants and duality for a list of (algebra,
    vector) pairs, optionally checking the geometric composition law of the
    conjugations under a supplied label action.

    For each pair: the four construction invariants, J M J = commutant span
    equality, and invariance of the span under sampled modular rotations.
    With a label action f, additionally J_i J_j J_i ~ J_f(i, j) for all
    index pairs.
    """
    worst = 0.0
    data = []
    for algebra, omega in pairs:
        md = modular_data(algebra, omega, tol=tol)
        data.append(md)
        res = md.invariant_residuals(omega)
        worst = max(worst, *res.values())
        conj_basis = [md.conjugate(b) for b in algebra.basis()]
        worst = max(worst, span_residual(conj_basis, commutant(algebra).basis()))
        for k in range(int(samples)):
            t = 0.6180339887498949 * (k + 1)
            u = md.delta_power(1j * t)
            rotated = [u @ b @ u.conj().T for b in algebra.basis()]
            worst = max(worst, span_residual(rotated, algebra.basis()))
    if label_action is not None:
        for i, mi in enumerate(data):
            for j, mj in enumerate(data):
                k = label_action(i, j)
                lhs = mi.j @ mj.j @ mi.j
                worst = max(worst, lhs.distance_to(data[k].j))
    return {
        "check": "modular-relations",
        "samples": int(samples),
        "max_residual": float(worst),
        "pass": bool(worst <= 1e-8),
    }
