"""Complex Clifford algebra representations and planar rotation lifts.

Generators come from the standard Pauli tensor doubling and satisfy

    gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij I,

each gamma_i unitary and anti-Hermitian (so gamma_i^2 = -I).  A rotation
by angle alpha in the plane of two generators lifts to the unitary

    rho(alpha) = cos(alpha/2) I + sin(alpha/2) gamma_i gamma_j,

which is 4*pi-periodic: a full turn returns -I.  Antilinear structure
maps J(v) = C conj(v) commuting with every generator are recovered by
solving the commutant equations as a real linear system over the matrix
entries; the parity J^2 = +I or -I depends only on the ambient
dimension mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._linalg import _frozen, _opnorm

__all__ = [
    "ALGEBRA_TOL",
    "SOLVER_TOL",
    "MAX_AMBIENT_DIM",
    "EPSILON_BY_DIMENSION",
    "CliffordRep",
    "StructureMap",
    "build_clifford",
    "lift_rotation",
    "find_structure_map",
    "real_form_basis",
]

ALGEBRA_TOL = 1e-12
SOLVER_TOL = 1e-10
MAX_AMBIENT_DIM = 12

# Parity of J^2 by ambient dimension mod 8.  Classes 1 and 5 admit no
# antilinear map commuting with the whole algebra (complex type).
EPSILON_BY_DIMENSION = {0: +1, 2: -1, 3: -1, 4: -1, 6: +1, 7: +1}

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _kron_chain(factors):
    return reduce(np.kron, factors, np.eye(1, dtype=complex))


@dataclass(frozen=True)
class CliffordRep:
    """An anticommuting family of unitary anti-Hermitian generators.

    Attributes
    ----------
    m : int
        Ambient dimension (number of generators).
    dim : int
        Representation dimension, ``2 ** (m // 2)``.
    generators : tuple of ndarray
        Complex ``dim x dim`` matrices ``gamma_0 .. gamma_{m-1}``
        (0-based indexing throughout the package).
    """

    m: int
    dim: int
    generators: tuple

    def max_anticommutation_residual(self) -> float:
        """max over pairs of || gamma_i gamma_j + gamma_j gamma_i + 2 delta_ij I ||_2."""
        eye2 = 2.0 * np.eye(self.dim)
        worst = 0.0
        for i, gi in enumerate(self.generators):
            for j, gj in enumerate(self.generators[i:], start=i):
                res = gi @ gj + gj @ gi
                if i == j:
                    res = res + eye2
                worst = max(worst, _opnorm(res))
        return worst

    def max_unitarity_residual(self) -> float:
        eye = np.eye(self.dim)
        worst = 0.0
        for g in self.generators:
            worst = max(worst, _opnorm(g.conj().T @ g - eye))
            worst = max(worst, _opnorm(g.conj().T + g))
        return worst


def build_clifford(m: int) -> CliffordRep:
    """Construct the Pauli tensor representation with m generators.

    Parameters
    ----------
    m : int
        Ambient dimension, ``1 <= m <= 12`` (keeps dim <= 64).

    Returns
    -------
    CliffordRep

    Notes
    -----
    Odd-numbered generators (0-based even slots) are real matrices and
    even-numbered ones purely imaginary; for odd m the last generator is
    ``i * sigma_z^{ox k}``, which equals the product of all the previous
    ones.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("ambient dimension m must be a positive integer")
    if m > MAX_AMBIENT_DIM:
        raise ValueError(
            f"ambient dimension m={m} exceeds the size guard {MAX_AMBIENT_DIM}"
        )
    k = m // 2
    eye2 = np.eye(2, dtype=complex)
    gens = []
    for idx in range(1, m + 1):
        if idx == 2 * k + 1:
            factors = [_PAULI_Z] * k
        else:
            slot = (idx + 1) // 2
            middle = _PAULI_Y if idx % 2 == 1 else _PAULI_X
            factors = [_PAULI_Z] * (slot - 1) + [middle] + [eye2] * (k - slot)
        gens.append(_frozen(1j * _kron_chain(factors)))
    rep = CliffordRep(m=int(m), dim=2**k, generators=tuple(gens))
    res = rep.max_anticommutation_residual()
    if res > ALGEBRA_TOL:
        raise RuntimeError(f"anticommutation residual {res:.3e} exceeds {ALGEBRA_TOL:.1e}")
    resu = rep.max_unitarity_residual()
    if resu > ALGEBRA_TOL:
        raise RuntimeError(f"generator unitarity residual {resu:.3e} exceeds {ALGEBRA_TOL:.1e}")
    return rep


def lift_rotation(rep: CliffordRep, i: int, j: int, alpha: float) -> np.ndarray:
    """Unitary lift of the rotation by alpha in the plane of generators i, j.

    Returns ``cos(alpha/2) I + sin(alpha/2) gamma_i gamma_j``.  Conjugation
    by the result rotates span{gamma_i, gamma_j} by the full angle alpha and
    fixes every other generator; the lift itself is only 4*pi-periodic,
    with ``lift(2*pi) = -I``.
    """
    if i == j:
        raise ValueError("plane indices must differ")
    for idx in (i, j):
        if not 0 <= idx < rep.m:
            raise ValueError(f"generator index {idx} out of range for m={rep.m}")
    half = 0.5 * alpha
    return np.cos(half) * np.eye(rep.dim) + np.sin(half) * (
        rep.generators[i] @ rep.generators[j]
    )


@dataclass(frozen=True)
class StructureMap:
    """Antilinear map J(v) = C conj(v) commuting with all generators.

    ``epsilon`` records J^2 = epsilon * I; the matrix C is unitary.
    """

    matrix: np.ndarray
    epsilon: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(v)

    def commutant_residual(self, rep: CliffordRep) -> float:
        c = self.matrix
        return max(
            _opnorm(c @ np.conj(g) - g @ c) for g in rep.generators
        )


def _commutant_system_blocks(rep: CliffordRep):
    """Real-linear constraint blocks for C conj(gamma) - gamma C = 0.

    With C = X + iY the constraint splits into two real matrix equations
    per generator; in vectorized (column-major) form each contributes the
    2 n^2 x 2 n^2 real block

        [ Gr^T ox I - I ox gr ,  -Gi^T ox I + I ox gi ]
        [ Gi^T ox I - I ox gi ,   Gr^T ox I - I ox gr ]

    where G = conj(gamma) = Gr + i Gi and gamma = gr + i gi.
    """
    n = rep.dim
    eye = np.eye(n)
    blocks = []
    for g in rep.generators:
        gr, gi = np.real(g), np.imag(g)
        big_g = np.conj(g)
        big_gr, big_gi = np.real(big_g), np.imag(big_g)
        a = np.kron(big_gr.T, eye) - np.kron(eye, gr)
        b = -np.kron(big_gi.T, eye) + np.kron(eye, gi)
        c = np.kron(big_gi.T, eye) - np.kron(eye, gi)
        d = np.kron(big_gr.T, eye) - np.kron(eye, gr)
        blocks.append((a, b, c, d))
    return blocks


def _kernel_vector_dense(rep: CliffordRep) -> np.ndarray:
    n = rep.dim
    rows = []
    for a, b, c, d in _commutant_system_blocks(rep):
        rows.append(np.hstack([a, b]))
        rows.append(np.hstack([c, d]))
    system = np.vstack(rows)
    _, s, vt = np.linalg.svd(system, full_matrices=False)
    # the kernel is the complex line through C, i.e. two real dimensions
    if s[-2] > 1e-6 * s[0]:
        raise RuntimeError(
            f"commutant kernel not found (smallest singular values {s[-2]:.3e}, {s[-1]:.3e})"
        )
    return vt[-1]


def _kernel_vector_sparse(rep: CliffordRep) -> np.ndarray:
    # Same system, assembled sparsely; the generators are generalized
    # permutation matrices so every constraint row has O(1) entries.
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    n = rep.dim
    eye = sparse.identity(n, format="csr")
    normal = None
    for g in rep.generators:
        gs = sparse.csr_matrix(g)
        big_g = sparse.csr_matrix(np.conj(g))
        gr, gi = np.real(gs.toarray()), np.imag(gs.toarray())
        grs, gis = sparse.csr_matrix(gr), sparse.csr_matrix(gi)
        big_gr = sparse.csr_matrix(np.real(big_g.toarray()))
        big_gi = sparse.csr_matrix(np.imag(big_g.toarray()))
        a = sparse.kron(big_gr.T, eye) - sparse.kron(eye, grs)
        b = -sparse.kron(big_gi.T, eye) + sparse.kron(eye, gis)
        c = sparse.kron(big_gi.T, eye) - sparse.kron(eye, gis)
        d = sparse.kron(big_gr.T, eye) - sparse.kron(eye, grs)
        block = sparse.bmat([[a, b], [c, d]], format="csr")
        term = (block.T @ block).tocsr()
        normal = term if normal is None else normal + term
    normal = normal.tocsc()
    size = normal.shape[0]
    try:
        vals, vecs = eigsh(normal, k=2, sigma=-1.0, which="LM")
    except Exception:
        vals, vecs = eigsh(normal, k=2, which="SA", maxiter=size * 40)
    order = np.argsort(np.abs(vals))
    if abs(vals[order[0]]) > 1e-8:
        raise RuntimeError(
            f"commutant kernel not found (smallest normal eigenvalue {vals[order[0]]:.3e})"
        )
    return vecs[:, order[0]]


def find_structure_map(rep: CliffordRep) -> StructureMap:
    """Solve the antilinear commutant equations for a structure map.

    Parameters
    ----------
    rep : CliffordRep

    Returns
    -------
    StructureMap
        With ``epsilon = +1`` for m mod 8 in {0, 6, 7} and ``-1`` for
        m mod 8 in {2, 3, 4}.

    Raises
    ------
    ValueError
        If m mod 8 is 1 or 5 (no solution exists for those classes).
    RuntimeError
        If the kernel solve fails its residual checks; this signals a
        construction bug, not an expected condition.
    """
    if rep.m % 8 in (1, 5):
        raise ValueError(
            f"m={rep.m}: the commutant equations have no antilinear solution "
            "when m mod 8 is 1 or 5"
        )
    n = rep.dim
    if 2 * n * n <= 1024:
        vec = _kernel_vector_dense(rep)
    else:
        vec = _kernel_vector_sparse(rep)
    x = vec[: n * n].reshape((n, n), order="F")
    y = vec[n * n :].reshape((n, n), order="F")
    c = x + 1j * y
    c = c / np.linalg.norm(c)  # unit Frobenius norm kernel element

    # J^2 = C conj(C) must be a real multiple of the identity; rescale so
    # the multiple becomes exactly +/- 1.
    square = c @ np.conj(c)
    mu = float(np.real(np.trace(square)) / n)
    if abs(mu) < 1e-6:
        raise RuntimeError(f"structure map square degenerate (mu={mu:.3e})")
    if _opnorm(square - mu * np.eye(n)) > SOLVER_TOL * max(1.0, abs(mu)):
        raise RuntimeError("structure map square is not scalar")
    c = c / np.sqrt(abs(mu))
    epsilon = 1 if mu > 0 else -1

    smap = StructureMap(matrix=_frozen(c), epsilon=epsilon)
    res = smap.commutant_residual(rep)
    if res > SOLVER_TOL:
        raise RuntimeError(f"commutant residual {res:.3e} exceeds {SOLVER_TOL:.1e}")
    if _opnorm(c.conj().T @ c - np.eye(n)) > 100 * SOLVER_TOL:
        raise RuntimeError("structure map matrix is not unitary")
    if _opnorm(c @ np.conj(c) - epsilon * np.eye(n)) > 100 * SOLVER_TOL:
        raise RuntimeError("structure map square differs from epsilon * I")
    return smap


def real_form_basis(rep: CliffordRep, smap: StructureMap) -> np.ndarray:
    """Orthonormal basis of the J-fixed real subspace, as matrix columns.

    Only defined for ``epsilon = +1`` maps, whose fixed set is a real
    form of the representation space: dim complex space = dim real form.
    The returned ``dim x dim`` complex matrix B has J-fixed orthonormal
    columns, so conjugating a lift by B produces a real orthogonal
    matrix whenever the lift commutes with J.
    """
    if smap.epsilon != +1:
        raise ValueError("real form requires a structure map with epsilon = +1")
    n = rep.dim
    eye = np.eye(n, dtype=complex)
    fixed_u = eye + smap.apply(eye)              # columns e_j + J e_j
    fixed_w = 1j * (eye - smap.apply(eye))       # columns i (e_j - J e_j)
    candidates = np.hstack([fixed_u, fixed_w])
    embedded = np.vstack([np.real(candidates), np.imag(candidates)])
    u, s, _ = np.linalg.svd(embedded, full_matrices=False)
    if s[n - 1] <= 1e-8 * s[0] or (s.shape[0] > n and s[n] > 1e-8 * s[0]):
        raise RuntimeError("fixed subspace does not have full real rank")
    basis = u[:n, :n] + 1j * u[n:, :n]
    if _opnorm(basis.conj().T @ basis - np.eye(n)) > SOLVER_TOL:
        raise RuntimeError("real form basis failed orthonormality check")
    if _opnorm(smap.apply(basis) - basis) > 100 * SOLVER_TOL:
        raise RuntimeError("real form basis columns are not J-fixed")
    return _frozen(basis)
