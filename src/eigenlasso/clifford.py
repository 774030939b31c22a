"""Complex Clifford algebra representations and planar rotation lifts.

Generators come from the standard Pauli tensor doubling and satisfy

    gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij I,

each gamma_i unitary and anti-Hermitian (so gamma_i^2 = -I).  A rotation
by angle alpha in the plane of two generators lifts to the unitary

    rho(alpha) = cos(alpha/2) I + sin(alpha/2) gamma_i gamma_j,

which is 4*pi-periodic: a full turn returns -I.  Antilinear structure
maps J(v) = C conj(v) commuting with every generator exist when m mod 8
is not 1 or 5, with a parity J^2 = +I or -I that depends only on m mod 8
(Atiyah-Bott-Shapiro).  For every m, C is a product of generators,
written down in closed form with no solve, and for J^2 = +I the real
form basis is read off the coordinate pairs that C swaps.
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


def _generator_product(rep: CliffordRep) -> np.ndarray:
    """C in closed form: a product of k = m // 2 generators.

    C conj(gamma) = gamma C asks C to commute with the real generators
    (even slots) and to anticommute with the imaginary ones.  A generator
    passes a product of k others with sign (-1)^k, and a product that
    holds it with sign (-1)^(k-1); so the k real generators work for odd
    k, and the k imaginary ones for even k.  The extra generator of odd m
    is imaginary and in neither product, so it needs odd k: there is no
    map for m mod 8 in {1, 5}.
    """
    k = rep.m // 2
    return reduce(np.matmul, rep.generators[1 - k % 2 : 2 * k : 2])


def find_structure_map(rep: CliffordRep) -> StructureMap:
    """The antilinear structure map of the representation, in closed form.

    C is `_generator_product`, taken as is for every m: a product of
    unitary generators, so a monomial unitary with entries in
    {0, +-1, +-i}, and there is nothing to solve or normalise.  epsilon
    is read from C conj(C), and C passes the commutant, unitarity and
    C conj(C) = epsilon I checks.

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
        If C fails its residual checks; this signals a construction
        bug, not an expected condition.
    """
    if rep.m % 8 in (1, 5):
        raise ValueError(
            f"m={rep.m}: the commutant equations have no antilinear solution "
            "when m mod 8 is 1 or 5"
        )
    n = rep.dim
    c = _generator_product(rep)
    square = c @ np.conj(c)  # J^2, which must be +-I
    epsilon = 1 if np.real(np.trace(square)) > 0 else -1

    smap = StructureMap(matrix=_frozen(c), epsilon=epsilon)
    res = smap.commutant_residual(rep)
    if res > SOLVER_TOL:
        raise RuntimeError(f"commutant residual {res:.3e} exceeds {SOLVER_TOL:.1e}")
    if _opnorm(c.conj().T @ c - np.eye(n)) > 100 * SOLVER_TOL:
        raise RuntimeError("structure map matrix is not unitary")
    if _opnorm(square - epsilon * np.eye(n)) > 100 * SOLVER_TOL:
        raise RuntimeError("structure map square differs from epsilon * I")
    return smap


def _real_form_pairs(smap: StructureMap) -> np.ndarray:
    """sqrt(2) times an orthonormal basis of the J-fixed real form of an
    epsilon = +1 map, with entries in {0, +-1, +-i}.

    Such a map C is a real signed permutation with C^2 = I and no fixed
    index, so it pairs the coordinates: C e_a = s e_b and C e_b = s e_a.
    Each pair a < b gives the J-fixed columns e_a + s e_b and
    i (e_a - s e_b), in order of a.  Products of these columns with
    generators are small integers, which keeps the spin structure exact.
    """
    c = smap.matrix
    n = c.shape[0]
    image = np.argmax(np.abs(c), axis=0)  # C e_a is a multiple of e_image[a]
    a = np.flatnonzero(np.arange(n) < image)
    if 2 * a.size != n:
        raise RuntimeError("structure map does not pair the coordinates")
    b = image[a]
    s = c[b, a]
    cols = 2 * np.arange(a.size)
    pairs = np.zeros((n, n), dtype=complex)
    pairs[a, cols] = 1.0
    pairs[b, cols] = s
    pairs[a, cols + 1] = 1j
    pairs[b, cols + 1] = -1j * s
    if _opnorm(pairs.conj().T @ pairs - 2.0 * np.eye(n)) > 2 * SOLVER_TOL:
        raise RuntimeError("real form basis failed orthonormality check")
    if _opnorm(smap.apply(pairs) - pairs) > 100 * SOLVER_TOL:
        raise RuntimeError("real form basis columns are not J-fixed")
    return pairs

