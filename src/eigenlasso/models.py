"""Operator families consumed by the spectral and holonomy machinery.

Two kinds of models live here: an exact circle derivative model whose
spectrum is known in closed form (the oracle, with its two boundary
condition offsets), and equivariant loops D(t) = rho(t) D0 rho(t)^T
obtained by conjugating a base operator with a closed path of
orthogonal matrices.  A loop is odd when rho(1) = -I and even when
rho(1) = +I; odd loops are the sign-carrying ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._linalg import _frozen, _opnorm
from .clifford import build_clifford, find_structure_map, lift_rotation, real_form_basis

__all__ = [
    "SYMMETRY_RTOL",
    "SymmetricOperator",
    "OperatorFamily",
    "CircleDiracModel",
    "EquivariantLoopModel",
    "make_circle_dirac",
    "make_halfturn_loop",
    "make_fullturn_loop",
    "make_block_rotation_loop",
    "make_spin_loop",
    "make_odd_multiplicity_base",
    "as_matrix",
]

SYMMETRY_RTOL = 1e-13


def as_matrix(op) -> np.ndarray:
    """Accept a SymmetricOperator, array, or nested list; return ndarray."""
    if isinstance(op, SymmetricOperator):
        return op.matrix
    a = np.asarray(op)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SymmetricOperator:
    """A real symmetric (or complex Hermitian) matrix with checked symmetry."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = max(_opnorm(m), 1e-300)
        defect = _opnorm(m - m.conj().T)
        if defect > SYMMETRY_RTOL * scale:
            raise ValueError(
                f"symmetry defect {defect:.3e} exceeds {SYMMETRY_RTOL:.0e} * norm"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.matrix) or float(np.abs(np.imag(self.matrix)).max()) == 0.0


@dataclass(frozen=True)
class OperatorFamily:
    """A parametrized family of symmetric operators.

    ``domain`` is "interval" or "circle".  Circle families wrap their
    parameter modulo 1, which makes closure exact: family(1.0) returns
    bit for bit the same matrix as family(0.0).
    """

    domain: str
    sampler: Callable[[float], np.ndarray]
    parity: Optional[str] = None  # "odd" / "even" for equivariant loops
    name: str = ""

    def __post_init__(self):
        if self.domain not in ("interval", "circle"):
            raise ValueError(f"unknown family domain {self.domain!r}")
        if self.parity not in (None, "odd", "even"):
            raise ValueError(f"unknown parity {self.parity!r}")

    def __call__(self, t: float) -> np.ndarray:
        if self.domain == "circle":
            t = float(t) % 1.0
        return self.sampler(float(t))

    def rebased(self, shift: float) -> "OperatorFamily":
        """The same circle loop started at parameter ``shift``."""
        if self.domain != "circle":
            raise ValueError("rebasing is only defined for circle families")
        base = self

        def sampler(t: float) -> np.ndarray:
            return base((t + shift) % 1.0)

        return OperatorFamily(
            domain="circle", sampler=sampler, parity=self.parity,
            name=f"{self.name}@{shift:g}" if self.name else "",
        )


# ---------------------------------------------------------------------------
# circle derivative oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleDiracModel:
    """Truncated first order derivative operator on the circle.

    ``delta`` selects the boundary condition: 0 gives integer
    frequencies (with a zero mode), 1/2 the half integer ladder.  The
    matrix realization is the real antisymmetric matrix of d/dtheta in
    the trigonometric basis; the analytic spectrum is
    {n + delta : |n + delta| <= n_max}, every eigenvalue simple.
    """

    n_max: int
    delta: float
    antisymmetric: np.ndarray

    @property
    def dim(self) -> int:
        return self.antisymmetric.shape[0]

    def frequencies(self) -> np.ndarray:
        """Positive frequencies of the two-dimensional rotation blocks."""
        if self.delta == 0.0:
            return np.arange(1, self.n_max + 1, dtype=float)
        return np.arange(0, self.n_max, dtype=float) + 0.5

    def analytic_spectrum(self) -> np.ndarray:
        pos = self.frequencies()
        values = np.concatenate([-pos[::-1], [0.0] if self.delta == 0.0 else [], pos])
        return values

    def numerical_spectrum(self) -> np.ndarray:
        """Spectrum recovered from the matrix by the squared-sorted route.

        Squares the antisymmetric matrix, takes paired square roots, and
        splits each pair into +/- eigenvalues; kernel directions stay as
        single zeros.  This route never consults the analytic list.
        """
        a = self.antisymmetric
        squared = a.T @ a  # = -a @ a, positive semidefinite
        mags = np.sqrt(np.clip(np.linalg.eigvalsh(squared), 0.0, None))
        cutoff = 1e-10 * max(float(mags.max(initial=0.0)), 1.0)
        zeros = mags[mags <= cutoff]
        pos = np.sort(mags[mags > cutoff])
        if pos.shape[0] % 2 != 0:
            raise RuntimeError("nonzero squared eigenvalues failed to pair up")
        pairs = pos.reshape(-1, 2)
        if pairs.shape[0] and float(np.max(pairs[:, 1] - pairs[:, 0])) > cutoff:
            raise RuntimeError("paired square roots disagree beyond tolerance")
        omega = pairs.mean(axis=1)
        values = np.concatenate([-omega[::-1], np.zeros(zeros.shape[0]), omega])
        return values

    def operator(self) -> SymmetricOperator:
        """Hermitian realization i * A in the same trigonometric basis."""
        return SymmetricOperator(1j * self.antisymmetric)

    def family(self) -> OperatorFamily:
        h = self.operator().matrix

        def sampler(t: float) -> np.ndarray:
            return h

        return OperatorFamily(domain="interval", sampler=sampler,
                              name=f"circle(n_max={self.n_max}, delta={self.delta})")


def make_circle_dirac(n_max: int, delta: float) -> CircleDiracModel:
    """Build the truncated circle model for offset delta in {0, 1/2}.

    The matrix is block diagonal: one 2x2 antisymmetric rotation
    generator [[0, w], [-w, 0]] per positive frequency w, plus a single
    1x1 zero block for the constant mode when delta = 0.
    """
    if n_max < 1:
        raise ValueError("truncation n_max must be >= 1")
    if delta not in (0.0, 0.5, 0, 1 / 2):
        raise ValueError("delta must be 0 or 0.5")
    delta = float(delta)
    if delta == 0.0:
        freqs = np.arange(1, n_max + 1, dtype=float)
        size = 2 * n_max + 1
        offset = 1
    else:
        freqs = np.arange(0, n_max, dtype=float) + 0.5
        size = 2 * n_max
        offset = 0
    a = np.zeros((size, size))
    for b, w in enumerate(freqs):
        i = offset + 2 * b
        a[i, i + 1] = w
        a[i + 1, i] = -w
    return CircleDiracModel(n_max=int(n_max), delta=delta, antisymmetric=_frozen(a))


# ---------------------------------------------------------------------------
# equivariant loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivariantLoopModel:
    """Loop D(t) = rho(t) D0 rho(t)^T for an orthogonal path rho.

    rho(0) = I and rho(1) = sigma I with sigma in {+1, -1}; the loop is
    odd when sigma = -1.  Conjugation keeps the spectrum constant along
    the loop and transports eigenvectors: if D0 v = lambda v then
    D(t) (rho(t) v) = lambda (rho(t) v).
    """

    base: SymmetricOperator
    rotation: Callable[[float], np.ndarray]
    sigma: int = field(init=False, default=0)
    parity: str = field(init=False, default="")

    def __post_init__(self):
        if not self.base.is_real:
            raise ValueError("equivariant loops require a real symmetric base")
        dim = self.base.dim
        eye = np.eye(dim)
        r0 = self.rotation(0.0)
        if _opnorm(r0 - eye) > 1e-12:
            raise ValueError("rotation path must start at the identity")
        r1 = self.rotation(1.0)
        sigma = 1 if float(np.trace(r1)) > 0 else -1
        if _opnorm(r1 - sigma * eye) > 1e-12:
            raise ValueError("rotation path must end at +I or -I")
        for t in (0.3, 0.7):
            r = self.rotation(t)
            if _opnorm(r.T @ r - eye) > 1e-12:
                raise ValueError(f"rotation path is not orthogonal at t={t}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "parity", "odd" if sigma < 0 else "even")

    @property
    def dim(self) -> int:
        return self.base.dim

    def operator_at(self, t: float) -> np.ndarray:
        r = self.rotation(float(t) % 1.0)
        return r @ self.base.matrix @ r.T

    def transport_vector(self, t: float, v: np.ndarray) -> np.ndarray:
        return self.rotation(float(t) % 1.0) @ v

    def family(self) -> OperatorFamily:
        return OperatorFamily(
            domain="circle",
            sampler=lambda t: self.operator_at(t),
            parity=self.parity,
            name=f"equivariant(dim={self.dim}, parity={self.parity})",
        )


def _rotation_block(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def make_block_rotation_loop(base, turns: float) -> EquivariantLoopModel:
    """Conjugation loop by block diagonal planar rotations.

    ``turns`` is the number of full rotations completed at t = 1; a half
    turn (turns = 0.5) ends at -I and gives an odd loop, integer turns
    end at +I and give even loops.
    """
    d0 = base if isinstance(base, SymmetricOperator) else SymmetricOperator(as_matrix(base))
    if d0.dim % 2 != 0:
        raise ValueError("block rotation loops require even dimension")
    if (2.0 * turns) != int(2.0 * turns):
        raise ValueError("turns must be a multiple of one half")
    half_blocks = d0.dim // 2

    def rotation(t: float) -> np.ndarray:
        return np.kron(np.eye(half_blocks), _rotation_block(2.0 * np.pi * turns * t))

    return EquivariantLoopModel(base=d0, rotation=rotation)


def make_halfturn_loop(base) -> EquivariantLoopModel:
    """Odd loop: every 2x2 block rotates by angle pi*t, so rho(1) = -I."""
    return make_block_rotation_loop(base, turns=0.5)


def make_fullturn_loop(base) -> EquivariantLoopModel:
    """Even companion loop: blocks rotate by 2*pi*t, so rho(1) = +I."""
    return make_block_rotation_loop(base, turns=1.0)


def make_spin_loop(m: int, base, turns: int = 1) -> EquivariantLoopModel:
    """Rotation loop lifted through a Clifford representation.

    Builds the representation for ambient dimension m (which must admit
    a real structure, i.e. m mod 8 in {0, 6, 7}), restricts the lift of
    the rotation in the plane of the last two generators to the real
    form, and conjugates the base operator by the resulting orthogonal
    path.  One rotation turn lifts to -I (odd loop); two turns give +I.
    """
    if m % 8 not in (0, 6, 7):
        raise ValueError(
            f"m={m}: spin loops need a real structure (m mod 8 in {{0, 6, 7}})"
        )
    if turns not in (1, 2):
        raise ValueError("turns must be 1 (odd loop) or 2 (even loop)")
    rep = build_clifford(m)
    smap = find_structure_map(rep)
    basis = real_form_basis(rep, smap)
    d0 = base if isinstance(base, SymmetricOperator) else SymmetricOperator(as_matrix(base))
    if d0.dim != rep.dim:
        raise ValueError(
            f"base dimension {d0.dim} does not match the real form dimension {rep.dim}"
        )
    if not d0.is_real:
        raise ValueError("spin loops require a real symmetric base")
    plane = (m - 2, m - 1)

    def rotation(t: float) -> np.ndarray:
        lift = lift_rotation(rep, plane[0], plane[1], 2.0 * np.pi * turns * t)
        r = basis.conj().T @ lift @ basis
        if float(np.abs(np.imag(r)).max()) > 1e-10:
            raise RuntimeError("lift failed to restrict to the real form")
        return np.real(r)

    return EquivariantLoopModel(base=d0, rotation=rotation)


# ---------------------------------------------------------------------------
# perturbed base operators
# ---------------------------------------------------------------------------

def make_odd_multiplicity_base(cluster_values, epsilon: float, seed: int) -> SymmetricOperator:
    """diag(cluster_values) plus a seeded random symmetric perturbation.

    The perturbation S is normalized to operator norm 1 and scaled by
    epsilon, which keeps every eigenvalue within epsilon of the input
    clusters while generically splitting them into simple eigenvalues.
    Draws are retried (same seeded stream) up to 10 times until the
    spectrum is simple; epsilon = 0 returns the exact diagonal.
    """
    values = np.asarray(cluster_values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("cluster_values must be nonempty")
    if epsilon < 0:
        raise ValueError("perturbation scale epsilon must be >= 0")
    diag = np.diag(np.sort(values))
    if epsilon == 0:
        return SymmetricOperator(diag)
    rng = np.random.default_rng(seed)
    scale = max(float(np.abs(values).max()), 1.0) + epsilon
    best_gap = -1.0
    for _ in range(10):
        g = rng.standard_normal((values.size, values.size))
        s = 0.5 * (g + g.T)
        s /= _opnorm(s)
        candidate = diag + epsilon * s
        gaps = np.diff(np.linalg.eigvalsh(candidate))
        min_gap = float(gaps.min()) if gaps.size else np.inf
        best_gap = max(best_gap, min_gap)
        if min_gap > 1e-12 * scale:
            return SymmetricOperator(candidate)
    raise RuntimeError(
        f"no simple spectrum after 10 draws (best min gap {best_gap:.3e})"
    )
