"""Operator families consumed by the spectral and holonomy machinery.

Two kinds of models live here: an exact circle derivative model whose
spectrum is known in closed form (the oracle, with its two boundary
condition offsets), and equivariant loops D(t) = rho(t) D0 rho(t)^T
obtained by conjugating a base operator with the rotations
rho(t) = exp(t pi h K) of a complex structure K through h half turns.
A loop is odd when rho(1) = -I (h odd) and even when rho(1) = +I;
odd loops are the sign-carrying ones.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from ._linalg import _frozen, _opnorm
from .clifford import _real_form_pairs, build_clifford, find_structure_map

__all__ = [
    "SYMMETRY_RTOL",
    "STACK_BYTES",
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
_LAPACK_TYPES = (np.float32, np.float64, np.complex64, np.complex128)

# grids of samples are built and factored in stacks of at most this many
# bytes.  At small n a stack still holds hundreds of matrices; at n >= 64
# batching saves little, and a 2 MiB budget raised the peak memory of a
# run of n = 64-256 transports from 55.6 to 62.4 MB
STACK_BYTES = 1 << 19


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
    """A real symmetric (or complex Hermitian) matrix with checked symmetry.

    A square matrix M with finite entries is accepted when
    ||M - M^H||_2 <= SYMMETRY_RTOL * max(||M||_2, 1e-300).  A NaN or
    +-inf entry is refused with a ``ValueError`` before any arithmetic.
    An exactly Hermitian M, whose defect M - M^H has no non-zero entry,
    passes at every scale, so it is accepted in O(n^2) with no SVD:
    about 15 ms at n = 1024 and 34 ms at n = 2049 (one BLAS thread,
    2 vCPUs), where the two SVDs take 0.8 s and 6 s.  Any other M
    takes both SVDs, the defect's and M's.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.dtype.kind not in "biu" and m.dtype not in _LAPACK_TYPES:
            # the rule's SVD refuses these types, so they are refused even when it does not run
            raise TypeError(f"array type {m.dtype} is unsupported in linalg")
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite (nan or inf) entry")
        defect = _opnorm(m - m.conj().T)
        if defect and defect > SYMMETRY_RTOL * max(_opnorm(m), 1e-300):
            raise ValueError(
                f"symmetry defect {defect:.3e} exceeds {SYMMETRY_RTOL:.0e} * norm"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.imag(self.matrix).any()


@dataclass(frozen=True)
class OperatorFamily:
    """A family of symmetric operators over the circle.

    ``domain`` must be "circle": the parameter is wrapped modulo 1, which
    makes closure exact: family(1.0) returns bit for bit the same matrix
    as family(0.0).

    ``stacker``, when given, maps a 1-D array of (already wrapped)
    parameters to the (N, n, n) stack of their samples in one call, and
    ``sampler`` is its one-element case; families built by this package
    supply it.  Without it, ``stack`` stacks ``sampler`` calls.

    ``equivariant`` is the ``EquivariantLoopModel`` a rotation loop is
    sampled from, which ``family()`` sets.  ``transport`` answers such
    a loop in closed form from the model and the factored t = 0, with
    no sample past it, so a family with ``equivariant`` set must have
    the model's own ``stack`` as its ``stacker``; any other is refused
    with a ValueError.
    """

    domain: str
    sampler: Callable[[float], np.ndarray]
    parity: Optional[str] = None  # "odd" / "even" for equivariant loops
    stacker: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    equivariant: Optional[EquivariantLoopModel] = field(default=None, repr=False)

    def __post_init__(self):
        if self.domain != "circle":
            raise ValueError(f"unknown family domain {self.domain!r}")
        if self.parity not in (None, "odd", "even"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.equivariant is not None and self.stacker != self.equivariant.stack:
            raise ValueError("a rotation family's stacker must be its equivariant model's own "
                             "stack: transport answers it from the model")

    def __call__(self, t: float) -> np.ndarray:
        return self.sampler(float(t) % 1.0)

    def stack(self, ts) -> np.ndarray:
        """The samples at every parameter in ``ts``, as one (N, n, n) array.

        Bit for bit ``np.stack([self(t) for t in ts])``.
        """
        ts = np.asarray(ts, dtype=float).ravel() % 1.0
        if self.stacker is not None:
            return self.stacker(ts)
        return np.stack([self.sampler(t) for t in ts.tolist()])


def _stacked_loop(stacker: Callable[[np.ndarray], np.ndarray], parity: Optional[str],
                  equivariant: Optional[EquivariantLoopModel] = None) -> OperatorFamily:
    """A circle family whose single sample is the one-element case of ``stacker``."""
    return OperatorFamily(domain="circle", sampler=lambda t: stacker(np.array([t]))[0],
                          parity=parity, stacker=stacker, equivariant=equivariant)


def _stack_chunks(family: OperatorFamily, ts, nbytes: Optional[int] = None
                  ) -> Iterator[np.ndarray]:
    """``family.stack`` over consecutive runs of ``ts``, in order.

    Each run holds at most STACK_BYTES of samples, and at least one
    sample.  ``nbytes`` is the size of one sample when the caller knows
    it; otherwise the first run is a single sample, which measures it.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    start, step = 0, 1 if nbytes is None else max(1, STACK_BYTES // nbytes)
    while start < ts.size:
        chunk = family.stack(ts[start:start + step])
        yield chunk
        start += step
        step = max(1, STACK_BYTES // chunk[0].nbytes)


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

# largest bound on a rotation loop's sample entries that the model accepts;
# the margin below the float limit covers the rounding of ``stack``
_SAMPLE_MAX = np.finfo(float).max * (1.0 - 2.0 ** -40)


@dataclass(frozen=True)
class EquivariantLoopModel:
    """Loop D(t) = rho(t) D0 rho(t)^T along rho(t) = exp(t pi h K).

    ``structure`` K is a real complex structure, K^T = -K and K^2 = -I,
    so rho(t) = cos(pi h t) I + sin(pi h t) K is orthogonal at every t,
    with rho(0) = I and rho(1) = (-1)^h I for h = ``half_turns``, an
    integer.  The loop is odd when h is odd.  Conjugation keeps the
    spectrum constant along the loop and transports eigenvectors: if
    D0 v = lambda v then D(t) (rho(t) v) = lambda (rho(t) v).

    K must be an exact signed permutation: one entry +1 or -1 in each
    row and column and zeros elsewhere, with K^T = -K bit for bit (then
    K^2 = -I holds exactly too).  Both structures this package builds
    are: the block J and the spin K.  Every product with K is then a
    signed gather (``_times_k``), exact and without BLAS, so a sample
    rho(t) D0 rho(t)^T costs O(n^2) and rho(t) is never formed.  For V_w
    a window frame of D0 and A = V_w^T K V_w, the parallel window frame
    is rho(t) V_w exp(-t pi h A), which ``holonomy`` forms with no sample
    past t = 0, and the window's return matrix is (-1)^h exp(-pi h A).
    A base whose samples could overflow (``_block_bound`` above
    ``_SAMPLE_MAX``, just below the float limit) is refused with a
    ValueError naming ``base``.

    The generator is Omega = pi h K.  A window projector moves as
    P(t) = rho(t) P0 rho(t)^T with P' = [Omega, P], at the constant speed
    ||[Omega, P0]|| = ||Omega F0 - F0 (F0^H Omega F0)|| for a frame F0 of
    P0 (the commutator is block off-diagonal in P0 + (I - P0), and Omega
    is skew), which sets the grid ``transport`` reports frames on.
    """

    base: SymmetricOperator
    structure: np.ndarray
    half_turns: int
    sigma: int = field(init=False, default=0)
    parity: str = field(init=False, default="")
    # K as the signed gather (K x)_i = _sign_i x_{_perm_i}
    _perm: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _sign: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.base.is_real:
            raise ValueError("equivariant loops require a real symmetric base")
        h, k = self.half_turns, np.asarray(self.structure)
        if isinstance(h, bool) or not isinstance(h, numbers.Integral):
            raise ValueError(f"half_turns must be an integer, got {h!r}")
        if np.iscomplexobj(k) or k.shape != (self.dim, self.dim):
            raise ValueError(f"structure must be a real {self.dim} x {self.dim} matrix, "
                             f"got {k.dtype} of shape {k.shape}")
        k = _frozen(k.astype(float, copy=False))
        # one nonzero per row, +1 or -1; with K^T = -K also one per column
        rows, perm = np.nonzero(k)
        sign = k[rows, perm]
        if not (np.array_equal(rows, np.arange(self.dim)) and (np.abs(sign) == 1.0).all()
                and (k == -k.T).all()):
            raise ValueError("structure must be a complex structure given as an exact signed "
                             "permutation: K^T = -K, with one entry +1 or -1 in each row and "
                             "column and zeros elsewhere")
        object.__setattr__(self, "structure", k)
        object.__setattr__(self, "half_turns", int(h))
        object.__setattr__(self, "sigma", -1 if h % 2 else 1)
        object.__setattr__(self, "parity", "odd" if h % 2 else "even")
        object.__setattr__(self, "_perm", _frozen(perm))
        object.__setattr__(self, "_sign", _frozen(sign))
        # (|cos| + |sin|)^2 <= 2: a sample entry is at most 2 max|D0|
        largest = float(np.abs(self.base.matrix).max(initial=0.0))
        if largest > _SAMPLE_MAX / 2 and self._block_bound(largest) > _SAMPLE_MAX:
            raise ValueError(f"base has entries up to {largest:.3e}, with which the loop's "
                             f"samples could pass the float limit")

    def _block_bound(self, largest: float) -> float:
        """A bound on every entry of D(t), and of ``stack``'s intermediate
        rho(t) D0, for ``largest`` = max|D0| > 0.

        Each is a bilinear form of unit vectors on the 2 x 2 block of D0
        that the orbits {i, K(i)} and {j, K(j)} cut out, so it is at most
        that block's Frobenius norm, measured on D0 / ``largest`` so that
        the bound itself cannot overflow.
        """
        squares = np.square(self.base.matrix / largest)
        squares += squares[self._perm]
        squares += squares[:, self._perm]
        return largest * math.sqrt(float(squares.max()))

    @property
    def dim(self) -> int:
        return self.base.dim

    def _times_k(self, x: np.ndarray, axis: int = -2,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """K x, or x K^T with ``axis`` = -1, for x an (..., n, m) or (..., m, n) stack.

        A signed gather of x's rows (columns for ``axis`` = -1), so it is
        exact and calls no BLAS.  The result is written to ``out`` when
        given, an array of the result's shape that does not overlap x,
        and is otherwise a new C-contiguous array.
        """
        # _perm is a permutation, so "clip" clips nothing; it keeps take
        # from copying through a buffer on its way into ``out``
        out = x.take(self._perm, axis=axis, out=out, mode="clip")
        out *= self._sign if axis == -1 else self._sign[:, None]
        return out

    def _turn(self, ts):
        """cos(pi h t) and sin(pi h t) for every t in ``ts``, wrapped mod 1, each (N, 1, 1)."""
        ts = np.asarray(ts, dtype=float).reshape(-1, 1, 1) % 1.0
        angles = (np.pi * self.half_turns) * ts
        return np.cos(angles), np.sin(angles)

    def generator(self, frame: np.ndarray) -> np.ndarray:
        """Omega F = pi h K F for an n x k frame F."""
        return (np.pi * self.half_turns) * self._times_k(frame)

    def stack(self, ts) -> np.ndarray:
        """D(t) for every t in ``ts`` (wrapped mod 1) as one C-contiguous (N, n, n) array.

        With c, s = cos(pi h t), sin(pi h t): y = rho(t) D0 = c D0 + s K D0,
        then D(t) = y rho(t)^T = c y + s y K^T, elementwise and in place.
        """
        c, s = self._turn(ts)
        y = c * self.base.matrix
        d = s * self._times_k(self.base.matrix)
        y += d
        d = self._times_k(y, axis=-1, out=d)
        d *= s
        y *= c
        d += y
        return d

    def _projector_speed(self, frame: np.ndarray) -> float:
        moved = self.generator(frame)
        return _opnorm(moved - frame @ (frame.conj().T @ moved))

    def family(self) -> OperatorFamily:
        return _stacked_loop(self.stack, self.parity, self)


@functools.lru_cache(maxsize=16)
def _block_structure(n: int) -> np.ndarray:
    """J with one [[0, -1], [1, 0]] block per pair of coordinates, shared read-only."""
    even = np.arange(0, n, 2)
    k = np.zeros((n, n))
    k[even, even + 1] = -1.0
    k[even + 1, even] = 1.0
    return _frozen(k)


def make_block_rotation_loop(base, turns: float) -> EquivariantLoopModel:
    """Conjugation loop by block diagonal planar rotations.

    ``turns`` is the number of full rotations completed at t = 1, a
    finite multiple of one half; every 2x2 block rotates by 2 pi turns t.
    A half turn (turns = 0.5) ends at -I and gives an odd loop, integer
    turns end at +I and give even loops.
    """
    d0 = base if isinstance(base, SymmetricOperator) else SymmetricOperator(as_matrix(base))
    if d0.dim % 2 != 0:
        raise ValueError("block rotation loops require even dimension")
    half_turns = 2.0 * turns
    if not (math.isfinite(half_turns) and half_turns == int(half_turns)):
        raise ValueError(f"turns must be a finite multiple of one half, got {turns}")
    return EquivariantLoopModel(base=d0, structure=_block_structure(d0.dim),
                                half_turns=int(half_turns))


def make_halfturn_loop(base) -> EquivariantLoopModel:
    """Odd loop: every 2x2 block rotates by angle pi*t, so rho(1) = -I."""
    return make_block_rotation_loop(base, turns=0.5)


def make_fullturn_loop(base) -> EquivariantLoopModel:
    """Even companion loop: blocks rotate by 2*pi*t, so rho(1) = +I."""
    return make_block_rotation_loop(base, turns=1.0)


@functools.lru_cache(maxsize=16)
def _spin_structure(m: int) -> np.ndarray:
    """K = B^H gamma_{m-2} gamma_{m-1} B on the real form of m, shared read-only.

    Built once per m: the representation, its structure map and the
    real form basis B depend on m only.  K is formed from the unscaled
    pair columns sqrt(2) B, whose products with the generators are small
    integers, so K is an exact signed permutation: K K = -I and
    K^T = -K hold bit for bit.
    """
    rep = build_clifford(m)
    pairs = _real_form_pairs(find_structure_map(rep))
    k = pairs.conj().T @ rep.generators[m - 2] @ rep.generators[m - 1] @ pairs / 2.0
    if float(np.abs(np.imag(k)).max()) > 1e-10:
        raise RuntimeError("lift failed to restrict to the real form")
    return _frozen(np.real(k))


def make_spin_loop(m: int, base, turns: int = 1) -> EquivariantLoopModel:
    """Rotation loop lifted through a Clifford representation.

    Builds the representation for ambient dimension m (which must admit
    a real structure, i.e. m mod 8 in {0, 6, 7}) and conjugates the base
    operator by the lift of the rotation in the plane of the last two
    generators, restricted to the real form.  The lift at angle
    2 pi turns t is cos(pi turns t) I + sin(pi turns t) G with
    G = gamma_{m-2} gamma_{m-1} and G^2 = -I, so in the real form basis B
    the loop's structure is K = B^H G B, which is real, and its half
    turns are ``turns``: one rotation turn lifts to -I (odd loop), two
    give +I.  K is computed once per m and shared by every loop of that m.
    """
    if m % 8 not in (0, 6, 7):
        raise ValueError(f"m={m}: spin loops need a real structure (m mod 8 in {{0, 6, 7}})")
    if turns not in (1, 2):
        raise ValueError("turns must be 1 (odd loop) or 2 (even loop)")
    k = _spin_structure(m)
    d0 = base if isinstance(base, SymmetricOperator) else SymmetricOperator(as_matrix(base))
    if d0.dim != k.shape[0]:
        raise ValueError(
            f"base dimension {d0.dim} does not match the real form dimension {k.shape[0]}"
        )
    return EquivariantLoopModel(base=d0, structure=k, half_turns=turns)


# ---------------------------------------------------------------------------
# perturbed base operators
# ---------------------------------------------------------------------------

def make_odd_multiplicity_base(cluster_values, epsilon: float, seed: int) -> SymmetricOperator:
    """diag(cluster_values) plus a seeded random symmetric perturbation.

    The perturbation S is normalized to operator norm 1 and scaled by
    epsilon, which keeps every eigenvalue within epsilon of the input
    clusters while generically splitting them into simple eigenvalues.
    Draws are retried (same seeded stream) up to 10 times until the
    spectrum is simple, else ValueError; epsilon = 0 gives the exact diagonal.
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
    raise ValueError(
        f"no simple spectrum after 10 draws (best min gap {best_gap:.3e})"
    )
