"""Spectral analysis: windows, projectors, and variational bounds.

``SpectralWindow.indices``, on a stack ``_bounds``, is the one window
rule the holonomy and lasso machinery consult: both endpoints at least
ENDPOINT_MARGIN from the spectrum, and exactly ``count`` eigenvalues
strictly inside; the predicted sign reads that count's parity.
Spectral projectors come in two independent flavors, one assembled
from eigenvectors and one from a resolvent contour quadrature; they
are kept separate on purpose so each can validate the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._linalg import _opnorm
from .models import OperatorFamily, SymmetricOperator, _stack_chunks, as_matrix

__all__ = [
    "ENDPOINT_MARGIN",
    "CLUSTER_RTOL",
    "PROJECTOR_TOL",
    "SpectralWindow",
    "EnumeratedFamily",
    "MinMaxReport",
    "RayleighReport",
    "DiracPropertyReport",
    "eigendecompose",
    "enumerate_family",
    "cluster_groups",
    "spectral_projector_eig",
    "spectral_projector_contour",
    "projector_distance",
    "minmax_check",
    "rayleigh_distance_check",
    "spectral_close",
    "verify_dirac_properties",
]

ENDPOINT_MARGIN = 1e-9
CLUSTER_RTOL = 1e-8
PROJECTOR_TOL = 1e-10


def _scale(values: np.ndarray) -> float:
    return max(float(np.abs(values).max(initial=0.0)), 1.0)


class _StackError(ValueError):
    """A ValueError about the entry at flat position ``index`` of a stack."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class _FactorError(RuntimeError):
    """A factorization of the entry at flat position ``index`` of a stack failed its check."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _refuse_non_finite(a: np.ndarray) -> None:
    """Refuse a (..., n, n) stack with a non-finite entry (ValueError naming its stack index)."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        first = int(np.argmin(finite))
        where = ", ".join(map(str, np.unravel_index(first, finite.shape)))
        raise _StackError(f"non-finite matrix entries{where and ' at stack index ' + where}", first)


def _validated(a: np.ndarray, factor) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, vectors, residual) of ``factor(a)`` for a (..., n, n) stack ``a``, checked.

    The checks every eigendecomposition here passes, however it was
    obtained, with ``factor`` mapping the stack to its (values,
    vectors).  A non-square ``a`` is refused, and so is a matrix with a
    non-finite entry, before ``factor`` runs (ValueError, naming the
    matrix's stack index).  Then each factorization must pass two
    checks: a residual ||A V - V diag(values)|| of at most 1e-11 times
    its largest |value| (the operator norm of a Hermitian A, up to that
    residual) and a frame with ||V^H V - I|| at most 1e-12, both
    measured here in the Frobenius norm, an upper bound on the operator
    norm, so neither check is looser than its operator-norm statement.
    The first non-finite eigenvalue (of finite entries near the float
    limit), then the first matrix that fails the residual check, and then
    the first that fails the frame check, raises RuntimeError naming it.  The
    residual's norm is taken after dividing by that scale, so its
    squared entries cannot overflow.  Returns the values, the vectors,
    and each matrix's measured residual, divided by its scale.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _refuse_non_finite(a)
    values, vectors = factor(a)
    finite = np.isfinite(values)
    if not finite.all():  # finite entries whose eigenvalue overflows
        first = int(np.argmin(finite))
        raise _FactorError(f"non-finite eigenvalue {first % values.shape[-1]} "
                           f"({values.flat[first]})", first // values.shape[-1])
    scale = np.maximum(np.abs(values).max(axis=-1, initial=0.0), 1e-300)
    residual = a @ vectors
    residual -= vectors * values[..., None, :]
    residual /= scale[..., None, None]
    residual = np.linalg.norm(residual, axis=(-2, -1))
    defect = np.linalg.norm(vectors.conj().swapaxes(-1, -2) @ vectors - np.eye(a.shape[-1]),
                            axis=(-2, -1))
    bad = np.flatnonzero(~(residual <= 1e-11))
    if bad.size:
        i = int(bad[0])
        raise _FactorError("eigendecomposition residual "
                           f"{float(residual.flat[i]) * float(scale.flat[i]):.3e} too large", i)
    bad = np.flatnonzero(~(defect <= 1e-12))
    if bad.size:
        i = int(bad[0])
        raise _FactorError(f"eigenvector frame not orthonormal ({defect.flat[i]:.3e})", i)
    return values, vectors, residual


def eigendecompose(op) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    ``op`` is one matrix or a (..., n, n) stack, factored in one batched
    ``eigh`` call; each matrix gives exactly what it gives alone.  Every
    factorization passes ``_validated``'s checks before being returned:
    non-finite entries refused, residual against 1e-11 times the
    matrix's operator norm and frame orthonormality to 1e-12, both in
    the Frobenius norm.
    """
    a = op.matrix if isinstance(op, SymmetricOperator) else op
    return _validated(a, np.linalg.eigh)[:2]


@dataclass(frozen=True)
class SpectralWindow:
    """Open interval (lower, upper) expected to hold ``count`` eigenvalues."""

    lower: float
    upper: float
    count: int = 1

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"window needs lower < upper, got ({self.lower}, {self.upper})")
        if self.count < 1:
            raise ValueError(f"window count must be >= 1, got {self.count}")

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def _distances(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Distances of the lower and the upper endpoint to each spectrum of a stack."""
        # a spectrum near +-1e308 is farther than the largest float from an
        # endpoint of the other sign: the distance overflows to +inf, which is right
        with np.errstate(over="ignore"):
            return tuple(np.abs(values - edge).min(axis=-1, initial=np.inf)
                         for edge in (self.lower, self.upper))

    def _bounds(self, values: np.ndarray, counted: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row index ranges (start, stop) of the window in a (P, n) stack.

        Rows are ascending spectra, so start = #(values <= lower) and stop
        = #(values < upper) are their searchsorted positions.  The first
        row with an endpoint within ENDPOINT_MARGIN of an eigenvalue or,
        when ``counted``, without ``count`` values inside raises a
        ValueError whose ``index`` is that row.
        """
        values = np.asarray(values)
        edges = (("lower", self.lower), ("upper", self.upper))
        dist = self._distances(values)
        start, stop = (values <= self.lower).sum(-1), (values < self.upper).sum(-1)
        near = [d < ENDPOINT_MARGIN for d in dist]
        failed = near[0] | near[1] | (counted & (stop - start != self.count))
        if failed.any():
            row = int(np.argmax(failed))
            for (name, edge), d, close in zip(edges, dist, near):
                if close[row]:
                    raise _StackError(f"window {name} endpoint {edge} is within "
                                      f"{d[row]:.3e} of an eigenvalue", row)
            raise _StackError(f"window holds {stop[row] - start[row]} eigenvalues, "
                              f"expected {self.count}", row)
        return start, stop

    def indices(self, values: np.ndarray) -> slice:
        """The window's eigenvalue indices in ascending ``values``.

        The one window-membership rule, on one spectrum: both endpoints
        clear of the spectrum, and exactly ``count`` eigenvalues strictly
        inside.  Raises ValueError otherwise.
        """
        start, stop = self._bounds(np.asarray(values)[None])
        return slice(int(start[0]), int(stop[0]))


def cluster_groups(sorted_values: np.ndarray, tol: float) -> list:
    """Index ranges (start, stop) of clusters in an ascending array.

    Greedy left to right: a new cluster starts whenever the gap to the
    previous value exceeds ``tol``, which must be positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    values = np.asarray(sorted_values)
    if values.size == 0:
        return []
    splits = np.nonzero(np.diff(values) > tol)[0] + 1
    bounds = np.concatenate([[0], splits, [values.size]])
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(bounds.size - 1)]


# ---------------------------------------------------------------------------
# spectral projectors, two independent routes
# ---------------------------------------------------------------------------

def spectral_projector_eig(op, window: SpectralWindow) -> np.ndarray:
    """Window projector assembled from eigenvectors."""
    a = as_matrix(op)
    values, vectors = eigendecompose(a)
    v_in = vectors[:, window.indices(values)]
    p = v_in @ v_in.conj().T
    if _opnorm(p @ p - p) > PROJECTOR_TOL:
        raise RuntimeError("projector is not idempotent within tolerance")
    if _opnorm(p - p.conj().T) > PROJECTOR_TOL:
        raise RuntimeError("projector is not symmetric within tolerance")
    if abs(float(np.real(np.trace(p))) - v_in.shape[1]) > PROJECTOR_TOL:
        raise RuntimeError("projector trace does not match the window count")
    if not np.iscomplexobj(a):
        p = np.real(p)
    return p


def spectral_projector_contour(op, window: SpectralWindow, nodes: int = 64) -> np.ndarray:
    """Window projector from resolvent quadrature over the window circle.

    Trapezoidal rule on the circle through the window endpoints, with
    nodes offset off the real axis.  Deliberately never consults an
    eigendecomposition, so it can serve as an independent check of
    spectral_projector_eig; agreement improves geometrically with the
    node count as long as the spectrum keeps away from the contour.
    """
    if nodes < 16:
        raise ValueError(f"need at least 16 quadrature nodes, got {nodes}")
    a = as_matrix(op)
    n = a.shape[0]
    c, l = window.center, window.radius
    phases = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    z = c + l * np.exp(1j * phases)
    shifted = z[:, None, None] * np.eye(n)[None, :, :] - a[None, :, :].astype(complex)
    rhs = np.broadcast_to(np.eye(n, dtype=complex), (nodes, n, n))
    try:
        resolvents = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"resolvent solve failed on the contour: {exc}") from exc
    # crude conditioning guard: a resolvent blowing up means some
    # eigenvalue is almost on the contour
    worst = int(np.argmax(np.abs(resolvents).reshape(nodes, -1).max(axis=1)))
    sep_estimate = 1.0 / float(np.linalg.norm(resolvents[worst], 2))
    if sep_estimate < 1e-13 * max(_opnorm(a), 1.0):
        raise RuntimeError(
            f"contour nearly touches the spectrum at node phase {phases[worst]:.6f} "
            f"(separation estimate {sep_estimate:.3e})"
        )
    p = (l / nodes) * np.einsum("m,mij->ij", np.exp(1j * phases), resolvents)
    p = 0.5 * (p + p.conj().T)
    if not np.iscomplexobj(a):
        p = np.real(p)
    return p


def projector_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Operator-norm distance between two (sub)space projectors."""
    return _opnorm(np.asarray(p) - np.asarray(q))


# ---------------------------------------------------------------------------
# enumeration along families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumeratedFamily:
    """Sorted eigenvalue curves sampled along a family.

    ``values[i, j]`` is the j-th ascending eigenvalue at parameter
    ``parameters[i]``.  ``weyl_defect`` is the largest violation of the
    sorted-eigenvalue Lipschitz bound |dlambda| <= ||dD|| between
    consecutive samples; up to roundoff it should never be positive.
    """

    parameters: np.ndarray
    values: np.ndarray
    weyl_defect: float


def enumerate_family(family: OperatorFamily, parameters: Sequence[float]) -> EnumeratedFamily:
    params = np.asarray(list(parameters), dtype=float)
    if params.ndim != 1 or params.size < 1:
        raise ValueError("need a one-dimensional, nonempty parameter grid")
    if np.any(np.diff(params) < 0):
        raise ValueError("parameter grid must be ordered")
    values, steps, last = [], [], None
    for mats in _stack_chunks(family, params):
        values.append(np.linalg.eigvalsh(mats))
        # operator-norm steps between consecutive samples, across chunks too
        run = mats if last is None else np.concatenate([last[None], mats])
        steps.append(np.linalg.norm(np.diff(run, axis=0), 2, axis=(-2, -1)))
        last = mats[-1]
    values = np.concatenate(values)
    drift = np.abs(np.diff(values, axis=0)).max(axis=-1)
    defect = max([0.0] + (drift - np.concatenate(steps)).tolist())
    return EnumeratedFamily(parameters=params, values=values, weyl_defect=defect)


# ---------------------------------------------------------------------------
# variational checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinMaxReport:
    """Certificates for the k-th eigenvalue's min-max characterization.

    Achievability: the span of the first k eigenvectors attains max
    Rayleigh quotient lambda_k.  Lower bounds: every sampled random
    k-dimensional subspace has max Rayleigh quotient >= lambda_k.  The
    minimum over all subspaces is not searchable, so these two one-sided
    certificates are what gets verified.
    """

    k: int
    lambda_k: float
    achieved: float
    achievability_defect: float
    trials: int
    worst_excess: float
    violations: int
    passed: bool


def _max_rayleigh(a: np.ndarray, q: np.ndarray) -> float:
    compressed = q.conj().T @ a @ q
    return float(np.linalg.eigvalsh(compressed)[-1])


def minmax_check(op, k: int, trials: int = 100, seed: int = 0,
                 tol: float = 1e-10) -> MinMaxReport:
    a = as_matrix(op)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    values, vectors = eigendecompose(a)
    lam_k = float(values[k - 1])
    achieved = _max_rayleigh(a, vectors[:, :k])
    defect = abs(achieved - lam_k)
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    for _ in range(trials):
        g = rng.standard_normal((n, k))
        q, _ = np.linalg.qr(g)
        excess = _max_rayleigh(a, q) - lam_k
        worst = min(worst, excess)
        if excess < -tol:
            violations += 1
    return MinMaxReport(
        k=k, lambda_k=lam_k, achieved=achieved, achievability_defect=defect,
        trials=trials, worst_excess=float(worst), violations=violations,
        passed=defect <= tol and violations == 0,
    )


@dataclass(frozen=True)
class RayleighReport:
    rayleigh: float
    distance_sq: float
    bound: float
    holds: bool
    hypothesis_ok: bool
    failures: Tuple[str, ...]


def rayleigh_distance_check(op, k: int, level: float, eps: float,
                            x: np.ndarray) -> RayleighReport:
    """Distance bound from a small Rayleigh quotient.

    For a nonnegative operator with distinct eigenvalues
    0 <= l_1 < ... < l_k < level < l_{k+1} and a unit vector x with
    <Tx, x> <= level + eps, the squared distance from x to the span V
    of the first k eigenspaces obeys dist(V, x)^2 <= (level + eps) /
    l_{k+1}.  Hypothesis violations are reported, not raised, so sweeps
    can skip inadmissible instances.
    """
    a = as_matrix(op)
    values, vectors = eigendecompose(a)
    scale = _scale(values)
    x = np.asarray(x, dtype=vectors.dtype).ravel()
    failures = []
    if x.size != a.shape[0]:
        raise ValueError("test vector has the wrong length")
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-10:
        failures.append("x is not a unit vector")
    groups = cluster_groups(values, CLUSTER_RTOL * scale)
    distinct = [float(values[s:e].mean()) for s, e in groups]
    if len(distinct) < k + 1:
        failures.append(f"need at least {k + 1} distinct eigenvalues, found {len(distinct)}")
        lam_next = np.nan
        v_dim = 0
    else:
        if distinct[0] < -1e-12 * scale:
            failures.append(f"operator is not nonnegative (lambda_1 = {distinct[0]:.3e})")
        if not distinct[k - 1] < level < distinct[k]:
            failures.append(
                f"level {level} is not strictly between lambda_k = {distinct[k - 1]} "
                f"and lambda_k+1 = {distinct[k]}"
            )
        lam_next = distinct[k]
        v_dim = groups[k - 1][1]  # columns 0..end of the k-th cluster
    rayleigh = float(np.real(np.vdot(x, a @ x)))
    if rayleigh > level + eps + 1e-12 * scale:
        failures.append(f"Rayleigh quotient {rayleigh:.6g} exceeds level + eps")
    if failures:
        return RayleighReport(rayleigh=rayleigh, distance_sq=np.nan, bound=np.nan,
                              holds=False, hypothesis_ok=False, failures=tuple(failures))
    v = vectors[:, :v_dim]
    overlap_sq = float(np.linalg.norm(v.conj().T @ x) ** 2)
    distance_sq = max(0.0, 1.0 - overlap_sq)
    bound = (level + eps) / lam_next
    return RayleighReport(
        rayleigh=rayleigh, distance_sq=distance_sq, bound=float(bound),
        holds=distance_sq <= bound + 1e-12, hypothesis_ok=True, failures=(),
    )


# ---------------------------------------------------------------------------
# closeness and model property checks
# ---------------------------------------------------------------------------

def spectral_close(spec_a, spec_b, lower: float, upper: float, eps: float) -> bool:
    """Window-restricted spectra agree in count and pair up within eps.

    Raises when either window endpoint collides with either spectrum;
    closeness is undefined there.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    window = SpectralWindow(lower, upper)
    inside = []
    for name, spec in (("first", spec_a), ("second", spec_b)):
        values = np.sort(np.asarray(spec, dtype=float).ravel())
        try:
            start, stop = window._bounds(values[None], counted=False)
        except ValueError as exc:
            raise ValueError(f"{name} spectrum: {exc}") from exc
        inside.append(values[start[0]:stop[0]])
    ina, inb = inside
    if ina.size != inb.size:
        return False
    if ina.size == 0:
        return True
    return bool(np.abs(ina - inb).max() < eps)


@dataclass(frozen=True)
class DiracPropertyReport:
    ambient_dim: int
    radius: float
    n_in_window: int
    symmetry_applicable: bool
    symmetry_ok: Optional[bool]
    max_symmetry_defect: Optional[float]
    counting_exponent: Optional[float]
    exponent_expected: float
    max_abs_value: float


def verify_dirac_properties(spectrum, m: int, radius: float) -> DiracPropertyReport:
    """Qualitative first-order-operator spectrum checks, report only.

    Symmetry about zero is expected unless the ambient dimension is
    3 mod 4.  The eigenvalue counting function is fitted on a log-log
    scale; for a first-order operator in ambient dimension m the
    exponent should come out near m.  Nothing here raises: negative
    controls read the report.
    """
    values = np.sort(np.asarray(spectrum, dtype=float).ravel())
    window = values[np.abs(values) <= radius]
    applicable = (m % 4) != 3
    symmetry_ok = None
    defect = None
    if applicable and window.size:
        defect = float(np.abs(window + window[::-1]).max())
        symmetry_ok = defect <= 1e-9
    exponent = None
    mags = np.sort(np.abs(window))
    groups = cluster_groups(mags, 1e-9)
    distinct = np.array([mags[s:e].mean() for s, e in groups])
    if distinct.size >= 3:
        mids = 0.5 * (distinct[:-1] + distinct[1:])
        mids = mids[mids > 0]
        counts = np.searchsorted(mags, mids, side="right")
        keep = counts > 0
        if np.count_nonzero(keep) >= 2:
            exponent = float(np.polyfit(np.log(mids[keep]), np.log(counts[keep]), 1)[0])
    return DiracPropertyReport(
        ambient_dim=int(m),
        radius=float(radius),
        n_in_window=int(window.size),
        symmetry_applicable=applicable,
        symmetry_ok=symmetry_ok,
        max_symmetry_defect=defect,
        counting_exponent=exponent,
        exponent_expected=float(m),
        max_abs_value=float(np.abs(values).max(initial=0.0)),
    )
