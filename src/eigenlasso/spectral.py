"""Spectral analysis: windows, projectors, and variational bounds.

The window predicate encodes the admissible region for the holonomy
machinery: exactly ``count`` eigenvalues strictly inside, clean gaps at
both ends, and at least one odd-multiplicity cluster inside.  Spectral
projectors come in two independent flavors, one assembled from
eigenvectors and one from a resolvent contour quadrature; they are kept
separate on purpose so each can validate the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._linalg import _opnorm
from .models import OperatorFamily, as_matrix

__all__ = [
    "ENDPOINT_MARGIN",
    "CLUSTER_RTOL",
    "PROJECTOR_TOL",
    "SpectralWindow",
    "WindowMembership",
    "EnumeratedFamily",
    "MinMaxReport",
    "RayleighReport",
    "DiracPropertyReport",
    "eigendecompose",
    "enumerate_family",
    "window_membership",
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


def eigendecompose(op) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    The factorization is validated before being returned: residual
    norm against 1e-11 times the operator norm, and frame
    orthonormality to 1e-12.  Both are measured in the Frobenius norm,
    an upper bound on the operator norm, so neither check is looser
    than its operator-norm statement; the operator norm of a Hermitian
    matrix is its largest |eigenvalue|.
    """
    a = as_matrix(op)
    values, vectors = np.linalg.eigh(a)
    scale = max(float(np.abs(values).max(initial=0.0)), 1e-300)
    residual = float(np.linalg.norm(a @ vectors - vectors * values))
    if residual > 1e-11 * scale:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} too large")
    ortho = float(np.linalg.norm(vectors.conj().T @ vectors - np.eye(a.shape[0])))
    if ortho > 1e-12:
        raise RuntimeError(f"eigenvector frame not orthonormal ({ortho:.3e})")
    return values, vectors


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

    def _range(self, values: np.ndarray) -> slice:
        """Index range of the eigenvalues strictly inside, in ascending ``values``.

        Raises if either endpoint sits within ENDPOINT_MARGIN of an
        eigenvalue: membership is undefined there.
        """
        values = np.asarray(values)
        for name, edge in (("lower", self.lower), ("upper", self.upper)):
            dist = float(np.abs(values - edge).min(initial=np.inf))
            if dist < ENDPOINT_MARGIN:
                raise ValueError(
                    f"window {name} endpoint {edge} is within {dist:.3e} of an eigenvalue"
                )
        start = int(np.searchsorted(values, self.lower, side="right"))
        stop = int(np.searchsorted(values, self.upper, side="left"))
        return slice(start, stop)

    def indices(self, values: np.ndarray) -> slice:
        """The window's eigenvalue indices in ascending ``values``.

        The one window-membership rule: both endpoints clear of the
        spectrum, and exactly ``count`` eigenvalues strictly inside.
        Raises ValueError otherwise.
        """
        held = self._range(values)
        k = held.stop - held.start
        if k != self.count:
            raise ValueError(f"window holds {k} eigenvalues, expected {self.count}")
        return held


def cluster_groups(sorted_values: np.ndarray, tol: float) -> list:
    """Index ranges (start, stop) of clusters in an ascending array.

    Greedy left to right: a new cluster starts whenever the gap to the
    previous value exceeds ``tol``.
    """
    values = np.asarray(sorted_values)
    if values.size == 0:
        return []
    splits = np.nonzero(np.diff(values) > tol)[0] + 1
    bounds = np.concatenate([[0], splits, [values.size]])
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(bounds.size - 1)]


@dataclass(frozen=True)
class WindowMembership:
    """Verdict of the window predicate with its individual reasons."""

    admissible: bool
    n_in_window: int
    expected_count: int
    count_ok: bool
    gap_below: float
    gap_above: float
    gap_below_ok: bool
    gap_above_ok: bool
    has_odd_cluster: bool
    clusters: Tuple[Tuple[float, int], ...]


def window_membership(op, window: SpectralWindow) -> WindowMembership:
    """Check window admissibility for one operator.

    Admissible means: exactly ``window.count`` eigenvalues strictly
    inside, the gaps separating them from the nearest outside
    eigenvalues both exceed CLUSTER_RTOL * max(1, max |eigenvalue|), the
    resolution that also groups clusters, and the inside spectrum has at
    least one odd-multiplicity cluster.
    Raises if an endpoint collides with an eigenvalue (the window is
    then invalid for this operator).
    """
    values = np.linalg.eigvalsh(as_matrix(op))
    held = window._range(values)
    tol = CLUSTER_RTOL * _scale(values)

    inside = values[held]
    n_below = held.start
    count_in = inside.size
    count_ok = count_in == window.count

    gap_below = np.inf
    gap_above = np.inf
    if count_in:
        if n_below > 0:
            gap_below = float(inside[0] - values[n_below - 1])
        j_above = n_below + count_in
        if j_above < values.size:
            gap_above = float(values[j_above] - inside[-1])
    clusters = tuple(
        (float(inside[a:b].mean()), b - a) for a, b in cluster_groups(inside, tol)
    )
    has_odd = any(mult % 2 == 1 for _, mult in clusters)
    gap_below_ok = gap_below > tol
    gap_above_ok = gap_above > tol
    return WindowMembership(
        admissible=count_ok and gap_below_ok and gap_above_ok and has_odd,
        n_in_window=count_in,
        expected_count=window.count,
        count_ok=count_ok,
        gap_below=gap_below,
        gap_above=gap_above,
        gap_below_ok=gap_below_ok,
        gap_above_ok=gap_above_ok,
        has_odd_cluster=has_odd,
        clusters=clusters,
    )


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
    mats = [family(t) for t in params]
    values = np.stack([np.linalg.eigvalsh(m) for m in mats])
    defect = 0.0
    for i in range(len(mats) - 1):
        step = _opnorm(mats[i + 1] - mats[i])
        drift = float(np.abs(values[i + 1] - values[i]).max())
        defect = max(defect, drift - step)
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
            inside.append(values[window._range(values)])
        except ValueError as exc:
            raise ValueError(f"{name} spectrum: {exc}") from exc
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
