"""Degeneracy search over a disc of operators.

A loop with return sign -1 cannot bound a disc of operators whose
window stays admissible everywhere, so somewhere in the disc two
eigenvalues around the window must collide.  This module fills the
loop by linear interpolation toward a center operator (the space of
symmetric matrices is convex, so the filling is canonical), scans the
disc for small eigenvalue gaps, and refines promising points into a
certificate of near-degeneracy.  The scan factors one ring of the
polar grid per batched eigensolve.  The refinement answers a rotation
loop's disc at its center when the center commutes with the loop's
structure; otherwise it is a greedy stencil walk whose runs of
non-improving points are evaluated speculatively, one boundary stack
and one batched eigensolve per run, with the same points and answer as
walking one point at a time.  ``answer`` joins the two stages: the
walk starts at the scan's best point with the grid's spacing.

The gap indicator is anchored by eigenvalue index at the boundary
basepoint, not by window position: tracking the same sorted indices
across the disc detects both failure modes at once, an interior
collision and an eigenvalue crossing a window endpoint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .models import (
    EquivariantLoopModel,
    OperatorFamily,
    SymmetricOperator,
    _stack_chunks,
    as_matrix,
)
from .spectral import SpectralWindow, eigendecompose
from .holonomy import transport

__all__ = [
    "Answer",
    "DiscFamily",
    "ScanResult",
    "DegeneracyCertificate",
    "DegeneracyNotFound",
    "WindowRefused",
    "answer",
    "make_orbit_disc",
    "scan_disc",
    "refine",
]


@dataclass(frozen=True)
class DiscFamily:
    """Linear filling H(r, theta) = C + r (boundary(theta) - C), r in [0, 1]."""

    center: SymmetricOperator
    boundary: OperatorFamily

    def __post_init__(self):
        if self.boundary.domain != "circle":
            raise ValueError("disc boundary must be a circle family")
        b = self.boundary(0.0)
        if b.shape != self.center.matrix.shape:
            raise ValueError(
                f"center shape {self.center.matrix.shape} does not match "
                f"boundary shape {b.shape}"
            )

    @property
    def dim(self) -> int:
        return self.center.dim

    def operator_at(self, r: float, theta: float) -> np.ndarray:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"radial parameter must lie in [0, 1], got {r}")
        c = self.center.matrix
        return c + r * (self.boundary(theta) - c)


def make_orbit_disc(loop: Union[EquivariantLoopModel, OperatorFamily],
                    center: Union[str, np.ndarray, SymmetricOperator] = "mean") -> DiscFamily:
    """Disc filling a loop, centered at its mean or base operator.

    ``center`` may be "mean" (average of 64 uniform boundary samples;
    exact for trigonometric polynomial loops of degree below 32), "base"
    (the boundary basepoint), or an explicit operator.
    """
    family = loop.family() if isinstance(loop, EquivariantLoopModel) else loop
    if isinstance(center, str):
        if center == "mean":
            total = 0  # summed sample by sample, in order
            for chunk in _stack_chunks(family, np.arange(64) / 64):
                total = sum(chunk, total)
            c = SymmetricOperator(total / 64)
        elif center == "base":
            c = SymmetricOperator(family(0.0))
        else:
            raise ValueError(f"unknown center mode {center!r}")
    elif isinstance(center, SymmetricOperator):
        c = center
    else:
        c = SymmetricOperator(as_matrix(center))
    return DiscFamily(center=c, boundary=family)


# ---------------------------------------------------------------------------
# gap indicator
# ---------------------------------------------------------------------------

class WindowRefused(ValueError):
    """The window does not hold its eigenvalues at the boundary basepoint."""


def _anchor_index(disc: DiscFamily, window: SpectralWindow) -> int:
    """First index of the window's range at the basepoint.

    Raises WindowRefused unless the window is admissible there: the anchor
    is meaningless if the boundary does not start inside the good region.
    """
    values = np.linalg.eigvalsh(disc.boundary(0.0))
    try:
        return window.indices(values).start
    except ValueError as exc:
        raise WindowRefused(f"at the boundary basepoint: {exc}") from exc


def _guard_pairs(anchor: int, count: int, n: int) -> range:
    """Lower indices p of the consecutive pairs (p, p + 1) to watch.

    The pairs run from the one straddling the window's lower end to the
    one straddling its upper end, clipped to the n eigenvalues: the
    window content plus its two guard gaps.
    """
    return range(max(anchor, 1) - 1, min(anchor + count, n - 1))


def _index_gaps(values: np.ndarray, anchor: int, count: int) -> np.ndarray:
    """Minimal consecutive gap over the anchored guard pairs, per spectrum
    (inf where there is no pair)."""
    pairs = _guard_pairs(anchor, count, values.shape[-1])
    if not pairs:
        return np.full(values.shape[:-1], np.inf)
    lo, hi = pairs.start, pairs.stop
    diffs = values[..., lo + 1:hi + 1] - values[..., lo:hi]
    return diffs.min(axis=-1)


@dataclass(frozen=True)
class ScanResult:
    """Gap map over the scan grid and its smallest gap, ``best`` =
    (gap, r, theta) at the first grid point in row-major order."""

    r_values: np.ndarray
    theta_values: np.ndarray
    gap_map: np.ndarray
    best: Tuple[float, float, float]
    anchor: int
    boundary_sign: int

    @property
    def min_gap(self) -> float:
        return self.best[0]


def scan_disc(disc: DiscFamily, window: SpectralWindow,
              grid: Tuple[int, int] = (16, 24)) -> ScanResult:
    """Evaluate the anchored gap indicator on a polar grid.

    The radial grid starts at 1/n_r, not 0: refinement owns the center.
    When the boundary loop's transported sign is +1 a degeneracy is not
    forced and a warning is issued, but the scan still runs; it simply
    reports whatever gaps it finds.
    """
    n_r, n_theta = grid
    if n_r < 1 or n_theta < 3:
        raise ValueError("grid must have n_r >= 1 and n_theta >= 3")
    anchor = _anchor_index(disc, window)
    _, ret = transport(disc.boundary, window)
    if ret.sign != -1:
        warnings.warn(
            "boundary loop has return sign +1; no degeneracy is forced "
            "and the scan may find nothing",
            stacklevel=2,
        )
    rs = (np.arange(n_r) + 1.0) / n_r
    thetas = np.arange(n_theta) / n_theta
    # the boundary ring is sampled once; one radius at a time keeps a
    # single (n_theta, n, n) stack of disc operators alive
    c = disc.center.matrix
    ring = disc.boundary.stack(thetas) - c
    values = np.stack([np.linalg.eigvalsh(c + r * ring) for r in rs])
    gap_map = _index_gaps(values, anchor, window.count)
    i, j = np.unravel_index(np.argmin(gap_map), gap_map.shape)
    return ScanResult(r_values=rs, theta_values=thetas, gap_map=gap_map,
                      best=(float(gap_map[i, j]), float(rs[i]), float(thetas[j])),
                      anchor=anchor, boundary_sign=ret.sign)


# ---------------------------------------------------------------------------
# refinement and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegeneracyCertificate:
    """A disc point where two anchored eigenvalues coincide to tolerance.

    ``levels`` counts the stencil levels walked before the gap reached
    ``tol`` and ``evaluations`` the gap evaluations made on the way,
    the starting point and speculative ones included.
    """

    r: float
    theta: float
    lambda_a: float
    lambda_b: float
    gap: float
    mean: float
    residual_a: float
    residual_b: float
    pair_index: int
    anchor: int
    window: SpectralWindow
    tol: float
    levels: int
    evaluations: int


class DegeneracyNotFound(Exception):
    """Refinement stagnated; carries the best point and gap reached, the
    levels walked and the gap evaluations made (as on the certificate)."""

    def __init__(self, best_point: Tuple[float, float], best_gap: float, levels: int,
                 evaluations: int):
        self.best_point = best_point
        self.best_gap = best_gap
        self.levels = levels
        self.evaluations = evaluations
        super().__init__(
            f"no gap below tolerance after {levels} levels; best gap "
            f"{best_gap:.6e} at (r, theta) = ({best_point[0]:.6g}, {best_point[1]:.6g})"
        )


_STENCIL = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
# the 25 stencil offsets in walk order: radial offset outer, angular inner
_STENCIL_R = np.repeat(_STENCIL, _STENCIL.size)
_STENCIL_T = np.tile(_STENCIL, _STENCIL.size)
# largest disc dimension at which the walk evaluates points speculatively;
# above it eigvalsh dominates each point, and the points a batch drops
# (42% more on the benchmark's n = 32 and n = 128 discs) cost more than it saves
_SPECULATE_MAX_DIM = 16


def _certificate_at(disc: DiscFamily, window: SpectralWindow, anchor: int,
                    r: float, theta: float, tol: float, levels: int,
                    evaluations: int) -> DegeneracyCertificate:
    h = disc.operator_at(r, theta)
    values, vectors = eigendecompose(h)
    pairs = _guard_pairs(anchor, window.count, values.size)
    i = min(pairs, key=lambda p: values[p + 1] - values[p])
    lam_a, lam_b = float(values[i]), float(values[i + 1])
    mean = 0.5 * (lam_a + lam_b)
    res_a = float(np.linalg.norm(h @ vectors[:, i] - mean * vectors[:, i]))
    res_b = float(np.linalg.norm(h @ vectors[:, i + 1] - mean * vectors[:, i + 1]))
    gap = lam_b - lam_a
    if gap > tol:  # eigvalsh met tol where this eigendecomposition does not
        raise DegeneracyNotFound((float(r), float(theta)), gap, levels, evaluations)
    # the pair spans a near-invariant plane: residuals can only come
    # from the split itself plus roundoff
    # ||h|| is the largest |eigenvalue| of the symmetric h
    budget = 10.0 * gap + 1e-10 * max(float(np.abs(values).max()), 1.0)
    if max(res_a, res_b) > budget:
        raise RuntimeError(
            f"certificate residuals ({res_a:.3e}, {res_b:.3e}) exceed budget {budget:.3e}"
        )
    return DegeneracyCertificate(
        r=float(r), theta=float(theta), lambda_a=lam_a, lambda_b=lam_b,
        gap=gap, mean=mean, residual_a=res_a, residual_b=res_b,
        pair_index=int(i), anchor=anchor, window=window, tol=tol,
        levels=levels, evaluations=evaluations,
    )


def refine(disc: DiscFamily, window: SpectralWindow,
           point: Tuple[float, float, float], tol: float,
           step: Optional[Tuple[float, float]] = None) -> DegeneracyCertificate:
    """Shrink the anchored gap below ``tol`` by nested stencil search.

    ``point`` is a (gap, r, theta) candidate of ``scan_disc``, such as
    ``ScanResult.best``; the search starts at its (r, theta).  Each
    level walks a deterministic 5x5 stencil (radial offset outer,
    angular offset inner) around the current best point and moves to
    every point whose gap is strictly smaller, so later points of the
    level are offset from the new best; the stencil radius is then
    divided by 4.  The radial coordinate is clipped to [0, 1] and the
    angle wraps.  ``tol`` and both ``step`` entries (default 1/4, 1/4)
    must be finite and positive.  Raises DegeneracyNotFound when the
    cap of 40 levels is reached first, and also when the certificate's
    eigendecomposition at the walk's best point measures a gap above
    ``tol``: below the round-off floor (a ``tol`` of 1e-300, say),
    ``eigvalsh`` can return a gap of 0 that ``eigh`` does not.

    The walk is evaluated speculatively, with the same points,
    comparisons and answer as one point at a time: the next ``width``
    points of the level, offset from the current best, are built as one
    boundary stack and take one batched ``eigvalsh``, and the first one
    that improves is taken, dropping the rest.  ``width`` starts at 1,
    doubles up to 25 after each batch that finds no improvement and
    drops back to 1 after a move.  Discs above ``_SPECULATE_MAX_DIM``
    keep width 1: there ``eigvalsh`` dominates each point, so batching
    saves little and the dropped points would cost more.

    A rotation loop's disc is answered at its center first.  When the
    boundary has an ``equivariant`` model whose structure K commutes
    with the center C (||CK - KC||_F <= 1e-12 max(||C||_F, 1), as for
    the mean of the loop), C is complex-linear for K, so its
    eigenvalues come in equal pairs, and one pair lies among the
    anchored guard pairs of any window.  If the anchored gap at r = 0
    is within ``tol``, the certificate is at (r, theta) = (0, 0) with
    0 levels and 1 evaluation; otherwise the walk runs as above.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _, r, theta = (float(x) for x in point)
    if step is None:
        step = (0.25, 0.25)
    dr, dt = float(step[0]), float(step[1])
    if not all(math.isfinite(x) and x > 0 for x in (dr, dt)):
        raise ValueError(f"step entries must be finite and positive, got {tuple(step)}")
    anchor = _anchor_index(disc, window)
    c = disc.center.matrix

    def gaps_at(rs: list, ts: list) -> list:
        """Anchored gaps at the points (rs[i], ts[i])."""
        if len(rs) == 1:  # eigvalsh takes longer on a one-matrix stack
            values = np.linalg.eigvalsh(disc.operator_at(rs[0], ts[0]))
            return [float(_index_gaps(values, anchor, window.count))]
        h = c + np.array(rs)[:, None, None] * (disc.boundary.stack(ts) - c)
        return _index_gaps(np.linalg.eigvalsh(h), anchor, window.count).tolist()

    loop = disc.boundary.equivariant
    if loop is not None:  # a center that commutes with K is degenerate
        k = loop.structure
        if np.linalg.norm(c @ k - k @ c) <= 1e-12 * max(np.linalg.norm(c), 1.0):
            if gaps_at([0.0], [0.0])[0] <= tol:
                return _certificate_at(disc, window, anchor, 0.0, 0.0, tol, 0, 1)

    best_r, best_t = min(max(r, 0.0), 1.0), theta % 1.0
    best_gap = gaps_at([best_r], [best_t])[0]
    evaluations = 1
    max_width = _STENCIL_R.size if disc.dim <= _SPECULATE_MAX_DIM else 1
    width = 1
    max_levels = 40
    for level in range(max_levels):
        if best_gap <= tol:
            return _certificate_at(disc, window, anchor, best_r, best_t, tol,
                                   level, evaluations)
        k, rs = 0, None  # k: the next stencil offset of this level
        while k < _STENCIL_R.size:
            if rs is None:  # the level's remaining points, offset from the current best
                rs = np.minimum(np.maximum(best_r + _STENCIL_R[k:] * dr, 0.0), 1.0).tolist()
                ts = ((best_t + _STENCIL_T[k:] * dt) % 1.0).tolist()
            gaps = gaps_at(rs[:width], ts[:width])
            evaluations += len(gaps)
            for i, g in enumerate(gaps):
                if g < best_gap:  # move there; the rest of the batch is dropped
                    best_gap, best_r, best_t = g, rs[i], ts[i]
                    k, rs, width = k + i + 1, None, 1
                    break
            else:
                k, rs, ts = k + len(gaps), rs[len(gaps):], ts[len(gaps):]
                width = min(2 * width, max_width)
        dr, dt = dr / 4.0, dt / 4.0
    if best_gap <= tol:
        return _certificate_at(disc, window, anchor, best_r, best_t, tol,
                               max_levels, evaluations)
    raise DegeneracyNotFound((best_r, best_t), best_gap, max_levels, evaluations)


@dataclass(frozen=True)
class Answer:
    """A disc's scan and the refinement of its best point: exactly one
    of ``certificate`` and ``not_found`` is set."""

    scan: ScanResult
    certificate: Optional[DegeneracyCertificate] = None
    not_found: Optional[DegeneracyNotFound] = None


def answer(disc: DiscFamily, window: SpectralWindow, grid: Tuple[int, int] = (16, 24), *,
           tol: float) -> Answer:
    """``scan_disc`` on ``grid``, then ``refine`` from ``scan.best`` to ``tol``
    with step (1/n_r, 1/n_theta); a DegeneracyNotFound is the ``not_found``.
    Raises and warns as ``scan_disc`` does (WindowRefused, a +1 boundary)."""
    scan = scan_disc(disc, window, grid=grid)
    try:
        cert = refine(disc, window, scan.best, tol, step=(1.0 / grid[0], 1.0 / grid[1]))
    except DegeneracyNotFound as exc:
        return Answer(scan, not_found=exc)
    return Answer(scan, certificate=cert)
