"""Degeneracy search over a disc of operators.

A loop with return sign -1 cannot bound a disc of operators whose
window stays admissible everywhere, so somewhere in the disc two
eigenvalues around the window must collide.  This module fills the
loop by linear interpolation toward a center operator (the space of
symmetric matrices is convex, so the filling is canonical), scans the
disc for small eigenvalue gaps, and refines promising points into a
certificate of near-degeneracy.

The gap indicator is anchored by eigenvalue index at the boundary
basepoint, not by window position: tracking the same sorted indices
across the disc detects both failure modes at once, an interior
collision and an eigenvalue crossing a window endpoint.
"""

from __future__ import annotations

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
    "DiscFamily",
    "ScanResult",
    "DegeneracyCertificate",
    "DegeneracyNotFound",
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

def _anchor_index(disc: DiscFamily, window: SpectralWindow) -> int:
    """First index of the window's range at the basepoint.

    Also validates that the window is admissible there: the anchor is
    meaningless if the boundary does not start inside the good region.
    """
    values = np.linalg.eigvalsh(disc.boundary(0.0))
    try:
        return window.indices(values).start
    except ValueError as exc:
        raise ValueError(f"at the boundary basepoint: {exc}") from exc


def _guard_pairs(anchor: int, count: int, n: int) -> range:
    """Lower indices p of the consecutive pairs (p, p + 1) to watch.

    The pairs run from the one straddling the window's lower end to the
    one straddling its upper end, clipped to the n eigenvalues: the
    window content plus its two guard gaps.
    """
    return range(max(anchor, 1) - 1, min(anchor + count, n - 1))


def _index_gaps(values: np.ndarray, anchor: int, count: int) -> float:
    """Minimal consecutive gap over the anchored guard pairs."""
    pairs = _guard_pairs(anchor, count, values.shape[-1])
    if not pairs:
        return np.inf
    lo, hi = pairs.start, pairs.stop
    diffs = values[..., lo + 1:hi + 1] - values[..., lo:hi]
    return diffs.min(axis=-1)


@dataclass(frozen=True)
class ScanResult:
    """Gap map over the scan grid plus candidates ranked by ascending gap."""

    r_values: np.ndarray
    theta_values: np.ndarray
    gap_map: np.ndarray
    candidates: Tuple[Tuple[float, float, float], ...]  # (gap, r, theta)
    anchor: int
    window: SpectralWindow
    boundary_sign: int

    @property
    def best(self) -> Tuple[float, float, float]:
        return self.candidates[0]

    @property
    def min_gap(self) -> float:
        return self.candidates[0][0]


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
    order = np.argsort(gap_map, axis=None, kind="stable")
    ii, jj = np.unravel_index(order, gap_map.shape)
    candidates = tuple(
        (float(gap_map[i, j]), float(rs[i]), float(thetas[j])) for i, j in zip(ii, jj)
    )
    return ScanResult(r_values=rs, theta_values=thetas, gap_map=gap_map,
                      candidates=candidates, anchor=anchor, window=window,
                      boundary_sign=ret.sign)


# ---------------------------------------------------------------------------
# refinement and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegeneracyCertificate:
    """A disc point where two anchored eigenvalues coincide to tolerance."""

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

    def __post_init__(self):
        if self.gap > self.tol:
            raise RuntimeError(f"certificate gap {self.gap:.3e} exceeds tol {self.tol:.3e}")


class DegeneracyNotFound(Exception):
    """Refinement stagnated; carries the best point and gap reached."""

    def __init__(self, best_point: Tuple[float, float], best_gap: float, levels: int):
        self.best_point = best_point
        self.best_gap = best_gap
        self.levels = levels
        super().__init__(
            f"no gap below tolerance after {levels} levels; best gap "
            f"{best_gap:.6e} at (r, theta) = ({best_point[0]:.6g}, {best_point[1]:.6g})"
        )


_STENCIL = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


def _certificate_at(disc: DiscFamily, window: SpectralWindow, anchor: int,
                    r: float, theta: float, tol: float) -> DegeneracyCertificate:
    h = disc.operator_at(r, theta)
    values, vectors = eigendecompose(h)
    pairs = _guard_pairs(anchor, window.count, values.size)
    i = min(pairs, key=lambda p: values[p + 1] - values[p])
    lam_a, lam_b = float(values[i]), float(values[i + 1])
    mean = 0.5 * (lam_a + lam_b)
    res_a = float(np.linalg.norm(h @ vectors[:, i] - mean * vectors[:, i]))
    res_b = float(np.linalg.norm(h @ vectors[:, i + 1] - mean * vectors[:, i + 1]))
    gap = lam_b - lam_a
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
    )


def refine(disc: DiscFamily, window: SpectralWindow,
           point: Tuple[float, float, float], tol: float,
           step: Optional[Tuple[float, float]] = None) -> DegeneracyCertificate:
    """Shrink the anchored gap below ``tol`` by nested stencil search.

    ``point`` is a (gap, r, theta) candidate of ``scan_disc``, such as
    ``ScanResult.best``; the search starts at its (r, theta).
    Deterministic 5x5 stencils around the current best point, with the
    stencil radius divided by 4 per level; the radial coordinate is
    clipped to [0, 1] and the angle wraps.  Raises DegeneracyNotFound
    when the cap of 40 levels is reached first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, r, theta = (float(x) for x in point)
    if step is None:
        step = (0.25, 0.25)
    dr, dt = float(step[0]), float(step[1])
    anchor = _anchor_index(disc, window)

    def gap_at(rr: float, tt: float) -> float:
        values = np.linalg.eigvalsh(disc.operator_at(rr, tt))
        return float(_index_gaps(values, anchor, window.count))

    best_r, best_t = min(max(r, 0.0), 1.0), theta % 1.0
    best_gap = gap_at(best_r, best_t)
    max_levels = 40
    for level in range(max_levels):
        if best_gap <= tol:
            return _certificate_at(disc, window, anchor, best_r, best_t, tol)
        for du in _STENCIL:
            for dv in _STENCIL:
                rr = min(max(best_r + du * dr, 0.0), 1.0)
                tt = (best_t + dv * dt) % 1.0
                g = gap_at(rr, tt)
                if g < best_gap:
                    best_gap, best_r, best_t = g, rr, tt
        dr, dt = dr / 4.0, dt / 4.0
    if best_gap <= tol:
        return _certificate_at(disc, window, anchor, best_r, best_t, tol)
    raise DegeneracyNotFound((best_r, best_t), best_gap, max_levels)

