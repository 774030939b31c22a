"""Degeneracy search over a disc of operators.

A loop with return sign -1 cannot bound a disc of operators whose
window stays admissible everywhere, so somewhere in the disc two
eigenvalues around the window must collide.  This module fills the
loop by linear interpolation toward a center operator (the space of
symmetric matrices is convex, so the filling is canonical), scans the
disc for small eigenvalue gaps, and refines promising points into a
certificate of near-degeneracy.  The scan factors one ring of the
polar grid per batched eigensolve; on discs of dimension
``_PARALLEL_MIN_DIM`` and up the rings are shared out across the cores
the process may run on, one thread each, with the same bytes as one
thread, since each ring gives what it gives alone.  The refinement
answers a rotation loop's disc at its center when the center commutes
with the loop's structure; otherwise it runs Newton on the branching
plane, solving the two first-order conditions of a crossing of the
closest anchored pair, which meets a forced crossing in a few
eigensolves.  Where Newton stops short, refinement refuses at once,
with the best Newton iterate.  Both routes' points are certified by
the same eigendecomposition checks, on the ``eigh`` that found them.
``answer`` joins the two stages: refinement starts at the scan's best
point.

The gap indicator is anchored by eigenvalue index at the boundary
basepoint, not by window position: tracking the same sorted indices
across the disc detects both failure modes at once, an interior
collision and an eigenvalue crossing a window endpoint.
"""

from __future__ import annotations

import math
import os
import threading
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
from .spectral import SpectralWindow, _validated
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
    """Disc filling a loop, centered at its mean or at a given operator.

    ``center`` may be "mean" (average of 64 uniform boundary samples;
    exact for trigonometric polynomial loops of degree below 32) or an
    explicit operator.
    """
    family = loop.family() if isinstance(loop, EquivariantLoopModel) else loop
    if isinstance(center, str):
        if center == "mean":
            total = 0  # summed sample by sample, in order
            for chunk in _stack_chunks(family, np.arange(64) / 64):
                total = sum(chunk, total)
            c = SymmetricOperator(total / 64)
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


# smallest disc dimension at which scan_disc shares its rings out across
# the process's cores.  numpy releases the interpreter lock in eigvalsh
# only for stacks of more than 500 / n matrices; a 24-angle ring passes
# that from n = 21.  On a 2-core x86_64 VM with one BLAS thread a
# 16 x 24 scan went 6.9 -> 5.3 ms at n = 24, but 5.2 -> 5.6 ms at n = 20
# and 3.6 -> 3.9 ms at n = 16
_PARALLEL_MIN_DIM = 24


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(work, parts: int):
    """Run work(k) for every k in range(parts): 0 on this thread, the
    others on one thread each, joined before returning.  The first
    exception raised, by part order, is raised here unchanged."""
    errors: list = [None] * parts

    def run(k: int):
        try:
            work(k)
        except BaseException as exc:  # re-raised below, on the caller's thread
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def scan_disc(disc: DiscFamily, window: SpectralWindow,
              grid: Tuple[int, int] = (16, 24)) -> ScanResult:
    """Evaluate the anchored gap indicator on a polar grid.

    The radial grid starts at 1/n_r, not 0: refinement checks a rotation
    loop's center itself, as for the cone, and Newton steps to r = 0
    when the crossing is there.
    When the boundary loop's transported sign is +1 a degeneracy is not
    forced and a warning is issued, but the scan still runs; it simply
    reports whatever gaps it finds.

    Each ring is one batched ``eigvalsh`` of c + r (ring - c).  From
    ``_PARALLEL_MIN_DIM`` up, the rings are dealt out to one thread per
    core the process may run on (at most n_r), ring k to worker
    k mod workers: numpy's eigensolver releases the interpreter lock,
    and every matrix gives exactly what it gives alone, so the gap map
    and ``best`` are byte for byte those of one thread.  A worker turns
    each ring's spectra into its row of the gap map at once, so the scan
    holds the ring, the (n_r, n_theta) gap map, and per worker one
    ring-sized operator buffer and one ring's spectra.  An exception in
    a worker is raised here unchanged, after every worker has finished.
    n_r < 2 or n_theta < 3 is refused with a ValueError.
    """
    n_r, n_theta = grid
    if n_r < 2 or n_theta < 3:
        raise ValueError(f"grid must have n_r >= 2 and n_theta >= 3, got {grid}")
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
    # the boundary ring is sampled once; each worker builds one radius's
    # (n_theta, n, n) stack of disc operators at a time in its own buffer
    c = disc.center.matrix
    ring = disc.boundary.stack(thetas) - c
    parts = min(_cores(), n_r) if disc.dim >= _PARALLEL_MIN_DIM else 1
    buffers = np.empty((parts,) + ring.shape)
    gap_map = np.empty((n_r, n_theta))

    def factor(k: int):
        """Rings k, k + parts, ..., each as c + r * ring."""
        for i in range(k, n_r, parts):
            h = np.multiply(rs[i], ring, out=buffers[k])
            gap_map[i] = _index_gaps(np.linalg.eigvalsh(np.add(c, h, out=h)), anchor,
                                     window.count)

    _split(factor, parts)
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

    ``method`` names the route that reached the point: ``"center"`` (a
    rotation loop's disc answered at r = 0) or ``"newton"`` (Newton on
    the branching plane).  ``levels`` counts the Newton steps taken
    before the gap reached ``tol``, and ``evaluations`` every eigensolve
    ``refine`` made after the anchor: the center check and Newton's.
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
    tol: float
    levels: int
    evaluations: int
    method: str


class DegeneracyNotFound(Exception):
    """Refinement met no gap within tolerance; carries the best point and
    gap reached, the Newton steps taken, the eigensolves made and the
    route that reached the point (as on the certificate)."""

    def __init__(self, best_point: Tuple[float, float], best_gap: float, levels: int,
                 evaluations: int, method: str):
        self.best_point = best_point
        self.best_gap = best_gap
        self.levels = levels
        self.evaluations = evaluations
        self.method = method
        super().__init__(
            f"no gap below tolerance after {levels} Newton steps; best gap "
            f"{best_gap:.6e} at (r, theta) = ({best_point[0]:.6g}, {best_point[1]:.6g})"
        )


# Newton steps refine takes before it refuses; no forced disc of the
# benchmark's lasso workload has needed more than 3
_NEWTON_STEPS = 8
# central-difference half-width in theta for a boundary without a
# rotation model; the Jacobian only steers Newton, it certifies nothing
_SLOPE_STEP = 2.0 ** -17


def _certificate_at(disc: DiscFamily, window: SpectralWindow, anchor: int,
                    r: float, theta: float, tol: float, levels: int,
                    evaluations: int, method: str,
                    factored: Tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> DegeneracyCertificate:
    """The certificate at (r, theta), from ``factored`` = (H(r, theta),
    values, vectors) of the ``eigh`` taken there, once it passes
    ``_validated``'s checks; DegeneracyNotFound at (r, theta) when the
    closest anchored pair's gap is above ``tol``."""
    h = factored[0]
    values, vectors = _validated(h, lambda _: factored[1:])[:2]
    pairs = _guard_pairs(anchor, window.count, values.size)
    i = min(pairs, key=lambda p: values[p + 1] - values[p])
    lam_a, lam_b = float(values[i]), float(values[i + 1])
    mean = 0.5 * (lam_a + lam_b)
    res_a = float(np.linalg.norm(h @ vectors[:, i] - mean * vectors[:, i]))
    res_b = float(np.linalg.norm(h @ vectors[:, i + 1] - mean * vectors[:, i + 1]))
    gap = lam_b - lam_a
    if gap > tol:
        raise DegeneracyNotFound((float(r), float(theta)), gap, levels, evaluations, method)
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
        pair_index=int(i), tol=tol,
        levels=levels, evaluations=evaluations, method=method,
    )


def _slope_on(boundary: OperatorFamily, theta: float, b: np.ndarray,
              frame: np.ndarray) -> np.ndarray:
    """frame^T B'(theta) frame, for B = ``b`` the boundary at theta.

    On a rotation loop B' = Omega B - B Omega exactly, with Omega skew,
    so the projection is -(Y + Y^T) for Y = (Omega frame)^T (B frame);
    other boundaries take a central difference of two samples.
    """
    loop = boundary.equivariant
    if loop is not None:
        y = loop.generator(frame).T @ (b @ frame)
        return -(y + y.T)
    ahead, behind = boundary.stack([theta + _SLOPE_STEP, theta - _SLOPE_STEP])
    return frame.T @ (ahead - behind) @ frame / (2.0 * _SLOPE_STEP)


def _newton(disc: DiscFamily, window: SpectralWindow, anchor: int, r: float,
            theta: float, tol: float) -> Tuple[tuple, int]:
    """Newton on the branching plane from (r, theta), one ``eigh`` a step.

    Returns ((r, theta, (H, values, vectors)), steps) for the first
    iterate with the smallest anchored gap, by the ``eigh`` of
    H = H(r, theta), and the steps taken.  It stops at the first iterate
    whose gap is within ``tol``, when the closest pair's 2 x 2 system is
    singular, when a step is not finite, or after ``_NEWTON_STEPS``
    steps.  Each step x solves the two first-order conditions of a
    crossing of the closest anchored guard pair (u, w), with
    A_d = [u w]^T dH/dd [u w] over d in (r, theta), dH/dr = B - C and
    dH/dtheta = r B': equal eigenvalues,
    (A_d00 - A_d11) . x = lambda_w - lambda_u, and no coupling,
    A_d01 . x = 0.  r is clipped to [0, 1] and theta wraps.  The anchor
    must have at least one guard pair.
    """
    pairs = _guard_pairs(anchor, window.count, disc.dim)
    c = disc.center.matrix
    best = None  # (gap, r, theta, (H, values, vectors))
    for steps in range(_NEWTON_STEPS + 1):
        b = disc.boundary(theta)
        radial = b - c
        h = c + r * radial  # as disc.operator_at(r, theta)
        values, vectors = np.linalg.eigh(h)
        i = min(pairs, key=lambda p: values[p + 1] - values[p])
        gap = float(values[i + 1] - values[i])
        if best is None or gap < best[0]:
            best = (gap, r, theta, (h, values, vectors))
        if gap <= tol or steps == _NEWTON_STEPS:
            break
        frame = vectors[:, i:i + 2]
        a_r = frame.T @ radial @ frame
        a_t = r * _slope_on(disc.boundary, theta, b, frame)
        jacobian = [[a_r[0, 0] - a_r[1, 1], a_t[0, 0] - a_t[1, 1]], [a_r[0, 1], a_t[0, 1]]]
        try:
            dr, dt = (float(x) for x in np.linalg.solve(jacobian, [gap, 0.0]))
        except np.linalg.LinAlgError:  # the pair does not couple: no crossing to aim at
            break
        if not (math.isfinite(dr) and math.isfinite(dt)):
            break
        r, theta = min(max(r + dr, 0.0), 1.0), (theta + dt) % 1.0
    return best[1:], steps


def refine(disc: DiscFamily, window: SpectralWindow,
           point: Tuple[float, float, float], tol: float,
           step: Optional[Tuple[float, float]] = None, *,
           anchor: Optional[int] = None) -> DegeneracyCertificate:
    """Drive the anchored gap below ``tol``, starting at ``point``.

    ``point`` is a (gap, r, theta) candidate of ``scan_disc``, such as
    ``ScanResult.best``; the search starts at its (r, theta), which must
    be finite, with r clipped to [0, 1] and theta wrapped.  ``tol`` must
    be finite and positive; ``step`` is ignored.  ``anchor`` is the
    window's first index at the boundary basepoint, which ``scan_disc``
    of the same disc and window found (``ScanResult.anchor``); when it is
    None, the basepoint is factored here to find it, and a window that
    misses the basepoint raises WindowRefused.  Two routes are tried
    in turn, and the certificate's ``method`` names the one that
    answered; its point is always checked by ``_certificate_at`` (a
    validated eigendecomposition and the residual budget), on the
    ``eigh`` that found it.

    ``"center"``: a rotation loop's disc is answered at its center
    first.  When the boundary has an ``equivariant`` model whose
    structure K commutes with the center C (||CK - KC||_F <= 1e-12
    max(||C||_F, 1), as for the mean of the loop), C is complex-linear
    for K, so its eigenvalues come in equal pairs, and one pair lies
    among the anchored guard pairs of any window.  If the anchored gap
    of one ``eigh`` at r = 0 is within ``tol``, the certificate is at
    (r, theta) = (0, 0) with 0 levels and 1 evaluation.

    ``"newton"``: Newton on the branching plane (``_newton``), at most
    ``_NEWTON_STEPS`` steps of one ``eigh`` each.  A real symmetric
    crossing has codimension 2, so the closest pair's two first-order
    conditions fix the step.  ``levels`` counts its steps.

    When neither meets ``tol`` (a singular 2 x 2 system, as on a +1
    boundary whose pair never couples, a non-finite step, or the step
    cap), DegeneracyNotFound is raised at once, with ``method``
    ``"newton"``, at the Newton iterate with the smallest anchored gap.
    A 1 x 1 disc has no pair to watch: it is refused at the clipped
    start with an infinite gap and no eigensolve.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _, r, theta = (float(x) for x in point)
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise ValueError(f"point must have a finite r and theta, got ({r}, {theta})")
    r, theta = min(max(r, 0.0), 1.0), theta % 1.0
    if anchor is None:
        anchor = _anchor_index(disc, window)
    if not _guard_pairs(anchor, window.count, disc.dim):
        raise DegeneracyNotFound((r, theta), math.inf, 0, 0, "newton")

    spent = 0
    loop = disc.boundary.equivariant
    if loop is not None:  # a center that commutes with K is degenerate
        c = disc.center.matrix
        # CK - KC = -(C K^T + K C), as K^T = -K
        if np.linalg.norm(loop._times_k(c, axis=-1) + loop._times_k(c)) <= (
                1e-12 * max(np.linalg.norm(c), 1.0)):
            spent = 1
            h = disc.operator_at(0.0, 0.0)
            values, vectors = np.linalg.eigh(h)
            if _index_gaps(values, anchor, window.count) <= tol:
                return _certificate_at(disc, window, anchor, 0.0, 0.0, tol, 0, 1, "center",
                                       (h, values, vectors))

    (r, theta, factored), steps = _newton(disc, window, anchor, r, theta, tol)
    return _certificate_at(disc, window, anchor, r, theta, tol, steps, spent + steps + 1,
                           "newton", factored)


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
    with the scan's anchor, so the basepoint is factored for it once;
    a DegeneracyNotFound is the ``not_found``.
    Raises and warns as ``scan_disc`` does (WindowRefused, a +1 boundary)."""
    scan = scan_disc(disc, window, grid=grid)
    try:
        cert = refine(disc, window, scan.best, tol, anchor=scan.anchor)
    except DegeneracyNotFound as exc:
        return Answer(scan, not_found=exc)
    return Answer(scan, certificate=cert)
