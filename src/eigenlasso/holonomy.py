"""Eigenframe transport around closed operator loops.

The sign of a window eigenbundle over a loop is read off from the
return matrix of a transported orthonormal frame: the frame is dragged
from sample to sample through the window projectors, and whatever
orthogonal mismatch survives at closure is the holonomy.  Frames are
realigned by polar orthonormalization, which is the unique choice
closest to the dragged frame and thus cannot inject a spurious
reflection; QR with unconstrained diagonal signs could.

Everything here works on n x k window frames, never on n x n
projectors: for orthonormal frames F and G of equal rank,
||P_F - P_G|| = ||G - F (F^H G)|| = sin of the largest principal angle,
and P_G F = G (G^H F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .models import OperatorFamily, _stacked_loop
from .spectral import SpectralWindow, _factor_samples, eigendecompose

__all__ = [
    "MAX_PROJECTOR_STEP",
    "TransportError",
    "FramePath",
    "ReturnMatrix",
    "StabilityReport",
    "transport",
    "predicted_sign",
    "sign_stability",
    "concatenate_loops",
]

# consecutive window subspaces must stay this close for the dragged
# frame to keep full rank; 1/2 leaves a factor-2 margin below the
# breakdown distance 1
MAX_PROJECTOR_STEP = 0.5

# cap on the samples of one transport, initial and refined: memory grows
# with samples * n * k
_MAX_SAMPLES = 100_000


class TransportError(RuntimeError):
    """Transport could not proceed; carries the offending parameter."""

    def __init__(self, message: str, parameter: Optional[float] = None):
        super().__init__(message)
        self.parameter = parameter


@dataclass(frozen=True)
class FramePath:
    """Orthonormal window frames along loop samples 0 = t0 < ... < tN = 1."""

    parameters: np.ndarray
    frames: Tuple[np.ndarray, ...]
    window: SpectralWindow

    @property
    def n_samples(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ReturnMatrix:
    """Closing matrix A with F_end = F_start A, and its orientation sign."""

    matrix: np.ndarray
    determinant: float
    sign: int


def _window_frame(values: np.ndarray, vectors: np.ndarray, window: SpectralWindow,
                  t: float) -> np.ndarray:
    """In-window orthonormal frame from one sample's eigendecomposition.

    A column-major copy: a view would keep the sample's whole n x n
    eigenvector matrix alive in the transport cache.
    """
    try:
        held = window.indices(values)
    except ValueError as exc:
        raise TransportError(f"at t={t:.6g}: {exc}", parameter=t) from exc
    return vectors[:, held].copy(order="F")


def _differ(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> bool:
    """Whether two samples differ by more than 1e-12 ||a||.

    ``values`` are a's eigenvalues: ||a|| is their largest magnitude
    (floored at 1).  The Frobenius norm of a - b bounds its operator
    norm from above, so the test is no looser than an operator-norm one.
    """
    scale = max(float(np.abs(values).max()), 1.0)
    return a.shape != b.shape or float(np.linalg.norm(a - b)) > 1e-12 * scale


def _frame_distance(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Operator-norm distances of the projectors onto pairs of equal-rank frames.

    ``f`` and ``g`` are n x k frames or (..., n, k) stacks of them.
    Computed as ||G - F (F^H G)||, the sine of the largest principal
    angle, which keeps full accuracy at small angles.
    """
    residual = g - f @ (f.conj().swapaxes(-1, -2) @ g)
    return np.linalg.svd(residual, compute_uv=False).max(axis=-1)


def _frame_stack(frames) -> np.ndarray:
    """(P, n, k) stack of n x k frames, each slice column-major like the frames.

    The layout keeps every product in ``_frame_distance`` the same BLAS
    call, and so the same bits, as on the single frame.
    """
    return np.stack([f.T for f in frames]).swapaxes(-1, -2)


def _polar_align(new: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Polar factor of the frame dragged onto the span of ``new``.

    The dragged frame is P_new F = new (new^H F); its polar factor is
    new (u v^H) from the SVD u s v^H of the k x k overlap.
    """
    u, s, vt = np.linalg.svd(new.conj().T @ frame)
    if float(s.min()) < 0.1:
        raise TransportError(
            f"dragged frame nearly rank-deficient (smallest singular value {s.min():.3e})"
        )
    return new @ (u @ vt)


def transport(loop: OperatorFamily, window: SpectralWindow, initial_samples: int = 16):
    """Drag a window eigenframe once around the loop.

    Returns (FramePath, ReturnMatrix).  Sampling is refined adaptively:
    each interval between consecutive samples is checked once, and one
    whose window subspaces are not closer than MAX_PROJECTOR_STEP in
    operator norm is split at its midpoint, until every interval
    passes.  That is all that is checked.  Nothing is checked between
    samples, so a subspace that turns by a half turn or more between
    two samples that happen to land close goes unseen, and the sign can
    then differ from the one a finer grid gives (for example,
    ``make_block_rotation_loop(diag(1, 2, 3, 4), turns=1.5)`` with
    window (0.5, 1.5) and ``initial_samples=3`` returns +1 where the
    parity rule says -1).  Refinement stops with TransportError beyond
    100000 samples, and ``initial_samples`` above 100000 is refused
    before anything is sampled.
    """
    if initial_samples < 2:
        raise ValueError("need at least 2 initial samples")
    if initial_samples > _MAX_SAMPLES:
        raise ValueError(f"initial_samples must be at most {_MAX_SAMPLES}, got {initial_samples}")
    # the raw sampler: calling a circle family wraps t = 1 back to 0
    base = loop.sampler(0.0)
    values, vectors = eigendecompose(base)
    if _differ(base, loop.sampler(1.0), values):
        raise TransportError("loop is not closed: samples at t=0 and t=1 differ")

    ts = list(np.linspace(0.0, 1.0, initial_samples + 1))
    cache = {ts[0]: _window_frame(values, vectors, window, ts[0])}

    # breadth-first worklist: each pass samples the points the previous
    # pass created as one stack, then checks only the intervals it
    # created, left to right
    pending = list(zip(ts[:-1], ts[1:]))
    while pending:
        new = [t for t in dict.fromkeys(t for pair in pending for t in pair) if t not in cache]
        for t, spectrum in zip(new, _factor_samples(loop, new, base.nbytes)):
            cache[t] = _window_frame(*spectrum, window, t)
        distances = _frame_distance(_frame_stack(cache[a] for a, _ in pending),
                                    _frame_stack(cache[b] for _, b in pending))
        bad = [pair for pair, d in zip(pending, distances) if d >= MAX_PROJECTOR_STEP]
        if bad and len(ts) + len(bad) > _MAX_SAMPLES:
            raise TransportError(
                f"refinement exceeded {_MAX_SAMPLES} samples; "
                "window subspace moves too fast somewhere on the loop"
            )
        pending = []
        for a, b in bad:
            mid = 0.5 * (a + b)
            ts.append(mid)
            pending += [(a, mid), (mid, b)]
    ts.sort()

    frames = [cache[ts[0]]]
    for t in ts[1:]:
        frames.append(_polar_align(cache[t], frames[-1]))

    a = frames[0].conj().T @ frames[-1]
    det = np.linalg.det(a)
    if abs(float(np.imag(det))) > 1e-10:
        raise RuntimeError("return matrix determinant came out non-real")
    det = float(np.real(det))
    if not 0.9 <= abs(det) <= 1.1:
        raise RuntimeError(
            f"return matrix is far from orthogonal (|det| = {abs(det):.6f}); "
            "transport is unreliable"
        )
    path = FramePath(parameters=np.array(ts), frames=tuple(frames), window=window)
    ret = ReturnMatrix(matrix=a, determinant=det, sign=1 if det > 0 else -1)
    return path, ret


def predicted_sign(parity: str, count: int) -> int:
    """Expected return sign: -1 exactly when the loop and count are both odd."""
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    return -1 if (parity == "odd" and count % 2 == 1) else 1


@dataclass(frozen=True)
class StabilityReport:
    max_projector_distance: float
    criterion_met: bool
    sign_a: int
    sign_b: Optional[int]
    signs_equal: Optional[bool]
    note: str = ""


def sign_stability(loop_a: OperatorFamily, loop_b: OperatorFamily,
                   window: SpectralWindow) -> StabilityReport:
    """Compare window subspaces of two loops and their transported signs.

    The subspaces are compared at 257 evenly spaced points of [0, 1].
    When they stay closer than 1 everywhere, the two eigenbundles are
    isomorphic, so equal signs are asserted (a mismatch raises).  When
    the criterion fails the report only states what was computed;
    nothing is claimed in that regime.
    """
    grid = np.linspace(0.0, 1.0, 257)
    fa, fb = [], []
    for t, a, b in zip(grid, _factor_samples(loop_a, grid), _factor_samples(loop_b, grid)):
        fa.append(_window_frame(*a, window, t))
        fb.append(_window_frame(*b, window, t))
    worst = max([0.0] + _frame_distance(_frame_stack(fa), _frame_stack(fb)).tolist())
    criterion_met = worst < 1.0
    _, ret_a = transport(loop_a, window)
    note = ""
    try:
        _, ret_b = transport(loop_b, window)
        sign_b = ret_b.sign
    except TransportError as exc:
        sign_b = None
        note = f"second transport failed: {exc}"
    signs_equal = None if sign_b is None else (ret_a.sign == sign_b)
    if criterion_met:
        if sign_b is None:
            raise RuntimeError(
                f"distance criterion met ({worst:.4f} < 1) but transport failed: {note}"
            )
        if not signs_equal:
            raise RuntimeError(
                f"distance criterion met ({worst:.4f} < 1) but signs differ: "
                f"{ret_a.sign} vs {sign_b}"
            )
    return StabilityReport(
        max_projector_distance=worst, criterion_met=criterion_met,
        sign_a=ret_a.sign, sign_b=sign_b, signs_equal=signs_equal, note=note,
    )


def concatenate_loops(loop1: OperatorFamily, loop2: OperatorFamily) -> OperatorFamily:
    """Run loop1 on [0, 1/2] and loop2 on [1/2, 1], time-rescaled.

    Both loops must be closed at the same basepoint.  Transported signs
    multiply under this operation, which is checked in the test suite
    rather than assumed here.
    """
    b1, b2 = loop1(0.0), loop2(0.0)
    values = np.linalg.eigvalsh(b1)
    if _differ(b1, b2, values):
        raise ValueError("loops must share their basepoint operator")
    for name, lp in (("first", loop1), ("second", loop2)):
        if _differ(lp.sampler(0.0), lp.sampler(1.0), values):
            raise ValueError(f"{name} loop is not closed")

    def stacker(ts: np.ndarray) -> np.ndarray:
        first = ts < 0.5
        if first.all():
            return loop1.stack(2.0 * ts)
        if not first.any():
            return loop2.stack(2.0 * ts - 1.0)
        a, b = loop1.stack(2.0 * ts[first]), loop2.stack(2.0 * ts[~first] - 1.0)
        out = np.empty((ts.size,) + a.shape[1:], dtype=np.result_type(a, b))
        out[first], out[~first] = a, b
        return out

    parity = None
    if loop1.parity in ("odd", "even") and loop2.parity in ("odd", "even"):
        parity = "odd" if (loop1.parity == "odd") != (loop2.parity == "odd") else "even"
    return _stacked_loop(stacker, parity, f"concat({loop1.name or '?'}, {loop2.name or '?'})")
