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
and P_G F = G (G^H F).  The polar chain runs in closed form: F_i = R_i W_i
for the raw frames R_i, with W_0 = I and W_{i+1} = Q_i W_i for Q_i the
polar factor of R_{i+1}^H R_i, as polar(M W) = polar(M) W and sigma(M W) =
sigma(M) for unitary W.  Grids and signs are bit for bit those of one polar
step at a time; frames and return matrices agree with it up to round-off.

Consecutive window subspaces on a grid must be closer than
MAX_PROJECTOR_STEP.  Rotation loops D(t) = rho(t) D0 rho(t)^T with
rho(t) = exp(t Omega), which are the block-rotation and spin loops of
``models``, carry the speed s = ||[Omega, P0]|| of their window
projector, the same at every t, so ||P(t) - P(t')|| <= s |t - t'| (Kato,
*Perturbation Theory*; Davis and Kahan 1970), and a uniform grid of
floor(s / MAX_PROJECTOR_STEP) + 1 intervals keeps every step below it,
between samples as well as at them.  Their transports are certified and
factored once, and sample no operator past the basepoint: rho(t)
carries the eigenvectors of D0, so (Lambda0, rho(t) V0) is the candidate
eigendecomposition of every sample, and it passes the same residual and
orthonormality thresholds as an ``eigh`` of the sample would.  These
are certified, not measured: rho(t)^T rho(t) = (c^2 + s^2) I holds
exactly, so upper bounds on both follow from the basepoint's own checks
and from the model, whose samples round by a known amount, with the
rounding of every step bounded too.  The frames are those of per-sample
``eigh`` up to round-off.  Their K is an exact signed permutation, so
the window columns of rho(t) V0 are signed gathers and scalings, O(nk)
per t: nothing past the basepoint costs n^3 work.
Families with no such bound (plain samplers, the commuting loop,
concatenations, perturbed loops) are refined adaptively, with
``eigh`` at every sample, and are not certified: a subspace that turns by
a half turn between two samples goes unseen there.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .models import EquivariantLoopModel, OperatorFamily, _stack_chunks, _stacked_loop
from .spectral import (SpectralWindow, _check_factors, _FactorError, _StackError, _validated,
                       eigendecompose)

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
    """Closing matrix A with F_end = F_start A, and its orientation sign.

    ``certified`` is True when the grid came from the family's
    projector-speed bound, so no window step between samples can exceed
    MAX_PROJECTOR_STEP.
    """

    matrix: np.ndarray
    determinant: float
    sign: int
    certified: bool


@contextmanager
def _at(ts):
    """Report an error about entry i of a stack as a TransportError at ts[i]."""
    try:
        yield
    except (_StackError, _FactorError) as exc:
        t = float(ts[exc.index])
        raise TransportError(f"at t={t:.6g}: {exc}", parameter=t) from exc


def _window_frames(window: SpectralWindow, values, vectors) -> np.ndarray:
    """In-window frames of factored samples, as a (P, k, n) stack of transposed frames.

    The n x k frames of its ``swapaxes(-1, -2)`` are column-major, the
    layout that keeps the bits of ``_frame_distance``.
    """
    start, _ = window._bounds(values)
    columns = start[:, None] + np.arange(window.count)
    return vectors.swapaxes(-1, -2)[np.arange(start.size)[:, None], columns]


def _sample_frames(loop: OperatorFamily, window: SpectralWindow, ts,
                   nbytes: Optional[int] = None, basepoint=None):
    """``_window_frames`` at ``ts``, built and factored per ``models._stack_chunks`` run.

    A rotation loop (``loop.equivariant`` set) is factored at t = 0
    only and not sampled past it: ``_rotated`` carries that
    factorization to every t.  ``basepoint`` is (B, values, vectors,
    residual, defect): the sample B = ``loop.sampler(0.0)`` and what
    ``_validated`` returned for it, taken here when not given.
    """
    model = loop.equivariant
    if model is not None:
        if basepoint is None:
            base = loop.sampler(0.0)
            with _at([0.0]):
                basepoint = (base, *_validated(base, np.linalg.eigh))
        with _at(ts):  # the certificate holds at every t or fails at the first
            return _rotated(model, window, ts, *basepoint)
    stacks = []
    for chunk in _stack_chunks(loop, ts, nbytes):
        run = ts[sum(map(len, stacks)):][:len(chunk)]
        with _at(run):
            stacks.append(_window_frames(window, *eigendecompose(chunk)))
    return np.concatenate(stacks)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the float64 unit roundoff u = 2^-53."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


def _rotation_bound(base: np.ndarray, values: np.ndarray, vectors: np.ndarray, residual: float,
                    defect: float, c: np.ndarray, s: np.ndarray) -> Tuple[float, float]:
    """Bounds on the checks of the candidates (Lambda0, W(t)) on every sample D(t) at ``c``, ``s``.

    ``base`` is a rotation loop's sample B at t = 0, (``values``,
    ``vectors``) = (Lambda0, V0) its factorization, and ``residual``
    and ``defect`` what ``_validated`` measured of it: ||B V0 - V0
    Lambda0|| / scale, for scale = max |Lambda0| floored at 1e-300, and
    ||V0^T V0 - I||.  c, s = cos(pi h t), sin(pi h t) are the floats of
    the model's ``_turn``, rho = c I + s K, D(t) is the model's ``stack``
    and W(t) = fl(c V0 + s K V0).  Returns one upper bound on ||D(t) W -
    W Lambda0|| / scale and one on ||W^T W - I|| (Frobenius norms) for
    every t, from the norms of B and V0 alone: no sample is formed.

    rho^T rho = rho rho^T = mu I exactly for mu = c^2 + s^2.  ``stack``
    rounds twice, y = fl(c B + s K B) and D = fl(c y + s y K^T), each
    within gamma_2 (|c| + |s|) of its exact value entrywise (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1), and
    |c| + |s| <= sqrt(2 mu).  So with b = ||B|| / scale, D differs from
    the exact sample rho B rho^T by at most, over scale,

        delta = gamma_2 sqrt(2 mu) b (2 sqrt(mu) + gamma_2 sqrt(2 mu)),

    and X = rho^T D - B rho^T = rho^T (D - rho B rho^T) + (mu - 1) B rho^T
    has ||X|| / scale <= sqrt(mu) delta + |mu - 1| sqrt(mu) b, while
    ||D|| / scale <= mu b + delta.  Then D rho V0 - rho V0 Lambda0 =
    rho X rho V0 / mu + rho (B V0 - V0 Lambda0), and with ||V0||_2 <=
    sqrt(1 + defect0) and the rounding ||W - rho V0|| <= e = gamma_2
    sqrt(2 mu) ||V0||,

        residual <= ||X|| ||V0||_2 + sqrt(mu) residual0 + (||D|| + max |Lambda0|) e,
        defect   <= mu defect0 + |mu - 1| sqrt(n) + e (2 sqrt(mu) ||V0||_2 + e),

    all divided by scale where the residual is.  mu is taken at its
    extremes over ``c`` and ``s``, widened by gamma_3 for its own
    rounding, so each bound is one number.  The norms, like
    ``_validated``'s, are of scale-divided quantities and cannot overflow.
    """
    scale = max(float(np.abs(values).max(initial=0.0)), 1e-300)
    mu = c * c + s * s
    mu_lo, mu_hi = float(mu.min()) - _gamma(3), float(mu.max()) + _gamma(3)
    root = math.sqrt(mu_hi)
    drift = max(mu_hi - 1.0, 1.0 - mu_lo)  # |mu - 1|
    rounding = _gamma(2) * math.sqrt(2.0) * root  # gamma_2 (|c| + |s|)
    b = float(np.linalg.norm(base / scale))
    delta = rounding * b * (2.0 * root + rounding)
    x_norm = root * (delta + drift * b)
    d_norm = mu_hi * b + delta
    error = rounding * float(np.linalg.norm(vectors))
    stretch = math.sqrt(1.0 + defect)
    # max |Lambda0| / scale <= 1
    bound = x_norm * stretch + d_norm * error + (root * residual + error)
    return bound, (mu_hi * defect + drift * math.sqrt(base.shape[-1])
                   + error * (2.0 * root * stretch + error))


def _rotated(model: EquivariantLoopModel, window: SpectralWindow, ts: np.ndarray,
             base: np.ndarray, values: np.ndarray, vectors: np.ndarray, residual: float,
             defect: float) -> np.ndarray:
    """The window frames of rho(t) V0 at ``ts``, certified with no sample: a (N, k, n) stack.

    The candidate factorization of a sample D(t) is (Lambda0, W(t))
    with W(t) = cos(pi h t) V0 + sin(pi h t) K V0.  Every candidate has
    the values Lambda0, so the window rule is checked once, here, and
    ``_rotation_bound`` gives one pair of bounds for all of ``ts``, which
    must pass ``spectral._check_factors``: the same thresholds as an
    ``eigh`` of the sample, on bounds that are never below the values it
    would measure.  The residual bound r then bounds every eigenvalue of
    a sample to within r of Lambda0 (Kahan's residual theorem, with the
    Frobenius norm above the operator norm), so a window endpoint
    farther than r from all of them is on the same side of the sample's
    eigenvalues, and the window count holds; an endpoint within r is
    refused.  A failure names index 0, the first of ``ts``.  Only W's
    window columns are formed, O(nk) per t, as a stack of transposed
    frames like ``_window_frames``'s.
    """
    scale = max(float(np.abs(values).max(initial=0.0)), 1e-300)
    start = int(window._bounds(values[None])[0][0])
    c, s = model._turn(ts)
    residual, defect = _rotation_bound(base, values, vectors, residual, defect, c, s)
    _check_factors(np.array(residual), scale, np.array(defect))
    clearance = min(float(np.abs(values - edge).min()) for edge in (window.lower, window.upper))
    if not clearance > residual * scale:
        raise _StackError(f"a window endpoint lies {clearance:.3e} from the spectrum, within "
                          f"the eigendecomposition residual {residual * scale:.3e}, so the "
                          "window count is not certified", 0)
    # V0's window columns as rows, and K V0's: (K x)^T = x^T K^T
    rows = np.ascontiguousarray(vectors[:, start:start + window.count].T)
    rotated = c * rows
    rotated += s * model._times_k(rows, axis=-1)
    return rotated


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[0], y[0], x[1], y[1], ... along the first axis."""
    return np.stack([x, y], 1).reshape(-1, *x.shape[1:])


def _differ(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> bool:
    """Whether two samples differ by more than 1e-12 ||a||.

    ``values`` are a's eigenvalues: ||a|| is their largest magnitude
    (floored at 1).  The Frobenius norm of a - b bounds its operator
    norm from above, so the test is no looser than an operator-norm one.
    It is taken of (a - b) / ||a||, whose squares cannot overflow.
    """
    scale = max(float(np.abs(values).max()), 1.0)
    return a.shape != b.shape or float(np.linalg.norm((a - b) / scale)) > 1e-12


def _frame_distance(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Operator-norm distances of the projectors onto pairs of equal-rank frames.

    ``f`` and ``g`` are n x k frames or (..., n, k) stacks of them.
    Computed as ||G - F (F^H G)||, the sine of the largest principal
    angle, which keeps full accuracy at small angles.
    """
    residual = g - f @ (f.conj().swapaxes(-1, -2) @ g)
    return np.linalg.svd(residual, compute_uv=False).max(axis=-1)


def _refine(loop: OperatorFamily, window: SpectralWindow, ts: np.ndarray,
            frames: np.ndarray, nbytes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split the grid ``ts`` until consecutive window frames pass the step check.

    ``frames`` are the transposed window frames at ``ts``.  A breadth-first
    worklist: each pass checks the intervals (lo, hi) the last one
    created, left to right, and factors the midpoints of those it
    splits.  Returns the sorted grid and its frames.
    """
    times, stacks = [ts], [frames]
    lo, hi, f_lo, f_hi = ts[:-1], ts[1:], frames[:-1], frames[1:]
    while True:
        far = _frame_distance(f_lo.swapaxes(-1, -2), f_hi.swapaxes(-1, -2)) >= MAX_PROJECTOR_STEP
        lo, hi, f_lo, f_hi = lo[far], hi[far], f_lo[far], f_hi[far]
        if not lo.size:
            break
        if sum(map(len, times)) + lo.size > _MAX_SAMPLES:
            raise TransportError(f"refinement exceeded {_MAX_SAMPLES} samples; "
                                 "window subspace moves too fast somewhere on the loop")
        mid = 0.5 * (lo + hi)
        stuck = np.flatnonzero((mid == lo) | (mid == hi))
        if stuck.size:  # lo and hi are adjacent floats, so no split can ever pass
            t = float(lo[stuck[0]])
            raise TransportError(f"at t={t:.6g}: window subspace jumps by at least "
                                 f"{MAX_PROJECTOR_STEP} between adjacent floats", parameter=t)
        times.append(mid)
        stacks.append(_sample_frames(loop, window, mid, nbytes))
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        f_lo, f_hi = _interleave(f_lo, stacks[-1]), _interleave(stacks[-1], f_hi)
    ts = np.concatenate(times)
    order = np.argsort(ts, kind="stable")
    return ts[order], np.concatenate(stacks)[order]


def transport(loop: OperatorFamily, window: SpectralWindow, initial_samples: int = 16):
    """Drag a window eigenframe once around the loop.

    Returns (FramePath, ReturnMatrix).  Consecutive window subspaces on
    the grid must be closer than MAX_PROJECTOR_STEP (1/2) in operator
    norm, so that each polar step keeps the dragged frame's rank.

    A rotation loop (a family with ``equivariant`` set: every loop
    rho(t) D0 rho(t)^T built by ``models``) is certified: its window
    projector moves at a speed s, so by at most s |t - t'| between any t
    and t', and ``linspace(0, 1, N + 1)`` with N = max(initial_samples,
    floor(s / MAX_PROJECTOR_STEP) + 1) keeps every step below 1/2,
    between samples as well as at them.  Only the basepoint is factored
    by ``eigh``, and no sample past it is formed: at every t the
    candidate (Lambda0, rho(t) V0) must pass the residual and
    orthonormality thresholds of ``eigendecompose`` on the sample D(t),
    through upper bounds taken once per transport from the basepoint's
    checks and the model (see ``_rotation_bound``), and the window
    endpoints must lie farther from Lambda0 than that residual bound,
    which bounds every eigenvalue of D(t) to within it of Lambda0, so
    the window count holds at t.  A failure raises TransportError at the
    first t past the basepoint.  Each frame costs O(nk).  Each step is
    still checked, at no extra cost: its distance sqrt(1 - sigma_min^2)
    comes from the smallest singular value of the overlap that the polar
    step factors, and a step at or above MAX_PROJECTOR_STEP raises
    TransportError at its start, since the bound then does not hold.  An
    N beyond 100000 is refused before any frame past the basepoint is
    formed.

    Any other family is factored by ``eigendecompose`` at every sample
    and refined adaptively from ``initial_samples`` intervals: each
    interval between consecutive samples is checked once, and one whose
    window subspaces are not closer than MAX_PROJECTOR_STEP is split at
    its midpoint, until every interval passes.  Nothing is checked
    between samples there, so a subspace that turns by a half turn or
    more between two samples that land close goes unseen.
    Refinement stops with TransportError beyond 100000 samples or at an
    interval whose ends are adjacent floats.

    ``initial_samples`` above 100000 is refused before anything is
    sampled.  A return matrix whose determinant is not real (a complex
    loop whose window holonomy is a U(k) phase) or not of modulus near 1
    has no orientation sign, and raises TransportError.
    """
    if initial_samples < 2:
        raise ValueError("need at least 2 initial samples")
    if initial_samples > _MAX_SAMPLES:
        raise ValueError(f"initial_samples must be at most {_MAX_SAMPLES}, got {initial_samples}")
    # the raw sampler: calling a circle family wraps t = 1 back to 0
    base = loop.sampler(0.0)
    with _at([0.0]):
        values, vectors, *measured = _validated(base, np.linalg.eigh)
        if _differ(base, loop.sampler(1.0), values):
            raise TransportError("loop is not closed: samples at t=0 and t=1 differ")
        frames = _window_frames(window, values[None], vectors[None])

    certified = loop.equivariant is not None
    intervals = initial_samples
    if certified:
        speed = float(loop.equivariant._projector_speed(frames[0].swapaxes(-1, -2)))
        if not speed / MAX_PROJECTOR_STEP < _MAX_SAMPLES:
            raise TransportError(f"window projector speed {speed:.6g} needs more than "
                                 f"{_MAX_SAMPLES} intervals of step {MAX_PROJECTOR_STEP}")
        intervals = max(intervals, int(np.floor(speed / MAX_PROJECTOR_STEP)) + 1)
    ts = np.linspace(0.0, 1.0, intervals + 1)
    frames = np.concatenate([frames, _sample_frames(loop, window, ts[1:], base.nbytes,
                                                    (base, values, vectors, *measured))])
    if not certified:
        ts, frames = _refine(loop, window, ts, frames, base.nbytes)
    raw = frames.swapaxes(-1, -2)

    u, sigma, vh = np.linalg.svd(raw[1:].conj().swapaxes(-1, -2) @ raw[:-1])
    smallest = sigma.min(axis=-1)
    if certified:
        # sigma are the cosines of the principal angles of a step
        steps = np.sqrt(np.clip(1.0 - smallest * smallest, 0.0, None))
        far = np.flatnonzero(~(steps < MAX_PROJECTOR_STEP))
        if far.size:
            i = int(far[0])
            t = float(ts[i])
            raise TransportError(
                f"at t={t:.6g}: window subspace moves by {steps[i]:.4f} >= "
                f"{MAX_PROJECTOR_STEP} to t={float(ts[i + 1]):.6g}, beyond its "
                f"projector-speed bound of {speed:.6g} per unit t", parameter=t)
    weak = np.flatnonzero(~(smallest >= 0.1))
    if weak.size:
        raise TransportError("dragged frame nearly rank-deficient "
                             f"(smallest singular value {smallest[weak[0]]:.3e})")
    turns = np.concatenate([np.eye(window.count)[None], u @ vh])
    # the W_i of the module docstring, as prefix products in log2(N) doubling steps
    for step in [1 << j for j in range((len(turns) - 1).bit_length())]:
        turns[step:] = turns[step:] @ turns[:-step]
    frames = raw @ turns

    a = frames[0].conj().T @ frames[-1]
    det = np.linalg.det(a)
    if abs(float(np.imag(det))) > 1e-10:
        raise TransportError(
            f"return matrix determinant {complex(det):.6g} is not real: the window "
            "holonomy is a unitary phase, not an orthogonal matrix, so the loop has "
            "no orientation sign")
    det = float(np.real(det))
    if not 0.9 <= abs(det) <= 1.1:
        raise TransportError(
            f"return matrix is far from orthogonal (|det| = {abs(det):.6f}): the frames "
            "at t=0 and t=1 do not span one subspace, so its determinant carries "
            "no orientation sign")
    path = FramePath(parameters=ts, frames=tuple(frames), window=window)
    ret = ReturnMatrix(matrix=a, determinant=det, sign=1 if det > 0 else -1,
                       certified=certified)
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
    nothing is claimed in that regime.  A grid sample that fails the
    window rule raises TransportError at the smallest such t, loop_a's
    at equal t.  A rotation loop is factored at t = 0 only and not
    sampled past it, as in ``transport``.
    """
    grid = np.linspace(0.0, 1.0, 257)
    stacks, leaks = [], []
    for loop in (loop_a, loop_b):
        try:
            stacks.append(_sample_frames(loop, window, grid).swapaxes(-1, -2))
        except TransportError as exc:
            leaks.append(exc)
    if leaks:  # the smallest t first, and loop_a first at equal t
        raise min(leaks, key=lambda exc: exc.parameter)
    worst = max([0.0] + _frame_distance(*stacks).tolist())
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
