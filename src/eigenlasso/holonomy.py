"""Eigenframe transport around closed operator loops.

The sign of a window eigenbundle over a loop is read off from the
return matrix of a parallel orthonormal window frame: whatever
orthogonal mismatch survives at closure is the holonomy.

Rotation loops D(t) = rho(t) D0 rho(t)^T with rho(t) = exp(t pi h K),
which are the block-rotation and spin loops of ``models``, have it in
closed form.  For V_w the window frame of D0, rho(t) V_w is a window
frame of D(t) with the constant connection (rho V_w)^T (rho V_w)' =
pi h A, where A = V_w^T K V_w is k x k and antisymmetric, so the
parallel frame is rho(t) V_w exp(-t pi h A), and since rho(1) = (-1)^h I
the return matrix is (-1)^h exp(-pi h A), of determinant (-1)^(hk):
the finite form of the spin lift of a full turn being -1.  Only t = 0
is factored, and its certificate is the one ``eigendecompose`` checks
there: D(t) is isospectral to D0 by construction, so a window whose
endpoints lie farther from Lambda0 than the basepoint's measured
residual holds its count at every t.  K is an exact signed
permutation, so a frame costs a signed gather and a k x k rotation,
O(nk^2) per t.  The frames are reported on a uniform grid of
floor(s / MAX_PROJECTOR_STEP) + 1 intervals or more, for s = ||[pi h
K, P0]|| the constant speed of the window projector, so consecutive
grid frames are closer than MAX_PROJECTOR_STEP (Kato, *Perturbation
Theory*; Davis and Kahan 1970), as on every other grid.

Any other family (plain samplers, the commuting loop, concatenations,
perturbed loops) is factored by ``eigh`` at every sample and refined
adaptively, and its frame is dragged from sample to sample through the
window projectors.  Frames are realigned by polar orthonormalization,
which is the unique choice closest to the dragged frame and thus cannot
inject a spurious reflection; QR with unconstrained diagonal signs
could.  The polar chain runs in closed form: F_i = R_i W_i for the raw
frames R_i, with W_0 = I and W_{i+1} = Q_i W_i for Q_i the polar factor
of R_{i+1}^H R_i, as polar(M W) = polar(M) W and sigma(M W) = sigma(M)
for unitary W.  Grids and signs are bit for bit those of one polar step
at a time; frames and return matrices agree with it up to round-off.
These transports are not certified: a subspace that turns by a half
turn between two samples goes unseen there.

Everything here works on n x k window frames, never on n x n
projectors: for orthonormal frames F and G of equal rank,
||P_F - P_G|| = ||G - F (F^H G)|| = sin of the largest principal angle,
and P_G F = G (G^H F).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .models import EquivariantLoopModel, OperatorFamily, _stack_chunks, _stacked_loop
from .spectral import SpectralWindow, _FactorError, _StackError, _validated, eigendecompose

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

    @property
    def n_samples(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ReturnMatrix:
    """Closing matrix A with F_end = F_start A, and its orientation sign.

    ``certified`` is True for a rotation loop, whose A is the closed
    form (-1)^h exp(-pi h V_w^T K V_w), from the basepoint's checked
    factorization alone (see ``transport``).
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


def _basepoint(loop: OperatorFamily, window: SpectralWindow):
    """(sample nbytes, Lambda0, V_w^T, residual) of a loop's t = 0, factored once by ``eigh``.

    t = 0 passes ``_validated``'s checks and the window rule, and must
    equal t = 1 to 1e-12 of its norm, else TransportError at t = 1.
    """
    # the raw sampler: calling the family wraps t = 1 back to 0
    base = loop.sampler(0.0)
    with _at([0.0]):
        values, vectors, residual = _validated(base, np.linalg.eigh)
        if _differ(base, loop.sampler(1.0), values):
            raise TransportError("loop is not closed: samples at t=0 and t=1 differ", 1.0)
        rows = _window_frames(window, values[None], vectors[None])[0]
    return base.nbytes, values, rows, residual


def _sample_frames(loop: OperatorFamily, window: SpectralWindow, ts, basepoint):
    """``_window_frames`` at ``ts`` for the loop's ``_basepoint``.

    A rotation loop's are ``_parallel_frames``, with no sample formed.
    Any other loop takes t = 0 from the basepoint's rows and stacks the
    rest per ``models._stack_chunks`` run.
    """
    nbytes, values, rows, residual = basepoint
    model = loop.equivariant
    if model is not None:
        with _at(ts):
            return _parallel_frames(model, window, ts, values, rows, residual)
    done = int(ts[0] == 0.0)
    stacks = [rows[None]][:done]
    for chunk in _stack_chunks(loop, ts[done:], nbytes):
        with _at(ts[done:done + len(chunk)]):
            stacks.append(_window_frames(window, *eigendecompose(chunk)))
        done += len(chunk)
    return np.concatenate(stacks)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(M) for a (N, k, k) stack M, by matrix products alone.

    Scaled by 2^-j to a 1-norm below 1/4, where a degree-12 Taylor
    series leaves a remainder below 1e-17, and squared j times.  M = 0
    gives I exactly.
    """
    j = max(0, math.frexp(float(np.abs(m).sum(axis=-2).max(initial=0.0)))[1] + 2)
    m = m / 2.0 ** j
    eye = np.eye(m.shape[-1])
    e = eye + m / 12.0
    for i in range(11, 0, -1):  # Horner
        e = m @ e
        e /= i
        e += eye
    for _ in range(j):
        e = e @ e
    return e


def _parallel_frames(model: EquivariantLoopModel, window: SpectralWindow, ts: np.ndarray,
                     values: np.ndarray, rows: np.ndarray, residual: float) -> np.ndarray:
    """The parallel window frames rho(t) V_w exp(-t pi h A) at ``ts``: a (N, k, n) stack.

    ``values`` = Lambda0 and its window's frame ``rows`` = V_w^T, as
    ``_window_frames`` takes them, factor the model's t = 0 with the
    measured ``residual`` ||D0 V0 - V0 Lambda0|| / scale, for scale =
    max |Lambda0|.  Every D(t) has the spectrum of D0, so the window
    rule that picked ``rows`` holds at every t once each window endpoint
    lies farther than residual * scale from Lambda0: every eigenvalue of
    D0 is within it of Lambda0 (Kahan's residual theorem, with the
    Frobenius norm above the operator norm), so an endpoint that clears
    it is on the same side of every eigenvalue, and the window count
    holds at every t; an endpoint within it is refused at index 0.
    A = V_w^T K V_w is taken antisymmetric, so k = 1 gives A = 0 and
    exp(-t pi h A) = I exactly.  rho(t + 1) = (-1)^h rho(t), so the
    frame at t = 1 is (-1)^h V_w exp(-pi h A) with no rounding in rho.
    Frames are transposed, like ``_window_frames``'s.
    """
    scale = max(float(np.abs(values).max(initial=0.0)), 1e-300)
    clearance = float(min(window._distances(values)))
    if not clearance > residual * scale:
        raise _StackError(f"a window endpoint lies {clearance:.3e} from the spectrum, within "
                          f"the eigendecomposition residual {residual * scale:.3e}, so the "
                          "window count is not certified", 0)
    # K V_w as rows: (K x)^T = x^T K^T
    turned = model._times_k(rows, axis=-1)
    a = rows @ turned.T
    a = 0.5 * (a - a.T)
    ts = np.asarray(ts, dtype=float).reshape(-1, 1, 1)
    c, s = model._turn(ts)
    laps = float(model.sigma) ** np.floor(ts)
    frames = (c * laps) * rows
    frames += (s * laps) * turned
    # transposed frames take exp(-t pi h A)^T = exp(t pi h A) from the left
    return _expm((np.pi * model.half_turns) * ts * a) @ frames


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
            frames: np.ndarray, basepoint) -> Tuple[np.ndarray, np.ndarray]:
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
        stacks.append(_sample_frames(loop, window, mid, basepoint))
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        f_lo, f_hi = _interleave(f_lo, stacks[-1]), _interleave(stacks[-1], f_hi)
    ts = np.concatenate(times)
    order = np.argsort(ts, kind="stable")
    return ts[order], np.concatenate(stacks)[order]


def _polar_chain(raw: np.ndarray) -> np.ndarray:
    """The aligned frames R_i W_i of the module docstring, for a (N, n, k) stack of raw R_i.

    A step whose overlap has a singular value below 0.1 leaves the
    dragged frame nearly rank-deficient and raises TransportError.
    """
    u, sigma, vh = np.linalg.svd(raw[1:].conj().swapaxes(-1, -2) @ raw[:-1])
    smallest = sigma.min(axis=-1)
    weak = np.flatnonzero(~(smallest >= 0.1))
    if weak.size:
        raise TransportError("dragged frame nearly rank-deficient "
                             f"(smallest singular value {smallest[weak[0]]:.3e})")
    turns = np.concatenate([np.eye(raw.shape[-1])[None], u @ vh])
    # the W_i as prefix products in log2(N) doubling steps
    for step in [1 << j for j in range((len(turns) - 1).bit_length())]:
        turns[step:] = turns[step:] @ turns[:-step]
    return raw @ turns


def _transported(loop: OperatorFamily, window: SpectralWindow, ts: np.ndarray,
                 frames: np.ndarray, basepoint) -> Tuple[FramePath, ReturnMatrix]:
    """(FramePath, ReturnMatrix) of a loop's ``_sample_frames`` ``frames`` at ``ts``.

    Those of any loop but a rotation loop are refined and aligned by the
    polar chain first.
    """
    model = loop.equivariant
    if model is None:
        ts, frames = _refine(loop, window, ts, frames, basepoint)
        frames = _polar_chain(frames.swapaxes(-1, -2))
    else:
        frames = frames.swapaxes(-1, -2)
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
    path = FramePath(parameters=ts, frames=tuple(frames))
    ret = ReturnMatrix(matrix=a, determinant=det, sign=1 if det > 0 else -1,
                       certified=model is not None)
    return path, ret


def transport(loop: OperatorFamily, window: SpectralWindow, initial_samples: int = 16):
    """Carry a window eigenframe once around the loop.

    Returns (FramePath, ReturnMatrix).  Consecutive window subspaces on
    the grid are closer than MAX_PROJECTOR_STEP (1/2) in operator norm.

    A rotation loop (a family with ``equivariant`` set: every loop
    rho(t) D0 rho(t)^T built by ``models``) is answered in closed form
    and certified.  Its basepoint is factored by ``eigh`` and passes
    the checks of ``eigendecompose`` and the window rule, and the window
    endpoints must lie farther from Lambda0 than its measured residual;
    a failure raises TransportError at t = 0.  No sample past t = 0 is
    formed.  The frames are the parallel frames rho(t) V_w exp(-t pi h
    A), A = V_w^T K V_w, on ``linspace(0, 1, N + 1)`` with N =
    max(initial_samples, floor(s / MAX_PROJECTOR_STEP) + 1) for the
    window projector's constant speed s, so no step exceeds 1/2; an N
    beyond 100000 is refused.  The return matrix is frames[0]^T
    frames[-1] = (-1)^h exp(-pi h A), whose determinant is (-1)^(hk).

    Any other family is factored by ``eigendecompose`` at every sample
    and refined adaptively from ``initial_samples`` intervals: each
    interval between consecutive samples is checked once, and one whose
    window subspaces are not closer than MAX_PROJECTOR_STEP is split at
    its midpoint, until every interval passes.  Nothing is checked
    between samples there, so a subspace that turns by a half turn or
    more between two samples that land close goes unseen.
    Refinement stops with TransportError beyond 100000 samples or at an
    interval whose ends are adjacent floats.  The frames are then
    aligned by the polar chain.

    ``initial_samples`` above 100000 is refused before anything is
    sampled.  A loop whose samples at t = 0 and t = 1 differ raises
    TransportError at t = 1.  A return matrix whose determinant is not
    real (a complex loop whose window holonomy is a U(k) phase) or not
    of modulus near 1 has no orientation sign, and raises TransportError.
    """
    if initial_samples < 2:
        raise ValueError("need at least 2 initial samples")
    if initial_samples > _MAX_SAMPLES:
        raise ValueError(f"initial_samples must be at most {_MAX_SAMPLES}, got {initial_samples}")
    basepoint = _basepoint(loop, window)
    intervals = initial_samples
    if loop.equivariant is not None:
        speed = float(loop.equivariant._projector_speed(basepoint[2].T))  # of V_w
        if not speed / MAX_PROJECTOR_STEP < _MAX_SAMPLES:
            raise TransportError(f"window projector speed {speed:.6g} needs more than "
                                 f"{_MAX_SAMPLES} intervals of step {MAX_PROJECTOR_STEP}")
        intervals = max(initial_samples, int(np.floor(speed / MAX_PROJECTOR_STEP)) + 1)
    ts = np.linspace(0.0, 1.0, intervals + 1)
    return _transported(loop, window, ts, _sample_frames(loop, window, ts, basepoint), basepoint)


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
    nothing is claimed in that regime.  Each loop is factored once, at
    t = 0, and both signs are read from the 257-point frames compared,
    as ``transport`` reads them (an adaptive grid is refined from them).
    A loop that is not closed raises TransportError at t = 1, and a grid
    sample that fails the window rule at its t: the smallest t first,
    and loop_a's at equal t.
    """
    grid = np.linspace(0.0, 1.0, 257)
    basepoints, stacks, leaks = [], [], []
    for loop in (loop_a, loop_b):
        try:
            basepoints.append(_basepoint(loop, window))
            stacks.append(_sample_frames(loop, window, grid, basepoints[-1]))
        except TransportError as exc:
            leaks.append(exc)
    if leaks:  # the smallest t first, and loop_a first at equal t
        raise min(leaks, key=lambda exc: exc.parameter)
    worst = max([0.0] + _frame_distance(*(f.swapaxes(-1, -2) for f in stacks)).tolist())
    criterion_met = worst < 1.0
    _, ret_a = _transported(loop_a, window, grid, stacks[0], basepoints[0])
    note = ""
    try:
        _, ret_b = _transported(loop_b, window, grid, stacks[1], basepoints[1])
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
    return _stacked_loop(stacker, parity)
