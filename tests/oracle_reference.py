"""Independent reference computations for the test suite.

Everything here is deliberately brute force and shares no code with
the package internals: overlap-determinant holonomy signs, an
all-pairs projector refinement grid, a one-step-at-a-time polar frame
chain, a searchsorted window rule, an eigh-based matrix exponential,
an entrywise antilinear commutant solve, literal spectra, closed-form
samples, index-built block rotations, spin lifts one t at a time,
factorization checks by dense products, and the two-SVD symmetry rule.
When a package result and a reference disagree, the package is wrong.
"""

import numpy as np


def wilson_sign(sampler, lower, upper, n_samples=10_000):
    """Holonomy sign from raw eigenframes at a dense uniform grid.

    sampler(t) must return the loop operator; frames are taken straight
    from eigh in whatever gauge LAPACK picks.  The product of overlap
    determinants det(V_i^T V_{i+1}) around the loop is gauge invariant,
    and so is its sign.
    """
    def frame(t):
        values, vectors = np.linalg.eigh(sampler(t))
        return vectors[:, (values > lower) & (values < upper)]

    frames = [frame(j / n_samples) for j in range(n_samples)]
    frames.append(frames[0])
    sign = 1.0
    for a, b in zip(frames, frames[1:]):
        d = np.linalg.det(a.T @ b)
        if abs(d) < 1e-3:
            raise RuntimeError("overlap nearly singular; sampling too coarse")
        sign *= np.sign(d)
    return int(sign)


def refined_grid(family, lower, upper, initial_samples, max_step=0.5):
    """Transport sample grid by all-pairs refinement on full projectors.

    Assembles the n x n window projector at every sample, re-checks
    every consecutive pair with the SVD operator norm on each pass, and
    bisects each pair at distance >= max_step, until a pass finds none.
    """
    def projector(t):
        values, vectors = np.linalg.eigh(family(t))
        v = vectors[:, (values > lower) & (values < upper)]
        return v @ v.conj().T

    ts = list(np.linspace(0.0, 1.0, initial_samples + 1))
    while True:
        projectors = [projector(t) for t in ts]
        bad = [i for i in range(len(ts) - 1)
               if np.linalg.norm(projectors[i] - projectors[i + 1], 2) >= max_step]
        if not bad:
            return np.array(ts)
        for i in reversed(bad):
            ts.insert(i + 1, 0.5 * (ts[i] + ts[i + 1]))


def sequential_polar_frames(family, lower, upper, parameters):
    """Window frames dragged along ``parameters`` one polar step at a time.

    The raw frame at each t holds the eigh columns whose eigenvalues lie
    strictly inside (lower, upper).  Each later raw frame R replaces the
    previous aligned frame F by the polar factor of R (R^H F): R (u v^H)
    from the SVD u s v^H of the k x k overlap.  A step whose smallest
    singular value is below 0.1 is refused.
    """
    frames = []
    for t in parameters:
        values, vectors = np.linalg.eigh(family(t))
        new = vectors[:, (values > lower) & (values < upper)]
        if frames:
            u, s, vt = np.linalg.svd(new.conj().T @ frames[-1])
            if s.min() < 0.1:
                raise RuntimeError("dragged frame nearly rank-deficient")
            new = new @ (u @ vt)
        frames.append(new)
    return frames


def skew_expm(omega, t):
    """exp(t omega) for a real skew-symmetric omega, from eigh of i omega.

    i omega is Hermitian, i omega = U diag(mu) U^H, so exp(t omega) =
    U diag(exp(-i t mu)) U^H, which is real.
    """
    mu, u = np.linalg.eigh(1j * np.asarray(omega))
    r = (u * np.exp(-1j * t * mu)) @ u.conj().T
    if float(np.abs(r.imag).max()) > 1e-12:
        raise RuntimeError("exponential of a real skew matrix came out complex")
    return r.real


def window_range(values, lower, upper, count=None):
    """Index range of the ascending ``values`` strictly inside (lower, upper).

    Raises ValueError, with the package's messages, when an endpoint is
    within 1e-9 of a value, or when ``count`` is given and the range
    holds a different number of values.
    """
    for name, edge in (("lower", lower), ("upper", upper)):
        dist = float(np.abs(np.asarray(values) - edge).min(initial=np.inf))
        if dist < 1e-9:
            raise ValueError(f"window {name} endpoint {edge} is within {dist:.3e} of an eigenvalue")
    start = int(np.searchsorted(values, lower, side="right"))
    stop = int(np.searchsorted(values, upper, side="left"))
    if count is not None and stop - start != count:
        raise ValueError(f"window holds {stop - start} eigenvalues, expected {count}")
    return slice(start, stop)


def brute_force_structure_map(generators):
    """Solve C conj(g) = g C for all generators g, entry by entry.

    Returns a unit-Frobenius-norm kernel element and the dimension of
    the kernel of the stacked real system.  No vectorization tricks:
    the constraint matrix is filled in four nested loops so it cannot
    share a bug with any production code path.
    """
    n = generators[0].shape[0]
    rows = []
    for g in generators:
        gc = np.conj(g)
        # constraint: sum_k C[i,k] gc[k,j] - g[i,k] C[k,j] = 0
        for i in range(n):
            for j in range(n):
                row = np.zeros(n * n, dtype=complex)
                for k in range(n):
                    row[i * n + k] += gc[k, j]
                    row[k * n + j] -= g[i, k]
                rows.append(row)
    a = np.array(rows)
    # realify: unknown c = x + iy, equation a (x + iy) = 0
    top = np.hstack([a.real, -a.imag])
    bot = np.hstack([a.imag, a.real])
    system = np.vstack([top, bot])
    _, svals, vt = np.linalg.svd(system)
    null_dim = int(np.sum(svals < 1e-10 * svals[0]))
    sol = vt[-1]
    c = (sol[: n * n] + 1j * sol[n * n:]).reshape(n, n)
    return c / np.linalg.norm(c), null_dim


def structure_epsilon(c):
    """Sign of J^2 for J(v) = C conj(v), after unit rescale."""
    n = c.shape[0]
    square = c @ np.conj(c)
    mu = np.trace(square).real / n
    if abs(mu) < 1e-10:
        raise RuntimeError("J^2 is not a real scalar")
    return 1 if mu > 0 else -1


def halfturn_sample(d0, t):
    """D(t) for the 2x2-block half-turn conjugation, by direct product."""
    n = d0.shape[0]
    blocks = n // 2
    a = np.pi * t
    r2 = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    rho = np.kron(np.eye(blocks), r2)
    return rho @ d0 @ rho.T


def conical_sample(t):
    """The conical boundary [[cos, sin], [sin, -cos]] at angle 2 pi t, t taken mod 1."""
    a = 2.0 * np.pi * (float(t) % 1.0)
    return np.array([[np.cos(a), np.sin(a)], [np.sin(a), -np.cos(a)]])


def commuting_sample(t, amplitude):
    """The commuting loop diag(1 + a sin, 2 + a cos) at angle 2 pi t, t taken mod 1."""
    a = 2.0 * np.pi * (float(t) % 1.0)
    return np.diag([1.0 + amplitude * np.sin(a), 2.0 + amplitude * np.cos(a)])


def conical_gap(r):
    """Eigenvalue gap of r * [[cos, sin], [sin, -cos]]: exactly 2r."""
    return 2.0 * r


# literal circle spectra at truncation 3
CIRCLE_HALF_SPECTRUM = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
CIRCLE_ZERO_SPECTRUM = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]


def block_rotation_stack(d0, turns, ts):
    """Block-rotation loop samples rho(t) d0 rho(t)^T, rho built by index.

    Every pair of coordinates (2j, 2j + 1) gets its own block
    [[cos, -sin], [sin, cos]] at angle 2 pi turns t, written into a
    zero stack entry by entry; ``ts`` is taken mod 1.
    """
    ts = np.asarray(ts, dtype=float).ravel() % 1.0
    n = d0.shape[0]
    even = np.arange(0, n, 2)
    angles = 2.0 * np.pi * turns * ts
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    r = np.zeros((ts.size, n, n))
    r[:, even, even] = c
    r[:, even, even + 1] = -s
    r[:, even + 1, even] = s
    r[:, even + 1, even + 1] = c
    return r @ d0 @ r.swapaxes(-1, -2)


def lifted_spin_rotations(rep, basis, turns, ts):
    """Spin-loop rotations B^H lift(2 pi turns t) B, one t at a time.

    The lift of the rotation in the plane of the last two generators is
    cos(a/2) I + sin(a/2) gamma_{m-2} gamma_{m-1}, computed per t in the
    complex representation and only then restricted to the real form
    basis B; the imaginary part must vanish.
    """
    g = rep.generators[rep.m - 2] @ rep.generators[rep.m - 1]
    out = []
    for t in np.asarray(ts, dtype=float).ravel():
        half = 0.5 * (2.0 * np.pi * turns * t)
        r = basis.conj().T @ (np.cos(half) * np.eye(rep.dim) + np.sin(half) * g) @ basis
        if float(np.abs(r.imag).max()) > 1e-10:
            raise RuntimeError("lift did not restrict to the real form")
        out.append(r.real)
    return np.stack(out)


def factor_checks(a, values, vectors):
    """Frobenius residual ||A V - V diag(values)|| and frame defect ||V^T V - I|| by dense products.

    ``a`` is a (..., n, n) stack and ``vectors`` its (..., n, n) bases;
    one product A V and one Gram matrix V^T V per matrix.
    """
    residual = np.linalg.norm(a @ vectors - vectors * values[..., None, :], axis=(-2, -1))
    gram = np.swapaxes(vectors, -1, -2) @ vectors
    return residual, np.linalg.norm(gram - np.eye(a.shape[-1]), axis=(-2, -1))


def two_svd_symmetry_rule(matrix, rtol=1e-13):
    """Symmetric-operator acceptance with both SVDs always taken.

    Accepts a square M when ||M - M^H||_2 <= rtol * max(||M||_2, 1e-300),
    each norm by a full SVD, and returns M as a C-contiguous array;
    raises ``ValueError`` with the package's messages otherwise.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(float(np.linalg.norm(m, 2)), 1e-300)
    defect = float(np.linalg.norm(m - m.conj().T, 2))
    if defect > rtol * scale:
        raise ValueError(f"symmetry defect {defect:.3e} exceeds {rtol:.0e} * norm")
    return np.ascontiguousarray(m)
