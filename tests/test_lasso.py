import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenlasso import lasso
from eigenlasso.acceptance import PINNED, make_commuting_loop, make_conical_boundary
from eigenlasso.lasso import (
    DegeneracyNotFound,
    DiscFamily,
    _slope_on,
    answer,
    make_orbit_disc,
    refine,
    scan_disc,
)
from eigenlasso.models import (
    OperatorFamily,
    SymmetricOperator,
    make_block_rotation_loop,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from eigenlasso.spectral import SpectralWindow, cluster_groups
from oracle_reference import (
    commuting_sample,
    conical_gap,
    conical_sample,
    window_range,
)


def make_conical_disc():
    def boundary(theta):
        a = 2.0 * np.pi * theta
        return np.array([[np.cos(a), np.sin(a)], [np.sin(a), -np.cos(a)]])

    fam = OperatorFamily(domain="circle", sampler=boundary, parity="odd")
    return DiscFamily(center=SymmetricOperator(np.zeros((2, 2))), boundary=fam)


def make_commuting_disc(amplitude=0.3):
    def boundary(theta):
        a = 2.0 * np.pi * theta
        return np.diag([1.0 + amplitude * np.sin(a), 2.0 + amplitude * np.cos(a)])

    fam = OperatorFamily(domain="circle", sampler=boundary, parity="even")
    center = np.diag([1.0, 2.0])
    return DiscFamily(center=SymmetricOperator(center), boundary=fam)


# ---------------------------------------------------------------- disc family

def test_disc_interpolates_between_center_and_boundary():
    disc = make_conical_disc()
    for theta in (0.0, 0.3, 0.77):
        np.testing.assert_allclose(disc.operator_at(1.0, theta),
                                   disc.boundary(theta), atol=1e-15)
        np.testing.assert_allclose(disc.operator_at(0.0, theta),
                                   np.zeros((2, 2)), atol=1e-15)
    half = disc.operator_at(0.5, 0.0)
    np.testing.assert_allclose(half, 0.5 * disc.boundary(0.0), atol=1e-15)


def test_disc_rejects_radius_outside_unit_interval():
    disc = make_conical_disc()
    with pytest.raises(ValueError):
        disc.operator_at(1.5, 0.0)
    with pytest.raises(ValueError):
        disc.operator_at(-0.1, 0.0)


def test_orbit_disc_center_modes():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    mean_disc = make_orbit_disc(loop, center="mean")
    np.testing.assert_allclose(mean_disc.center.matrix, 1.5 * np.eye(2), atol=1e-14)

    explicit = make_orbit_disc(loop, center=np.diag([1.4, 1.6]))
    np.testing.assert_allclose(explicit.center.matrix, np.diag([1.4, 1.6]))

    for mode in ("base", "median"):
        with pytest.raises(ValueError, match=f"^unknown center mode '{mode}'$"):
            make_orbit_disc(loop, center=mode)


def test_the_mean_of_a_rotation_loop_is_its_closed_form():
    # 64 samples alias on 32 turns: every one of them is D0
    base = make_odd_multiplicity_base(np.arange(1.0, 9.0), 0.1, seed=1)
    loop = make_block_rotation_loop(base, turns=32)
    d0, k = base.matrix, loop.structure
    center = make_orbit_disc(loop).center.matrix
    # K is a signed permutation: each entry of K D0 K^T is one product of +-1 and D0
    assert center.tobytes() == (0.5 * d0 + 0.5 * (k @ d0 @ k.T)).tobytes()
    assert np.abs(center - d0).max() > 0.5


def test_the_mean_of_a_loop_of_no_turns_is_its_base():
    base = make_odd_multiplicity_base(np.arange(1.0, 9.0), 0.1, seed=1)
    disc = make_orbit_disc(make_block_rotation_loop(base, turns=0))
    assert disc.center.matrix.tobytes() == base.matrix.tobytes()


def rotation_loops():
    """Spin m = 7 and 8 and half-turn loops of seeded bases."""
    loops = [make_spin_loop(m, make_odd_multiplicity_base([3.5] * dim, 0.1, seed=seed))
             for m, dim in ((7, 8), (8, 16)) for seed in (1, 2)]
    loops += [make_halfturn_loop(make_odd_multiplicity_base(np.arange(1.0, n + 1.0), 0.1,
                                                            seed=n)) for n in (2, 8, 64)]
    return loops


@pytest.mark.parametrize("loop", rotation_loops(), ids=["spin-m7-1", "spin-m7-2", "spin-m8-1",
                                                        "spin-m8-2", "halfturn-n2",
                                                        "halfturn-n8", "halfturn-n64"])
def test_a_rotation_loops_mean_is_symmetric_and_commutes_with_its_structure(loop):
    c, k = make_orbit_disc(loop.family()).center.matrix, loop.structure
    assert (c == c.T).all()
    # K has one nonzero per row and column, so both products are exact
    assert (k @ c == c @ k).all()


# ---------------------------------------------------------------- scanning

def test_conical_gap_map_is_exactly_linear():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    result = scan_disc(disc, window, grid=(8, 12))
    for i, r in enumerate(result.r_values):
        np.testing.assert_allclose(result.gap_map[i], conical_gap(r), atol=1e-13)
    assert result.boundary_sign == -1


def test_scan_best_is_the_first_smallest_gap_in_row_major_order():
    result = scan_disc(make_conical_disc(), SpectralWindow(0.0, 2.0, count=1), grid=(16, 24))
    gaps = result.gap_map
    # the cone's rings tie: its smallest gap is met more than once
    assert np.count_nonzero(gaps == gaps.min()) > 1
    i, j = np.unravel_index(np.argsort(gaps, axis=None, kind="stable")[0], gaps.shape)
    assert result.best == (gaps[i, j], result.r_values[i], result.theta_values[j])
    assert result.min_gap == result.best[0]
    # smallest gap sits at the smallest scanned radius
    assert i == 0


def test_scan_min_gap_shrinks_under_grid_refinement():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    coarse = scan_disc(disc, window, grid=(8, 12))
    fine = scan_disc(disc, window, grid=(16, 24))
    assert fine.min_gap <= coarse.min_gap + 1e-15


def test_scan_refuses_a_grid_of_one_ring():
    # one ring starts Newton at r = 1, where it refused 240 of 300 forced discs
    with pytest.raises(ValueError, match=r"n_r >= 2 and n_theta >= 3"):
        scan_disc(make_conical_disc(), SpectralWindow(0.0, 2.0, count=1), grid=(1, 24))


def test_a_long_scan_holds_its_gap_map_and_no_spectra():
    # the spectra of 4096 rings of 3 angles at n = 16 take 1.5 MB, the gap map 96 KiB
    disc = make_orbit_disc(make_halfturn_loop(np.diag(np.arange(1.0, 17.0))))
    window = SpectralWindow(0.5, 1.5, count=1)
    scan_disc(disc, window, grid=(2, 3))  # first-call set-up stays out of the measure
    tracemalloc.start()
    try:
        scan = scan_disc(disc, window, grid=(4096, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan.gap_map.shape == (4096, 3) and scan.boundary_sign == -1
    assert peak < 0.5e6


def test_a_long_ring_by_ring_scan_holds_its_gap_map_and_no_spectra():
    # as above, with a center that does not commute with J: the scan goes ring by ring
    d0 = np.diag(np.arange(1.0, 17.0))
    disc = make_orbit_disc(make_halfturn_loop(d0), center=d0)
    window = SpectralWindow(0.5, 1.5, count=1)
    assert scan_disc(disc, window, grid=(2, 3)).eigensolves == 6
    tracemalloc.start()
    try:
        scan = scan_disc(disc, window, grid=(4096, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan.gap_map.shape == (4096, 3) and scan.boundary_sign == -1
    assert scan.eigensolves == 4096 * 3
    assert peak < 0.5e6


def test_scan_warns_when_boundary_sign_is_trivial():
    disc = make_commuting_disc()
    window = SpectralWindow(0.5, 1.5, count=1)
    with pytest.warns(UserWarning):
        scan_disc(disc, window, grid=(8, 12))


# ---------------------------------------------------------------- refinement

def test_refine_lands_on_the_conical_point():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    scan = scan_disc(disc, window, grid=(8, 12))
    cert = refine(disc, window, scan.best, tol=1e-10)
    assert cert.gap <= 1e-10
    assert cert.r <= 1e-10
    assert cert.lambda_a == pytest.approx(0.0, abs=1e-10)
    assert cert.residual_a <= 10 * cert.gap + 1e-9
    assert cert.residual_b <= 10 * cert.gap + 1e-9


def test_halfturn_mean_disc_has_central_degeneracy():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    disc = make_orbit_disc(loop, center="mean")
    window = SpectralWindow(0.5, 2.5, count=2)
    # the count-2 window's boundary sign is +1
    with pytest.warns(UserWarning, match="sign \\+1"):
        scan = scan_disc(disc, window, grid=(8, 12))
    cert = refine(disc, window, scan.best, tol=1e-8)
    assert cert.gap <= 1e-8
    assert cert.mean == pytest.approx(1.5, abs=1e-6)


def test_mean_centered_spin_disc_is_answered_at_the_center():
    # the loop's mean commutes with its structure K, so its eigenvalues
    # come in equal pairs
    base = make_odd_multiplicity_base([3.5] * 8, 0.1, seed=1)
    values = np.linalg.eigvalsh(base.matrix)
    disc = make_orbit_disc(make_spin_loop(7, base).family(), center="mean")
    window = SpectralWindow(0.5 * (values[0] + values[1]), 0.5 * (values[1] + values[2]),
                            count=1)
    scan = scan_disc(disc, window)
    assert scan.boundary_sign == -1
    cert = refine(disc, window, scan.best, tol=1e-7)
    assert (cert.method, cert.r, cert.theta, cert.levels, cert.evaluations) == \
        ("center", 0.0, 0.0, 0, 1)
    assert cert.gap <= 1e-7
    assert cert.residual_a <= 10 * cert.gap + 1e-9


def test_negative_control_reports_best_point():
    disc = make_commuting_disc(amplitude=0.3)
    window = SpectralWindow(0.5, 1.5, count=1)
    with pytest.warns(UserWarning, match="sign \\+1"):
        scan = scan_disc(disc, window, grid=(12, 16))
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, window, scan.best, tol=1e-10)
    err = exc.value
    # closed form: the two branches never come closer than 1 - a*sqrt(2)
    floor = 1.0 - 0.3 * np.sqrt(2.0)
    assert err.best_gap >= floor - 1e-6
    # the pair never couples: the first 2 x 2 system is singular
    assert err.levels == 0
    r, theta = err.best_point
    assert 0.0 <= r <= 1.0


def test_certificates_are_deterministic():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    start = scan_disc(disc, window, grid=(8, 12)).best
    a = refine(disc, window, start, tol=1e-10)
    b = refine(disc, window, start, tol=1e-10)
    assert (a.r, a.theta, a.gap, a.lambda_a, a.lambda_b) == \
        (b.r, b.theta, b.gap, b.lambda_a, b.lambda_b)


def criterion_9_discs():
    """The four discs of acceptance criterion 9: (disc, window, tol)."""
    base = make_odd_multiplicity_base([3.5] * 8, epsilon=0.1, seed=1)
    v = np.linalg.eigvalsh(base.matrix)
    return [
        (make_orbit_disc(make_conical_boundary(), center=np.zeros((2, 2))),
         SpectralWindow(0.0, 2.0, 1), PINNED["lasso_conical_tol"]),
        (make_orbit_disc(make_halfturn_loop(np.diag([1.0, 2.0]))),
         SpectralWindow(0.5, 1.5, 1), PINNED["lasso_halfturn_tol"]),
        (make_orbit_disc(make_spin_loop(7, base, turns=1)),
         SpectralWindow(0.5 * (v[3] + v[4]), 0.5 * (v[4] + v[5]), 1), PINNED["lasso_spin_tol"]),
        (make_orbit_disc(make_commuting_loop()), SpectralWindow(0.5, 1.5, 1),
         PINNED["lasso_negative_floor"]),
    ]


def hexed(*values):
    return [float(x).hex() if isinstance(x, float) else x for x in values]


def certificate_fields(c):
    return hexed(c.r, c.theta, c.lambda_a, c.lambda_b, c.gap, c.mean, c.residual_a,
                 c.residual_b, c.pair_index, c.levels, c.evaluations)


@pytest.mark.parametrize("grid", [(16, 24), (8, 12)])
def test_answer_is_scan_then_refine_at_the_grid_spacing(grid):
    for disc, window, tol in criterion_9_discs():
        with warnings.catch_warnings():  # the commuting control's +1 boundary
            warnings.filterwarnings("ignore", "boundary loop has return sign", UserWarning)
            got = answer(disc, window, grid, tol=tol)
            scan = scan_disc(disc, window, grid=grid)
        assert got.scan.gap_map.tobytes() == scan.gap_map.tobytes()
        assert hexed(*got.scan.best) == hexed(*scan.best)
        try:
            cert = refine(disc, window, scan.best, tol)
        except DegeneracyNotFound as exc:
            assert got.certificate is None
            miss = got.not_found
            assert hexed(*miss.best_point, miss.best_gap, miss.levels, miss.evaluations) == \
                hexed(*exc.best_point, exc.best_gap, exc.levels, exc.evaluations)
            continue
        assert got.not_found is None
        assert certificate_fields(got.certificate) == certificate_fields(cert)


def test_answer_factors_the_basepoint_once(monkeypatch):
    # scan_disc finds the anchor, and refine takes it from the scan
    original, arguments = np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        arguments.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for disc, window, tol in criterion_9_discs():
        basepoint, arguments[:] = disc.boundary(0.0), []
        with warnings.catch_warnings():  # the commuting control's +1 boundary
            warnings.filterwarnings("ignore", "boundary loop has return sign", UserWarning)
            answer(disc, window, tol=tol)
        assert sum(a.shape == basepoint.shape and (a == basepoint).all()
                   for a in arguments) == 1


def test_refine_refuses_non_finite_tolerance():
    # unchecked, tol=inf would certify any gap
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            refine(disc, window, (1.0, 0.5, 0.0), tol=tol)


def test_refine_refuses_a_non_finite_start():
    # unchecked, Newton ran on NaN matrices, or an infinite r was clipped to the boundary
    disc = make_orbit_disc(make_halfturn_loop(np.diag([1.0, 2.0])),
                           center=np.array([[1.3, 0.2], [0.2, 1.8]]))
    window = SpectralWindow(0.5, 1.5, count=1)
    for r, theta in ((math.nan, 0.2), (math.inf, 0.2), (-math.inf, 0.2),
                     (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError, match="^point must have a finite r and theta"):
            refine(disc, window, (0.0, r, theta), tol=1e-8)


# ---------------------------------------------------------------- seeded discs

def oracle_anchor(disc, window):
    return window_range(np.linalg.eigvalsh(disc.boundary(0.0)),
                        window.lower, window.upper, window.count).start


def halfturn_disc(n, seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.uniform(0.2, 1.0, n))
    g = rng.standard_normal((n, n))
    center = np.diag(values) + 0.3 * (g + g.T) / np.linalg.norm(g + g.T, 2)
    disc = make_orbit_disc(make_halfturn_loop(np.diag(values)), center=center)
    k = int(rng.integers(1, n - 1)) if n > 2 else 0
    lower = values[k] - 0.1 if k == 0 else 0.5 * (values[k - 1] + values[k])
    return disc, SpectralWindow(lower, 0.5 * (values[k] + values[k + 1]), count=1)


def test_refine_below_round_off_raises_not_found():
    # no eigensolve meets a tol below round-off: refine refuses with the gap it measured
    disc, window = halfturn_disc(32, seed=1)
    scan = scan_disc(disc, window)
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, window, scan.best, tol=1e-300)
    assert exc.value.best_gap > 1e-300


def test_refine_clips_and_wraps_a_start_outside_the_disc():
    disc, window = make_conical_disc(), SpectralWindow(0.0, 2.0, count=1)
    cert = refine(disc, window, (1.0, 1.7, -0.3), tol=1e-10)
    # as from the start clipped to r = 1 and wrapped to theta = 0.7: the tip, to round-off
    inside = refine(disc, window, (1.0, 1.0, -0.3 % 1.0), tol=1e-10)
    assert certificate_fields(cert) == certificate_fields(inside)
    assert cert.method == "newton" and cert.r <= 1e-15 and 0.0 <= cert.theta < 1.0


def test_refine_without_guard_pairs_reports_an_infinite_gap():
    # a 1 x 1 disc has no consecutive pair to watch
    fam = OperatorFamily(domain="circle",
                         sampler=lambda t: np.array([[1.0 + 0.1 * np.cos(2 * np.pi * t)]]))
    disc = DiscFamily(center=SymmetricOperator(np.eye(1)), boundary=fam)
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, SpectralWindow(0.0, 2.0, count=1), (1.0, 0.5, 0.1), tol=1e-3)
    assert exc.value.best_gap == np.inf and exc.value.best_point == (0.5, 0.1)
    assert (exc.value.method, exc.value.levels, exc.value.evaluations) == ("newton", 0, 0)


def count_eigvalsh(monkeypatch, name="eigvalsh"):
    """Record the stack depth of every numpy.linalg.eigvalsh (or ``name``) call."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(1 if np.ndim(a) == 2 else len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


# ---------------------------------------------------------------- Newton on the branching plane

def anchored_pair_gap(disc, window, r, theta):
    """Smallest anchored guard-pair gap at (r, theta), by a fresh eigvalsh."""
    anchor = oracle_anchor(disc, window)
    values = np.linalg.eigvalsh(disc.operator_at(r, theta))
    pairs = range(max(anchor, 1) - 1, min(anchor + window.count, disc.dim - 1))
    return min(values[p + 1] - values[p] for p in pairs)


@pytest.mark.parametrize("n", [8, 32])
def test_newton_certifies_seeded_halfturn_discs_within_four_eigensolves(monkeypatch, n):
    calls = count_eigvalsh(monkeypatch, "eigh")
    for seed in range(6):
        disc, window = halfturn_disc(n, seed)
        scan = scan_disc(disc, window)
        assert scan.boundary_sign == -1
        calls.clear()
        cert = refine(disc, window, scan.best, tol=1e-8)
        assert cert.method == "newton" and cert.evaluations == cert.levels + 1 <= 4
        # one eigh per Newton iterate; the certificate validates the last one
        assert len(calls) == cert.evaluations
        assert anchored_pair_gap(disc, window, cert.r, cert.theta) <= 1e-8


def test_newton_reaches_the_tip_of_the_cone_in_one_step():
    disc, window = make_conical_disc(), SpectralWindow(0.0, 2.0, count=1)
    cert = refine(disc, window, scan_disc(disc, window, grid=(8, 12)).best, tol=1e-10)
    # the gap 2r is linear in r, so the first step lands on r = 0
    assert (cert.method, cert.levels, cert.evaluations, cert.r, cert.gap) == \
        ("newton", 1, 2, 0.0, 0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 8, 16, 32]), seed=st.integers(0, 2 ** 16),
       tol=st.sampled_from([1e-3, 1e-8]))
def test_answer_certifies_seeded_halfturn_discs_by_newton(n, seed, tol):
    disc, window = halfturn_disc(n, seed)
    cert = answer(disc, window, tol=tol).certificate
    assert cert is not None and cert.method == "newton"
    assert anchored_pair_gap(disc, window, cert.r, cert.theta) <= tol


def test_commuting_control_refuses_after_one_eigh(monkeypatch):
    disc = make_orbit_disc(make_commuting_loop(0.3), center="mean")
    window = SpectralWindow(0.5, 1.5, count=1)
    with pytest.warns(UserWarning, match="sign \\+1"):
        start = scan_disc(disc, window, grid=(16, 24)).best
    gap_calls = count_eigvalsh(monkeypatch)
    calls = count_eigvalsh(monkeypatch, "eigh")
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, window, start, tol=1e-3)
    # the anchor's eigvalsh, then one eigh whose pair never couples
    assert (gap_calls, calls) == ([1], [1])
    err = exc.value
    assert (err.method, err.levels, err.evaluations) == ("newton", 0, 1)
    assert err.best_point == start[1:]
    assert err.best_gap >= 1.0 - 0.3 * np.sqrt(2.0)


def test_rotation_loop_slope_matches_a_central_difference():
    disc, _ = halfturn_disc(8, seed=2)
    rotation = disc.boundary
    sampled = OperatorFamily(domain="circle", sampler=rotation.sampler)
    frame = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 2)))[0]
    for theta in (0.0, 0.3, 0.999):
        b = rotation(theta)
        np.testing.assert_allclose(_slope_on(rotation, theta, b, frame),
                                   _slope_on(sampled, theta, b, frame), atol=1e-7)


# ---------------------------------------------------------------- the scan across cores

def ring_by_ring_gaps(disc, window, anchor, grid=(16, 24)):
    """The one-thread reference: one plain eigvalsh per ring, c + r * (ring - c)."""
    rs, thetas = (np.arange(grid[0]) + 1.0) / grid[0], np.arange(grid[1]) / grid[1]
    c = disc.center.matrix
    ring = disc.boundary.stack(thetas) - c
    values = np.stack([np.linalg.eigvalsh(c + r * ring) for r in rs])
    pairs = range(max(anchor, 1) - 1, min(anchor + window.count, disc.dim - 1))
    lo, hi = pairs.start, pairs.stop
    return (values[..., lo + 1:hi + 1] - values[..., lo:hi]).min(-1)


def pools_with(monkeypatch, cores):
    """Give the scan ``cores`` cores and record the ``max_workers`` of each
    thread pool it opens, one worker fewer than the scan's."""
    pools = []

    class Recording(lasso.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(lasso, "_cores", lambda: cores)
    monkeypatch.setattr(lasso, "ThreadPoolExecutor", Recording)
    return pools


@pytest.mark.parametrize("n, seed", [(32, 0), (32, 4), (8, 3)])
def test_scan_gives_the_same_bytes_on_any_number_of_cores(monkeypatch, n, seed):
    disc, window = halfturn_disc(n, seed)
    scans = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for cores in (1, 2, 5):  # 5: more workers than cores, and 16 rings split unevenly
            pools = pools_with(monkeypatch, cores)
            scans[cores] = scan_disc(disc, window)
            # one core, and small discs such as the cli's and the spin discs,
            # open no pool: every ring is factored on the caller's thread
            assert pools == ([cores - 1] if n == 32 and cores > 1 else [])
    finally:
        sys.setswitchinterval(interval)
    want = ring_by_ring_gaps(disc, window, scans[1].anchor)
    for scan in scans.values():
        assert scan.gap_map.tobytes() == want.tobytes()
        assert hexed(*scan.best) == hexed(*scans[1].best)
    i, j = np.unravel_index(np.argmin(want), want.shape)
    assert hexed(*scans[1].best) == hexed(want[i, j], scans[1].r_values[i],
                                          scans[1].theta_values[j])


def mean_centred_discs():
    """A spin m = 8 and a half-turn disc centred at the loop's mean, with
    a window around one eigenvalue of the base."""
    spin = make_odd_multiplicity_base([3.5] * 16, 0.1, seed=3)
    halfturn = make_odd_multiplicity_base(np.arange(1.0, 33.0), 0.1, seed=3)
    discs = []
    for loop, k in ((make_spin_loop(8, spin), 7), (make_halfturn_loop(halfturn), 12)):
        v = np.linalg.eigvalsh(loop.base.matrix)
        window = SpectralWindow(0.5 * (v[k - 1] + v[k]), 0.5 * (v[k] + v[k + 1]), count=1)
        discs.append((make_orbit_disc(loop.family()), window))
    return discs


@pytest.mark.parametrize("disc, window", mean_centred_discs(), ids=["spin-m8", "halfturn-n32"])
def test_isospectral_rings_take_one_eigensolve_per_radius(monkeypatch, disc, window):
    pools = pools_with(monkeypatch, 2)
    calls = count_eigvalsh(monkeypatch)
    scan = scan_disc(disc, window, grid=(16, 24))
    # the anchor's eigvalsh, then 16 radii at theta = 0 in one stack, where
    # ring by ring took 16 stacks of 24; and no pool, even at n = 32
    assert calls == [1, 16] and scan.eigensolves == 16 and pools == []
    assert scan.boundary_sign == -1
    want = ring_by_ring_gaps(disc, window, scan.anchor)
    scale = np.abs(np.linalg.eigvalsh(disc.boundary(0.0))).max()
    np.testing.assert_allclose(scan.gap_map, want, rtol=0.0, atol=1e-13 * scale)
    # the theta = 0 column is the ring path's, and each row repeats it
    assert scan.gap_map[:, 0].tobytes() == want[:, 0].tobytes()
    assert (scan.gap_map == scan.gap_map[:, :1]).all()
    assert hexed(*scan.best) == hexed(want[:, 0].min(), scan.r_values[np.argmin(want[:, 0])],
                                      0.0)


@pytest.mark.parametrize("disc, window", mean_centred_discs(), ids=["spin-m8", "halfturn-n32"])
def test_a_center_that_nearly_commutes_goes_ring_by_ring(monkeypatch, disc, window):
    c = disc.center.matrix.copy()
    c[0, 0] += 4 * np.finfo(float).eps * np.abs(c).max()  # commutes with K to about 1e-15
    nearly = DiscFamily(center=SymmetricOperator(c), boundary=disc.boundary)
    pools = pools_with(monkeypatch, 2)
    calls = count_eigvalsh(monkeypatch)
    scan = scan_disc(nearly, window, grid=(16, 24))
    assert calls == [1] + [24] * 16 and scan.eigensolves == 384
    assert pools == ([1] if disc.dim >= lasso._PARALLEL_MIN_DIM else [])
    assert scan.gap_map.tobytes() == ring_by_ring_gaps(nearly, window, scan.anchor).tobytes()


class SolverFailure(Exception):
    pass


@pytest.mark.parametrize("rings", [[12], [0], [12, 3]],
                         ids=["second-worker", "caller-thread", "first-failing-ring"])
def test_an_error_reaches_the_caller_and_no_thread_outlives_the_scan(monkeypatch, rings):
    disc, window = halfturn_disc(32, seed=0)
    c = disc.center.matrix
    # of 16 rings on two workers, rings 0 to 7 are the caller's and 8 to 15 the pool's
    failing = {ring: c + (ring + 1.0) / 16 * (disc.boundary(7 / 24) - c) for ring in rings}
    raised_on = []
    later_ring_failed = threading.Event()
    original = np.linalg.eigvalsh

    def failing_on_one_matrix(a, *args, **kwargs):
        for ring, matrix in failing.items():
            if np.ndim(a) == 3 and any(np.array_equal(m, matrix) for m in a):
                if ring < max(rings):  # the later ring fails first
                    assert later_ring_failed.wait(timeout=10)
                raised_on.append((ring, threading.current_thread()))
                later_ring_failed.set()
                raise SolverFailure(f"no convergence in ring {ring}")
        return original(a, *args, **kwargs)

    pools = pools_with(monkeypatch, 2)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_one_matrix)
    before = threading.active_count()
    # the first failing ring in ring order, though another failed first
    with pytest.raises(SolverFailure, match=f"^no convergence in ring {min(rings)}$"):
        scan_disc(disc, window)
    assert pools == [1] and sorted(ring for ring, _ in raised_on) == sorted(rings)
    assert all((thread is threading.main_thread()) == (ring < 8) for ring, thread in raised_on)
    # a failure in ring 0 ends the caller's block first, with the worker still
    # busy: every worker has finished before the error leaves the scan
    assert threading.active_count() == before


def test_the_rings_in_flight_keep_to_a_byte_budget(monkeypatch):
    disc, window = halfturn_disc(32, seed=0)
    ring_bytes = 24 * 32 * 32 * 8
    pools = pools_with(monkeypatch, 64)
    want = scan_disc(disc, window).gap_map
    # a 64-core box: 16 rings, even of the benchmark's largest (3.1 MB), take 16 workers
    assert pools == [15] and lasso._SCAN_BYTES >= 16 * 128 * 128 * 8 * 24
    for budget, workers in [(3 * ring_bytes + 1, 3), (ring_bytes - 1, 1)]:
        pools.clear()
        monkeypatch.setattr(lasso, "_SCAN_BYTES", budget)
        assert scan_disc(disc, window).gap_map.tobytes() == want.tobytes()
        # a ring larger than the budget is factored alone, on the caller's thread
        assert pools == ([workers - 1] if workers > 1 else [])


# ---------------------------------------------------------------- boundary stackers

def test_stackers_equal_the_closed_form_samples():
    ts = np.concatenate([np.linspace(-2.0, 2.0, 41), [1.0, -1.0, -0.25, 1 - 2 ** -53,
                                                      -1e-20, 0.1 + 0.2, 7.3]])
    families = [(make_conical_boundary(), conical_sample, 2 * np.finfo(float).eps)]
    families += [(make_commuting_loop(a), lambda t, a=a: commuting_sample(t, a), 0.0)
                 for a in (0.1, 0.3, 0.37)]
    for family, sample, atol in families:
        stacked = family.stack(ts)
        want = np.stack([sample(t) for t in ts])
        # the cone is built as the half-turn loop of diag(1, -1): the closed form to round-off
        if atol:
            np.testing.assert_allclose(stacked, want, rtol=0.0, atol=atol)
        else:
            assert stacked.tobytes() == want.tobytes()
        assert stacked.tobytes() == np.stack([family(t) for t in ts]).tobytes()


# ---------------------------------------------------------------- clustering

def test_cluster_multiplicity_merges_near_ties():
    assert cluster_groups(np.array([1.0, 1.0 + 1e-12, 2.0]), tol=1e-9) == [(0, 2), (2, 3)]


def test_cluster_multiplicity_distinct_and_degenerate():
    assert cluster_groups(np.array([0.0, 1.0, 2.0]), tol=1e-9) == [(0, 1), (1, 2), (2, 3)]
    assert cluster_groups(np.zeros(3), tol=1e-9) == [(0, 3)]


def test_cluster_multiplicity_rejects_bad_tol():
    with pytest.raises(ValueError):
        cluster_groups(np.array([1.0, 2.0]), tol=0.0)
