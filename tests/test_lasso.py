import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenlasso.acceptance import PINNED, make_commuting_loop, make_conical_boundary
from eigenlasso.lasso import (
    DegeneracyNotFound,
    DiscFamily,
    answer,
    make_orbit_disc,
    refine,
    scan_disc,
)
from eigenlasso.models import (
    OperatorFamily,
    SymmetricOperator,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from eigenlasso.spectral import SpectralWindow, cluster_groups
from oracle_reference import (
    commuting_sample,
    conical_gap,
    conical_sample,
    sequential_refine,
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


def test_disc_requires_circle_boundary():
    fam = OperatorFamily(domain="interval", sampler=lambda t: np.eye(2))
    with pytest.raises(ValueError):
        DiscFamily(center=SymmetricOperator(np.eye(2)), boundary=fam)


def test_orbit_disc_center_modes():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    mean_disc = make_orbit_disc(loop, center="mean")
    np.testing.assert_allclose(mean_disc.center.matrix, 1.5 * np.eye(2), atol=1e-14)

    base_disc = make_orbit_disc(loop, center="base")
    np.testing.assert_allclose(base_disc.center.matrix, np.diag([1.0, 2.0]))

    explicit = make_orbit_disc(loop, center=np.diag([1.4, 1.6]))
    np.testing.assert_allclose(explicit.center.matrix, np.diag([1.4, 1.6]))

    with pytest.raises(ValueError):
        make_orbit_disc(loop, center="median")


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
    # come in equal pairs; walked from the scan's best point instead,
    # this disc stalls at a gap of 2.9e-3
    base = make_odd_multiplicity_base([3.5] * 8, 0.1, seed=1)
    values = np.linalg.eigvalsh(base.matrix)
    disc = make_orbit_disc(make_spin_loop(7, base).family(), center="mean")
    window = SpectralWindow(0.5 * (values[0] + values[1]), 0.5 * (values[1] + values[2]),
                            count=1)
    scan = scan_disc(disc, window)
    assert scan.boundary_sign == -1
    cert = refine(disc, window, scan.best, tol=1e-7, step=(1.0 / 16, 1.0 / 24))
    assert (cert.r, cert.theta, cert.levels, cert.evaluations) == (0.0, 0.0, 0, 1)
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
    assert err.levels >= 1
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
            cert = refine(disc, window, scan.best, tol, step=(1.0 / grid[0], 1.0 / grid[1]))
        except DegeneracyNotFound as exc:
            assert got.certificate is None
            miss = got.not_found
            assert hexed(*miss.best_point, miss.best_gap, miss.levels, miss.evaluations) == \
                hexed(*exc.best_point, exc.best_gap, exc.levels, exc.evaluations)
            continue
        assert got.not_found is None
        assert certificate_fields(got.certificate) == certificate_fields(cert)


def test_refine_refuses_non_finite_tolerance():
    # unchecked, tol=nan walked 40 levels to the tip's exact gap 0.0
    # and refused it, and tol=inf certified a gap of 1.0
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            refine(disc, window, (1.0, 0.5, 0.0), tol=tol)


def test_refine_refuses_non_finite_or_non_positive_step():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    for step in ((math.nan, 0.25), (0.25, math.inf), (0.0, 0.25), (0.25, -0.1)):
        with pytest.raises(ValueError, match="^step entries must be finite and positive"):
            refine(disc, window, (1.0, 0.5, 0.0), tol=1e-10, step=step)


# ------------------------------------------- speculative walk vs one point at a time

def walk_outcome(disc, window, point, tol, step=None):
    """refine's answer as (found, r, theta, gap, levels); gap None on a certificate."""
    try:
        cert = refine(disc, window, point, tol, step=step)
    except DegeneracyNotFound as exc:
        return False, exc.best_point[0], exc.best_point[1], exc.best_gap, exc.levels
    return True, cert.r, cert.theta, None, cert.levels


def assert_walk_is_sequential(disc, window, point, tol, step=None):
    """refine reaches bit for bit the point and gap of the one-point walk."""
    anchor = window_range(np.linalg.eigvalsh(disc.boundary(0.0)),
                          window.lower, window.upper, window.count).start
    found, r, theta, gap, levels = sequential_refine(disc, anchor, window.count, point, tol,
                                                     step=step or (0.25, 0.25))
    got = walk_outcome(disc, window, point, tol, step)

    def hexed(xs):
        return [x.hex() if isinstance(x, float) else x for x in xs]

    assert hexed(got) == hexed((found, r, theta, None if found else gap, levels))
    return got


def halfturn_disc(n, seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.uniform(0.2, 1.0, n))
    g = rng.standard_normal((n, n))
    center = np.diag(values) + 0.3 * (g + g.T) / np.linalg.norm(g + g.T, 2)
    disc = make_orbit_disc(make_halfturn_loop(np.diag(values)), center=center)
    k = int(rng.integers(1, n - 1)) if n > 2 else 0
    lower = values[k] - 0.1 if k == 0 else 0.5 * (values[k - 1] + values[k])
    return disc, SpectralWindow(lower, 0.5 * (values[k] + values[k + 1]), count=1)


def test_walk_matches_sequential_on_the_cone_centred_and_shifted():
    window = SpectralWindow(0.0, 2.0, count=1)
    for shift in (0.0, 0.3, -0.41):
        disc = make_orbit_disc(make_conical_boundary(), center=shift * np.eye(2))
        found, r, *_ = assert_walk_is_sequential(disc, window, (1.0, 0.37, 0.61), 1e-10,
                                                 step=(1.0 / 16, 1.0 / 24))
        assert found and r <= 1e-10


def test_walk_matches_sequential_on_the_commuting_control():
    disc = make_orbit_disc(make_commuting_loop(0.3), center="mean")
    window = SpectralWindow(0.5, 1.5, count=1)
    found, r, *_ = assert_walk_is_sequential(disc, window, (1.0, 0.9, 0.3), 1e-3,
                                             step=(1.0 / 12, 1.0 / 16))
    # the closest approach, 1 - a sqrt(2), lies on the boundary: r clips at 1
    assert not found and r == 1.0


def test_walk_matches_sequential_on_halfturn_discs():
    disc, window = halfturn_disc(8, seed=3)
    assert_walk_is_sequential(disc, window, (1.0, 0.5, 0.25), 1e-8,
                              step=(1.0 / 16, 1.0 / 24))
    # above the speculation size every point is evaluated on its own
    for seed in (4, 6):  # a certificate and a stall
        disc, window = halfturn_disc(32, seed)
        assert_walk_is_sequential(disc, window, (1.0, 0.5, 0.75), 1e-8,
                                  step=(1.0 / 16, 1.0 / 24))


def test_walk_matches_sequential_on_the_spin_m7_disc():
    # base-centered: a mean center is answered at r = 0 without a walk
    loop = make_spin_loop(7, np.diag(np.arange(1.0, 9.0))).family()
    disc = make_orbit_disc(loop, center="base")
    window = SpectralWindow(3.5, 4.5, count=1)
    assert_walk_is_sequential(disc, window, (1.0, 0.4, 0.1), 1e-7,
                              step=(1.0 / 16, 1.0 / 24))


def test_walk_matches_sequential_when_clipping_and_wrapping():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    # clipped at r = 0 with theta wrapping below 0 on the first level
    found, r, theta, _, _ = assert_walk_is_sequential(disc, window, (1.0, 0.05, 0.02), 1e-10)
    assert found and r == 0.0
    # clipped at r = 1 with theta wrapping above 1
    assert_walk_is_sequential(disc, window, (1.0, 0.9, 0.95), 1e-10, step=(0.5, 0.5))
    # a start outside the disc is clipped and wrapped
    assert_walk_is_sequential(disc, window, (1.0, 1.7, -0.3), 1e-10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 16),
       r=st.floats(0.0, 1.0), theta=st.floats(-1.0, 2.0),
       tol=st.sampled_from([1e-3, 1e-8]),
       step=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)))
def test_walk_matches_sequential_on_small_discs(n, seed, r, theta, tol, step):
    disc, window = halfturn_disc(n, seed)
    assert_walk_is_sequential(disc, window, (1.0, r, theta), tol, step=step)


def test_refine_below_round_off_raises_not_found():
    # eigvalsh puts the walk's best gap at 0, the certificate's eigh does not;
    # this used to escape as "RuntimeError: certificate gap ... exceeds tol"
    disc, window = halfturn_disc(32, seed=1)
    scan = scan_disc(disc, window)
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, window, scan.best, tol=1e-300, step=(1.0 / 16, 1.0 / 24))
    assert exc.value.best_gap > 1e-300


def test_walk_counts_levels_and_evaluations():
    disc, window = halfturn_disc(32, seed=6)
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, window, (1.0, 0.5, 0.75), tol=1e-8, step=(1.0 / 16, 1.0 / 24))
    # one point at a time: the start plus 25 points per level
    assert (exc.value.levels, exc.value.evaluations) == (40, 1 + 25 * 40)
    cert = refine(make_conical_disc(), SpectralWindow(0.0, 2.0, count=1),
                  (1.0, 0.37, 0.61), tol=1e-10)
    # speculation can only add evaluations to the 25 per level walked
    assert cert.levels > 0 and cert.evaluations >= 1 + 25 * cert.levels


def test_walk_without_guard_pairs_reports_an_infinite_gap():
    # a 1 x 1 disc has no consecutive pair to watch, in batches too
    fam = OperatorFamily(domain="circle",
                         sampler=lambda t: np.array([[1.0 + 0.1 * np.cos(2 * np.pi * t)]]))
    disc = DiscFamily(center=SymmetricOperator(np.eye(1)), boundary=fam)
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, SpectralWindow(0.0, 2.0, count=1), (1.0, 0.5, 0.1), tol=1e-3)
    assert exc.value.best_gap == np.inf and exc.value.best_point == (0.5, 0.1)
    assert exc.value.evaluations == 1 + 25 * 40


def count_eigvalsh(monkeypatch):
    """Record the stack depth of every numpy.linalg.eigvalsh call."""
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(1 if np.ndim(a) == 2 else len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_commuting_control_takes_at_most_two_eigvalsh_calls_per_level(monkeypatch):
    disc = make_orbit_disc(make_commuting_loop(0.3), center="mean")
    window = SpectralWindow(0.5, 1.5, count=1)
    with pytest.warns(UserWarning, match="sign \\+1"):
        start = scan_disc(disc, window, grid=(16, 24)).best
    calls = count_eigvalsh(monkeypatch)
    with pytest.raises(DegeneracyNotFound) as exc:
        refine(disc, window, start, tol=1e-3, step=(1.0 / 16, 1.0 / 24))
    # the anchor and the start take one call each
    assert len(calls) - 2 <= 2 * exc.value.levels
    assert sum(calls) == exc.value.evaluations + 1


def test_large_disc_passes_one_matrix_per_call(monkeypatch):
    disc, window = halfturn_disc(32, seed=6)
    calls = count_eigvalsh(monkeypatch)
    with pytest.raises(DegeneracyNotFound):
        refine(disc, window, (1.0, 0.5, 0.75), tol=1e-8, step=(1.0 / 16, 1.0 / 24))
    assert set(calls) == {1} and len(calls) == 2 + 25 * 40


# ---------------------------------------------------------------- boundary stackers

def test_stackers_equal_the_closed_form_samples():
    ts = np.concatenate([np.linspace(-2.0, 2.0, 41), [1.0, -1.0, -0.25, 1 - 2 ** -53,
                                                      -1e-20, 0.1 + 0.2, 7.3]])
    families = [(make_conical_boundary(), conical_sample)]
    families += [(make_commuting_loop(a), lambda t, a=a: commuting_sample(t, a))
                 for a in (0.1, 0.3, 0.37)]
    for family, sample in families:
        stacked = family.stack(ts)
        want = np.stack([sample(t) for t in ts])
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
