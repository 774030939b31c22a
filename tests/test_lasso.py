import numpy as np
import pytest

from eigenlasso.lasso import (
    DegeneracyNotFound,
    DiscFamily,
    make_orbit_disc,
    refine,
    scan_disc,
)
from eigenlasso.models import (
    OperatorFamily,
    SymmetricOperator,
    make_halfturn_loop,
)
from eigenlasso.spectral import SpectralWindow, cluster_groups
from oracle_reference import conical_gap


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


def test_scan_candidates_are_sorted_by_gap():
    disc = make_conical_disc()
    window = SpectralWindow(0.0, 2.0, count=1)
    result = scan_disc(disc, window, grid=(8, 12))
    gaps = [c[0] for c in result.candidates]
    assert gaps == sorted(gaps)
    assert result.min_gap == pytest.approx(gaps[0])
    # smallest gap sits at the smallest scanned radius
    assert result.best[1] == pytest.approx(result.r_values[0])


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


# ---------------------------------------------------------------- clustering

def test_cluster_multiplicity_merges_near_ties():
    assert cluster_groups(np.array([1.0, 1.0 + 1e-12, 2.0]), tol=1e-9) == [(0, 2), (2, 3)]


def test_cluster_multiplicity_distinct_and_degenerate():
    assert cluster_groups(np.array([0.0, 1.0, 2.0]), tol=1e-9) == [(0, 1), (1, 2), (2, 3)]
    assert cluster_groups(np.zeros(3), tol=1e-9) == [(0, 3)]


def test_cluster_multiplicity_rejects_bad_tol():
    with pytest.raises(ValueError):
        cluster_groups(np.array([1.0, 2.0]), tol=0.0)
