import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigenlasso.models import OperatorFamily, SymmetricOperator, make_circle_dirac
from eigenlasso.spectral import (
    SpectralWindow,
    eigendecompose,
    enumerate_family,
    minmax_check,
    projector_distance,
    rayleigh_distance_check,
    spectral_close,
    spectral_projector_contour,
    spectral_projector_eig,
    verify_dirac_properties,
    window_membership,
)


def _symmetric(seed, n=6, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return SymmetricOperator(scale * (a + a.T) / 2)


# ---------------------------------------------------------------- decomposition

def test_eigendecompose_sorts_ascending():
    values, vectors = eigendecompose(SymmetricOperator(np.diag([3.0, 1.0, 2.0])))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0])
    recon = vectors @ np.diag(values) @ vectors.conj().T
    np.testing.assert_allclose(recon, np.diag([3.0, 1.0, 2.0]), atol=1e-12)


def test_eigendecompose_offdiagonal():
    values, _ = eigendecompose(SymmetricOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------- windows

def test_window_basic_geometry():
    w = SpectralWindow(0.5, 2.5, count=2)
    assert w.center == pytest.approx(1.5)
    assert w.radius == pytest.approx(1.0)
    values = np.array([0.0, 1.0, 2.0, 3.0])
    assert values[w.indices(values)].tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        SpectralWindow(2.0, 1.0)
    with pytest.raises(ValueError):
        SpectralWindow(0.0, 1.0, count=0)


def test_membership_accepts_admissible_config():
    op = SymmetricOperator(np.diag([0.0, 1.0, 2.0, 5.0]))
    report = window_membership(op, SpectralWindow(0.5, 2.5, count=2))
    assert report.admissible
    assert report.n_in_window == 2
    # gaps run from the extreme inside values to the nearest outside ones
    assert report.gap_below == pytest.approx(1.0)
    assert report.gap_above == pytest.approx(3.0)


def test_membership_flags_wrong_count():
    op = SymmetricOperator(np.diag([0.0, 1.0, 2.0, 5.0]))
    report = window_membership(op, SpectralWindow(0.5, 2.5, count=3))
    assert not report.admissible
    assert not report.count_ok


def test_membership_requires_odd_cluster():
    # the window holds a single 2-fold cluster; nothing odd inside
    op = SymmetricOperator(np.diag([0.0, 1.0, 1.0, 5.0]))
    report = window_membership(op, SpectralWindow(0.5, 2.5, count=2))
    assert not report.admissible
    assert not report.has_odd_cluster


def test_membership_rejects_endpoint_collision():
    op = SymmetricOperator(np.diag([0.0, 1.0, 2.5 - 1e-12, 5.0]))
    with pytest.raises(ValueError):
        window_membership(op, SpectralWindow(0.5, 2.5, count=2))


# ---------------------------------------------------------------- projectors

def test_eig_projector_selects_window():
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    p = spectral_projector_eig(op, SpectralWindow(1.5, 2.5))
    np.testing.assert_allclose(p, np.diag([0.0, 1.0, 0.0]), atol=1e-14)


def test_eig_projector_refuses_count_mismatch():
    # the count-2 window holds only the eigenvalue 1; a rank-1 projector
    # would silently stand in for a rank-2 one
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="window holds 1 eigenvalues, expected 2"):
        spectral_projector_eig(op, SpectralWindow(0.5, 1.5, count=2))


def test_eig_projector_handles_multiplicity():
    op = SymmetricOperator(np.diag([1.0, 1.0, 3.0]))
    p = spectral_projector_eig(op, SpectralWindow(0.5, 2.0, count=2))
    np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-14)


def test_contour_projector_agrees_with_eig():
    for seed in range(5):
        op = _symmetric(seed)
        values = np.linalg.eigvalsh(op.matrix)
        lo = (values[1] + values[2]) / 2
        hi = (values[3] + values[4]) / 2
        w = SpectralWindow(lo, hi, count=2)
        p_eig = spectral_projector_eig(op, w)
        p_con = spectral_projector_contour(op, w, nodes=256)
        assert projector_distance(p_eig, p_con) <= 1e-8


def test_contour_projector_empty_window():
    op = SymmetricOperator(np.diag([1.0, 5.0]))
    p = spectral_projector_contour(op, SpectralWindow(2.0, 3.0), nodes=64)
    assert np.linalg.norm(p, 2) <= 1e-8


def test_contour_error_halves_with_node_doubling():
    op = _symmetric(3)
    values = np.linalg.eigvalsh(op.matrix)
    w = SpectralWindow((values[1] + values[2]) / 2, (values[3] + values[4]) / 2, count=2)
    p_ref = spectral_projector_eig(op, w)
    errs = [projector_distance(spectral_projector_contour(op, w, nodes=m), p_ref)
            for m in (16, 32, 64, 128)]
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= 0.5 * coarse or fine < 1e-13


def test_contour_rejects_few_nodes():
    op = SymmetricOperator(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        spectral_projector_contour(op, SpectralWindow(0.5, 1.5), nodes=8)


def test_contour_never_touches_eigensolver(monkeypatch):
    # the resolvent route must stay independent of the diagonalization route
    def boom(*args, **kwargs):  # pragma: no cover - trap
        raise AssertionError("contour path called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    op = SymmetricOperator(np.diag([1.0, 2.0, 3.0]))
    p = spectral_projector_contour(op, SpectralWindow(1.5, 2.5), nodes=32)
    np.testing.assert_allclose(p, np.diag([0.0, 1.0, 0.0]), atol=1e-6)


# ---------------------------------------------------------------- enumeration

def test_enumerate_constant_family():
    fam = OperatorFamily(domain="circle", sampler=lambda t: np.diag([1.0, 2.0]))
    result = enumerate_family(fam, np.linspace(0, 1, 9))
    assert result.values.shape == (9, 2)
    np.testing.assert_allclose(result.values, np.tile([1.0, 2.0], (9, 1)))
    assert result.weyl_defect <= 1e-15


def test_enumerate_crossing_family():
    fam = OperatorFamily(domain="interval",
                         sampler=lambda t: np.diag([t, 1.0 - t]))
    result = enumerate_family(fam, np.array([0.0, 0.5, 1.0]))
    # sorted enumeration pinches at the crossing
    np.testing.assert_allclose(result.values[1], [0.5, 0.5])
    np.testing.assert_allclose(result.values[0], [0.0, 1.0])
    np.testing.assert_allclose(result.values[2], [0.0, 1.0])


def test_enumeration_weyl_defect_is_small():
    fam = make_circle_dirac(8, 0.5).family()
    result = enumerate_family(fam, np.linspace(0, 1, 33))
    assert result.weyl_defect <= 1e-10


# ---------------------------------------------------------------- variational

def test_minmax_diagonal_example():
    report = minmax_check(SymmetricOperator(np.diag([1.0, 2.0, 3.0])), k=2)
    assert report.lambda_k == pytest.approx(2.0)
    assert report.achievability_defect <= 1e-10
    assert report.violations == 0
    assert report.passed


def test_minmax_random_operator():
    op = _symmetric(11, n=8)
    values = np.linalg.eigvalsh(op.matrix)
    report = minmax_check(op, k=4, trials=200, seed=3)
    assert report.lambda_k == pytest.approx(values[3], abs=1e-12)
    assert report.passed


def test_rayleigh_on_exact_eigenvector():
    op = SymmetricOperator(np.diag([0.0, 1.0, 10.0]))
    report = rayleigh_distance_check(op, k=2, level=2.0, eps=0.0,
                                     x=np.array([0.0, 1.0, 0.0]))
    assert report.hypothesis_ok
    assert report.holds
    assert report.distance_sq <= 1e-15


def test_rayleigh_mixed_vector_bound():
    op = SymmetricOperator(np.diag([0.0, 1.0, 10.0]))
    x = np.array([np.sqrt(0.9), 0.0, np.sqrt(0.1)])
    report = rayleigh_distance_check(op, k=2, level=2.0, eps=0.0, x=x)
    assert report.hypothesis_ok
    assert report.distance_sq == pytest.approx(0.1, abs=1e-12)
    assert report.holds


def test_rayleigh_reports_hypothesis_violation():
    op = SymmetricOperator(np.diag([0.0, 1.0, 10.0]))
    # rayleigh quotient sits above the level: hypothesis broken, not an error
    report = rayleigh_distance_check(op, k=2, level=0.5, eps=0.0,
                                     x=np.array([0.0, 0.0, 1.0]))
    assert not report.hypothesis_ok


# ---------------------------------------------------------------- comparison

def test_spectral_close_truth_table():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 1.0 + 5e-3, 2.0])
    assert spectral_close(a, b, lower=0.5, upper=1.5, eps=1e-2)
    assert not spectral_close(a, b, lower=0.5, upper=1.5, eps=1e-3)
    # outside the window the mismatch is invisible
    assert spectral_close(a, b, lower=1.6, upper=1.9, eps=1e-12)
    # count mismatch inside the window fails regardless of eps
    assert not spectral_close(a, np.array([0.0, 2.0]), lower=0.5, upper=1.5, eps=10.0)


def test_spectral_close_rejects_endpoint_collision():
    a = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        spectral_close(a, a, lower=1.0 + 1e-12, upper=1.5, eps=1e-3)


# ---------------------------------------------------------------- dirac checks

def test_dirac_properties_on_circle():
    model = make_circle_dirac(32, 0.5)
    spec = np.sort(model.analytic_spectrum())
    report = verify_dirac_properties(spec, m=1, radius=31.0)
    assert report.symmetry_ok
    assert report.counting_exponent == pytest.approx(1.0, abs=0.05)


def test_dirac_properties_flags_asymmetry():
    model = make_circle_dirac(16, 0.5)
    spec = np.sort(model.analytic_spectrum()) + 0.1
    report = verify_dirac_properties(spec, m=1, radius=15.0)
    assert not report.symmetry_ok


# ---------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), eps=st.floats(1e-6, 1.0))
def test_spectral_close_is_symmetric(seed, eps):
    rng = np.random.default_rng(seed)
    a = np.sort(rng.uniform(-2, 2, size=6))
    b = np.sort(a + rng.uniform(-0.1, 0.1, size=6))
    lower, upper = -1.55, 1.55
    if np.min(np.abs(np.concatenate([a, b])[:, None] - [lower, upper])) < 1e-6:
        return
    assert spectral_close(a, b, lower, upper, eps) == spectral_close(b, a, lower, upper, eps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
       lower=st.floats(-11.0, 11.0), width=st.floats(1e-3, 22.0),
       count_offset=st.integers(-1, 1))
def test_indices_select_the_open_window(values, lower, width, count_offset):
    values = np.sort(np.array(values))
    upper = lower + width
    assume(np.abs(values[:, None] - [lower, upper]).min() >= 1e-6)
    selected = values[(values > lower) & (values < upper)]
    w = SpectralWindow(lower, upper, max(selected.size + count_offset, 1))
    if w.count == selected.size:
        np.testing.assert_array_equal(values[w.indices(values)], selected)
    else:
        with pytest.raises(ValueError, match="window holds"):
            w.indices(values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_eigenvalues_are_lipschitz_in_the_operator(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 5))
    y = rng.standard_normal((5, 5))
    a = (x + x.T) / 2
    b = (y + y.T) / 2
    gap = np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b)).max()
    assert gap <= np.linalg.norm(a - b, 2) + 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_membership_invariant_under_rotation(seed):
    rng = np.random.default_rng(seed)
    op = SymmetricOperator(np.diag([0.0, 1.0, 2.0, 5.0]))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = SymmetricOperator(q @ op.matrix @ q.T)
    w = SpectralWindow(0.5, 2.5, count=2)
    assert window_membership(op, w).admissible
    assert window_membership(rotated, w).admissible
