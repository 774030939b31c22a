import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigenlasso.models import (
    OperatorFamily,
    SymmetricOperator,
    make_block_rotation_loop,
    make_circle_dirac,
)
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
)
from oracle_reference import window_range


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


@pytest.mark.parametrize("dtype", [float, complex])
def test_batched_eigendecompose_is_bitwise_the_single_calls(dtype):
    rng = np.random.default_rng(3)
    g = rng.standard_normal((7, 6, 6)).astype(dtype)
    if dtype is complex:
        g = g + 1j * rng.standard_normal((7, 6, 6))
    stack = g + g.conj().swapaxes(-1, -2)
    values, vectors = eigendecompose(stack)
    for a, vals, vecs in zip(stack, values, vectors):
        one_values, one_vectors = eigendecompose(a)
        assert vals.tobytes() == one_values.tobytes()
        assert vecs.tobytes() == one_vectors.tobytes()


# (what to corrupt, in which matrix, expected error); matrix 0 has norm
# 1e6 and matrix 2 norm 1, so an eigenvalue off by 1e-8 passes matrix
# 0's residual bound and fails matrix 2's own
BAD_SLICES = [("value", 2, "residual"), ("vector", 2, "not orthonormal"), ("value", 0, None)]


@pytest.mark.parametrize("corrupt, index, message", BAD_SLICES)
def test_batched_eigendecompose_checks_each_matrix(monkeypatch, corrupt, index, message):
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 5, 5))
    stack = g + g.swapaxes(-1, -2)
    stack[0] *= 1e6 / np.abs(np.linalg.eigvalsh(stack[0])).max()
    stack[2] /= np.abs(np.linalg.eigvalsh(stack[2])).max()
    eigh = np.linalg.eigh

    def corrupted(a):
        values, vectors = eigh(a)
        if corrupt == "value":
            values[index, 0] += 1e-8
        else:
            vectors[index, :, 0] *= 1.0 + 1e-9
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    if message is None:
        eigendecompose(stack)
    else:
        with pytest.raises(RuntimeError, match=message):
            eigendecompose(stack)


def test_eigendecompose_offdiagonal():
    values, _ = eigendecompose(SymmetricOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-15)


NON_FINITE = [np.diag([1.0, np.nan]), np.array([[1.0, np.inf], [np.inf, 2.0]])]


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["nan", "inf"])
def test_eigendecompose_refuses_non_finite_matrices(matrix):
    # eigh returns NaN factors for these, and NaN passes a "> tol" check
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(matrix)
    with pytest.raises(ValueError, match="non-finite .* stack index 2$"):
        eigendecompose(np.stack([np.eye(2), np.eye(2), matrix, matrix]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
def test_factor_checks_are_scale_free(scale):
    # the residual and frame norms are taken of scale-divided quantities,
    # so squaring their entries neither overflows nor underflows
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 6, 6))
    stack = scale * (g + g.swapaxes(-1, -2))
    values, vectors = eigendecompose(stack)
    np.testing.assert_allclose(values / scale, np.linalg.eigvalsh(g + g.swapaxes(-1, -2)),
                               rtol=1e-12, atol=1e-12)
    assert np.isfinite(vectors).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_eigenvalue_that_overflows_is_refused_before_the_residual_check():
    # finite entries whose eigenvalue 2e308 overflows to inf: the residual
    # would divide inf by inf and report nan
    overflowing = np.full((2, 2), 1e308)
    with pytest.raises(RuntimeError, match=r"^non-finite eigenvalue 1 \(inf\)$"):
        eigendecompose(overflowing)
    with pytest.raises(RuntimeError, match=r"^non-finite eigenvalue 1 \(inf\)$") as exc:
        eigendecompose(np.stack([np.eye(2), overflowing]))
    assert exc.value.index == 1


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
    # the circle wraps t = 1 to 0, which gives diag(0, 1) again
    fam = OperatorFamily(domain="circle",
                         sampler=lambda t: np.diag([t, 1.0 - t]))
    result = enumerate_family(fam, np.array([0.0, 0.5, 1.0]))
    # sorted enumeration pinches at the crossing
    np.testing.assert_allclose(result.values[1], [0.5, 0.5])
    np.testing.assert_allclose(result.values[0], [0.0, 1.0])
    np.testing.assert_allclose(result.values[2], [0.0, 1.0])


def test_enumeration_weyl_defect_is_small():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
    base = q @ np.diag(np.arange(1.0, 9.0)) @ q.T
    fam = make_block_rotation_loop(0.5 * (base + base.T), 1.5).family()
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6), rows=st.integers(1, 5),
       lower=st.floats(-2.0, 2.0), width=st.floats(1e-3, 4.0), count=st.integers(1, 3))
def test_stacked_window_rule_is_the_per_row_rule(data, n, rows, lower, width, count):
    upper = lower + width
    # values anywhere, or within 2e-9 of an endpoint, so that rows fail on
    # either endpoint margin as well as on the count
    near = st.sampled_from([lower, upper]).flatmap(lambda e: st.floats(e - 2e-9, e + 2e-9))
    row = st.lists(st.one_of(st.floats(-5.0, 5.0), near), min_size=n, max_size=n)
    stack = np.sort(np.array(data.draw(st.lists(row, min_size=rows, max_size=rows))), axis=-1)
    w = SpectralWindow(lower, upper, count)

    def reference(counted):
        """Per-row slices, or (index, message) of the first failing row."""
        held = []
        for i, values in enumerate(stack):
            try:
                held.append(window_range(values, lower, upper, count if counted else None))
            except ValueError as exc:
                return i, str(exc)
        return held

    for counted in (True, False):
        expected = reference(counted)
        if isinstance(expected, list):
            start, stop = w._bounds(stack, counted)
            assert list(map(slice, start.tolist(), stop.tolist())) == expected
        else:
            with pytest.raises(ValueError) as exc:
                w._bounds(stack, counted)
            assert (exc.value.index, str(exc.value)) == expected
    for values in stack:
        try:
            expected = window_range(values, lower, upper, count)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                w.indices(values)
        else:
            assert w.indices(values) == expected


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
    assert w.indices(np.linalg.eigvalsh(op.matrix)) == slice(1, 3)
    assert w.indices(np.linalg.eigvalsh(rotated.matrix)) == slice(1, 3)
