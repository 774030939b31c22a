import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigenlasso
from eigenlasso import models
from eigenlasso.clifford import (
    EPSILON_BY_DIMENSION,
    build_clifford,
    _real_form_pairs,
    find_structure_map,
    lift_rotation,
)
from oracle_reference import brute_force_structure_map, structure_epsilon


def test_m1_generator_is_i():
    rep = build_clifford(1)
    assert rep.dim == 1
    assert rep.generators[0] == pytest.approx(np.array([[1j]]))


def test_m2_generators_exact():
    rep = build_clifford(2)
    np.testing.assert_array_equal(rep.generators[0], np.array([[0, 1], [-1, 0]], dtype=complex))
    np.testing.assert_array_equal(rep.generators[1], np.array([[0, 1j], [1j, 0]]))


def test_m3_third_generator_is_product_of_first_two():
    rep = build_clifford(3)
    g1, g2, g3 = rep.generators
    np.testing.assert_allclose(g3, g1 @ g2, atol=1e-15)


@pytest.mark.parametrize("m", range(1, 13))
def test_algebra_relations(m):
    rep = build_clifford(m)
    assert rep.dim == 2 ** (m // 2)
    assert rep.max_anticommutation_residual() <= 1e-12
    assert rep.max_unitarity_residual() <= 1e-12


def test_dimension_guard():
    with pytest.raises(ValueError):
        build_clifford(13)
    with pytest.raises(ValueError):
        build_clifford(0)


def test_lift_special_angles():
    rep = build_clifford(4)
    eye = np.eye(rep.dim)
    assert lift_rotation(rep, 0, 1, 0.0) == pytest.approx(eye)
    assert lift_rotation(rep, 2, 3, 2 * np.pi) == pytest.approx(-eye)
    assert lift_rotation(rep, 1, 3, 4 * np.pi) == pytest.approx(eye)
    half = lift_rotation(rep, 0, 2, np.pi)
    np.testing.assert_allclose(half @ half, -eye, atol=1e-14)


def test_lift_index_guards():
    rep = build_clifford(3)
    with pytest.raises(ValueError):
        lift_rotation(rep, 1, 1, 0.3)
    with pytest.raises(ValueError):
        lift_rotation(rep, 0, 3, 0.3)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    alpha=st.floats(-10, 10, allow_nan=False),
    beta=st.floats(-10, 10, allow_nan=False),
)
def test_lift_one_parameter_group(alpha, beta):
    rep = build_clifford(5)
    combined = lift_rotation(rep, 1, 4, alpha) @ lift_rotation(rep, 1, 4, beta)
    direct = lift_rotation(rep, 1, 4, alpha + beta)
    assert np.abs(combined - direct).max() <= 1e-12


def test_lift_conjugation_rotates_the_plane():
    # rho gamma_i rho^-1 = cos(a) gamma_i + sin(a) gamma_j, others fixed
    rep = build_clifford(6)
    i, j, alpha = 2, 4, 0.7
    rho = lift_rotation(rep, i, j, alpha)
    rho_inv = rho.conj().T
    gi, gj = rep.generators[i], rep.generators[j]
    np.testing.assert_allclose(
        rho @ gi @ rho_inv, np.cos(alpha) * gi + np.sin(alpha) * gj, atol=1e-13)
    np.testing.assert_allclose(
        rho @ gj @ rho_inv, -np.sin(alpha) * gi + np.cos(alpha) * gj, atol=1e-13)
    for k in (0, 1, 3, 5):
        gk = rep.generators[k]
        np.testing.assert_allclose(rho @ gk @ rho_inv, gk, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 7, 8, 10, 11, 12])
def test_structure_map_invariants(m):
    rep = build_clifford(m)
    smap = find_structure_map(rep)
    assert smap.epsilon == EPSILON_BY_DIMENSION[m % 8]
    assert smap.commutant_residual(rep) <= 1e-10
    c = smap.matrix
    n = rep.dim
    np.testing.assert_allclose(c.conj().T @ c, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(c @ c.conj(), smap.epsilon * np.eye(n), atol=1e-10)


def test_structure_maps_and_spin_loops_run_without_scipy():
    script = (
        "import sys\n"
        "from eigenlasso.clifford import build_clifford, find_structure_map\n"
        "from eigenlasso.models import make_odd_multiplicity_base, make_spin_loop\n"
        "for m in (2, 3, 4, 6, 7, 8, 10, 11, 12):\n"
        "    find_structure_map(build_clifford(m))\n"
        "base = make_odd_multiplicity_base([3.5] * 16, 0.1, seed=1)\n"
        "make_spin_loop(8, base).family()(0.3)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(eigenlasso.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_structure_map_matches_brute_force_m2():
    rep = build_clifford(2)
    c_ref, null_dim = brute_force_structure_map(rep.generators)
    assert null_dim == 2  # complex scalar multiples of a single solution
    assert structure_epsilon(c_ref) == -1
    smap = find_structure_map(rep)
    assert smap.epsilon == -1
    # same solution line up to phase
    overlap = abs(np.vdot(c_ref, smap.matrix)) / np.linalg.norm(smap.matrix)
    assert overlap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 7, 8])
def test_closed_form_and_solved_structure_maps_agree(m):
    # the closed-form C against the kernel of the commutant system,
    # solved entry by entry in the oracle
    rep = build_clifford(m)
    c_ref, null_dim = brute_force_structure_map(rep.generators)
    assert null_dim == 2  # complex scalar multiples of a single solution
    smap = find_structure_map(rep)
    assert smap.epsilon == structure_epsilon(c_ref) == EPSILON_BY_DIMENSION[m % 8]
    # same solution line up to phase
    overlap = abs(np.vdot(c_ref, smap.matrix)) / np.linalg.norm(smap.matrix)
    assert overlap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [6, 7, 8])
def test_structure_map_and_spin_structure_are_exact(m):
    rep = build_clifford(m)
    smap = find_structure_map(rep)
    c = smap.matrix
    assert np.array_equal(c @ c.conj(), smap.epsilon * np.eye(rep.dim))
    k = models._spin_structure(m)
    assert set(np.unique(k)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.count_nonzero(k, axis=1), np.ones(rep.dim, dtype=int))
    assert np.array_equal(k @ k, -np.eye(rep.dim))
    assert np.array_equal(k.T, -k)


def test_structure_map_rejects_complex_type():
    for m in (1, 5, 9):
        with pytest.raises(ValueError):
            find_structure_map(build_clifford(m))


def test_structure_map_application_is_antilinear():
    rep = build_clifford(4)
    smap = find_structure_map(rep)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    np.testing.assert_allclose(smap.apply(1j * v), -1j * smap.apply(v), atol=1e-12)
    for g in rep.generators:
        np.testing.assert_allclose(smap.apply(g @ v), g @ smap.apply(v), atol=1e-10)


@pytest.mark.parametrize("m", [6, 7, 8])
def test_real_form_basis(m):
    rep = build_clifford(m)
    smap = find_structure_map(rep)
    basis = _real_form_pairs(smap) / np.sqrt(2.0)
    n = rep.dim
    assert basis.shape == (n, n)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(n), atol=1e-10)
    # columns are fixed by the antilinear map
    for col in basis.T:
        np.testing.assert_allclose(smap.apply(col), col, atol=1e-9)
    # a lift restricted to this basis is a real matrix
    lift = lift_rotation(rep, m - 2, m - 1, 0.9)
    restricted = basis.conj().T @ lift @ basis
    assert np.abs(restricted.imag).max() <= 1e-10
