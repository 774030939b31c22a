import dataclasses
import inspect
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigenlasso
from eigenlasso import models
from eigenlasso._linalg import _opnorm
from eigenlasso.clifford import _real_form_pairs, build_clifford, find_structure_map
from eigenlasso.holonomy import concatenate_loops
from eigenlasso.models import (
    EquivariantLoopModel,
    OperatorFamily,
    SymmetricOperator,
    make_block_rotation_loop,
    make_circle_dirac,
    make_fullturn_loop,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from oracle_reference import (
    CIRCLE_HALF_SPECTRUM,
    CIRCLE_ZERO_SPECTRUM,
    block_rotation_stack,
    halfturn_sample,
    lifted_spin_rotations,
    skew_expm,
    two_svd_symmetry_rule,
)


def test_symmetric_operator_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SymmetricOperator(np.ones((2, 3)))


def test_symmetric_operator_accepts_hermitian():
    op = SymmetricOperator(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert not op.is_real
    assert op.dim == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_symmetric_operator_refuses_a_non_finite_entry(bad):
    # the SVD used to raise LinAlgError on NaN, and inf - inf warned first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            SymmetricOperator([[bad, 0], [0, 1]])


def test_symmetric_operator_keeps_its_type_errors_and_the_empty_matrix():
    for typed in (np.eye(2, dtype=object), np.eye(2, dtype=bool), np.eye(2, dtype=np.float16)):
        with pytest.raises(TypeError):
            SymmetricOperator(typed)
    assert SymmetricOperator(np.zeros((0, 0))).dim == 0


def _refuse_svd(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", broken)
    # norm(., 2) calls the svd of its own module
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", broken)


def test_exactly_hermitian_operators_take_no_svd(monkeypatch):
    rng = np.random.default_rng(25)
    a = rng.standard_normal((512, 512))
    z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    _refuse_svd(monkeypatch)
    assert SymmetricOperator(a + a.T).dim == 512
    assert not SymmetricOperator(z + z.conj().T).is_real
    assert _opnorm(np.zeros((3, 3))) == 0.0 and type(_opnorm(np.zeros((2, 2), complex))) is float


def _matrix(dtype, n, scale, defect, seed):
    """A Hermitian matrix of the given scale, plus an anti-Hermitian part whose
    defect ||M - M^H||_2 is ``defect`` times the acceptance threshold."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal((n, n))
    h = (x + x.conj().T) * scale
    if dtype == np.int64:
        h = np.rint(h)
    if defect and n:
        a = x - x.conj().T
        size = np.linalg.norm(a, 2)
        if size:
            h = h + a * (defect * 1e-13 * np.linalg.norm(h, 2) / (2 * size))
    return (np.rint(h) if dtype == np.int64 else h).astype(dtype)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dtype=st.sampled_from([np.float64, np.complex128, np.int64]), n=st.integers(0, 64),
       exponent=st.floats(-300, 300), defect=st.sampled_from([0.0, 0.5, 2.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_operator_decides_as_the_two_svd_rule(dtype, n, exponent, defect, seed):
    if dtype == np.int64:
        exponent = 13 + (exponent + 300) / 150  # threshold 1e-13 * ||M|| >= 1, so a defect can be below it
    m = _matrix(dtype, n, 10.0 ** exponent, defect, seed)
    try:
        expected = two_svd_symmetry_rule(m)
    except ValueError as refused:
        with pytest.raises(ValueError) as caught:
            SymmetricOperator(m)
        assert str(caught.value) == str(refused)
        return
    op = SymmetricOperator(m)
    assert op.matrix.dtype == expected.dtype and op.matrix.tobytes() == expected.tobytes()
    assert not op.matrix.flags.writeable


def test_family_domain_validation():
    for domain in ("square", "interval"):
        with pytest.raises(ValueError, match="unknown family domain"):
            OperatorFamily(domain=domain, sampler=lambda t: np.eye(2))


def test_empty_operators_are_real():
    # the largest |imaginary part| of no entry used to raise "zero-size array"
    for m in (np.zeros((0, 0), complex), np.zeros((0, 0))):
        assert SymmetricOperator(m).is_real
    assert SymmetricOperator(np.array([[1.0, 0.0], [0.0, 2.0]], complex)).is_real
    assert not SymmetricOperator(np.array([[1.0, 1e-300j], [-1e-300j, 2.0]])).is_real


def test_a_rotation_family_takes_only_its_models_stack():
    model = make_block_rotation_loop(np.diag([1.0, 2.0]), 0.5)
    family = model.family()
    assert family.stacker == model.stack
    # the same bound method again, and a parity change keeps it
    assert dataclasses.replace(family, parity="even").stacker == model.stack
    other = make_block_rotation_loop(np.diag([1.0, 2.0]), 0.5)
    for stacker in (None, other.stack, lambda ts: model.stack(ts)):
        with pytest.raises(ValueError, match="stacker"):
            dataclasses.replace(family, stacker=stacker)
    # without the model any stacker goes
    assert dataclasses.replace(family, stacker=other.stack, equivariant=None).equivariant is None


def test_circle_family_wraps_exactly():
    fam = OperatorFamily(domain="circle",
                         sampler=lambda t: np.diag([np.sin(2 * np.pi * t), 2.0]))
    np.testing.assert_array_equal(fam(1.0), fam(0.0))
    np.testing.assert_array_equal(fam(1.25), fam(0.25))


def test_circle_spectra_match_literals():
    half = make_circle_dirac(3, 0.5)
    zero = make_circle_dirac(3, 0.0)
    np.testing.assert_allclose(np.sort(half.analytic_spectrum()), CIRCLE_HALF_SPECTRUM)
    np.testing.assert_allclose(np.sort(zero.analytic_spectrum()), CIRCLE_ZERO_SPECTRUM)
    np.testing.assert_allclose(np.sort(half.numerical_spectrum()),
                               CIRCLE_HALF_SPECTRUM, atol=1e-12)
    np.testing.assert_allclose(np.sort(zero.numerical_spectrum()),
                               CIRCLE_ZERO_SPECTRUM, atol=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_circle_numerics_track_analytics_at_depth(delta):
    model = make_circle_dirac(64, delta)
    ana = np.sort(model.analytic_spectrum())
    num = np.sort(model.numerical_spectrum())
    assert ana.shape == num.shape
    assert np.abs(ana - num).max() <= 1e-10


def test_circle_spectrum_symmetric_and_zero_mode():
    zero = np.sort(make_circle_dirac(5, 0.0).analytic_spectrum())
    np.testing.assert_allclose(zero, -zero[::-1])
    assert 0.0 in zero
    half = np.sort(make_circle_dirac(5, 0.5).analytic_spectrum())
    np.testing.assert_allclose(half, -half[::-1])
    assert np.abs(half).min() == 0.5


def test_circle_operator_is_hermitian():
    op = make_circle_dirac(4, 0.0).operator()
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(op.matrix)),
                               np.sort(make_circle_dirac(4, 0.0).analytic_spectrum()),
                               atol=1e-12)


def test_circle_rejects_bad_delta():
    with pytest.raises(ValueError):
        make_circle_dirac(3, 0.25)
    with pytest.raises(ValueError):
        make_circle_dirac(0, 0.0)


def test_halfturn_matches_direct_products():
    d0 = np.diag([1.0, 2.0])
    loop = make_halfturn_loop(d0)
    for t in (0.0, 0.25, 0.5, 0.8):
        np.testing.assert_allclose(loop.family()(t), halfturn_sample(d0, t), atol=1e-14)
    np.testing.assert_allclose(loop.family()(0.25),
                               [[1.5, -0.5], [-0.5, 1.5]], atol=1e-14)


def test_halfturn_is_odd_and_closed():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    assert loop.parity == "odd"
    assert loop.sigma == -1
    fam = loop.family()
    np.testing.assert_array_equal(fam(1.0), fam(0.0))
    np.testing.assert_allclose(fam(0.0), np.diag([1.0, 2.0]), atol=1e-15)


def test_halfturn_rejects_odd_dimension():
    with pytest.raises(ValueError):
        make_halfturn_loop(np.diag([1.0, 2.0, 3.0]))


def test_fullturn_is_even():
    loop = make_fullturn_loop(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert loop.parity == "even"
    assert loop.sigma == 1


@pytest.mark.parametrize("loop_maker", [make_halfturn_loop, make_fullturn_loop])
def test_loops_are_isospectral(loop_maker):
    d0 = np.diag([1.0, 2.0, 3.0, 4.0])
    loop = loop_maker(d0)
    for t in np.linspace(0, 1, 37):
        np.testing.assert_allclose(np.linalg.eigvalsh(loop.family()(t)),
                                   [1, 2, 3, 4], atol=1e-12)


def test_eigenvector_transport_law():
    d0 = np.diag([1.0, 2.0, 3.0, 4.0])
    loop = make_halfturn_loop(d0)
    v = np.eye(4)[:, 2]  # eigenvector of the simple eigenvalue 3
    omega = loop.generator(np.eye(4))
    for t in (0.2, 0.6):
        moved = skew_expm(omega, t) @ v
        residual = np.linalg.norm(loop.family()(t) @ moved - 3.0 * moved)
        assert residual <= 1e-10


@pytest.mark.parametrize("m", [6, 7])
def test_spin_loop_parity_and_isospectrality(m):
    base = SymmetricOperator(np.diag(np.arange(1.0, 9.0)))
    loop = make_spin_loop(m, base, turns=1)
    assert loop.parity == "odd"
    even = make_spin_loop(m, base, turns=2)
    assert even.parity == "even"
    for t in np.linspace(0, 1, 17):
        np.testing.assert_allclose(np.linalg.eigvalsh(loop.family()(t)),
                                   np.arange(1.0, 9.0), atol=1e-11)


def test_spin_loop_guards():
    base = SymmetricOperator(np.diag(np.arange(1.0, 9.0)))
    with pytest.raises(ValueError):
        make_spin_loop(4, base)  # no real structure in this dimension
    with pytest.raises(ValueError):
        make_spin_loop(7, np.diag([1.0, 2.0]))  # wrong size for the real form
    with pytest.raises(ValueError):
        make_spin_loop(7, base, turns=3)


# t in [0, 1], plus parameters on either side that the loop wraps
ROTATION_TS = np.concatenate([np.linspace(0.0, 1.0, 11), [-0.3, 1.7]])


@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_block_rotation_stack_is_bitwise_the_index_built_one(n):
    # the stack applies K as a signed gather and the oracle multiplies
    # index-built rotations by GEMM, so they agree to round-off, not in
    # bytes: 1.8 eps max|D0| at most over n = 2-256
    bases = {"random": _rotated(n), "diagonal": np.diag(np.arange(1.0, n + 1.0)),
             "odd-cluster": make_odd_multiplicity_base([3.5] * n, 0.1, seed=1).matrix}
    for name, base in bases.items():
        bound = 4.0 * np.finfo(float).eps * np.abs(base).max()
        for turns in (0.5, 1.0, 1.5, 4.0):
            stacked = make_block_rotation_loop(base, turns).family().stack(ROTATION_TS)
            expected = block_rotation_stack(base, turns, ROTATION_TS)
            assert stacked.shape == expected.shape and stacked.flags.c_contiguous
            assert float(np.abs(stacked - expected).max()) <= bound, (name, turns)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS core types name x86_64 kernels")
def test_rotation_loop_samples_are_the_same_bytes_on_any_blas_kernel():
    # K is applied by signed gathers, so no GEMM kernel's summation order or
    # FMA use reaches a sample; the bases are fixed, not normalised by an SVD
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from eigenlasso.models import make_block_rotation_loop, make_spin_loop\n"
        "rng = np.random.default_rng(7)\n"
        "g, h = rng.standard_normal((256, 256)), rng.standard_normal((8, 8))\n"
        "ts = np.linspace(0.0, 1.0, 8, endpoint=False) + 0.01\n"
        "digest = hashlib.sha256()\n"
        "for model in (make_block_rotation_loop(g + g.T, 1.5), make_spin_loop(7, h + h.T)):\n"
        "    digest.update(model.family().stack(ts).tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(eigenlasso.__file__).parents[1])}
    digests = []
    for core in ("Haswell", "Sandybridge"):
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**env, "OPENBLAS_CORETYPE": core}, timeout=120)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("m", [6, 7, 8])
def test_spin_rotations_match_the_per_t_lift(m):
    rep = build_clifford(m)
    basis = _real_form_pairs(find_structure_map(rep)) / np.sqrt(2.0)
    d0 = np.diag(np.arange(1.0, rep.dim + 1.0))
    for turns in (1, 2):
        loop = make_spin_loop(m, d0, turns=turns)
        lifted = lifted_spin_rotations(rep, basis, turns, ROTATION_TS)
        expected = lifted @ d0 @ lifted.swapaxes(-1, -2)
        assert float(np.abs(loop.family().stack(ROTATION_TS) - expected).max()) <= 1e-13 * rep.dim


def test_spin_structure_is_solved_once_per_m(monkeypatch):
    base = make_odd_multiplicity_base([1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0] * 2, 0.1, seed=3)
    first = make_spin_loop(8, base)
    solved = []
    monkeypatch.setattr(models, "find_structure_map",
                        lambda rep: solved.append(rep.m) or find_structure_map(rep))
    second = make_spin_loop(8, base)
    assert solved == []
    assert second.structure is first.structure
    assert second.stack(ROTATION_TS).tobytes() == first.stack(ROTATION_TS).tobytes()
    # a fresh cache solves m = 8 again, once, to the same bits
    models._spin_structure.cache_clear()
    third = make_spin_loop(8, base, turns=2)
    assert solved == [8]
    assert third.structure.tobytes() == first.structure.tobytes()
    make_spin_loop(8, base)
    assert solved == [8]


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("structure, half_turns, message", [
    (np.array([[0.0, -1.0], [0.5, 0.0]]), 1, "complex structure"),
    (2.0 * _J2, 1, "complex structure"),
    (1j * _J2, 1, "real 2 x 2 matrix, got complex128"),
    (np.kron(np.eye(2), _J2), 1, r"real 2 x 2 matrix, got float64 of shape \(4, 4\)"),
    (_J2, 1.5, "half_turns must be an integer, got 1.5"),
    (_J2, 1.0, "half_turns must be an integer, got 1.0"),
    (_J2, True, "half_turns must be an integer, got True"),
], ids=["not-skew", "square", "complex", "shape", "half-integer", "float", "bool"])
def test_loop_refuses_a_structure_that_is_not_one(structure, half_turns, message):
    with pytest.raises(ValueError, match=message):
        EquivariantLoopModel(base=SymmetricOperator(np.diag([1.0, 2.0])),
                             structure=structure, half_turns=half_turns)


def test_loop_refuses_a_complex_structure_that_is_not_a_signed_permutation():
    # Q J Q^T is a complex structure to round-off, but no signed gather applies it
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    k = q @ np.kron(np.eye(2), _J2) @ q.T
    k = 0.5 * (k - k.T)
    assert np.linalg.norm(k @ k + np.eye(4)) <= 1e-14
    with pytest.raises(ValueError, match="structure must be .* an exact signed permutation"):
        EquivariantLoopModel(base=SymmetricOperator(np.diag([1.0, 2.0, 3.0, 4.0])),
                             structure=k, half_turns=1)


def test_loop_parity_comes_from_its_half_turns():
    base = SymmetricOperator(np.diag([1.0, 2.0]))
    for h in (-3, -2, 0, 1, 4, 17):
        loop = EquivariantLoopModel(base=base, structure=_J2, half_turns=h)
        assert (loop.parity, loop.sigma) == (("odd", -1) if h % 2 else ("even", 1))


def test_loop_refuses_a_base_whose_samples_could_overflow():
    # at t = 1/4 the half-turn loop of 1e308 ones has the entry 2e308
    with pytest.raises(ValueError, match=r"^base has entries up to 1\.000e\+308, with which "):
        make_halfturn_loop(np.full((2, 2), 1e308))
    with pytest.raises(ValueError, match="^base has entries up to"):
        make_spin_loop(7, np.full((8, 8), 1e308))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("base", [
    np.full((2, 2), models._SAMPLE_MAX / 2), np.diag([1.2e308, -1.2e308]),
    np.full((4, 4), 8e307)], ids=["ones-at-the-cap", "diagonal", "ones-n4"])
def test_loop_samples_of_an_accepted_base_stay_finite(base):
    # each 2 x 2 block J's orbits cut out has Frobenius norm at most _SAMPLE_MAX,
    # though an entry may pass half the float limit
    samples = make_halfturn_loop(base).stack(np.linspace(0.0, 1.0, 1025))
    assert np.isfinite(samples).all()
    assert np.abs(samples).max() >= 0.99 * np.abs(base).max()


@pytest.mark.parametrize("turns", [np.inf, -np.inf, np.nan])
def test_block_rotation_loop_refuses_non_finite_turns(turns):
    with pytest.raises(ValueError, match="turns must be a finite multiple of one half"):
        make_block_rotation_loop(np.diag([1.0, 2.0]), turns)


def test_odd_multiplicity_base_splits_cluster():
    op = make_odd_multiplicity_base([3.5] * 8, epsilon=0.1, seed=1)
    values = np.linalg.eigvalsh(op.matrix)
    assert values.min() >= 3.4 - 1e-12
    assert values.max() <= 3.6 + 1e-12
    assert np.diff(values).min() > 0


def test_odd_multiplicity_base_reproducible():
    a = make_odd_multiplicity_base([1.0, 1.0, 2.0], epsilon=0.05, seed=7)
    b = make_odd_multiplicity_base([1.0, 1.0, 2.0], epsilon=0.05, seed=7)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_odd_multiplicity_base_zero_epsilon_and_guards():
    op = make_odd_multiplicity_base([2.0, 1.0], epsilon=0.0, seed=0)
    np.testing.assert_array_equal(op.matrix, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        make_odd_multiplicity_base([1.0], epsilon=-0.1, seed=0)
    with pytest.raises(ValueError):
        make_odd_multiplicity_base([], epsilon=0.1, seed=0)


def _rotated(n, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    base = q @ np.diag(np.arange(1.0, n + 1.0)) @ q.T
    return 0.5 * (base + base.T)


def _wobble(t):
    return np.array([[np.sin(2 * np.pi * t), 0.5], [0.5, 2.0 + np.cos(2 * np.pi * t)]])


STACKED_FAMILIES = {
    "block-n2-half": lambda: make_block_rotation_loop(_rotated(2), 0.5).family(),
    "block-n8-1.5": lambda: make_block_rotation_loop(_rotated(8), 1.5).family(),
    "block-n8-3": lambda: make_block_rotation_loop(_rotated(8, seed=1), 3.0).family(),
    "block-n64-2.5": lambda: make_block_rotation_loop(_rotated(64), 2.5).family(),
    # kron placed -0.0 off the blocks where the broadcast rotations hold +0.0
    "block-diagonal-base": lambda: make_halfturn_loop(np.diag(np.arange(1.0, 9.0))).family(),
    "spin-m7": lambda: make_spin_loop(7, np.diag(np.arange(1.0, 9.0))).family(),
    "concatenated": lambda: concatenate_loops(make_halfturn_loop(_rotated(4)).family(),
                                              make_fullturn_loop(_rotated(4)).family()),
    "lambda-circle": lambda: OperatorFamily(domain="circle", sampler=_wobble),
}
# t = 1.0 and t > 1 included: circle families wrap both
STACK_TS = np.concatenate([np.linspace(0.0, 1.0, 13), [0.3, 0.999, 1.0, 1.25, 2.5, 0.5]])


@pytest.mark.parametrize("name", STACKED_FAMILIES)
def test_stack_is_bitwise_the_stacked_samples(name):
    family = STACKED_FAMILIES[name]()
    expected = np.stack([family(t) for t in STACK_TS])
    stacked = family.stack(STACK_TS)
    assert stacked.dtype == expected.dtype and stacked.shape == expected.shape
    assert stacked.tobytes() == expected.tobytes()
