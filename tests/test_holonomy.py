import dataclasses
import time

import numpy as np
import pytest

from eigenlasso import holonomy, spectral
from eigenlasso.acceptance import make_commuting_loop
from eigenlasso.holonomy import (
    TransportError,
    concatenate_loops,
    predicted_sign,
    sign_stability,
    transport,
)
from eigenlasso.models import (
    STACK_BYTES,
    EquivariantLoopModel,
    OperatorFamily,
    SymmetricOperator,
    _stacked_loop,
    make_block_rotation_loop,
    make_fullturn_loop,
    make_halfturn_loop,
    make_spin_loop,
)
from eigenlasso.spectral import SpectralWindow, projector_distance, spectral_projector_eig
from oracle_reference import refined_grid, sequential_polar_frames, skew_expm, wilson_sign


def boundless(family):
    """The same family without its rotation model, so transport refines it and factors every sample."""
    return dataclasses.replace(family, equivariant=None)


def test_halfturn_simple_window_flips():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    path, ret = transport(loop.family(), SpectralWindow(0.5, 1.5, count=1))
    assert ret.sign == -1
    assert 0.9 <= abs(ret.determinant) <= 1.1
    assert ret.sign == predicted_sign(loop.parity, 1)
    assert path.n_samples >= 17


def test_halfturn_agrees_with_independent_product_oracle():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    oracle = wilson_sign(loop.family(), 0.5, 1.5, n_samples=4096)
    _, ret = transport(loop.family(), SpectralWindow(0.5, 1.5, count=1))
    assert ret.sign == oracle


def test_halfturn_double_window_is_trivial():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    _, ret = transport(loop.family(), SpectralWindow(0.5, 2.5, count=2))
    assert ret.sign == 1
    assert ret.sign == predicted_sign(loop.parity, 2)
    assert ret.sign == wilson_sign(loop.family(), 0.5, 2.5, n_samples=4096)


def test_fullturn_is_trivial():
    loop = make_fullturn_loop(np.diag([1.0, 2.0, 3.0, 4.0]))
    _, ret = transport(loop.family(), SpectralWindow(0.5, 1.5, count=1))
    assert ret.sign == 1
    assert ret.sign == wilson_sign(loop.family(), 0.5, 1.5, n_samples=4096)


@pytest.mark.parametrize("count,expected", [(1, -1), (2, 1), (3, -1)])
def test_spin_loop_sign_alternates_with_count(count, expected):
    base = SymmetricOperator(np.diag(np.arange(1.0, 9.0)))
    loop = make_spin_loop(7, base, turns=1)
    window = SpectralWindow(0.5, count + 0.5, count=count)
    _, ret = transport(loop.family(), window)
    assert ret.sign == expected
    assert ret.sign == predicted_sign("odd", count)


def test_spin_sign_agrees_with_independent_product_oracle():
    base = SymmetricOperator(np.diag(np.arange(1.0, 9.0)))
    loop = make_spin_loop(7, base, turns=1)
    assert wilson_sign(loop.family(), 0.5, 1.5, n_samples=4096) == -1


def test_sign_invariant_under_sampling_refinement():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    window = SpectralWindow(0.5, 1.5, count=1)
    _, a = transport(loop.family(), window, initial_samples=16)
    _, b = transport(loop.family(), window, initial_samples=64)
    assert a.sign == b.sign
    assert abs(abs(a.determinant) - abs(b.determinant)) < 0.2


def test_sign_invariant_under_rebasing():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    window = SpectralWindow(0.5, 1.5, count=1)
    _, a = transport(loop.family(), window)
    fam = loop.family()
    _, b = transport(OperatorFamily(domain="circle", sampler=lambda t: fam(t + 0.3)), window)
    assert a.sign == b.sign


def test_transport_raises_when_window_leaks():
    # eigenvalue 1 + 2 sin^2(pi t) exits through the top of the window
    fam = OperatorFamily(
        domain="circle",
        sampler=lambda t: np.diag([1.0 + 2.0 * np.sin(np.pi * t) ** 2, 5.0]),
    )
    with pytest.raises(TransportError) as exc:
        transport(fam, SpectralWindow(0.5, 1.5, count=1))
    assert 0.0 <= exc.value.parameter <= 1.0


def rotating_line(turns, leaks=()):
    """diag(1, 2) turned by 2 pi turns t, and diag(1, 1.2) at the ``leaks``."""
    def sampler(t):
        if t in leaks:
            return np.diag([1.0, 1.2])
        c, s = np.cos(2.0 * np.pi * turns * t), np.sin(2.0 * np.pi * turns * t)
        r = np.array([[c, -s], [s, c]])
        return r @ np.diag([1.0, 2.0]) @ r.T

    return OperatorFamily(domain="circle", sampler=sampler)


# (family, initial_samples, first failing t, its window error).  In the
# first, of the 16 initial samples t = 3/16 is the first past t = 1/6,
# where 1 + 2 sin^2(pi t) leaves (0.5, 1.5).  In the second, every
# interval is split on the first two passes, and the third samples
# 1/8, 3/8, 5/8, 7/8 in that order: the leak at 3/8 comes first
LEAKS = [
    (OperatorFamily(domain="circle",
                    sampler=lambda t: np.diag([1.0 + 2.0 * np.sin(np.pi * t) ** 2, 5.0])),
     16, 0.1875, "window holds 0 eigenvalues, expected 1"),
    (rotating_line(1.5, leaks=(0.375, 0.625)), 2, 0.375, "window holds 2 eigenvalues, expected 1"),
]


@pytest.mark.parametrize("family, initial_samples, t, message", LEAKS,
                         ids=["initial-sample", "refined-sample"])
def test_window_leak_names_the_first_failing_sample(family, initial_samples, t, message):
    with pytest.raises(TransportError) as exc:
        transport(family, SpectralWindow(0.5, 1.5, count=1), initial_samples=initial_samples)
    assert exc.value.parameter == t
    assert str(exc.value) == f"at t={t:g}: {message}"


@pytest.mark.parametrize("bad", [np.diag([1.0, np.nan]), np.array([[1.0, np.inf], [np.inf, 2.0]])],
                         ids=["nan", "inf"])
def test_transport_refuses_non_finite_samples(bad):
    # finite and closed at t = 0 and 1, non-finite everywhere between
    fam = OperatorFamily(domain="circle",
                         sampler=lambda t: np.diag([1.0, 2.0]) if t in (0.0, 1.0) else bad)
    with pytest.raises(TransportError, match=r"^at t=0\.0625: non-finite") as exc:
        transport(fam, SpectralWindow(0.5, 1.5, count=1))
    assert exc.value.parameter == 0.0625
    with pytest.raises(TransportError, match=r"^at t=0: non-finite") as exc:
        transport(OperatorFamily(domain="circle", sampler=lambda t: bad),
                  SpectralWindow(0.5, 1.5, count=1))
    assert exc.value.parameter == 0.0


def test_transport_refuses_a_nearly_rank_deficient_step(monkeypatch):
    # a step at projector distance sin(theta) leaves the overlap singular
    # values at least cos(theta); below MAX_PROJECTOR_STEP = 1/2 that is
    # at least sqrt(3)/2, so the 0.1 refusal cannot fire at the shipped
    # step.  At 1.01 a quarter turn of the window line passes the distance
    # check, and its overlap cos(pi/2) is zero
    monkeypatch.setattr(holonomy, "MAX_PROJECTOR_STEP", 1.01)
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    with pytest.raises(TransportError, match="dragged frame nearly rank-deficient"):
        transport(boundless(loop.family()), SpectralWindow(0.5, 1.5, count=1), initial_samples=2)


def quarter_turn_family():
    # a quarter turn carries diag(1, 2) to diag(2, 1), so t = 1 does not
    # close up; calling the family wraps t = 1 to 0 and would hide that
    def sampler(t):
        c, s = np.cos(0.5 * np.pi * t), np.sin(0.5 * np.pi * t)
        r = np.array([[c, -s], [s, c]])
        return r @ np.diag([1.0, 2.0]) @ r.T

    return OperatorFamily(domain="circle", sampler=sampler)


def test_transport_rejects_non_closed_sampler_quickly():
    start = time.perf_counter()
    with pytest.raises(TransportError, match="not closed"):
        transport(quarter_turn_family(), SpectralWindow(0.5, 1.5, count=1))
    assert time.perf_counter() - start < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closure_check_takes_its_norm_after_scaling():
    # the samples at t = 0 and t = 1 differ by 1e200, whose square overflows
    loop = OperatorFamily(domain="circle", sampler=lambda t: np.diag([1e200, (2.0 + t) * 1e200]))
    with pytest.raises(TransportError, match="not closed"):
        transport(loop, SpectralWindow(5e199, 1.5e200, count=1))


def test_transport_refuses_a_jump_between_adjacent_floats_quickly():
    # the window line turns a quarter at t = 0.3 and back at t = 0.6: no
    # split of the interval around either jump ever passes the step check
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    fam = OperatorFamily(domain="circle", sampler=lambda t: np.diag([1.0, 2.0])
                         if not 0.3 <= t < 0.6 else swap @ np.diag([1.0, 2.0]) @ swap)
    start = time.perf_counter()
    with pytest.raises(TransportError, match="jumps by at least 0.5 between adjacent floats") as exc:
        transport(fam, SpectralWindow(0.5, 1.5, count=1))
    assert time.perf_counter() - start < 1.0
    jump = min((0.3, 0.6), key=lambda t: abs(t - exc.value.parameter))
    assert np.nextafter(exc.value.parameter, 1.0) == jump or exc.value.parameter == jump


def test_transport_refuses_too_many_initial_samples_before_sampling():
    calls = []

    def sampler(t):
        calls.append(t)
        return np.diag([1.0, 2.0])

    with pytest.raises(ValueError, match="initial_samples"):
        transport(OperatorFamily(domain="circle", sampler=sampler),
                  SpectralWindow(0.5, 1.5, count=1), initial_samples=100_001)
    assert calls == []


def test_predicted_sign_table():
    assert predicted_sign("odd", 1) == -1
    assert predicted_sign("odd", 2) == 1
    assert predicted_sign("odd", 3) == -1
    assert predicted_sign("even", 1) == 1
    assert predicted_sign("even", 7) == 1
    with pytest.raises(ValueError):
        predicted_sign("sideways", 1)


def test_concatenation_parity_algebra():
    odd_a = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    odd_b = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    even_c = make_fullturn_loop(np.diag([1.0, 2.0])).family()

    both = concatenate_loops(odd_a, odd_b)
    assert both.parity == "even"
    mixed = concatenate_loops(odd_a, even_c)
    assert mixed.parity == "odd"

    window = SpectralWindow(0.5, 1.5, count=1)
    assert transport(both, window)[1].sign == 1
    assert transport(mixed, window)[1].sign == -1


def test_concatenation_rejects_mismatched_basepoints():
    a = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    b = make_halfturn_loop(np.diag([3.0, 4.0])).family()
    with pytest.raises(ValueError):
        concatenate_loops(a, b)


def test_concatenation_rejects_non_closed_sampler():
    quarter = quarter_turn_family()
    with pytest.raises(ValueError, match="not closed"):
        concatenate_loops(quarter, quarter)


def test_stability_identical_loops():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    window = SpectralWindow(0.5, 1.5, count=1)
    report = sign_stability(loop.family(), loop.family(), window)
    assert report.max_projector_distance <= 1e-14
    assert report.criterion_met
    assert report.signs_equal
    assert report.sign_a == report.sign_b == -1


def test_stability_small_perturbation_keeps_sign():
    d0 = np.diag([1.0, 2.0])
    loop = make_halfturn_loop(d0)
    window = SpectralWindow(0.5, 1.5, count=1)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((2, 2))
    noise = 0.05 * (noise + noise.T) / np.linalg.norm(noise + noise.T, 2)
    shaken = OperatorFamily(
        domain="circle",
        sampler=lambda t, _f=loop.family(): _f(t) + noise,
    )
    report = sign_stability(loop.family(), shaken, window)
    assert report.criterion_met
    assert report.signs_equal


def test_stability_reports_distant_loops_without_asserting():
    loop = make_halfturn_loop(np.diag([1.0, 2.0]))
    other = OperatorFamily(domain="circle",
                           sampler=lambda t: np.diag([2.0, 1.0]))
    window = SpectralWindow(0.5, 1.5, count=1)
    report = sign_stability(loop.family(), other, window)
    assert not report.criterion_met
    assert report.max_projector_distance >= 0.99
    # far-apart loops may disagree; the report records both without raising
    assert report.sign_a == -1
    assert report.sign_b == 1
    assert report.signs_equal is False


def leaking_loop(start, stop, leaked):
    """diag(1, 5) on the circle, and diag(*leaked) for start <= t < stop."""
    return OperatorFamily(domain="circle",
                          sampler=lambda t: np.diag(leaked if start <= t < stop else [1.0, 5.0]))


# (where loop_a leaks, where loop_b leaks, expected error); loop_a's
# eigenvalue leaves the window (0.5, 1.5), loop_b's second one enters it
STABILITY_LEAKS = [
    (0.5, 0.25, "at t=0.25: window holds 2 eigenvalues, expected 1"),
    (0.25, 0.5, "at t=0.25: window holds 0 eigenvalues, expected 1"),
    (0.25, 0.25, "at t=0.25: window holds 0 eigenvalues, expected 1"),
]


@pytest.mark.parametrize("start_a, start_b, message", STABILITY_LEAKS,
                         ids=["b-first", "a-first", "equal-t"])
def test_stability_reports_the_first_leak_on_the_grid(start_a, start_b, message):
    loop_a = leaking_loop(start_a, start_a + 0.25, [3.0, 5.0])
    loop_b = leaking_loop(start_b, start_b + 0.25, [1.0, 1.2])
    with pytest.raises(TransportError) as exc:
        sign_stability(loop_a, loop_b, SpectralWindow(0.5, 1.5, count=1))
    assert str(exc.value) == message
    assert exc.value.parameter == 0.25


def test_stability_factors_each_rotation_basepoint_once(monkeypatch):
    factored, eigh = [], np.linalg.eigh

    def counted(a):
        factored.append(a.shape)
        return eigh(a)

    loop_a, loop_b = (make_block_rotation_loop(rotated_base(64), turns).family()
                      for turns in (1.5, 0.5))
    monkeypatch.setattr(np.linalg, "eigh", counted)
    sign_stability(loop_a, loop_b, SpectralWindow(0.5, 2.5, count=2))
    assert factored == [(64, 64), (64, 64)]


def test_stability_samples_a_plain_loop_once_per_grid_point():
    loop = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    sampled = []

    def sampler(t):
        sampled.append(t)
        return loop(t) + np.array([[0.05, 0.02], [0.02, -0.05]])

    report = sign_stability(loop, OperatorFamily(domain="circle", sampler=sampler),
                            SpectralWindow(0.5, 1.5, count=1))
    # t = 0, the closure check's t = 1 and the 256 grid points past t = 0,
    # which also carry the sign
    assert len(sampled) == 258
    assert report.criterion_met and report.sign_b == -1


def test_stability_refuses_a_second_loop_that_is_not_closed():
    loop = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    with pytest.raises(TransportError, match="not closed") as exc:
        sign_stability(loop, quarter_turn_family(), SpectralWindow(0.5, 1.5, count=1))
    assert exc.value.parameter == 1.0


def stability_pairs():
    """(loop_a, loop_b, window count) of every loop kind sign_stability reads signs from."""
    half = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    g = np.random.default_rng(0).standard_normal((2, 2))
    g = 0.5 * (g + g.T)
    g *= 0.25 / np.linalg.norm(g, 2)  # criterion 6's perturbation of norm gap/4
    perturbed = _stacked_loop(lambda ts: half.stack(ts) + g, "odd")
    full = make_fullturn_loop(np.diag([1.0, 2.0])).family()
    block = [make_block_rotation_loop(rotated_base(8), turns).family() for turns in (1.5, 0.5)]
    spin, commuting = spin_loop(7).family(), make_commuting_loop()
    return {
        "block-rotation": (*block, 1),
        "spin-m7": (spin, spin, 2),
        "commuting": (commuting, commuting, 1),
        "concatenated": (concatenate_loops(half, half), concatenate_loops(half, full), 1),
        "perturbed": (half, perturbed, 1),
    }


@pytest.mark.parametrize("name", ["block-rotation", "spin-m7", "commuting", "concatenated",
                                  "perturbed"])
def test_stability_signs_are_the_transported_signs(name):
    loop_a, loop_b, count = stability_pairs()[name]
    window = SpectralWindow(0.5, count + 0.5, count=count)
    report = sign_stability(loop_a, loop_b, window)
    assert report.sign_a == transport(loop_a, window)[1].sign
    assert report.sign_b == transport(loop_b, window)[1].sign


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("size", [0.25, 0.45])
def test_a_perturbed_loop_is_one_loop_sampled_or_stacked(n, size):
    # the perturbed loop_a(t) + g as a plain sampler, one t at a time, and
    # as criterion 6 stacks it: the same samples, so the same report
    loop_a = make_halfturn_loop(rotated_base(n)).family()
    g = np.random.default_rng(n).standard_normal((n, n))
    g = 0.5 * (g + g.T)
    g *= size / np.linalg.norm(g, 2)  # gap/4, and close to the window's edges
    plain = OperatorFamily(domain="circle", sampler=lambda t: loop_a(t) + g, parity="odd")
    stacked = _stacked_loop(lambda ts: loop_a.stack(ts) + g, "odd")
    window = SpectralWindow(0.5, 1.5, count=1)
    sampled, batched = (sign_stability(loop_a, loop_b, window) for loop_b in (plain, stacked))
    assert sampled == batched
    assert sampled.max_projector_distance.hex() == batched.max_projector_distance.hex()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_exponential_of_a_zero_stack_is_the_identity(k):
    # k = 1 windows give A = 0, and h = 0 loops t * 0 * A, whose entries
    # are -0.0 where A is negative
    a = np.random.default_rng(k).standard_normal((k, k))
    for m in (np.zeros((5, k, k)), (np.pi * 0) * np.linspace(0.0, 1.0, 5)[:, None, None] * a,
              np.full((1, k, k), -0.0)):
        e = holonomy._expm(m)
        assert e.dtype == np.float64 and e.shape == m.shape and e.flags.c_contiguous
        assert (e == np.eye(k)).all() and not np.signbit(e).any()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("angle", [1e-9, 0.3, 0.5 * np.pi - 1e-9])
def test_frame_distance_matches_projector_distance(k, dtype, angle):
    rng = np.random.default_rng(k)
    n = 8
    g = rng.standard_normal((n, n))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    # principal angles angle * j / k, j = 1..k, in a random gauge
    angles = angle * np.arange(1, k + 1) / k
    f = q[:, :k]
    rotated = q[:, :k] * np.cos(angles) + q[:, k:2 * k] * np.sin(angles)
    gauge, _ = np.linalg.qr(rng.standard_normal((k, k)))
    rotated = rotated @ gauge
    reference = projector_distance(f @ f.conj().T, rotated @ rotated.conj().T)
    assert abs(holonomy._frame_distance(f, rotated) - reference) <= 1e-12
    assert abs(reference - np.sin(angle)) <= 1e-12


def rotated_base(n, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    base = q @ np.diag(np.arange(1.0, n + 1.0)) @ q.T
    return 0.5 * (base + base.T)


# (turns, count, initial_samples); chosen so that no checked distance sits
# at MAX_PROJECTOR_STEP exactly (for k = 1 the step is |sin| of the
# rotation angle, so e.g. turns 0.5 from 3 samples halves onto sin(pi/6))
GRID_CASES = [(0.5, 1, 4), (1.0, 2, 3), (1.5, 2, 5), (1.5, 1, 7),
              (2.0, 2, 9), (2.5, 3, 16), (3.0, 1, 5), (3.0, 3, 7)]


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("turns,count,initial_samples", GRID_CASES)
def test_refined_grid_matches_all_pairs_reference(n, turns, count, initial_samples):
    family = boundless(make_block_rotation_loop(rotated_base(n), turns).family())
    window = SpectralWindow(0.5, count + 0.5, count=count)
    path, _ = transport(family, window, initial_samples=initial_samples)
    expected = refined_grid(family, window.lower, window.upper, initial_samples)
    np.testing.assert_array_equal(path.parameters, expected)


# ((turns of the first half, of the second), count, initial_samples): the
# fast half splits where the slow one does not, so passes split only some
# of the intervals they check; every checked distance is at least 7e-3
# away from MAX_PROJECTOR_STEP
PARTLY_SPLIT_CASES = [((2.0, 0.5), 2, 6), ((2.0, 0.5), 1, 7), ((3.0, 1.0), 1, 5),
                      ((2.5, 0.5), 3, 7), ((0.5, 2.0), 3, 9)]


def block_rotations(n, turns):
    """Block-rotation loop of rotated_base(n), without its projector-speed bound.

    A pair of turns concatenates two.
    """
    base = rotated_base(n)
    if isinstance(turns, tuple):
        return concatenate_loops(*(make_block_rotation_loop(base, t).family() for t in turns))
    return boundless(make_block_rotation_loop(base, turns).family())


@pytest.mark.parametrize("turns,count,initial_samples", GRID_CASES + PARTLY_SPLIT_CASES)
def test_each_interval_is_checked_once(monkeypatch, turns, count, initial_samples):
    pairs = []
    distance = holonomy._frame_distance

    def counted(f, g):
        pairs.append(f.shape[0])  # a pass checks a (pairs, n, k) stack at once
        return distance(f, g)

    monkeypatch.setattr(holonomy, "_frame_distance", counted)
    family = block_rotations(8, turns)
    window = SpectralWindow(0.5, count + 0.5, count=count)
    path, _ = transport(family, window, initial_samples=initial_samples)
    # initial intervals plus two per split, and each split adds one sample
    assert sum(pairs) == 2 * path.n_samples - initial_samples - 2


@pytest.mark.parametrize("n", [64, 256])
def test_transport_stacks_stay_within_the_byte_budget(monkeypatch, n):
    stacks, validated, factored = [], [], []
    validate, eigh = holonomy._validated, np.linalg.eigh
    stack, sample = EquivariantLoopModel.stack, EquivariantLoopModel._sample

    def stacker(self, ts):
        stacks.append(np.asarray(ts).tolist())
        return stack(self, ts)

    def sampler(self, t):  # a single sample, recorded as a one-element stack
        stacks.append([t])
        return sample(self, t)

    def recorded(a, factor):
        validated.append(a.shape)
        return validate(a, factor)

    def counted(a):
        factored.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(EquivariantLoopModel, "stack", stacker)
    monkeypatch.setattr(EquivariantLoopModel, "_sample", sampler)
    monkeypatch.setattr(holonomy, "_validated", recorded)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    family = make_block_rotation_loop(rotated_base(n), 1.0).family()
    window = SpectralWindow(0.5, 1.5, count=1)
    # the rotation route samples t = 0 and t = 1 only, and factors t = 0 once
    path, ret = transport(family, window, initial_samples=40)
    assert ret.certified and path.n_samples == 41
    assert stacks == [[0.0], [1.0]] and validated == factored == [(n, n)]
    # without the model every sample is stacked: past the closure check's
    # t = 0 and 1, 40 initial samples make a first pass of 1.3 MB at n = 64,
    # cut into stacks of at most STACK_BYTES
    stacks.clear()
    path, ret = transport(boundless(family), window, initial_samples=40)
    sizes = [len(ts) for ts in stacks[2:]]
    assert not ret.certified and sum(sizes) == path.n_samples - 1
    assert max(m * n * n * 8 for m in sizes) <= STACK_BYTES
    assert max(sizes) == (STACK_BYTES // (n * n * 8))


def test_a_rotation_transport_applies_the_window_rule_once(monkeypatch):
    spectra = []
    bounds = SpectralWindow._bounds

    def counted(self, values, *args, **kwargs):
        spectra.append(np.shape(values))
        return bounds(self, values, *args, **kwargs)

    monkeypatch.setattr(SpectralWindow, "_bounds", counted)
    family = make_block_rotation_loop(rotated_base(4), 1.5).family()
    _, ret = transport(family, SpectralWindow(1.5, 3.5, count=2))
    # the basepoint's spectrum, which every sample shares
    assert ret.certified and spectra == [(1, 4)]


def complex_loop(n=6, turns=1.5, seed=2):
    """A block-rotation loop conjugated by a fixed complex unitary V.

    Complex Hermitian at every t, with the real loop's holonomy: a
    complex loop in general has a U(k) phase for holonomy, whose
    determinant is not real.
    """
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    real = block_rotations(n, turns)
    return OperatorFamily(domain="circle", sampler=lambda t: v @ real(t) @ v.conj().T)


# (loop, count, initial_samples); block rotations are (n, turns)
POLAR_CASES = [((2, 0.5), 1, 4), ((2, 1.5), 1, 7), ((8, 1.0), 2, 3), ((8, 2.5), 3, 16),
               ((64, 3.0), 1, 5), ((64, 1.5), 2, 5), ((64, 3.0), 3, 7),
               ("spin", 1, 16), ("spin", 2, 16), ("spin", 3, 16),
               ("complex", 1, 16), ("complex", 2, 16), ("complex", 3, 16)]


@pytest.mark.parametrize("loop, count, initial_samples", POLAR_CASES,
                         ids=lambda v: "n%d-turns%g" % v if isinstance(v, tuple) else None)
def test_polar_chain_matches_the_sequential_oracle(loop, count, initial_samples):
    if loop == "spin":
        family = make_spin_loop(7, SymmetricOperator(np.diag(np.arange(1.0, 9.0))), turns=1).family()
    elif loop == "complex":
        family = complex_loop()
    else:
        family = block_rotations(*loop)
    window = SpectralWindow(0.5, count + 0.5, count=count)
    path, ret = transport(family, window, initial_samples=initial_samples)
    np.testing.assert_array_equal(
        path.parameters, refined_grid(family, window.lower, window.upper, initial_samples))
    frames = sequential_polar_frames(family, window.lower, window.upper, path.parameters)
    assert len(frames) == path.n_samples
    assert max(float(np.abs(f - g).max()) for f, g in zip(path.frames, frames)) <= 1e-12
    closing = frames[0].conj().T @ frames[-1]
    assert float(np.abs(ret.matrix - closing).max()) <= 1e-12
    assert ret.sign == (1 if np.linalg.det(closing).real > 0 else -1)


def phase_loop():
    """Q(t) diag(1..6) Q(t)^H for Q(t) = V diag(exp(2 pi i w t)) V^H.

    A complex loop whose window holonomy is a U(k) phase: its return
    determinant is not real, so no orientation sign exists.
    """
    rng = np.random.default_rng(2)
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    w = np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0])
    d0 = np.diag(np.arange(1.0, 7.0))

    def sampler(t):
        q = v @ np.diag(np.exp(2j * np.pi * w * t)) @ v.conj().T
        return q @ d0 @ q.conj().T

    return OperatorFamily(domain="circle", sampler=sampler)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_transport_refuses_a_non_real_holonomy_phase(count):
    with pytest.raises(TransportError, match="determinant .* is not real.* no orientation sign"):
        transport(phase_loop(), SpectralWindow(0.5, count + 0.5, count=count))


def spin_loop(m, turns=1):
    n = 16 if m == 8 else 8
    return make_spin_loop(m, SymmetricOperator(np.diag(np.arange(1.0, n + 1.0))), turns=turns)


@pytest.mark.parametrize("make", [
    lambda: make_block_rotation_loop(rotated_base(2), 0.5),
    lambda: make_block_rotation_loop(rotated_base(8), 1.5),
    lambda: make_block_rotation_loop(rotated_base(8), 3.0),
    lambda: spin_loop(6), lambda: spin_loop(7), lambda: spin_loop(8), lambda: spin_loop(7, 2),
], ids=["rot-n2-0.5", "rot-n8-1.5", "rot-n8-3", "spin-m6", "spin-m7", "spin-m8", "spin-m7-x2"])
def test_rotation_path_is_the_exponential_of_its_generator(make):
    loop = make()
    omega = loop.generator(np.eye(loop.dim))
    assert float(np.abs(omega + omega.T).max()) <= 1e-12
    ts = np.linspace(0.0, 1.0, 9)
    d0 = loop.base.matrix
    for t, d in zip(ts, loop.family().stack(ts)):
        r = skew_expm(omega, t)
        assert float(np.abs(d - r @ d0 @ r.T).max()) <= 1e-12 * float(np.abs(d0).max())


def polar_limit(family, window, intervals=4096):
    """The sequential polar chain's return matrix on ``intervals`` intervals, extrapolated to step 0.

    The chain's return matrix M(N) on N uniform intervals converges to
    the holonomy at O(N^-2), so (4 M(N) - M(N / 2)) / 3 cancels the
    leading term: M(4096) alone is off by up to 4e-5 on the loops here.
    """
    def closing(n):
        frames = sequential_polar_frames(family, window.lower, window.upper,
                                         np.linspace(0.0, 1.0, n + 1))
        return frames[0].T @ frames[-1]

    return (4.0 * closing(intervals) - closing(intervals // 2)) / 3.0


def check_closed_form(model, window, ret):
    """The return matrix is (-1)^h exp(-pi h A) and, for k > 1 at n <= 8, the polar chain's limit.

    A = V^T K V for V the window columns of eigh at t = 0 and K the
    dense structure.  For k = 1, A = 0; the larger loops cost seconds
    of per-sample eigh on the polar grids.
    """
    values, vectors = np.linalg.eigh(model.family()(0.0))
    v = vectors[:, (values > window.lower) & (values < window.upper)]
    h = model.half_turns
    exact = (-1) ** h * skew_expm(np.pi * h * (v.T @ model.structure @ v), -1.0)
    assert float(np.abs(ret.matrix - exact).max()) <= 1e-12
    if window.count > 1 and model.dim <= 8:
        assert float(np.abs(ret.matrix - polar_limit(model.family(), window)).max()) <= 1e-6
    assert ret.sign == predicted_sign(model.parity, window.count)


# (loop, count, initial_samples) on the certified route
CERTIFIED_CASES = [(lambda: make_block_rotation_loop(rotated_base(8), 2.5), 3, 16),
                   (lambda: make_block_rotation_loop(rotated_base(8), 3.0), 1, 5),
                   (lambda: make_block_rotation_loop(rotated_base(64), 1.5), 2, 3),
                   (lambda: make_block_rotation_loop(np.diag([1.0, 2.0]), 7.0), 1, 6),
                   (lambda: spin_loop(7), 1, 16), (lambda: spin_loop(7), 3, 16),
                   (lambda: spin_loop(8, 2), 2, 3)]


@pytest.mark.parametrize("make, count, initial_samples", CERTIFIED_CASES)
def test_certified_steps_and_midpoints_stay_below_the_step(make, count, initial_samples):
    model = make()
    family = model.family()
    window = SpectralWindow(0.5, count + 0.5, count=count)
    path, ret = transport(family, window, initial_samples=initial_samples)
    assert ret.certified
    ts = path.parameters
    np.testing.assert_array_equal(ts, np.linspace(0.0, 1.0, ts.size))
    # projectors by the independent eigenvector route, at the grid and between
    ends = [spectral_projector_eig(family(t), window) for t in ts]
    mids = [spectral_projector_eig(family(t), window) for t in 0.5 * (ts[:-1] + ts[1:])]
    for a, mid, b in zip(ends, mids, ends[1:]):
        for p, q in ((a, b), (a, mid), (mid, b)):
            assert projector_distance(p, q) < holonomy.MAX_PROJECTOR_STEP
    # each closed-form frame spans the window of its sample
    for f, p in zip(path.frames, ends):
        assert projector_distance(f @ f.T, p) <= 1e-12
    check_closed_form(model, window, ret)


# the 1.5-turn reproducer, and n = 2 cases whose refined grids halve onto
# exact ties at MAX_PROJECTOR_STEP: (base, turns, initial_samples)
ALIASING_CASES = [([1.0, 2.0, 3.0, 4.0], 1.5, 3), ([1.0, 2.0], 7.0, 6), ([1.0, 2.0], 2.5, 3)]


@pytest.mark.parametrize("values, turns, initial_samples", ALIASING_CASES)
def test_certified_transport_gives_the_parity_sign(values, turns, initial_samples):
    loop = make_block_rotation_loop(np.diag(values), turns)
    _, ret = transport(loop.family(), SpectralWindow(0.5, 1.5, count=1),
                       initial_samples=initial_samples)
    assert ret.certified
    assert ret.sign == predicted_sign(loop.parity, 1)


def test_bound_free_families_are_not_certified():
    window = SpectralWindow(0.5, 1.5, count=1)
    odd = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    assert transport(odd, window)[1].certified
    assert not transport(boundless(odd), window)[1].certified
    assert not transport(concatenate_loops(odd, odd), window)[1].certified


@pytest.mark.parametrize("speed, message", [
    (1e6, "needs more than 100000 intervals"),
    (np.nan, "needs more than 100000 intervals"),
])
def test_transport_refuses_a_wrong_projector_speed(monkeypatch, speed, message):
    monkeypatch.setattr(EquivariantLoopModel, "_projector_speed", lambda self, frame: speed)
    loop = make_block_rotation_loop(np.diag([1.0, 2.0]), 1.5)
    with pytest.raises(TransportError, match=message) as exc:
        transport(loop.family(), SpectralWindow(0.5, 1.5, count=1), initial_samples=4)
    assert exc.value.parameter is None


def test_a_rotation_loop_cannot_pair_a_path_with_another_loops_generator():
    base = SymmetricOperator(np.diag([1.0, 2.0]))
    # an 8.5-turn rotations callable with a half-turn generator used to be
    # accepted, and its transport certified +1 from 18 samples
    with pytest.raises(TypeError):
        EquivariantLoopModel(base=base, rotations=lambda ts: None, generator=lambda f: f)
    loop = make_block_rotation_loop(base, 8.5)
    path, ret = transport(loop.family(), SpectralWindow(0.5, 1.5, count=1), initial_samples=17)
    # speed 2 pi 8.5 gives floor(17 pi / MAX_PROJECTOR_STEP) + 1 = 107 intervals
    assert ret.certified and ret.sign == -1 and path.n_samples == 108


def oracle_intervals(loop, window, initial_samples):
    """The certified grid's interval count, from the basepoint frame of eigh.

    The projector speed ||Omega F0 - F0 (F0^T Omega F0)|| is taken with
    the loop's generator on the window columns of eigh at t = 0.
    """
    values, vectors = np.linalg.eigh(loop.family()(0.0))
    f0 = vectors[:, (values > window.lower) & (values < window.upper)]
    moved = loop.generator(f0)
    speed = np.linalg.norm(moved - f0 @ (f0.T @ moved), 2)
    return max(initial_samples, int(np.floor(speed / holonomy.MAX_PROJECTOR_STEP)) + 1)


# (loop, count, initial_samples) on the closed-form route
ROTATED_CASES = [((2, 0.5), 1, 16), ((2, 4.0), 1, 3), ((8, 1.5), 2, 16), ((8, 3.0), 3, 5),
                 ((64, 0.5), 1, 16), ((64, 2.5), 3, 7), ((64, 4.0), 2, 16), ((256, 1.0), 1, 16),
                 ((256, 2.0), 3, 4)]
ROTATED_CASES += [(("spin", m, turns), count, 16)
                  for m in (6, 7, 8) for turns in (1, 2) for count in (1, 3)]


@pytest.mark.parametrize("loop, count, initial_samples", ROTATED_CASES,
                         ids=lambda v: ("n%d-turns%g" % v if len(v) == 2 else "spin-m%d-x%d" % v[1:])
                         if isinstance(v, tuple) else None)
def test_rotated_eigenbases_match_the_per_sample_eigh_oracle(loop, count, initial_samples):
    model = spin_loop(*loop[1:]) if loop[0] == "spin" else \
        make_block_rotation_loop(rotated_base(loop[0]), loop[1])
    family = model.family()
    window = SpectralWindow(0.5, count + 0.5, count=count)
    path, ret = transport(family, window, initial_samples=initial_samples)
    assert ret.certified
    intervals = oracle_intervals(model, window, initial_samples)
    assert path.parameters.tobytes() == np.linspace(0.0, 1.0, intervals + 1).tobytes()
    check_closed_form(model, window, ret)


def _offset(model):
    # samples from t = 1/2 on are taken 1e-3 later than rho(t) carries the
    # basepoint's eigenvectors
    return lambda ts: model.stack(np.where(ts >= 0.5, ts + 1e-3, ts))


def _non_finite(model):
    def stacker(ts):
        samples = model.stack(ts)
        samples[ts >= 0.25, 3, 3] = np.nan
        return samples

    return stacker


@pytest.mark.parametrize("make", [_offset, _non_finite], ids=["offset", "non-finite"])
def test_a_rotation_family_refuses_another_stacker(make):
    # transport certifies a rotation loop from its model and samples no
    # stacker past t = 0, so a stacker other than the model's is refused
    model = make_block_rotation_loop(rotated_base(8), 1.5)
    loop, stacker = model.family(), make(model)
    with pytest.raises(ValueError, match="stacker"):
        dataclasses.replace(loop, stacker=stacker)
    # without the model, the same samples are factored one by one
    window = SpectralWindow(0.5, 1.5, count=1)
    samples = dataclasses.replace(loop, stacker=stacker, equivariant=None)
    if make is _offset:  # a loop that jumps a little at t = 1/2
        assert not transport(samples, window, initial_samples=32)[1].certified
    else:
        with pytest.raises(TransportError, match=r"^at t=0\.25: non-finite matrix entries") as exc:
            transport(samples, window, initial_samples=32)
        assert exc.value.parameter == 0.25
    np.testing.assert_array_equal(transport(loop, window, initial_samples=32)[0].parameters,
                                  np.arange(33) / 32)


def test_rotated_samples_certify_the_window_count():
    # the eigenvalue 1e8 admits residuals far larger than ENDPOINT_MARGIN
    # = 1e-9.  A diagonal base is factored with residual 0, so an endpoint
    # 5e-9 above the eigenvalue 1 is certified
    values = np.array([1.0, 2.0, 3.0, 1e8])
    tight = SpectralWindow(0.5, 1.0 + 5e-9, count=1)
    _, ret = transport(make_block_rotation_loop(np.diag(values), 1.5).family(), tight)
    assert ret.certified and ret.sign == -1
    # rotated, the base's measured residual exceeds that clearance: refused at t = 0
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    model = make_block_rotation_loop((q * values) @ q.T, 1.5)
    _, _, residual = spectral._validated(model.family()(0.0), np.linalg.eigh)
    assert 1e8 * residual > 5e-9
    with pytest.raises(TransportError, match="window count is not certified") as exc:
        transport(model.family(), tight)
    assert exc.value.parameter == 0.0
    # an endpoint clear of the residual is accepted
    _, ret = transport(model.family(), SpectralWindow(0.5, 1.5, count=1))
    assert ret.certified and ret.sign == -1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_spectrum_near_the_float_limit_certifies_without_overflow():
    # every distance from -1.2e308 to a positive endpoint is beyond the
    # largest float, so the window rule and the clearance see +inf
    loop = make_halfturn_loop(np.diag([1.2e308, -1.2e308]))
    _, ret = transport(loop.family(), SpectralWindow(0.6e308, 1.5e308, count=1))
    assert ret.certified and ret.sign == -1
