"""Acceptance experiments with pinned tolerances and seeds.

Every numbered criterion below is an executable experiment.  The same
functions back the test suite and the command line reproduction table,
so a green test run and a clean `eigenlasso reproduce-all` are the same
statement.  Tolerances live in PINNED and nowhere else; loosening one
is a visible diff, not a silent edit.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .clifford import EPSILON_BY_DIMENSION, build_clifford, find_structure_map, lift_rotation
from .models import (
    OperatorFamily,
    SymmetricOperator,
    _stack_chunks,
    _stacked_loop,
    make_circle_dirac,
    make_fullturn_loop,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from .spectral import (
    SpectralWindow,
    minmax_check,
    projector_distance,
    rayleigh_distance_check,
    spectral_close,
    spectral_projector_contour,
    spectral_projector_eig,
    verify_dirac_properties,
)
from .holonomy import concatenate_loops, predicted_sign, sign_stability, transport
from .lasso import answer, make_orbit_disc

__all__ = [
    "PINNED",
    "CriterionResult",
    "CRITERIA",
    "run_one",
    "run_all",
    "make_conical_boundary",
    "make_commuting_loop",
]

PINNED: Dict[str, float] = {
    "clifford_residual": 1e-12,
    "clifford_budget_s": 10.0,
    "circle_match": 1e-10,
    "circle_exponent_lo": 0.9,
    "circle_exponent_hi": 1.1,
    "circle_budget_s": 5.0,
    "isospectral": 1e-10,
    "isospectral_samples": 100,
    "sign_budget_s": 60.0,
    "stability_seeds": 10,
    "projector_cross": 1e-8,
    "projector_nodes": 256,
    "projector_ops": 20,
    "minmax_achievability": 1e-10,
    "minmax_subspaces": 100,
    "rayleigh_instances": 1000,
    "variational_budget_s": 30.0,
    "lasso_conical_tol": 1e-10,
    "lasso_halfturn_tol": 1e-8,
    "lasso_spin_tol": 1e-7,
    "lasso_negative_floor": 1e-3,
    "lasso_budget_s": 120.0,
}


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    runtime_s: float
    budget_s: Optional[float]
    detail: str

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f" (budget {self.budget_s:g}s)" if self.budget_s else ""
        return f"criterion {self.index:2d} {status}  {self.runtime_s:7.2f}s{budget}  {self.title}"


# ---------------------------------------------------------------------------
# shared model builders (also used by the CLI)
# ---------------------------------------------------------------------------

def make_conical_boundary() -> OperatorFamily:
    """Unit circle of reflections [[cos 2 pi t, sin 2 pi t], [sin 2 pi t, -cos 2 pi t]].

    That is the half-turn loop rho(t) diag(1, -1) rho(t)^T, with rho(t)
    the planar rotation by pi t, so its sign is certified and its parity
    is odd.  Filling it toward the zero matrix gives eigenvalues exactly
    +-r, a cone with its tip at the disc center.
    """
    return make_halfturn_loop(np.diag([1.0, -1.0])).family()


def make_commuting_loop(amplitude: float = 0.3) -> OperatorFamily:
    """Diagonal loop: all samples commute, so no degeneracy is forced."""

    def stacker(ts: np.ndarray) -> np.ndarray:
        a = 2.0 * np.pi * ts
        out = np.zeros((ts.size, 2, 2))
        out[:, 0, 0] = 1.0 + amplitude * np.sin(a)
        out[:, 1, 1] = 2.0 + amplitude * np.cos(a)
        return out

    return _stacked_loop(stacker, "even")


def _window_for_count(k: int) -> SpectralWindow:
    # diag(1, 2, ..., n) bases: (0.5, k + 0.5) holds the first k
    return SpectralWindow(0.5, k + 0.5, k)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _criterion_1(pins: Mapping) -> Tuple[bool, str]:
    tol = pins["clifford_residual"]
    worst_algebra = 0.0
    worst_lift = 0.0
    eps_failures = []
    for m in range(1, 13):
        rep = build_clifford(m)
        worst_algebra = max(worst_algebra, rep.max_anticommutation_residual(),
                            rep.max_unitarity_residual())
        eye = np.eye(rep.dim)
        for i in range(m):
            for j in range(i + 1, m):
                full_turn = lift_rotation(rep, i, j, 2.0 * np.pi)
                worst_lift = max(worst_lift, float(np.abs(full_turn + eye).max()))
        if m % 8 not in (1, 5):
            smap = find_structure_map(rep)
            expected = EPSILON_BY_DIMENSION[m % 8]
            if smap.epsilon != expected:
                eps_failures.append(f"m={m}: epsilon {smap.epsilon} != {expected}")
    ok = worst_algebra <= tol and worst_lift <= tol and not eps_failures
    detail = (f"max algebra residual {worst_algebra:.2e}, max lift defect "
              f"{worst_lift:.2e} (tol {tol:g})")
    if eps_failures:
        detail += "; " + "; ".join(eps_failures)
    return ok, detail


def _criterion_2(pins: Mapping) -> Tuple[bool, str]:
    tol = pins["circle_match"]
    worst = 0.0
    problems = []
    max_abs_by_truncation = []
    for n_max in (4, 16, 64):
        for delta in (0.0, 0.5):
            model = make_circle_dirac(n_max, delta)
            ana = np.sort(model.analytic_spectrum())
            num = np.sort(model.numerical_spectrum())
            radius = n_max - 1
            ina = ana[np.abs(ana) <= radius]
            inn = num[np.abs(num) <= radius]
            if ina.size != inn.size:
                problems.append(f"n_max={n_max} delta={delta}: count mismatch")
                continue
            worst = max(worst, float(np.abs(ina - inn).max()))
            report = verify_dirac_properties(num, m=1, radius=radius)
            if not report.symmetry_ok:
                problems.append(f"n_max={n_max} delta={delta}: symmetry defect "
                                f"{report.max_symmetry_defect:.2e}")
            lo, hi = pins["circle_exponent_lo"], pins["circle_exponent_hi"]
            if report.counting_exponent is None or not lo <= report.counting_exponent <= hi:
                problems.append(f"n_max={n_max} delta={delta}: exponent "
                                f"{report.counting_exponent}")
            if delta == 0.0:
                max_abs_by_truncation.append(report.max_abs_value)
    if not all(a < b for a, b in zip(max_abs_by_truncation, max_abs_by_truncation[1:])):
        problems.append("max |eigenvalue| failed to grow with truncation")
    ok = worst <= tol and not problems
    detail = f"max spectrum deviation {worst:.2e} (tol {tol:g})"
    if problems:
        detail += "; " + "; ".join(problems)
    return ok, detail


def _spin_base_8() -> SymmetricOperator:
    return SymmetricOperator(np.diag(np.arange(1.0, 9.0)))


def _criterion_3(pins: Mapping) -> Tuple[bool, str]:
    tol = pins["isospectral"]
    n_samples = int(pins["isospectral_samples"])
    loops = [
        ("halfturn dim 2", make_halfturn_loop(np.diag([1.0, 2.0]))),
        ("fullturn dim 4", make_fullturn_loop(np.diag([1.0, 2.0, 3.0, 4.0]))),
        ("spin m=7 dim 8", make_spin_loop(7, _spin_base_8(), turns=1)),
    ]
    worst = 0.0
    for _, loop in loops:
        family = loop.family()
        base_values = np.linalg.eigvalsh(family(0.0))
        for mats in _stack_chunks(family, np.arange(n_samples) / n_samples):
            values = np.linalg.eigvalsh(mats)
            worst = max(worst, float(np.abs(values - base_values).max()))
    ok = worst <= tol
    detail = f"max sorted-spectrum drift {worst:.2e} over {n_samples} samples (tol {tol:g})"
    return ok, detail


def _criterion_4(pins: Mapping) -> Tuple[bool, str]:
    d4 = np.diag([1.0, 2.0, 3.0, 4.0])
    loops = [
        ("halfturn", make_halfturn_loop(d4)),
        ("fullturn", make_fullturn_loop(d4)),
        ("spin m=7 x1", make_spin_loop(7, _spin_base_8(), turns=1)),
        ("spin m=7 x2", make_spin_loop(7, _spin_base_8(), turns=2)),
    ]
    failures = []
    spin_k1_sign = None
    for name, loop in loops:
        family = loop.family()
        for k in (1, 2, 3):
            w = _window_for_count(k)
            expected = predicted_sign(loop.parity, k)
            _, ret = transport(family, w, initial_samples=16)
            # the closed form against the same loop factored at every sample
            _, sampled = transport(replace(family, equivariant=None), w, initial_samples=16)
            if ret.sign != expected:
                failures.append(f"{name} k={k}: got {ret.sign}, predicted {expected}")
            if sampled.sign != ret.sign:
                failures.append(f"{name} k={k}: per-sample transport gives {sampled.sign}")
            if name == "spin m=7 x1" and k == 1:
                spin_k1_sign = ret.sign
    if spin_k1_sign != -1:
        failures.append(f"spin loop k=1 sign {spin_k1_sign} != -1")
    ok = not failures
    detail = "all 12 parity/count combinations match; per-sample transport agrees" \
        if ok else "; ".join(failures)
    return ok, detail


def _criterion_5(pins: Mapping) -> Tuple[bool, str]:
    d2 = np.diag([1.0, 2.0])
    odd = make_halfturn_loop(d2).family()
    even = make_fullturn_loop(d2).family()
    w = SpectralWindow(0.5, 1.5, 1)
    cases = [
        ("odd*odd", odd, odd, 1),
        ("odd*even", odd, even, -1),
        ("even*even", even, even, 1),
    ]
    failures = []
    for name, a, b, expected in cases:
        _, ret = transport(concatenate_loops(a, b), w)
        if ret.sign != expected:
            failures.append(f"{name}: got {ret.sign}, expected {expected}")
    ok = not failures
    detail = "concatenated signs multiply: odd*odd=+1, odd*even=-1, even*even=+1" \
        if ok else "; ".join(failures)
    return ok, detail


def _criterion_6(pins: Mapping) -> Tuple[bool, str]:
    loop_a = make_halfturn_loop(np.diag([1.0, 2.0])).family()
    w = SpectralWindow(0.5, 1.5, 1)
    gap = 1.0  # distance from the window eigenvalue to the rest of the spectrum
    failures = []
    worst_distance = 0.0
    for seed in range(int(pins["stability_seeds"])):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2))
        g = 0.5 * (g + g.T)
        g *= (gap / 4.0) / np.linalg.norm(g, 2)
        loop_b = _stacked_loop(lambda ts, _g=g: loop_a.stack(ts) + _g, "odd")
        report = sign_stability(loop_a, loop_b, w)
        worst_distance = max(worst_distance, report.max_projector_distance)
        if not report.criterion_met:
            failures.append(f"seed {seed}: distance {report.max_projector_distance:.3f} >= 1")
        elif report.sign_a != -1 or not report.signs_equal:
            failures.append(f"seed {seed}: signs {report.sign_a}/{report.sign_b}")
    ok = not failures
    detail = (f"{int(pins['stability_seeds'])} perturbations at norm gap/4; "
              f"max subspace distance {worst_distance:.3f}; sign -1 preserved")
    if failures:
        detail = "; ".join(failures)
    return ok, detail


def _criterion_7(pins: Mapping) -> Tuple[bool, str]:
    tol = pins["projector_cross"]
    nodes = int(pins["projector_nodes"])
    n_ops = int(pins["projector_ops"])
    n = 16
    w_lo, w_hi = -0.5, 0.5
    worst = 0.0
    failures = []
    ops = []
    rng = np.random.default_rng(7)
    for _ in range(n_ops):
        k = int(rng.integers(1, 4))
        inside = rng.uniform(-0.35, 0.35, size=k)
        n_below = int(rng.integers(3, 8))
        below = -rng.uniform(0.6, 3.0, size=n_below)
        above = rng.uniform(0.6, 3.0, size=n - k - n_below)
        values = np.concatenate([below, inside, above])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = q @ np.diag(values) @ q.T
        ops.append((0.5 * (d + d.T), SpectralWindow(w_lo, w_hi, k)))
    for idx, (d, w) in enumerate(ops):
        p_eig = spectral_projector_eig(d, w)
        p_contour = spectral_projector_contour(d, w, nodes=nodes)
        dist = projector_distance(p_eig, p_contour)
        worst = max(worst, dist)
        if dist > tol:
            failures.append(f"op {idx}: cross-route distance {dist:.2e}")
    # geometric convergence on the first operator
    d, w = ops[0]
    p_eig = spectral_projector_eig(d, w)
    errors = []
    for m_nodes in (16, 32, 64, 128):
        errors.append(projector_distance(p_eig, spectral_projector_contour(d, w, nodes=m_nodes)))
    for a, b in zip(errors, errors[1:]):
        if a > 1e-13 and not b <= 0.5 * a:
            failures.append(f"node doubling only improved {a:.2e} -> {b:.2e}")
    ok = not failures
    err_path = " -> ".join(f"{e:.1e}" for e in errors)
    detail = (f"max eig/contour distance {worst:.2e} over {n_ops} operators at "
              f"{nodes} nodes (tol {tol:g}); convergence {err_path}")
    if failures:
        detail += "; " + "; ".join(failures)
    return ok, detail


def _criterion_8(pins: Mapping) -> Tuple[bool, str]:
    tol = pins["minmax_achievability"]
    trials = int(pins["minmax_subspaces"])
    failures = []

    rng = np.random.default_rng(8)
    g = rng.standard_normal((10, 10))
    seeded = 0.5 * (g + g.T)
    for name, op, k in (("diag(1,2,3)", np.diag([1.0, 2.0, 3.0]), 2),
                        ("seeded 10x10", seeded, 4)):
        report = minmax_check(op, k, trials=trials, seed=80 + k, tol=tol)
        if not report.passed:
            failures.append(
                f"{name}: achievability defect {report.achievability_defect:.2e}, "
                f"{report.violations} lower-bound violations"
            )

    instances = int(pins["rayleigh_instances"])
    sweep_rng = np.random.default_rng(2026)
    violations = 0
    inadmissible = 0
    for _ in range(instances):
        n = int(sweep_rng.integers(3, 11))
        k = int(sweep_rng.integers(1, n - 1))
        gaps = sweep_rng.uniform(0.05, 1.0, size=n)
        values = np.cumsum(gaps) - gaps[0] + sweep_rng.uniform(0.0, 0.5)
        q, _ = np.linalg.qr(sweep_rng.standard_normal((n, n)))
        t_mat = q @ np.diag(values) @ q.T
        t_mat = 0.5 * (t_mat + t_mat.T)
        coeffs = sweep_rng.standard_normal(k)
        v = q[:, :k] @ (coeffs / np.linalg.norm(coeffs))
        if sweep_rng.random() < 0.5:
            w_vec = q[:, k]  # worst direction: straight at the next eigenvector
        else:
            tail = sweep_rng.standard_normal(n - k)
            w_vec = q[:, k:] @ (tail / np.linalg.norm(tail))
        gap_k = values[k] - values[k - 1]
        spread = max(values[-1] - values[k - 1], 1e-9)
        eta_sq = sweep_rng.uniform(0.0, 0.5) * gap_k / spread
        x = (v + np.sqrt(eta_sq) * w_vec) / np.sqrt(1.0 + eta_sq)
        rayleigh = float(x @ t_mat @ x)
        floor = max(rayleigh, values[k - 1])
        level = floor + 0.25 * (values[k] - floor)
        eps = float(sweep_rng.uniform(0.0, 0.1 * gap_k))
        report = rayleigh_distance_check(t_mat, k, level, eps, x)
        if not report.hypothesis_ok:
            inadmissible += 1
        elif not report.holds:
            violations += 1
    if inadmissible:
        failures.append(f"{inadmissible} sweep instances failed their own hypotheses")
    if violations:
        failures.append(f"{violations} distance-bound violations")
    ok = not failures
    detail = (f"achievability within {tol:g}, {trials} random subspaces per operator, "
              f"{instances}-instance distance sweep clean")
    if failures:
        detail = "; ".join(failures)
    return ok, detail


def _criterion_9(pins: Mapping) -> Tuple[bool, str]:
    base = make_odd_multiplicity_base([3.5] * 8, epsilon=0.1, seed=1)
    v = np.linalg.eigvalsh(base.matrix)
    # (name, disc, window, tol, boundary sign, certified at the tip r = 0): a cone
    # (eigenvalues +-r), the smallest half-turn, a spin loop over a perturbed
    # cluster, and a commuting control with nothing to find above its floor tol
    rows = [
        ("conical", make_orbit_disc(make_conical_boundary(), center=np.zeros((2, 2))),
         SpectralWindow(0.0, 2.0, 1), pins["lasso_conical_tol"], -1, True),
        ("half-turn", make_orbit_disc(make_halfturn_loop(np.diag([1.0, 2.0])), center="mean"),
         SpectralWindow(0.5, 1.5, 1), pins["lasso_halfturn_tol"], -1, False),
        ("spin m=7", make_orbit_disc(make_spin_loop(7, base, turns=1), center="mean"),
         SpectralWindow(0.5 * (v[3] + v[4]), 0.5 * (v[4] + v[5]), 1), pins["lasso_spin_tol"],
         -1, False),
        ("negative control", make_orbit_disc(make_commuting_loop(), center="mean"),
         SpectralWindow(0.5, 1.5, 1), pins["lasso_negative_floor"], 1, False),
    ]
    failures, parts = [], []
    for name, disc, w, tol, sign, at_tip in rows:
        with warnings.catch_warnings():  # the control's +1 boundary warning is the point
            warnings.filterwarnings("ignore", "boundary loop has return sign", UserWarning)
            found = answer(disc, w, tol=tol)
        cert, miss = found.certificate, found.not_found
        if found.scan.boundary_sign != sign:
            failures.append(f"{name} boundary sign {found.scan.boundary_sign}")
        if sign == 1:
            if cert is not None:
                failures.append(f"{name} found a gap {cert.gap:.2e} below {tol:g}")
            elif miss.best_gap <= tol:
                failures.append(f"{name} best gap {miss.best_gap:.2e} not above {tol:g}")
            else:
                parts.append(f"{name} floor {miss.best_gap:.2f}")
        elif cert is None:
            failures.append(f"{name} refinement failed: {miss}")
        else:
            parts.append(f"{name} gap {cert.gap:.1e}" + (f" at r={cert.r:.1e}" if at_tip else ""))
            if at_tip and cert.r > 1e-10:
                failures.append(f"{name} certificate away from the tip (r={cert.r:.3e})")
    ok = not failures
    detail = "; ".join(parts) if ok else "; ".join(failures)
    return ok, detail


def _criterion_10(pins: Mapping) -> Tuple[bool, str]:
    spec = [-1.0, 0.5, 1.0, 3.0]
    cases = [
        ("identical", spectral_close(spec, spec, 0.0, 2.0, 1e-12), True),
        ("shift within eps", spectral_close([1.0], [1.05], 0.0, 2.0, 0.1), True),
        ("shift beyond eps", spectral_close([1.0], [1.05], 0.0, 2.0, 0.01), False),
        ("count mismatch", spectral_close([1.0, 1.2], [1.0], 0.0, 2.0, 0.5), False),
    ]
    failures = [f"{name}: got {got}, expected {expected}"
                for name, got, expected in cases if got != expected]
    ok = not failures
    detail = "truth table: identical/within/beyond/count-mismatch all correct" \
        if ok else "; ".join(failures)
    return ok, detail


# (index, title, name of its runtime budget in PINNED or None, experiment);
# an experiment returns (passed, detail)
CRITERIA: List[Tuple[int, str, Optional[str], Callable[[Mapping], Tuple[bool, str]]]] = [
    (1, "Clifford generators, full-turn lifts, structure parities", "clifford_budget_s",
     _criterion_1),
    (2, "Circle model spectra, symmetry, counting exponent", "circle_budget_s", _criterion_2),
    (3, "Isospectrality along equivariant loops", None, _criterion_3),
    (4, "Return signs match the parity/count prediction", "sign_budget_s", _criterion_4),
    (5, "Sign multiplicativity under loop concatenation", None, _criterion_5),
    (6, "Sign stability under quarter-gap perturbations", None, _criterion_6),
    (7, "Contour and eigenvector projectors cross-validate", None, _criterion_7),
    (8, "Min-max certificates and Rayleigh distance bound", "variational_budget_s",
     _criterion_8),
    (9, "Degeneracy search end to end, with negative control", "lasso_budget_s",
     _criterion_9),
    (10, "Windowed spectral closeness truth table", None, _criterion_10),
]


def run_one(index: int, overrides: Optional[Mapping] = None) -> CriterionResult:
    pins = dict(PINNED)
    if overrides:
        unknown = set(overrides) - set(pins)
        if unknown:
            raise KeyError(f"unknown pinned names: {sorted(unknown)}")
        pins.update(overrides)
    for idx, title, budget_pin, fn in CRITERIA:
        if idx == index:
            break
    else:
        raise KeyError(f"no criterion {index}")
    t0 = time.perf_counter()
    try:
        ok, detail = fn(pins)
    except Exception as exc:  # a crashed experiment is a failed row
        return CriterionResult(index=idx, title=title, passed=False,
                               runtime_s=time.perf_counter() - t0, budget_s=None,
                               detail=f"error: {exc!r}")
    runtime = time.perf_counter() - t0
    budget = pins[budget_pin] if budget_pin else None
    if budget is not None and runtime >= budget:
        ok = False
        detail += f"; runtime {runtime:.2f}s exceeded budget {budget:g}s"
    return CriterionResult(index=idx, title=title, passed=ok,
                           runtime_s=runtime, budget_s=budget, detail=detail)


def run_all(indices: Optional[Sequence[int]] = None,
            overrides: Optional[Mapping] = None) -> List[CriterionResult]:
    wanted = list(indices) if indices else [idx for idx, _, _, _ in CRITERIA]
    return [run_one(i, overrides) for i in wanted]
