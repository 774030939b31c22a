"""Seeded problem generators, build steps and solvers for the four workloads.

A *problem* is one question a user asks: one sign, one disc
certificate, or one CLI config run.  ``generate`` turns a workload name
and a seed into plain inputs (arrays, numbers, config dicts) and never
calls into eigenlasso; ``build`` turns those inputs into eigenlasso
objects (loops, windows, discs, config files) and is timed as set-up;
``solve`` asks eigenlasso the question and returns the raw answer.

Every workload is a fixed mix: which families, sizes, turn counts,
window counts and initial sample counts appear, and how often, does not
depend on the seed.  The seed draws the content (rotations, spectra,
window positions, perturbations, centers, config values), so per-pass
cost stays the same from seed to seed while the inputs change.  The
content still moves single problems' costs (transport samples
adaptively), so every list holds at least 100 problems, enough that
its median and tail change little from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import eigenlasso
from eigenlasso import acceptance, cli, holonomy, lasso, models

WORKLOADS = ("sign-dense", "sign-small", "lasso", "cli")

# Parameter ranges of each workload; printed with every result.
RANGES = {
    "sign-dense": {
        "family": "transport on make_block_rotation_loop(Q diag Q^T, turns), default sampling",
        "n=64": "turns 0.5..4 step 0.5, window count 1..3, three of each (72 problems)",
        "n=128": "turns 0.5 and 1 (20 problems), 1.5 and 2 (12), window count 1..3",
        "n=256": "turns 0.5 and 1, window count 1..2 (6 problems)",
    },
    "sign-small": {
        "rotation": "450 loops, n in {2,4,8}, turns 0.5..8 step 0.5, window count 1..3, "
                    "initial_samples 3..32, in one fixed sweep",
        "stability": "45 sign_stability pairs, n in {2,4,8}, perturbation norm gap/4",
        "spin": "48 transports on 8 spin loops, m in {6,7}, window count 1..3",
    },
    "lasso": {
        "conical": "8 discs, center c*I with c 0 or seeded in -0.5..0.5, tol 1e-10",
        "halfturn": "36 discs over seeded odd bases (epsilon 0.1), n 8 (x8), 32 (x24), "
                    "128 (x4), seeded random centers, tol 1e-8",
        "spin": "16 orbit discs (mean center), 8 on one m=7 loop and 8 on one m=8 loop "
                "over seeded odd bases, window around a seeded eigenvalue, tol 1e-7",
        "commuting": "40 negative controls, amplitude 0.1..0.4, floor 1e-3 (a full "
                     "40-level refine each)",
        "grid": "scan 16 x 24, refine step (1/16, 1/24)",
    },
    "cli": {
        "configs": "150 each of spectrum, track, holonomy, properties; 192 lasso-scan",
        "spectrum/properties": "circle model, n_max 16..96, delta 0 or 0.5",
        "track": "half-turn loops of 2..6 dim diagonal bases, 32..128 samples",
        "holonomy": "half- or full-turn loops, 2..6 dim seeded bases, window count 1..3",
        "lasso-scan": "conical (c*I center), commuting, spin m=7 orbit and half-turn n=8 "
                      "random-center discs over seeded odd bases",
    },
}

# ROADMAP defects a problem may hit at the parent commit: the checker
# still counts such a failure, but does not call the run incorrect.
ALIASING = "aliasing"  # item 1: transport misses a fast rotation between samples
STALL = "stall"        # item 3: the greedy stencil refinement stalls


@dataclass
class Problem:
    """Plain inputs for one question; ``built`` is filled by ``build``."""

    pid: int
    family: str
    kind: str
    spec: Dict[str, Any]
    known_defect: Optional[str] = None
    built: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _spectrum(rng, n: int) -> np.ndarray:
    """Eigenvalues 1..n, each moved by at most 1/4, so every gap exceeds 1/2."""
    return np.arange(1.0, n + 1.0) + rng.uniform(-0.25, 0.25, n)


def _rotated(rng, values: np.ndarray) -> np.ndarray:
    n = values.size
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    d = q @ np.diag(values) @ q.T
    return 0.5 * (d + d.T)


def _window(values: np.ndarray, first: int, count: int) -> List[float]:
    """Window holding values[first:first + count], endpoints at midpoints."""
    v = np.sort(values)
    lower = v[first - 1] if first > 0 else v[0] - 1.0
    upper = v[first + count] if first + count < v.size else v[-1] + 1.0
    return [0.5 * (lower + v[first]), 0.5 * (v[first + count - 1] + upper), count]


def _odd(turns: float) -> bool:
    return int(round(2 * turns)) % 2 == 1


def _expected_sign(odd_loop: bool, count: int) -> int:
    # the window bundle of an odd loop is twisted exactly when count is odd
    return -1 if odd_loop and count % 2 == 1 else 1


# ---------------------------------------------------------------------------
# generators: seed -> plain inputs
# ---------------------------------------------------------------------------

def _gen_sign_dense(rng) -> List[Problem]:
    plan = [(64, 0.5 * t, k) for t in range(1, 9) for k in (1, 2, 3)] * 3
    plan += [(128, 0.5 * (1 + i % 2), 1 + i % 3) for i in range(20)]
    plan += [(128, 0.5 * (3 + i % 2), 1 + i % 3) for i in range(12)]
    plan += [(256, 0.5 * (1 + i % 2), 1 + i % 2) for i in range(6)]
    out = []
    for n, turns, k in plan:
        values = _spectrum(rng, n)
        first = int(rng.integers(0, n - k + 1))
        out.append(Problem(0, f"dense-n{n}", "transport", {
            "base": _rotated(rng, values), "turns": turns,
            "window": _window(values, first, k),
            "expected_sign": _expected_sign(_odd(turns), k),
        }))
    return out


def _gen_sign_small(rng) -> List[Problem]:
    # Size, turns, window count and initial_samples follow one fixed sweep
    # (each initial_samples value 3..32 fifteen times, against every turn
    # count): transport cost is set by turns and initial_samples, so a
    # seeded pairing moved the median problem by half from seed to seed.
    out = []
    for i in range(450):
        n = (2, 4, 8)[i % 3]
        turns = 0.5 * (1 + i % 16)
        k = 1 if n == 2 else 1 + (i // 3) % 3
        values = _spectrum(rng, n)
        first = int(rng.integers(0, n - k + 1))
        out.append(Problem(0, f"rotation-n{n}", "transport", {
            "base": _rotated(rng, values), "turns": turns,
            "window": _window(values, first, k),
            "initial_samples": 3 + (7 * i) % 30,
            "expected_sign": _expected_sign(_odd(turns), k),
        }, known_defect=ALIASING))
    for n in (2, 4, 8):
        for _ in range(15):
            values = _spectrum(rng, n)
            first = int(rng.integers(0, n))
            v = np.sort(values)
            gap = min(abs(v[first] - v[j]) for j in range(n) if j != first)
            g = rng.standard_normal((n, n))
            g = 0.5 * (g + g.T)
            g *= (gap / 4.0) / np.linalg.norm(g, 2)
            out.append(Problem(0, f"stability-n{n}", "stability", {
                "base": _rotated(rng, values), "perturbation": g,
                "window": _window(values, first, 1), "expected_sign": -1,
            }))
    for m in (6, 7):
        for _ in range(4):
            values = 2.0 + rng.uniform(-0.2, 0.2, 8)
            base = _rotated(rng, values)
            for k in (1, 2, 3) * 2:
                first = int(rng.integers(0, 8 - k + 1))
                out.append(Problem(0, f"spin-m{m}", "spin-transport", {
                    "m": m, "base": base, "window": _window(values, first, k),
                    "expected_sign": _expected_sign(True, k),
                }))
    return out


def _odd_base(rng, cluster_values) -> Dict[str, Any]:
    """Inputs of make_odd_multiplicity_base: clusters split by a seeded draw."""
    return {"cluster_values": [float(x) for x in cluster_values], "epsilon": 0.1,
            "seed": int(rng.integers(0, 2 ** 31))}


def _gen_lasso(rng) -> List[Problem]:
    # the median lands among the commuting controls (fixed work: a full
    # 40-level refine) and the 11th-slowest disc among the n=32 discs,
    # however many of the spin discs stall
    out = []
    for i in range(8):
        # the cone's tip stays at the center for any multiple of the identity
        shift = 0.0 if i == 0 else float(rng.uniform(-0.5, 0.5))
        out.append(Problem(0, "conical", "disc", {
            "boundary": "conical", "center": shift * np.eye(2), "window": [0.0, 2.0, 1],
            "tol": 1e-10, "forced": True,
        }))
    for n, copies in ((8, 8), (32, 24), (128, 4)):
        for _ in range(copies):
            values = np.sort(_spectrum(rng, n))
            g = rng.standard_normal((n, n))
            center = np.diag(values) + 0.3 * (g + g.T) / np.linalg.norm(g + g.T, 2)
            out.append(Problem(0, f"halfturn-n{n}", "disc", {
                "boundary": "halfturn", "base": _odd_base(rng, values),
                "center": center, "window_index": int(rng.integers(1, n - 1)),
                "tol": 1e-8, "forced": True,
            }, known_defect=STALL))
    for m in (7, 8):
        dim = 8 if m == 7 else 16
        base = _odd_base(rng, [3.5] * dim)
        for _ in range(8):
            out.append(Problem(0, f"spin-m{m}", "disc", {
                "boundary": "spin", "m": m, "base": base, "center": "mean",
                "window_index": int(rng.integers(1, dim - 1)), "tol": 1e-7,
                "forced": True,
            }, known_defect=STALL))
    for _ in range(40):
        out.append(Problem(0, "commuting", "disc", {
            "boundary": "commuting", "amplitude": float(rng.uniform(0.1, 0.4)),
            "center": "mean", "window": [0.5, 1.5, 1], "tol": 1e-3, "forced": False,
        }))
    return out


def _diag_values(rng, n: int) -> List[float]:
    return [float(x) for x in np.sort(_spectrum(rng, n))]


CLI_PER_KIND = 150
CLI_LASSO = 192  # 48 per disc variant


def _gen_cli(rng) -> List[Problem]:
    out = []
    for i in range(CLI_PER_KIND):
        n_max = int(rng.integers(16, 97))
        delta = (0.0, 0.5)[i % 2]
        out.append(Problem(0, "cli-spectrum", "cli", {"command": "spectrum", "config": {
            "experiment": "spectrum",
            "model": {"kind": "circle", "n_max": n_max, "delta": delta},
            "expectations": {"max_deviation_le": 1e-10,
                             "n_values_eq": 2 * n_max + (1 if delta == 0.0 else 0)},
        }}))
        n = (2, 4, 6)[i % 3]
        out.append(Problem(0, "cli-track", "cli", {"command": "track", "config": {
            "experiment": "track",
            "loop": {"kind": "halfturn", "base": {"kind": "diag", "values": _diag_values(rng, n)}},
            "grid": {"samples": int(rng.integers(32, 129))},
            "expectations": {"weyl_defect_le": 1e-10, "max_drift_le": 1e-10},
        }}))
        kind = ("halfturn", "fullturn")[i % 2]
        values = _spectrum(rng, n)
        k = 1 + i % min(3, n - 1)
        first = int(rng.integers(0, n - k + 1))
        lower, upper, count = _window(values, first, k)
        out.append(Problem(0, "cli-holonomy", "cli", {"command": "holonomy", "config": {
            "experiment": "holonomy",
            "loop": {"kind": kind,
                     "base": {"kind": "matrix", "entries": _rotated(rng, values).tolist()}},
            "window": {"lower": lower, "upper": upper, "count": count},
            "expectations": {"sign_eq": _expected_sign(kind == "halfturn", k),
                             "abs_det_ge": 0.9, "matches_prediction_eq": True},
        }}))
    for i in range(CLI_LASSO):
        variant = i % 4
        out.append(Problem(0, "cli-lasso", "cli", {"command": "lasso-scan",
                                                   **_lasso_config(rng, variant)},
                           known_defect=STALL if variant >= 2 else None))
    for i in range(CLI_PER_KIND):
        n_max = int(rng.integers(16, 97))
        out.append(Problem(0, "cli-properties", "cli", {"command": "properties", "config": {
            "experiment": "properties",
            "model": {"kind": "circle", "n_max": n_max, "delta": (0.5, 0.0)[i % 2]},
            "expectations": {"symmetry_ok_eq": True, "counting_exponent_ge": 0.9,
                             "counting_exponent_le": 1.1},
        }}))
    return out


def _lasso_config(rng, variant: int) -> Dict[str, Any]:
    """A lasso-scan config; spin and half-turn discs leave their window to
    ``build``, which places it around eigenvalue ``window_index`` of the
    built base."""
    grid = {"n_r": 16, "n_theta": 24}
    if variant == 0:
        center = float(rng.uniform(-0.5, 0.5)) * np.eye(2)
        return {"config": {
            "experiment": "lasso-scan",
            "disc": {"boundary": {"kind": "conical"},
                     "center": {"kind": "matrix", "entries": center.tolist()}},
            "window": {"lower": 0.0, "upper": 2.0, "count": 1}, "grid": grid,
            "tolerances": {"refine": 1e-10},
            "expectations": {"boundary_sign_eq": -1, "certificate_eq": True,
                             "gap_le": 1e-10}}}
    if variant == 1:
        return {"config": {
            "experiment": "lasso-scan",
            "disc": {"boundary": {"kind": "commuting",
                                  "amplitude": float(rng.uniform(0.1, 0.4))},
                     "center": "mean"},
            "window": {"lower": 0.5, "upper": 1.5, "count": 1}, "grid": grid,
            "tolerances": {"refine": 1e-3},
            "expectations": {"boundary_sign_eq": 1, "certificate_eq": False,
                             "best_gap_ge": 1e-3}}}
    if variant == 2:
        boundary = {"kind": "spin", "m": 7, "turns": 1,
                    "base": {"kind": "odd_base", **_odd_base(rng, [3.5] * 8)}}
        center = "mean"
        tol = 1e-7
    else:
        values = np.sort(_spectrum(rng, 8))
        g = rng.standard_normal((8, 8))
        boundary = {"kind": "halfturn", "base": {"kind": "odd_base", **_odd_base(rng, values)}}
        center = {"kind": "matrix",
                  "entries": (np.diag(values) + 0.3 * (g + g.T) / np.linalg.norm(g + g.T, 2)
                              ).tolist()}
        tol = 1e-8
    return {"window_index": int(rng.integers(1, 7)), "config": {
        "experiment": "lasso-scan",
        "disc": {"boundary": boundary, "center": center},
        "window": None, "grid": grid, "tolerances": {"refine": tol},
        "expectations": {"boundary_sign_eq": -1, "certificate_eq": True, "gap_le": tol}}}


_GENERATORS = {
    "sign-dense": _gen_sign_dense,
    "sign-small": _gen_sign_small,
    "lasso": _gen_lasso,
    "cli": _gen_cli,
}


def generate(workload: str, seed: int) -> List[Problem]:
    """The workload's problem list for ``seed``, in a seeded order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = _rng(seed, workload)
    problems = _GENERATORS[workload](rng)
    order = rng.permutation(len(problems))
    problems = [problems[i] for i in order]
    for pid, p in enumerate(problems):
        p.pid = pid
    return problems


def _canonical(obj):
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "sha256": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()}
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return float.hex(obj)
    return obj


def serialize(problems: List[Problem]) -> bytes:
    """Canonical bytes of a problem list's inputs (arrays by content hash)."""
    rows = [{"pid": p.pid, "family": p.family, "kind": p.kind,
             "known_defect": p.known_defect, "spec": _canonical(p.spec)} for p in problems]
    return json.dumps(rows, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# building: plain inputs -> eigenlasso objects (timed as set-up)
# ---------------------------------------------------------------------------

def _spectral_window(window) -> "eigenlasso.SpectralWindow":
    lower, upper, count = window
    return eigenlasso.SpectralWindow(float(lower), float(upper), int(count))


def build(problems: List[Problem], workdir: Optional[str] = None) -> None:
    """Construct every problem's eigenlasso inputs in place.

    Spin loops are built once per distinct (m, base) pair, since the
    structure map they need does not depend on the window or center.
    CLI problems get their config file and output directory under
    ``workdir``.
    """
    spin_loops = {}

    def spin_loop(m, base):
        key = (m, id(base))
        if key not in spin_loops:
            if isinstance(base, dict):
                base = models.make_odd_multiplicity_base(**base)
            spin_loops[key] = models.make_spin_loop(m, base, turns=1).family()
        return spin_loops[key]

    for p in problems:
        s = p.spec
        if p.kind == "transport":
            p.built["loop"] = models.make_block_rotation_loop(s["base"], s["turns"]).family()
            p.built["window"] = _spectral_window(s["window"])
        elif p.kind == "spin-transport":
            p.built["loop"] = spin_loop(s["m"], s["base"])
            p.built["window"] = _spectral_window(s["window"])
        elif p.kind == "stability":
            loop_a = models.make_halfturn_loop(s["base"]).family()
            g = s["perturbation"]
            p.built["loop_a"] = loop_a
            p.built["loop_b"] = models.OperatorFamily(
                domain="circle", sampler=lambda t, _a=loop_a, _g=g: _a(t) + _g, parity="odd")
            p.built["window"] = _spectral_window(s["window"])
        elif p.kind == "disc":
            disc = _build_disc(s, spin_loop)
            p.built["disc"] = disc
            if "window_index" in s:
                # the window sits around one eigenvalue of the built base
                values = np.linalg.eigvalsh(disc.boundary(0.0))
                p.built["window"] = _spectral_window(_window(values, s["window_index"], 1))
            else:
                p.built["window"] = _spectral_window(s["window"])
        elif p.kind == "cli":
            if workdir is None:
                raise ValueError("CLI problems need a work directory")
            cfg = p.spec["config"]
            if "window_index" in p.spec:
                base = cfg["disc"]["boundary"]["base"]
                values = np.linalg.eigvalsh(models.make_odd_multiplicity_base(
                    base["cluster_values"], base["epsilon"], base["seed"]).matrix)
                lower, upper, count = _window(values, p.spec["window_index"], 1)
                cfg = {**cfg, "window": {"lower": lower, "upper": upper, "count": count}}
            config = os.path.join(workdir, f"config_{p.pid:04d}.json")
            with open(config, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(workdir, f"out_{p.pid:04d}")
            os.makedirs(out, exist_ok=True)
            p.built["argv"] = [p.spec["command"], "--config", config, "--out", out]
            p.built["out"] = out
        else:
            raise ValueError(f"unknown problem kind {p.kind!r}")


def _build_disc(s, spin_loop):
    if s["boundary"] == "conical":
        boundary = acceptance.make_conical_boundary()
    elif s["boundary"] == "commuting":
        boundary = acceptance.make_commuting_loop(s["amplitude"])
    elif s["boundary"] == "halfturn":
        base = models.make_odd_multiplicity_base(**s["base"])
        boundary = models.make_halfturn_loop(base).family()
    else:
        boundary = spin_loop(s["m"], s["base"])
    return lasso.make_orbit_disc(boundary, center=s["center"])


# ---------------------------------------------------------------------------
# solvers: one question to eigenlasso, raw answer back
# ---------------------------------------------------------------------------

SCAN_GRID = (16, 24)


def solve(p: Problem) -> Dict[str, Any]:
    """Ask eigenlasso this problem's question; exceptions propagate."""
    b = p.built
    if p.kind in ("transport", "spin-transport"):
        kwargs = {}
        if "initial_samples" in p.spec:
            kwargs["initial_samples"] = p.spec["initial_samples"]
        _, ret = holonomy.transport(b["loop"], b["window"], **kwargs)
        return {"sign": ret.sign}
    if p.kind == "stability":
        rep = holonomy.sign_stability(b["loop_a"], b["loop_b"], b["window"])
        return {"sign_a": rep.sign_a, "sign_b": rep.sign_b,
                "criterion_met": rep.criterion_met}
    if p.kind == "disc":
        disc, window = b["disc"], b["window"]
        with warnings.catch_warnings():
            # a +1 boundary warns by design; the negative controls are +1
            warnings.simplefilter("ignore")
            scan = lasso.scan_disc(disc, window, grid=SCAN_GRID)
        try:
            cert = lasso.refine(disc, window, scan.best, tol=p.spec["tol"],
                                step=(1.0 / SCAN_GRID[0], 1.0 / SCAN_GRID[1]))
        except lasso.DegeneracyNotFound as exc:
            return {"boundary_sign": scan.boundary_sign, "certificate": None,
                    "best_gap": exc.best_gap, "anchor": scan.anchor}
        return {"boundary_sign": scan.boundary_sign, "anchor": scan.anchor,
                "certificate": {"r": cert.r, "theta": cert.theta, "gap": cert.gap,
                                "pair_index": cert.pair_index, "tol": cert.tol}}
    if p.kind == "cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(b["argv"]))
        return {"exit": rc}
    raise ValueError(f"unknown problem kind {p.kind!r}")
