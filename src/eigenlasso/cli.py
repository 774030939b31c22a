"""Batch experiment runner.

Experiments are declared in JSON configs and produce CSV and JSON
artifacts plus an exit code usable in CI: 0 when everything ran and
every declared expectation held, 2 when the pipeline ran but an
expectation failed, 1 for configuration or runtime errors.  All
randomness flows through seeds named in the config (or --seed), so
reports are reproducible bit for bit outside the "environment" block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from typing import Optional

import numpy as np

from . import acceptance
from .models import (
    SymmetricOperator,
    make_circle_dirac,
    make_fullturn_loop,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from .spectral import SpectralWindow, eigendecompose, enumerate_family, verify_dirac_properties
from .holonomy import predicted_sign, transport
from .lasso import DegeneracyNotFound, make_orbit_disc, refine, scan_disc

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Invalid experiment config; the message names the offending field."""


def _fail(field: str, reason: str) -> ConfigError:
    return ConfigError(f"{field}: {reason}")


def _get(cfg: dict, field: str, path: str, kind=None, required: bool = True, default=None):
    if field not in cfg:
        if required:
            raise _fail(f"{path}{field}", "required field is missing")
        return default
    value = cfg[field]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise _fail(f"{path}{field}", f"expected {names}, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# builders from config fragments
# ---------------------------------------------------------------------------

def _build_operator(spec: dict, path: str, seed_override: Optional[int]) -> SymmetricOperator:
    kind = _get(spec, "kind", path, str)
    if kind == "diag":
        values = _get(spec, "values", path, list)
        return SymmetricOperator(np.diag(np.asarray(values, dtype=float)))
    if kind == "matrix":
        entries = _get(spec, "entries", path, list)
        try:
            return SymmetricOperator(np.asarray(entries, dtype=float))
        except ValueError as exc:
            raise _fail(f"{path}entries", str(exc)) from exc
    if kind == "odd_base":
        clusters = _get(spec, "cluster_values", path, list)
        epsilon = float(_get(spec, "epsilon", path, (int, float)))
        seed = seed_override if seed_override is not None else spec.get("seed")
        if seed is None:
            raise _fail(f"{path}seed", "a seed is required for randomized constructions")
        try:
            return make_odd_multiplicity_base(clusters, epsilon, int(seed))
        except ValueError as exc:
            raise _fail(f"{path}epsilon", str(exc)) from exc
    raise _fail(f"{path}kind", f"unknown operator kind {kind!r}")


def _build_loop(spec: dict, path: str, seed_override: Optional[int]):
    kind = _get(spec, "kind", path, str)
    if kind in ("halfturn", "fullturn"):
        base = _build_operator(_get(spec, "base", path, dict), f"{path}base.", seed_override)
        maker = make_halfturn_loop if kind == "halfturn" else make_fullturn_loop
        try:
            return maker(base).family()
        except ValueError as exc:
            raise _fail(f"{path}base", str(exc)) from exc
    if kind == "spin":
        m = int(_get(spec, "m", path, int))
        turns = int(spec.get("turns", 1))
        base = _build_operator(_get(spec, "base", path, dict), f"{path}base.", seed_override)
        try:
            return make_spin_loop(m, base, turns=turns).family()
        except ValueError as exc:
            raise _fail(f"{path}kind", str(exc)) from exc
    if kind == "conical":
        return acceptance.make_conical_boundary()
    if kind == "commuting":
        return acceptance.make_commuting_loop(float(spec.get("amplitude", 0.3)))
    raise _fail(f"{path}kind", f"unknown loop kind {kind!r}")


def _build_window(spec: dict, path: str) -> SpectralWindow:
    lower = float(_get(spec, "lower", path, (int, float)))
    upper = float(_get(spec, "upper", path, (int, float)))
    count = int(spec.get("count", 1))
    try:
        return SpectralWindow(lower, upper, count)
    except ValueError as exc:
        raise _fail(f"{path}lower/upper/count", str(exc)) from exc


def _build_disc(spec: dict, path: str, seed_override: Optional[int]):
    boundary = _build_loop(_get(spec, "boundary", path, dict), f"{path}boundary.", seed_override)
    center = spec.get("center", "mean")
    if isinstance(center, dict):
        center = _build_operator(center, f"{path}center.", seed_override)
    elif not isinstance(center, str):
        raise _fail(f"{path}center", "expected 'mean', 'base', or an operator spec")
    n_average = int(spec.get("n_average", 64))
    try:
        return make_orbit_disc(boundary, center=center, n_average=n_average)
    except ValueError as exc:
        raise _fail(f"{path}center", str(exc)) from exc


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_atomic(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _write_atomic(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: str, rows):
    lines = [header]
    lines.extend(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row)
                 for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _evaluate_expectations(spec: dict, observed: dict):
    checks = []
    all_ok = True
    for key in sorted(spec):
        expected = spec[key]
        for suffix in ("_le", "_ge", "_eq"):
            if key.endswith(suffix):
                metric = key[: -len(suffix)]
                break
        else:
            raise _fail(f"expectations.{key}", "must end with _le, _ge, or _eq")
        if metric not in observed:
            raise _fail(f"expectations.{key}",
                        f"unknown metric; available: {', '.join(sorted(observed))}")
        value = observed[metric]
        if value is None:
            ok = False
        elif suffix == "_le":
            ok = value <= expected
        elif suffix == "_ge":
            ok = value >= expected
        else:
            ok = value == expected
        checks.append({"check": key, "expected": expected, "observed": value, "ok": ok})
        all_ok = all_ok and ok
    return checks, all_ok


class _Run:
    """Shared plumbing for one experiment invocation."""

    def __init__(self, name: str, cfg: dict, args):
        declared = cfg.get("experiment")
        if declared is not None and declared != name:
            raise _fail("experiment", f"config declares {declared!r} but subcommand is {name}")
        self.name = name
        self.cfg = cfg
        self.seed_override = args.seed
        out = args.out or os.environ.get("EIGENLASSO_OUT") \
            or cfg.get("output", {}).get("dir") or "."
        os.makedirs(out, exist_ok=True)
        self.out = out
        self.prefix = cfg.get("output", {}).get("prefix", name.replace("-", "_"))
        self.started = time.perf_counter()
        self.artifacts = {}
        self.warnings = []

    def path(self, suffix: str) -> str:
        return os.path.join(self.out, f"{self.prefix}_{suffix}")

    def csv(self, suffix: str, header: str, rows) -> str:
        p = self.path(suffix)
        _write_csv(p, header, rows)
        self.artifacts[suffix] = p
        return p

    def finish(self, results: dict, observed: dict) -> int:
        checks, ok = _evaluate_expectations(self.cfg.get("expectations", {}), observed)
        report = {
            "experiment": self.name,
            "config": self.cfg,
            "results": results,
            "observed": observed,
            "expectations": checks,
            "passed": ok,
            "warnings": self.warnings,
            "artifacts": dict(self.artifacts),
            "environment": {
                "runtime_seconds": time.perf_counter() - self.started,
                "seed_override": self.seed_override,
            },
        }
        report_path = self.path("report.json")
        report["artifacts"]["report"] = report_path
        _write_json(report_path, report)
        for line in (f"[{'ok' if c['ok'] else 'FAILED'}] {c['check']}: "
                     f"expected {c['expected']}, observed {c['observed']}" for c in checks):
            print(line)
        print(f"report: {report_path}")
        return 0 if ok else 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(cfg: dict, args) -> int:
    run = _Run("spectrum", cfg, args)
    model_spec = _get(cfg, "model", "", dict)
    kind = _get(model_spec, "kind", "model.", str)
    results: dict = {}
    if kind == "circle":
        n_max = int(_get(model_spec, "n_max", "model.", int))
        delta = float(_get(model_spec, "delta", "model.", (int, float)))
        try:
            model = make_circle_dirac(n_max, delta)
        except ValueError as exc:
            raise _fail("model.n_max/delta", str(exc)) from exc
        values = model.numerical_spectrum()
        analytic = np.sort(model.analytic_spectrum())
        deviation = float(np.abs(values - analytic).max())
        results["max_deviation"] = deviation
    else:
        op = _build_operator(model_spec, "model.", args.seed)
        values, _ = eigendecompose(op)
        deviation = None
    run.csv("spectrum.csv", "j,t,lambda",
            [(j, 0.0, float(v)) for j, v in enumerate(values)])
    results["values"] = [float(v) for v in values]
    observed = {"n_values": len(values), "max_deviation": deviation}
    return run.finish(results, observed)


def _cmd_track(cfg: dict, args) -> int:
    run = _Run("track", cfg, args)
    loop = _build_loop(_get(cfg, "loop", "", dict), "loop.", args.seed)
    samples = int(_get(_get(cfg, "grid", "", dict), "samples", "grid.", int))
    if samples < 2:
        raise _fail("grid.samples", "need at least 2 samples")
    grid = np.linspace(0.0, 1.0, samples + 1)
    table = enumerate_family(loop, grid)
    rows = [(j, float(t), float(table.values[i, j]))
            for i, t in enumerate(grid) for j in range(table.values.shape[1])]
    run.csv("track.csv", "j,t,lambda", rows)
    drift = float(np.abs(table.values - table.values[0]).max())
    observed = {
        "n_samples": samples + 1,
        "weyl_defect": table.weyl_defect,
        "max_drift": drift,
    }
    return run.finish({"weyl_defect": table.weyl_defect, "max_drift": drift}, observed)


def _cmd_holonomy(cfg: dict, args) -> int:
    run = _Run("holonomy", cfg, args)
    loop = _build_loop(_get(cfg, "loop", "", dict), "loop.", args.seed)
    window = _build_window(_get(cfg, "window", "", dict), "window.")
    initial = int(cfg.get("transport", {}).get("initial_samples", 16))
    path, ret = transport(loop, window, initial_samples=initial)
    k = window.count
    dim = path.frames[0].shape[0]
    header = "t," + ",".join(f"f{a}{b}" for a in range(dim) for b in range(k))
    rows = [(float(t),) + tuple(float(x) for x in np.real(f).ravel())
            for t, f in zip(path.parameters, path.frames)]
    run.csv("frames.csv", header, rows)
    predicted = predicted_sign(loop.parity, k) if loop.parity else None
    results = {
        "sign": ret.sign,
        "determinant": ret.determinant,
        "n_samples": path.n_samples,
        "predicted_sign": predicted,
        "return_matrix": ret.matrix.tolist(),
    }
    observed = {
        "sign": ret.sign,
        "abs_det": abs(ret.determinant),
        "n_samples": path.n_samples,
        "matches_prediction": (ret.sign == predicted) if predicted is not None else None,
    }
    return run.finish(results, observed)


def _cmd_lasso_scan(cfg: dict, args) -> int:
    run = _Run("lasso-scan", cfg, args)
    disc = _build_disc(_get(cfg, "disc", "", dict), "disc.", args.seed)
    window = _build_window(_get(cfg, "window", "", dict), "window.")
    grid_spec = cfg.get("grid", {})
    n_r = int(grid_spec.get("n_r", 16))
    n_theta = int(grid_spec.get("n_theta", 24))
    refine_tol = float(cfg.get("tolerances", {}).get("refine", 1e-8))
    do_refine = bool(cfg.get("refine", True))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = scan_disc(disc, window, grid=(n_r, n_theta),
                         check_boundary_sign=bool(cfg.get("check_boundary_sign", True)))
    run.warnings.extend(str(w.message) for w in caught)
    rows = [(float(r), float(t), float(scan.gap_map[i, j]))
            for i, r in enumerate(scan.r_values)
            for j, t in enumerate(scan.theta_values)]
    run.csv("gapmap.csv", "r,theta,min_gap", rows)
    results: dict = {
        "boundary_sign": scan.boundary_sign,
        "anchor": scan.anchor,
        "scan_min_gap": scan.min_gap,
    }
    observed = {
        "boundary_sign": scan.boundary_sign,
        "scan_min_gap": scan.min_gap,
        "certificate": None,
        "gap": None,
        "r": None,
        "best_gap": None,
    }
    if do_refine:
        try:
            cert = refine(disc, window, scan.best, tol=refine_tol,
                          step=(1.0 / n_r, 1.0 / n_theta))
            results["certificate"] = {
                "r": cert.r, "theta": cert.theta,
                "lambda_a": cert.lambda_a, "lambda_b": cert.lambda_b,
                "gap": cert.gap, "mean": cert.mean,
                "residual_a": cert.residual_a, "residual_b": cert.residual_b,
                "pair_index": cert.pair_index, "tol": cert.tol,
            }
            observed.update(certificate=True, gap=cert.gap, r=cert.r, best_gap=cert.gap)
        except DegeneracyNotFound as exc:
            results["not_found"] = {
                "best_r": exc.best_point[0], "best_theta": exc.best_point[1],
                "best_gap": exc.best_gap, "levels": exc.levels,
            }
            observed.update(certificate=False, best_gap=exc.best_gap)
    return run.finish(results, observed)


def _cmd_properties(cfg: dict, args) -> int:
    run = _Run("properties", cfg, args)
    model_spec = _get(cfg, "model", "", dict)
    if _get(model_spec, "kind", "model.", str) != "circle":
        raise _fail("model.kind", "properties currently supports the circle model only")
    n_max = int(_get(model_spec, "n_max", "model.", int))
    delta = float(_get(model_spec, "delta", "model.", (int, float)))
    model = make_circle_dirac(n_max, delta)
    radius = float(cfg.get("radius", n_max - 1))
    report = verify_dirac_properties(model.numerical_spectrum(), m=1, radius=radius)
    results = {
        "symmetry_applicable": report.symmetry_applicable,
        "symmetry_ok": report.symmetry_ok,
        "max_symmetry_defect": report.max_symmetry_defect,
        "counting_exponent": report.counting_exponent,
        "exponent_expected": report.exponent_expected,
        "max_abs_value": report.max_abs_value,
        "n_in_window": report.n_in_window,
    }
    observed = {
        "symmetry_ok": report.symmetry_ok,
        "counting_exponent": report.counting_exponent,
        "max_abs_value": report.max_abs_value,
        "n_in_window": report.n_in_window,
    }
    return run.finish(results, observed)


def _cmd_reproduce_all(args) -> int:
    indices = None
    if args.criteria:
        try:
            indices = [int(x) for x in args.criteria.split(",") if x.strip()]
        except ValueError as exc:
            raise _fail("--criteria", f"expected comma-separated integers: {exc}") from exc
    overrides = None
    if args.overrides:
        try:
            overrides = json.loads(args.overrides)
        except json.JSONDecodeError as exc:
            raise _fail("--overrides", f"invalid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise _fail("--overrides", "expected a JSON object")
    try:
        results = acceptance.run_all(indices, overrides)
    except KeyError as exc:
        raise _fail("--criteria/--overrides", str(exc)) from exc
    for res in results:
        print(res.summary_line())
        if not res.passed:
            print(f"    {res.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    out = args.out or os.environ.get("EIGENLASSO_OUT")
    if out:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, "reproduce_all.json"),
                    {"results": [r.to_dict() for r in results],
                     "passed": n_pass == len(results)})
    return 0 if n_pass == len(results) else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "track": _cmd_track,
    "holonomy": _cmd_holonomy,
    "lasso-scan": _cmd_lasso_scan,
    "properties": _cmd_properties,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenlasso",
        description="Detect forced eigenvalue degeneracies via loop holonomy signs "
                    "and disc scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        _common_flags(p)
    p = sub.add_parser("reproduce-all", help="run the pinned acceptance experiments")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    p.add_argument("--overrides",
                   help="JSON object overriding pinned tolerances (negative controls)")
    _common_flags(p)
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output directory (default: $EIGENLASSO_OUT or config)")
    p.add_argument("--seed", type=int, help="override the config seed")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "reproduce-all":
            return _cmd_reproduce_all(args)
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _fail("config", f"invalid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise _fail("config", "top level must be a JSON object")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
