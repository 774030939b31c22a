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
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
import warnings
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import acceptance
from .models import (
    CircleDiracModel,
    SymmetricOperator,
    make_circle_dirac,
    make_fullturn_loop,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from .spectral import (SpectralWindow, _FactorError, eigendecompose, enumerate_family,
                       verify_dirac_properties)
from .holonomy import predicted_sign, transport
from .lasso import WindowRefused, answer, make_orbit_disc

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Invalid experiment config; the message names the offending field."""


def _fail(field: str, reason: str) -> ConfigError:
    return ConfigError(f"{field}: {reason}")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------
#
# A schema type is a leaf (int, float, str, bool), a one-element list [T] for a
# JSON list of T, an _Object, a _Kinds union, or an _Either of these.
# Object fields map a name to (type, default); _REQUIRED marks a field
# without a default and None one that is simply absent.

_REQUIRED = object()
_LEAVES = {int: int, float: (int, float), str: str, bool: bool}
_NAMES = {int: "int", float: "number", str: "string", bool: "bool", list: "list",
          dict: "object", type(None): "null"}


class _Object:
    """A JSON object with fixed fields; ``build`` turns the checked fields into a value."""

    def __init__(self, build=None, **fields):
        self.build = build
        self.fields = fields


class _Kinds(dict):
    """A union tagged by the object's ``kind`` field: tag -> _Object."""


class _Either(tuple):
    """Alternatives told apart by JSON type, e.g. a string or an object."""


def _name(kind) -> str:
    if isinstance(kind, _Either):
        return " or ".join(_name(k) for k in kind)
    if isinstance(kind, list):
        return "list"
    return _NAMES[kind] if isinstance(kind, type) else "object"


def _shape_ok(kind, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if isinstance(kind, list):
        return isinstance(value, list)
    return isinstance(value, _LEAVES[kind] if isinstance(kind, type) else dict)


def _join(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


def _check(kind, value, path: str, seed: Optional[int] = None):
    """Check one config value against its schema type, fill defaults and build it.

    ``seed``, when given, replaces every ``seed`` field (the --seed flag).
    """
    if isinstance(kind, _Either):
        kind = next((k for k in kind if _shape_ok(k, value)), kind)
    if not _shape_ok(kind, value):
        raise _fail(path or "config", f"expected {_name(kind)}, got {_NAMES[type(value)]}")
    if isinstance(kind, list):
        return [_check(kind[0], v, f"{path}[{i}]", seed) for i, v in enumerate(value)]
    if kind is float:
        try:  # json reads Infinity and NaN
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise _fail(path, f"must be finite, got {number}")
        return number
    if isinstance(kind, type):
        return value
    if isinstance(kind, _Kinds):
        if "kind" not in value:
            raise _fail(_join(path, "kind"), "required field is missing")
        tag = _check(str, value["kind"], _join(path, "kind"))
        if tag not in kind:
            raise _fail(_join(path, "kind"),
                        f"unknown kind {tag!r}; expected one of {', '.join(kind)}")
        value = {k: v for k, v in value.items() if k != "kind"}
        kind = kind[tag]
    for field in value:
        if field not in kind.fields:
            raise _fail(_join(path, field), "unknown field")
    args = {}
    for field, (sub_kind, default) in kind.fields.items():
        sub = _join(path, field)
        if field == "seed" and seed is not None:
            args[field] = seed
        elif field in value:
            args[field] = _check(sub_kind, value[field], sub, seed)
        elif default is _REQUIRED:
            raise _fail(sub, "required field is missing")
        else:
            args[field] = None if default is None else _check(sub_kind, default, sub, seed)
    if kind.build is None:
        return args
    try:
        return kind.build(**args)
    except ValueError as exc:
        raise _fail(path or "config", str(exc)) from exc


# a circle model is one dense (2 n_max + 1)-square matrix, factored whole:
# at the cap, 2049 x 2049 takes 34 MB; an operator written out in a config
# has the same bound on its dimension
_MAX_CIRCLE_N = 1 << 10
_MAX_DIM = 2 * _MAX_CIRCLE_N + 1


def _rows(values: list) -> np.ndarray:
    """A config's operator values as a float array, refused past ``_MAX_DIM``
    rows before any n x n array is made."""
    if len(values) > _MAX_DIM:
        raise ValueError(f"an operator of dimension {len(values)}, more than {_MAX_DIM}")
    return np.asarray(values, dtype=float)


_OPERATOR = _Kinds(
    diag=_Object(lambda values: SymmetricOperator(np.diag(_rows(values))),
                 values=([float], _REQUIRED)),
    matrix=_Object(lambda entries: SymmetricOperator(_rows(entries)),
                   entries=([[float]], _REQUIRED)),
    odd_base=_Object(lambda cluster_values, epsilon, seed:
                     make_odd_multiplicity_base(_rows(cluster_values), epsilon, seed),
                     cluster_values=([float], _REQUIRED),
                     epsilon=(float, _REQUIRED), seed=(int, _REQUIRED)),
)


def _circle(n_max: int, delta: float) -> CircleDiracModel:
    if n_max > _MAX_CIRCLE_N:
        raise ValueError(f"n_max = {n_max}, more than {_MAX_CIRCLE_N}")
    return make_circle_dirac(n_max, delta)


_CIRCLE = _Object(_circle, n_max=(int, _REQUIRED), delta=(float, _REQUIRED))
_BASE = (_OPERATOR, _REQUIRED)
_LOOP = _Kinds(
    halfturn=_Object(lambda base: make_halfturn_loop(base).family(), base=_BASE),
    fullturn=_Object(lambda base: make_fullturn_loop(base).family(), base=_BASE),
    spin=_Object(lambda m, turns, base: make_spin_loop(m, base, turns=turns).family(),
                 m=(int, _REQUIRED), turns=(int, 1), base=_BASE),
    conical=_Object(acceptance.make_conical_boundary),
    commuting=_Object(acceptance.make_commuting_loop, amplitude=(float, 0.3)),
)
_WINDOW = _Object(SpectralWindow, lower=(float, _REQUIRED), upper=(float, _REQUIRED),
                  count=(int, 1))
_DISC = _Object(lambda boundary, center: make_orbit_disc(boundary, center=center),
                boundary=(_LOOP, _REQUIRED), center=(_Either((str, _OPERATOR)), "mean"))


# a track factors every one of its samples + 1 grid points and a lasso
# scan every one of its n_r * n_theta; a scan also stacks the n_theta
# operators of one ring at a time
_MAX_GRID_POINTS = 1 << 16
_MAX_RING_BYTES = 1 << 26


def _track_grid(samples: int) -> np.ndarray:
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if samples > _MAX_GRID_POINTS:
        raise ValueError(f"{samples} samples, more than {_MAX_GRID_POINTS}")
    return np.linspace(0.0, 1.0, samples + 1)


def _scan_grid(n_r: int, n_theta: int) -> dict:
    if n_r < 2 or n_theta < 3:
        raise ValueError(f"need n_r >= 2 and n_theta >= 3, got n_r={n_r}, n_theta={n_theta}")
    if n_r * n_theta > _MAX_GRID_POINTS:
        raise ValueError(f"n_r * n_theta = {n_r * n_theta} points, more than {_MAX_GRID_POINTS}")
    return {"n_r": n_r, "n_theta": n_theta}


def _tolerances(refine: float) -> dict:
    if not refine > 0:
        raise _fail("tolerances.refine", f"must be finite and positive, got {refine}")
    return {"refine": refine}


_OPS = {"le": operator.le, "ge": operator.ge, "eq": operator.eq}


def _schema(name: str) -> _Object:
    """Top-level schema of an experiment: its own fields plus the shared
    ``experiment``, ``output`` and ``expectations`` (``<metric>_le``,
    ``_ge`` or ``_eq`` for each observed metric, typed like the metric)."""
    _, metrics, fields = _EXPERIMENTS[name]
    checks = {f"{m}_{op}": (kind, None) for m, kind in metrics.items() for op in _OPS}
    return _Object(
        experiment=(str, None),
        output=(_Object(dir=(str, None), prefix=(str, name.replace("-", "_"))), {}),
        expectations=(_Object(**checks), {}),
        **fields,
    )


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
    # the directory is made at the first write, so a run refused before
    # its first artifact leaves none behind
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _write_atomic(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: str, rows: list):
    """Write ``header`` and ``rows``, floats as ``f"{x:.17g}"`` and the rest
    as ``str(x)``; each column keeps the type of its first row's cell, so
    the whole table is one ``%`` format of one line repeated per row."""
    body = ""
    if rows:
        line = ",".join("%.17g" if isinstance(x, float) else "%s" for x in rows[0]) + "\n"
        body = (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    _write_atomic(path, f"{header}\n{body}")


class _Run:
    """Shared plumbing for one experiment invocation."""

    def __init__(self, name: str, cfg: dict, args):
        self.started = time.perf_counter()
        declared = cfg.get("experiment", name)
        if declared != name:
            raise _fail("experiment", f"config declares {declared!r} but subcommand is {name}")
        self.spec = _check(_schema(name), cfg, "", args.seed)
        self.name = name
        self.cfg = cfg
        self.seed_override = args.seed
        self.out = (args.out or os.environ.get("EIGENLASSO_OUT")
                    or self.spec["output"]["dir"] or ".")
        self.artifacts = {}
        self.warnings = []

    def path(self, suffix: str) -> str:
        return os.path.join(self.out, f"{self.spec['output']['prefix']}_{suffix}")

    def csv(self, suffix: str, header: str, rows):
        self.artifacts[suffix] = self.path(suffix)
        _write_csv(self.artifacts[suffix], header, rows)

    def finish(self, results: dict, **extra) -> int:
        """Write the report; the observed metrics come from ``extra``, else ``results``."""
        merged = {**results, **extra}
        observed = {m: merged.get(m) for m in _EXPERIMENTS[self.name][1]}
        bounds = self.spec["expectations"]
        checks = []
        for key in sorted(k for k, v in bounds.items() if v is not None):
            metric, op = key.rsplit("_", 1)
            value = observed[metric]
            ok = value is not None and _OPS[op](value, bounds[key])
            checks.append({"check": key, "expected": bounds[key], "observed": value, "ok": ok})
        ok = all(c["ok"] for c in checks)
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

def _cmd_spectrum(run: _Run, spec: dict) -> int:
    model = spec["model"]
    results: dict = {}
    if isinstance(model, CircleDiracModel):
        values = model.numerical_spectrum()
        analytic = np.sort(model.analytic_spectrum())
        results["max_deviation"] = float(np.abs(values - analytic).max())
    else:
        try:
            values, _ = eigendecompose(model)
        except _FactorError as exc:
            raise _fail("model", str(exc)) from exc
    run.csv("spectrum.csv", "j,t,lambda",
            [(j, 0.0, float(v)) for j, v in enumerate(values)])
    results["values"] = [float(v) for v in values]
    return run.finish(results, n_values=len(values))


def _cmd_track(run: _Run, spec: dict) -> int:
    grid = spec["grid"]
    table = enumerate_family(spec["loop"], grid)
    rows = [(j, t, value) for t, values in zip(grid.tolist(), table.values.tolist())
            for j, value in enumerate(values)]
    run.csv("track.csv", "j,t,lambda", rows)
    drift = float(np.abs(table.values - table.values[0]).max())
    return run.finish({"weyl_defect": table.weyl_defect, "max_drift": drift},
                      n_samples=len(grid))


def _cmd_holonomy(run: _Run, spec: dict) -> int:
    loop, window = spec["loop"], spec["window"]
    path, ret = transport(loop, window)
    k = window.count
    dim = path.frames[0].shape[0]
    header = "t," + ",".join(f"f{a}{b}" for a in range(dim) for b in range(k))
    frames = np.real(path.frames).reshape(path.n_samples, -1)
    rows = np.column_stack([path.parameters, frames]).tolist()
    run.csv("frames.csv", header, rows)
    predicted = predicted_sign(loop.parity, k)
    results = {
        "sign": ret.sign,
        "determinant": ret.determinant,
        "n_samples": path.n_samples,
        "certified": ret.certified,
        "predicted_sign": predicted,
        "return_matrix": ret.matrix.tolist(),
    }
    return run.finish(results, abs_det=abs(ret.determinant),
                      matches_prediction=ret.sign == predicted)


def _cmd_lasso_scan(run: _Run, spec: dict) -> int:
    grid = (spec["grid"]["n_r"], spec["grid"]["n_theta"])
    dim = spec["disc"].dim
    if grid[1] * dim * dim * 8 > _MAX_RING_BYTES:
        raise _fail("grid", f"a ring of {grid[1]} operators of dimension {dim} takes "
                            f"{grid[1] * dim * dim * 8} bytes, more than {_MAX_RING_BYTES}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # a RuntimeWarning keeps its filter
        try:
            found = answer(spec["disc"], spec["window"], grid,
                           tol=spec["tolerances"]["refine"])
        except WindowRefused as exc:
            raise _fail("window", str(exc)) from exc
    run.warnings.extend(str(w.message) for w in caught)
    scan, cert, miss = found.scan, found.certificate, found.not_found
    rows = [(r, t, gap) for r, gaps in zip(scan.r_values.tolist(), scan.gap_map.tolist())
            for t, gap in zip(scan.theta_values.tolist(), gaps)]
    run.csv("gapmap.csv", "r,theta,min_gap", rows)
    results: dict = {
        "boundary_sign": scan.boundary_sign,
        "anchor": scan.anchor,
        "scan_min_gap": scan.min_gap,
        "scan_eigensolves": scan.eigensolves,
    }
    if cert is not None:
        results["certificate"] = asdict(cert)
        return run.finish(results, certificate=True, gap=cert.gap, r=cert.r, best_gap=cert.gap)
    results["not_found"] = {
        "best_r": miss.best_point[0], "best_theta": miss.best_point[1],
        "best_gap": miss.best_gap, "levels": miss.levels, "evaluations": miss.evaluations,
        "method": miss.method,
    }
    return run.finish(results, certificate=False, best_gap=miss.best_gap)


def _cmd_properties(run: _Run, spec: dict) -> int:
    model = spec["model"]
    radius = spec["radius"] if spec["radius"] is not None else float(model.n_max - 1)
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
    return run.finish(results)


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
        _write_json(os.path.join(out, "reproduce_all.json"),
                    {"results": [asdict(r) for r in results],
                     "passed": n_pass == len(results)})
    return 0 if n_pass == len(results) else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# name -> (command, observed metrics with their types, config fields)
_EXPERIMENTS = {
    "spectrum": (_cmd_spectrum, {"n_values": int, "max_deviation": float},
                 {"model": (_Kinds(circle=_CIRCLE, **_OPERATOR), _REQUIRED)}),
    "track": (_cmd_track, {"n_samples": int, "weyl_defect": float, "max_drift": float},
              {"loop": (_LOOP, _REQUIRED),
               "grid": (_Object(_track_grid, samples=(int, _REQUIRED)), _REQUIRED)}),
    "holonomy": (_cmd_holonomy, {"sign": int, "abs_det": float, "n_samples": int,
                                 "matches_prediction": bool},
                 {"loop": (_LOOP, _REQUIRED), "window": (_WINDOW, _REQUIRED)}),
    "lasso-scan": (_cmd_lasso_scan, {"boundary_sign": int, "scan_min_gap": float, "gap": float,
                                     "r": float, "certificate": bool, "best_gap": float},
                   {"disc": (_DISC, _REQUIRED), "window": (_WINDOW, _REQUIRED),
                    "grid": (_Object(_scan_grid, n_r=(int, 16), n_theta=(int, 24)), {}),
                    "tolerances": (_Object(_tolerances, refine=(float, 1e-8)), {})}),
    "properties": (_cmd_properties, {"symmetry_ok": bool, "counting_exponent": float,
                                     "max_abs_value": float, "n_in_window": int},
                   {"model": (_Kinds(circle=_CIRCLE), _REQUIRED), "radius": (float, None)}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first ``main`` call and kept for the
    process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="eigenlasso",
        description="Detect forced eigenvalue degeneracies via loop holonomy signs "
                    "and disc scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
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
        run = _Run(args.command, cfg, args)
        return _EXPERIMENTS[args.command][0](run, run.spec)
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
