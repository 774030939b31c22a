"""Span tracing installed from the benchmark's side, and per-layer metrics.

``Tracer.install`` replaces public eigenlasso functions, in every
eigenlasso module that holds them, and four ``numpy.linalg`` kernels by
wrappers that record a span (id, parent, name, start, end, problem)
while recording is switched on.  ``uninstall`` puts the originals back.
Spans stay in memory until ``write``.  Nothing inside eigenlasso
changes; a span covers exactly one call made across a layer boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from eigenlasso import cli, clifford, holonomy, lasso, models, spectral

# Per-layer metrics: name -> (unit, better, definition).
PER_LAYER = {
    "models.sample_calls": ("count", "lower", "OperatorFamily calls (one sampled operator each)"),
    "models.sample_self_s": ("s", "lower", "self time of OperatorFamily calls"),
    "models.build_s": ("s", "lower", "time in models.make_* constructors, outermost calls"),
    "clifford.structure_map_calls": ("count", "lower", "find_structure_map calls"),
    "clifford.structure_map_s": ("s", "lower", "time in find_structure_map"),
    "spectral.eigendecompose_calls": ("count", "lower", "eigendecompose calls"),
    "spectral.eigendecompose_self_s": ("s", "lower", "eigendecompose time minus its kernels"),
    "spectral.projector_distance_calls": ("count", "lower", "projector_distance calls"),
    "spectral.projector_distance_self_s": ("s", "lower",
                                           "projector_distance time minus its kernels"),
    "linalg.eigh_calls": ("count", "lower", "numpy.linalg.eigh calls"),
    "linalg.eigh_mats": ("count", "lower", "matrices factored by eigh, batch members counted"),
    "linalg.eigh_s": ("s", "lower", "time in eigh"),
    "linalg.eigvalsh_calls": ("count", "lower", "numpy.linalg.eigvalsh calls"),
    "linalg.eigvalsh_mats": ("count", "lower", "matrices passed to eigvalsh"),
    "linalg.eigvalsh_s": ("s", "lower", "time in eigvalsh"),
    "linalg.svd_calls": ("count", "lower", "SVDs: numpy.linalg.svd plus norm(., 2) of a matrix"),
    "linalg.norm2_calls": ("count", "lower", "SVDs that come from norm(., 2)"),
    "linalg.svd_s": ("s", "lower", "time in those SVDs"),
    "linalg.flops_est": ("flop", "lower",
                         "computed from matrix sizes: eigh 9n^3, eigvalsh 4n^3/3, "
                         "SVD values 4mn^2-4n^3/3, SVD with vectors 14mn^2+8n^3"),
    "holonomy.transport_calls": ("count", "lower", "transport calls"),
    "holonomy.transport_self_s": ("s", "lower", "transport time minus its children"),
    "holonomy.samples": ("count", "lower", "sum of FramePath.n_samples over transports"),
    "holonomy.pair_checks_per_sample": ("ratio", "lower",
                                        "projector_distance calls inside transport / samples"),
    "lasso.scan_calls": ("count", "lower", "scan_disc calls"),
    "lasso.scan_self_s": ("s", "lower", "scan_disc time minus its children"),
    "lasso.scan_points": ("count", "lower", "n_r * n_theta summed over scans"),
    "lasso.stack_mb_est": ("MB", "lower", "largest scan stack n_r*n_theta*n^2*8 bytes, computed"),
    "lasso.refine_calls": ("count", "lower", "refine calls"),
    "lasso.refine_self_s": ("s", "lower", "refine time minus its children"),
    "lasso.refine_gap_evals": ("count", "lower", "matrices passed to eigvalsh inside refine"),
    "cli.runs": ("count", "lower", "cli.main calls"),
    "cli.self_s": ("s", "lower", "cli.main time minus library children"),
    "cli.bytes_written": ("bytes", "lower",
                          "artifact bytes, each report counted without its timing block"),
    "trace.solve_per_s_ratio": ("ratio", "higher",
                                "traced / untraced problems per second on the same pass"),
    "trace.spans": ("count", "lower", "spans recorded in the traced pass and its set-up"),
}

# Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = [
    ("linalg.norm2_calls, linalg.svd_s, spectral.eigendecompose_self_s, "
     "spectral.projector_distance_self_s",
     "solve_per_s and solve_ms_p50 on sign-dense (flops), less on sign-small "
     "(call overhead); no change on cli"),
    ("linalg.eigh_calls against linalg.eigh_mats (batching)",
     "solve_per_s on sign-small; no change on sign-dense, watch peak_rss_mb there"),
    ("lasso.stack_mb_est (chunking)",
     "peak_rss_mb on lasso once the m=8 structure-map SVD no longer sets it; "
     "solve_per_s on lasso and the sign-* workloads unchanged"),
    ("lasso.refine_gap_evals, lasso.refine_self_s",
     "solve_ms_p50 on lasso; stalled refinements (40 levels x 25 evaluations) set "
     "solve_ms_tail there"),
    ("holonomy.pair_checks_per_sample, holonomy.samples",
     "solve_ms_tail on sign-small; certified stepping moves its failed count"),
    ("models.sample_self_s",
     "solve_ms_p50 on sign-dense and lasso (kron sampler at n >= 64); little on sign-small"),
    ("clifford.structure_map_s",
     "setup_s and peak_rss_mb on lasso (m=8), solve_ms_p50 on cli (spin configs rebuilt "
     "per run); no change on sign-dense"),
    ("cli.self_s, cli.bytes_written", "solve_ms_p50 on cli only"),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.recording = False
        self.problem: Optional[int] = None
        self.spans: List[tuple] = []  # (id, parent, name, start, end, problem, info)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end, tracer.problem, None)
            if info is not None:
                tracer.spans[sid] = tracer.spans[sid][:6] + (info(args, kwargs, out),)
            return out

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- installing -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, fn: Callable, new: Callable) -> None:
        """Rebind ``fn`` in every loaded eigenlasso module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eigenlasso" or mod_name.startswith("eigenlasso.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [
            (clifford.find_structure_map, "clifford.structure_map", None),
            (spectral.eigendecompose, "spectral.eigendecompose", None),
            (spectral.projector_distance, "spectral.projector_distance", None),
            (holonomy.transport, "holonomy.transport", _transport_info),
            (lasso.scan_disc, "lasso.scan", _scan_info),
            (lasso.refine, "lasso.refine", None),
            (cli.main, "cli.main", None),
        ]
        targets += [(getattr(models, n), "models.build", None)
                    for n in models.__all__ if n.startswith("make_")]
        for fn, name, info in targets:
            self._replace_everywhere(fn, self._wrap(name, fn, info))
        self._replace(models.OperatorFamily, "__call__",
                      self._wrap("models.sample", models.OperatorFamily.__call__))
        la = np.linalg
        self._replace(la, "eigh", self._wrap("linalg.eigh", la.eigh, _eig_info(9.0)))
        self._replace(la, "eigvalsh", self._wrap("linalg.eigvalsh", la.eigvalsh,
                                                 _eig_info(4.0 / 3.0)))
        self._replace(la, "svd", self._wrap("linalg.svd", la.svd, _svd_info))
        self._replace(la, "norm", self._norm_wrapper(la.norm))

    def _norm_wrapper(self, norm: Callable) -> Callable:
        """norm(., 2) of a matrix is an SVD: record it as one; other norms pass."""
        svd_span = self._wrap("linalg.svd", norm, _norm2_info)

        @functools.wraps(norm)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and np.ndim(x) == 2:
                return svd_span(x, ord=ord, axis=axis, keepdims=keepdims)
            return norm(x, ord=ord, axis=axis, keepdims=keepdims)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """One span per line: id, parent, name, start, end, problem (-1 = set-up)."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,problem\n")
            for sid, parent, name, start, end, problem, _ in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},"
                         f"{-1 if problem is None else problem}\n")


def _transport_info(args, kwargs, out):
    return {"samples": out[0].n_samples}


def _scan_info(args, kwargs, out):
    bound = inspect.signature(_ORIGINAL_SCAN).bind(*args, **kwargs)
    bound.apply_defaults()
    n_r, n_theta = bound.arguments["grid"]
    n = bound.arguments["disc"].dim
    return {"points": n_r * n_theta, "stack_mb": n_r * n_theta * n * n * 8 / 1e6}


_ORIGINAL_SCAN = lasso.scan_disc


def _eig_info(coeff: float):
    def info(args, kwargs, out):
        a = np.asarray(args[0] if args else kwargs["a"])
        mats = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
        n = a.shape[-1]
        return {"mats": mats, "flops": mats * coeff * n ** 3}
    return info


def _svd_dims(a):
    m, n = a.shape[-2], a.shape[-1]
    mats = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    return mats, max(m, n), min(m, n)


def _svd_info(args, kwargs, out):
    a = np.asarray(args[0] if args else kwargs["a"])
    mats, m, n = _svd_dims(a)
    with_vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    flops = 14 * m * n * n + 8 * n ** 3 if with_vectors else 4 * m * n * n - 4 * n ** 3 / 3
    return {"mats": mats, "flops": mats * flops, "norm2": False}


def _norm2_info(args, kwargs, out):
    _, m, n = _svd_dims(np.asarray(args[0]))
    return {"mats": 1, "flops": 4 * m * n * n - 4 * n ** 3 / 3, "norm2": True}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def per_layer(spans: List[tuple]) -> Dict[str, float]:
    """Per-layer metrics from a span list (every PER_LAYER name but trace.* and cli.bytes)."""
    child = defaultdict(float)
    for sid, parent, name, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    names = {s[0]: s[2] for s in spans}
    parents = {s[0]: s[1] for s in spans}

    def inside(sid: int, ancestor: str) -> bool:
        p = parents[sid]
        while p >= 0:
            if names[p] == ancestor:
                return True
            p = parents[p]
        return False

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    m: Dict[str, float] = defaultdict(float)
    samples = 0
    for sid, parent, name, start, end, _, info in spans:
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child[sid]
        if name == "models.build":
            if parent < 0 or names[parent] != "models.build":
                m["models.build_s"] += dur
        else:
            total_s[name] += dur
        if name.startswith("linalg."):
            m["linalg.flops_est"] += info["flops"]
            if name == "linalg.svd":
                m["linalg.norm2_calls"] += info["norm2"]
            else:
                m[name + "_mats"] += info["mats"]
                if name == "linalg.eigvalsh" and inside(sid, "lasso.refine"):
                    m["lasso.refine_gap_evals"] += info["mats"]
        elif name == "holonomy.transport":
            samples += info["samples"]
        elif name == "lasso.scan":
            m["lasso.scan_points"] += info["points"]
            m["lasso.stack_mb_est"] = max(m["lasso.stack_mb_est"], info["stack_mb"])
        elif name == "spectral.projector_distance" and inside(sid, "holonomy.transport"):
            m["pair_checks"] += 1

    out = {
        "models.sample_calls": calls["models.sample"],
        "models.sample_self_s": self_s["models.sample"],
        "models.build_s": m["models.build_s"],
        "clifford.structure_map_calls": calls["clifford.structure_map"],
        "clifford.structure_map_s": total_s["clifford.structure_map"],
        "spectral.eigendecompose_calls": calls["spectral.eigendecompose"],
        "spectral.eigendecompose_self_s": self_s["spectral.eigendecompose"],
        "spectral.projector_distance_calls": calls["spectral.projector_distance"],
        "spectral.projector_distance_self_s": self_s["spectral.projector_distance"],
        "linalg.eigh_calls": calls["linalg.eigh"],
        "linalg.eigh_mats": m["linalg.eigh_mats"],
        "linalg.eigh_s": total_s["linalg.eigh"],
        "linalg.eigvalsh_calls": calls["linalg.eigvalsh"],
        "linalg.eigvalsh_mats": m["linalg.eigvalsh_mats"],
        "linalg.eigvalsh_s": total_s["linalg.eigvalsh"],
        "linalg.svd_calls": calls["linalg.svd"],
        "linalg.norm2_calls": m["linalg.norm2_calls"],
        "linalg.svd_s": total_s["linalg.svd"],
        "linalg.flops_est": m["linalg.flops_est"],
        "holonomy.transport_calls": calls["holonomy.transport"],
        "holonomy.transport_self_s": self_s["holonomy.transport"],
        "holonomy.samples": samples,
        "holonomy.pair_checks_per_sample": m["pair_checks"] / samples if samples else 0.0,
        "lasso.scan_calls": calls["lasso.scan"],
        "lasso.scan_self_s": self_s["lasso.scan"],
        "lasso.scan_points": m["lasso.scan_points"],
        "lasso.stack_mb_est": m["lasso.stack_mb_est"],
        "lasso.refine_calls": calls["lasso.refine"],
        "lasso.refine_self_s": self_s["lasso.refine"],
        "lasso.refine_gap_evals": m["lasso.refine_gap_evals"],
        "cli.runs": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }
    return {k: (int(v) if PER_LAYER[k][0] == "count" else float(v)) for k, v in out.items()}
