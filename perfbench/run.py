#!/usr/bin/env python3
"""eigenlasso benchmark: four seeded workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sign-dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One caller in one process asks eigenlasso one problem at a time (a
closed loop with one client, and one BLAS thread).  A
problem is one sign, one disc certificate or one CLI config run.  The
workload's problem list is one *pass*; the timed phase solves the
problems in order, starting over at the end, until one whole pass is
done and ``--seconds`` have gone by.  A problem's time is the median
over the times it was solved; the median and the tail are taken over
the problems of the pass, the tail being the time of the slowest
problem that still has ten problems beyond it.

``--trace 0`` reports the end-to-end metrics: problems per second (the
pass's problem count over the sum of their times, so that the problems
that happen to be solved twice do not change the mix), median and tail
time per problem, set-up time (the median of this
process's set-up and two fresh processes' set-ups: importing
eigenlasso plus building every problem's inputs from the seed) and peak
resident memory.  ``--trace 1`` builds the inputs and runs one untraced and one
traced pass, and reports the per-layer metrics of ``spans.PER_LAYER``
from spans recorded around eigenlasso's public functions and the
numpy.linalg kernels; the spans are written to ``.perfbench_out/``.

Every answer is checked (see ``verify``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the details: failures by kind, the tail percentile and
sample count, the set-up samples and the environment.  ``attempted``
counts the problems of the pass and ``failed`` those whose first
solve failed, so both depend on the seed only; ``failed`` counts
every failed problem, including those that hit a defect the
ROADMAP already names (``problems.ALIASING``, ``problems.STALL``).
``correct`` is false when any other failure occurs, when a problem's
outcome differs between its solves, or when traced and untraced answers
differ.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# the same names as problems.WORKLOADS, here so arguments parse before eigenlasso loads
WORKLOADS = ("sign-dense", "sign-small", "lasso", "cli")
END_TO_END = {
    "solve_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# One BLAS thread: on two cores OpenBLAS's default of two threads made
# these small and mid-sized factorizations slower and far noisier.
BLAS_THREADS = "1"
TAIL_BEYOND = 10             # the tail is the slowest problem with this many beyond it
SETUP_SAMPLES = 3            # this process plus 2 fresh ones
PROBLEM_CAP_S = 20.0         # one problem running longer counts as over_time_cap
TIMED_BUDGET_S = 100.0       # no problem starts past this once a pass is done


class ProblemTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no
    ``except Exception`` inside eigenlasso can swallow it."""


def _on_alarm(signum, frame):
    raise ProblemTimeout()


def import_library():
    """Import eigenlasso from this checkout's sources, and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import eigenlasso
    origin = os.path.abspath(eigenlasso.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"eigenlasso was imported from {origin}, not from {SRC}")
    return eigenlasso


def setup(workload: str, seed: int, workdir: str, tracer=None):
    """Import eigenlasso, generate and build the problems; return (problems, seconds).

    Generation is never traced; building is when a tracer is given.
    """
    start = time.perf_counter()
    import_library()
    import problems as pb
    problems = pb.generate(workload, seed)
    if tracer is not None:
        tracer.recording = True
    try:
        pb.build(problems, workdir)
    finally:
        if tracer is not None:
            tracer.recording = False
    return problems, time.perf_counter() - start


def solve_one(p, tracer=None):
    """(seconds, answer, error name) for one problem, under the time cap."""
    import problems as pb
    if tracer is not None:
        tracer.problem = p.pid
        tracer.recording = True
    answer, error = None, None
    signal.setitimer(signal.ITIMER_REAL, PROBLEM_CAP_S)
    start = time.perf_counter()
    try:
        answer = pb.solve(p)
    except ProblemTimeout:
        error = "ProblemTimeout"
    except Exception as exc:  # any library error is a counted failure, not a crash
        error = type(exc).__name__
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.recording = False
            tracer.problem = None
    return elapsed, answer, error


def run_pass(problems, tracer=None):
    """Solve every problem once; return (wall seconds, [(seconds, answer, error)])."""
    start = time.perf_counter()
    results = [solve_one(p, tracer) for p in problems]
    return time.perf_counter() - start, results


def warm_up(problems):
    """Solve the first problem of each family once, untimed and unchecked."""
    seen = set()
    for p in problems:
        if p.family not in seen:
            seen.add(p.family)
            solve_one(p)


def timed_cycle(problems, seconds):
    """Solve the problems in order, round and round, until one whole pass
    is done and ``seconds`` have gone by (or TIMED_BUDGET_S, whatever
    ``seconds`` says).  Return (wall seconds, [(index, seconds, answer, error)])."""
    runs, i = [], 0
    start = time.perf_counter()
    while True:
        runs.append((i % len(problems),) + solve_one(problems[i % len(problems)]))
        i += 1
        elapsed = time.perf_counter() - start
        if i >= len(problems) and (elapsed >= seconds or elapsed >= TIMED_BUDGET_S):
            return elapsed, runs


def per_problem_times(problems, runs):
    """Each problem's wall time: the median over the times it was solved."""
    samples = [[] for _ in problems]
    for i, t, _, _ in runs:
        samples[i].append(t)
    return [statistics.median(ts) for ts in samples]


def tail(times):
    """(time, percentile) of the slowest problem with TAIL_BEYOND problems beyond it."""
    ordered = sorted(times)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def check_passes(problems, passes):
    """Failure kind per (pass, problem), plus whether outcomes repeat across passes."""
    import verify
    kinds = [[verify.check(p, ans, err) for p, (_, ans, err) in zip(problems, results)]
             for results in passes]
    repeat = all(k == kinds[0] for k in kinds[1:])
    return kinds, repeat


def check_runs(problems, runs):
    """Failure kind per problem, from its first solve, plus whether every
    later solve of the same problem had the same outcome."""
    import verify
    kinds = [verify.check(problems[i], ans, err) for i, _, ans, err in runs]
    first = kinds[:len(problems)]
    repeat = all(k == first[i] for (i, _, _, _), k in zip(runs, kinds))
    return first, repeat


def _setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _bytes_written(out_dir: str) -> int:
    """Artifact bytes in a CLI output directory; a report counts without
    its ``environment`` block, whose timings change from run to run."""
    total = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith("_report.json"):
            with open(path) as fh:
                report = json.load(fh)
            report.pop("environment", None)
            total += len(json.dumps(report, sort_keys=True, indent=2)) + 1
        else:
            total += os.path.getsize(path)
    return total


def measure(workload: str, seed: int, seconds: float, workdir: str):
    problems, own_setup = setup(workload, seed, workdir)
    setups = [own_setup] + [_setup_in_fresh_process(workload, seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    warm_up(problems)
    wall, runs = timed_cycle(problems, seconds)
    kinds, repeat = check_runs(problems, runs)
    times = per_problem_times(problems, runs)
    tail_s, tail_pct = tail(times)
    metrics = {
        "solve_per_s": len(problems) / sum(times),
        "solve_ms_p50": 1e3 * statistics.median(times),
        "solve_ms_tail": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "solves": len(runs), "solves_per_timed_s": len(runs) / wall,
        "problems_per_pass": len(problems),
        "tail_percentile": tail_pct, "tail_samples": len(times),
        "timed_s": wall, "setup_samples_s": setups, "outcomes_repeat": repeat,
    }
    return problems, kinds, metrics, detail, repeat


def measure_traced(workload: str, seed: int, workdir: str):
    import_library()
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        problems, _ = setup(workload, seed, workdir, tracer)
    finally:
        tracer.uninstall()
    warm_up(problems)
    plain_wall, plain = run_pass(problems)
    tracer.install()
    try:
        traced_wall, traced = run_pass(problems, tracer)
    finally:
        tracer.uninstall()
    kinds, repeat = check_passes(problems, [plain, traced])
    same = repeat and [a for _, a, _ in plain] == [a for _, a, _ in traced]
    metrics = spans.per_layer(tracer.spans)
    metrics["cli.bytes_written"] = sum(_bytes_written(p.built["out"])
                                       for p in problems if p.kind == "cli")
    metrics["trace.solve_per_s_ratio"] = plain_wall / traced_wall
    metrics["trace.spans"] = len(tracer.spans)
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv")
    tracer.write(span_file)
    detail = {
        "problems_per_pass": len(problems), "untraced_pass_s": plain_wall,
        "traced_pass_s": traced_wall, "answers_identical": same, "span_file": span_file,
        "predictions": [{"layer": a, "moves": b} for a, b in spans.PREDICTIONS],
    }
    return problems, kinds[1], metrics, detail, same


def run_workload(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            problems, kinds, metrics, detail, consistent = measure_traced(
                args.workload, args.seed, workdir)
            import spans
            units = {k: v[0] for k, v in spans.PER_LAYER.items()}
        else:
            problems, kinds, metrics, detail, consistent = measure(
                args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END
        import envinfo
        import problems as pb
        import verify
        counts = verify.tally(problems, kinds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = consistent and counts["unexpected_total"] == 0
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_frac": counts["failed"] / len(kinds),
        "failures_by_kind": counts["by_kind"], "unexpected_failures": counts["unexpected"],
        "ranges": pb.RANGES[args.workload], "environment": envinfo.record(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct), "attempted": len(kinds), "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_setup_only(args) -> int:
    workdir = tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT)
    try:
        _, seconds = setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of all metrics."""
    status = 0
    print(f"{'workload':<11} {'metric':<34} {'value':>14}  unit")
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload:<11} failed: {done.stderr.strip()[-500:]}")
            status = 1
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:<11} {name:<34} {m['value']:>14.6g}  {m['unit']}")
        print(f"{workload:<11} {'fail_frac':<34} {detail['fail_frac']:>14.6g}  ratio"
              f"  ({result['failed']} of {result['attempted']} failed: "
              f"{ {k: v for k, v in detail['failures_by_kind'].items() if v} }; "
              f"correct={result['correct']})")
        if "tail_percentile" in detail:
            note = f"(solve_ms_tail is p{detail['tail_percentile']:.1f} of"
            print(f"{workload:<11} {note:<34} {detail['tail_samples']:>14d}  problems)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for fresh-process samples)")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read when numpy loads, and by every child
    if args.workload == "all":
        return run_all(args)
    try:
        return run_setup_only(args) if args.setup_only else run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import eigenlasso from {SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
