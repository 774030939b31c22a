"""Tests of the benchmark's own code: generators, checker and tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import os
import signal
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_library()

import problems as pb  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def _subset(tmp_path):
    """A few cheap problems of every workload, built; no spin loops."""
    chosen, seen = [], set()
    for workload in pb.WORKLOADS:
        for p in pb.generate(workload, 5):
            wanted = p.family.startswith(("rotation", "stability-n2", "conical", "commuting",
                                          "halfturn-n8", "cli-"))
            if wanted and p.family not in seen:
                seen.add(p.family)
                chosen.append(p)
    pb.build(chosen, str(tmp_path))
    return chosen


@pytest.mark.parametrize("workload", pb.WORKLOADS)
def test_same_seed_gives_byte_identical_problem_list(workload):
    first = pb.serialize(pb.generate(workload, 3))
    assert first == pb.serialize(pb.generate(workload, 3))
    assert first != pb.serialize(pb.generate(workload, 4))


def test_checker_flags_wrong_sign_and_fake_certificate(tmp_path):
    transport = next(p for p in pb.generate("sign-dense", 0) if p.kind == "transport")
    expected = transport.spec["expected_sign"]
    assert verify.check(transport, {"sign": expected}) is None
    assert verify.check(transport, {"sign": -expected}) == "wrong_sign"

    cone = next(p for p in pb.generate("lasso", 0) if p.family == "conical")
    pb.build([cone], str(tmp_path))
    true_cert = {"r": 0.0, "theta": 0.0, "gap": 0.0, "pair_index": 0, "tol": 1e-10}
    fake_cert = {"r": 0.9, "theta": 0.3, "gap": 0.0, "pair_index": 0, "tol": 1e-10}
    answer = {"boundary_sign": -1, "anchor": 1}
    assert verify.check(cone, {**answer, "certificate": true_cert}) is None
    assert verify.check(cone, {**answer, "certificate": fake_cert}) == "false_certificate"
    assert verify.check(cone, {**answer, "certificate": None, "best_gap": 0.5}) == "refused"
    assert verify.check(cone, None, "TransportError") == "raised"


def test_failures_count_each_problem_once():
    problems = [p for p in pb.generate("sign-dense", 0) if p.kind == "transport"][:3]
    right = [{"sign": p.spec["expected_sign"]} for p in problems]
    wrong = {"sign": -problems[1].spec["expected_sign"]}
    once = [(0, 0.1, right[0], None), (1, 0.1, wrong, None), (2, 0.1, right[2], None)]
    kinds, repeat = run.check_runs(problems, once + once[:2])
    assert kinds == [None, "wrong_sign", None] and repeat
    assert verify.tally(problems, kinds)["failed"] == 1
    _, repeat = run.check_runs(problems, once + [(1, 0.1, right[1], None)])
    assert not repeat


def _traced_pass(problems):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, results = run.run_pass(problems, tracer)
    finally:
        tracer.uninstall()
    metrics = spans.per_layer(tracer.spans)
    metrics["cli.bytes_written"] = sum(run._bytes_written(p.built["out"])
                                       for p in problems if p.kind == "cli")
    return results, metrics


def test_traced_and_untraced_runs_agree(tmp_path, alarm):
    problems = _subset(tmp_path)
    _, plain = run.run_pass(problems)
    traced, _ = _traced_pass(problems)
    assert [a for _, a, _ in plain] == [a for _, a, _ in traced]
    kinds, repeat = run.check_passes(problems, [plain, traced])
    assert repeat
    assert verify.tally(problems, kinds[0]) == verify.tally(problems, kinds[1])
    assert not hasattr(np.linalg.eigh, "__wrapped_by_perfbench__")


def test_per_layer_counts_repeat_between_traced_runs(tmp_path, alarm):
    problems = _subset(tmp_path)
    _, first = _traced_pass(problems)
    _, second = _traced_pass(problems)
    counts = [k for k, (unit, _, _) in spans.PER_LAYER.items()
              if unit in ("count", "bytes") and k in first]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for layer in ("models.sample_calls", "linalg.eigh_mats", "linalg.norm2_calls",
                  "holonomy.samples", "lasso.scan_points", "lasso.refine_gap_evals",
                  "cli.runs", "cli.bytes_written"):
        assert first[layer] > 0, layer
