"""Answer checks, independent of the code that produced the answers.

Expected signs come from the parity rule applied to the generator's own
description of each loop, never from eigenlasso's ``predicted_sign``.
Certificates are re-verified with a fresh ``numpy.linalg.eigvalsh``.
CLI runs are judged by their exit code and the ``passed`` flag of the
report they wrote, whose expectations the generator set from the same
parity rule and closed forms.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

import numpy as np

from problems import Problem

FAILURE_KINDS = ("wrong_sign", "refused", "not_found_forced", "false_certificate",
                 "cli_exit", "raised", "over_time_cap")

# the failure each known ROADMAP defect produces
DEFECT_KIND = {"aliasing": "wrong_sign", "stall": "refused"}

NEGATIVE_FLOOR = 1e-3


def check(p: Problem, answer: Optional[Dict[str, Any]],
          error: Optional[str] = None) -> Optional[str]:
    """Failure kind for this answer, or None when it is right.

    ``error`` names the exception class when solving raised;
    "ProblemTimeout" marks a problem stopped at the per-problem cap.
    """
    if error is not None:
        return "over_time_cap" if error == "ProblemTimeout" else "raised"
    if p.kind in ("transport", "spin-transport"):
        return None if answer["sign"] == p.spec["expected_sign"] else "wrong_sign"
    if p.kind == "stability":
        expected = p.spec["expected_sign"]
        ok = answer["sign_a"] == expected and answer["sign_b"] == expected
        return None if ok else "wrong_sign"
    if p.kind == "disc":
        return _check_disc(p, answer)
    if p.kind == "cli":
        return _check_cli(p, answer)
    raise ValueError(f"unknown problem kind {p.kind!r}")


def _check_disc(p: Problem, answer) -> Optional[str]:
    forced = p.spec["forced"]
    if answer["boundary_sign"] != (-1 if forced else 1):
        return "wrong_sign"
    cert = answer["certificate"]
    if cert is None:
        if forced:
            return "refused"
        return None if answer["best_gap"] >= NEGATIVE_FLOOR else "not_found_forced"
    if not certificate_holds(p, cert, answer["anchor"]):
        return "false_certificate"
    return None if forced else "not_found_forced"


def certificate_holds(p: Problem, cert: Dict[str, Any], anchor: int) -> bool:
    """Re-verify a certificate's gap with a fresh eigvalsh at its point.

    The pair must be one of the anchored pairs (the window content plus
    its two guard gaps), with the anchor recounted from the boundary
    basepoint, and its gap must be within the certificate's tolerance.
    """
    disc, window = p.built["disc"], p.built["window"]
    lower, count = window.lower, window.count
    base_values = np.linalg.eigvalsh(disc.boundary(0.0))
    own_anchor = int(np.count_nonzero(base_values <= lower))
    if own_anchor != anchor:
        return False
    values = np.linalg.eigvalsh(disc.operator_at(cert["r"], cert["theta"]))
    i = int(cert["pair_index"])
    lo, hi = max(anchor - 1, 0), min(anchor + int(count), values.size - 1)
    if not lo <= i < hi:
        return False
    return bool(values[i + 1] - values[i] <= p.spec["tol"])


def _check_cli(p: Problem, answer) -> Optional[str]:
    """Exit 0 with ``"passed": true``; a failed run is "refused" when its
    report shows a forced disc that ended without a certificate."""
    if answer["exit"] not in (0, 2):
        return "cli_exit"
    prefix = p.spec["config"].get("output", {}).get("prefix",
                                                    p.spec["command"].replace("-", "_"))
    report = os.path.join(p.built["out"], f"{prefix}_report.json")
    try:
        with open(report) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return "cli_exit"
    if answer["exit"] == 0 and report.get("passed") is True:
        return None
    observed = report.get("observed", {})
    if observed.get("boundary_sign") == -1 and observed.get("certificate") is False:
        return "refused"
    return "cli_exit"


def known(p: Problem, kind: str) -> bool:
    """True when this failure is the known defect the problem may hit."""
    return p.known_defect is not None and DEFECT_KIND[p.known_defect] == kind


def tally(problems: List[Problem], kinds: List[Optional[str]]) -> Dict[str, Any]:
    """Failure counts by kind, split into known-defect and unexpected."""
    by_kind = {k: 0 for k in FAILURE_KINDS}
    unexpected = {k: 0 for k in FAILURE_KINDS}
    for p, kind in zip(problems, kinds):
        if kind is None:
            continue
        by_kind[kind] += 1
        if not known(p, kind):
            unexpected[kind] += 1
    return {"by_kind": by_kind, "unexpected": unexpected,
            "failed": sum(by_kind.values()), "unexpected_total": sum(unexpected.values())}
