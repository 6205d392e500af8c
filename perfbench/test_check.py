"""The answer checker must reject corrupted answers.

    python3 -m pytest -q perfbench/test_check.py

A valid report is built from the reference program's own optimum, so the
test needs no solver; each corruption must then be caught by the check.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from instances import WORKLOADS, make_cases  # noqa: E402
from reference import check_report, objective_of, optimal_deletion  # noqa: E402


def report_for(case, deleted):
    kept_w = sum(case.weights) - sum(case.weights[v] for v in deleted)
    return {
        "problem": case.problem,
        "n": case.n,
        "m": len(case.edges),
        "objective_weight": objective_of(case, deleted),
        "deletion_set": [case.names[v] for v in sorted(deleted)],
        "sforest_weight": kept_w,
    }


CASES = [c for w in WORKLOADS for c in make_cases(w, 1)]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_checker_accepts_optimum_and_rejects_corruptions(case):
    deleted = optimal_deletion(case)
    ref = objective_of(case, deleted)
    assert check_report(case, report_for(case, deleted), ref) == []

    assert deleted, "a case with an empty optimum cannot be corrupted this way"
    # Un-delete one vertex and keep the weights consistent with the new set,
    # so only the feasibility test can catch it.
    for v in sorted(deleted):
        shrunk = report_for(case, deleted - {v})
        problems = check_report(case, shrunk, objective_of(case, deleted - {v}))
        assert any("cycle" in p or "separate" in p for p in problems), (v, problems)

    shifted = report_for(case, deleted)
    shifted["objective_weight"] += 1
    assert check_report(case, shifted, ref)
