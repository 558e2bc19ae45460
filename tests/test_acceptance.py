"""Acceptance checklist: one test per criterion, one pass/fail line each.

Run with -v (or -rA) to see the per-criterion lines; reproduce-all in the
CLI executes the same functions.
"""

import time

import pytest

from cuspidal.checks import criteria, run_all, run_check


@pytest.mark.parametrize("name,fn", criteria(), ids=[n for n, _ in criteria()])
def test_criterion(name, fn, capsys):
    result = run_check(name, fn)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {name} ({result.seconds:.2f}s)")
    assert result.passed, result.witness


def test_runtime_budgets():
    t0 = time.perf_counter()
    results = run_all(seed=0)
    total = time.perf_counter() - t0
    times = {r.name: r.seconds for r in results}
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert times["discriminant_identity"] < 1.0
    assert times["scaling_identity"] < 1.0
    assert times["braid_monodromy"] < 30.0
    assert times["s4_uniqueness"] < 1.0
    assert times["surface_suite"] < 60.0
    assert total < 180.0
