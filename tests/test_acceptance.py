"""Acceptance gate: every criterion at its frozen tolerance, one pass/fail
line per criterion (run pytest with -s to watch them stream)."""

import numpy as np
import pytest

from affinewalks import acceptance

RESULTS: dict[int, acceptance.CriterionResult] = {}


@pytest.mark.parametrize("number,name,fn", acceptance.CHECKS,
                         ids=[f"criterion-{n:02d}" for n, _, _ in acceptance.CHECKS])
def test_criterion(number, name, fn):
    result = acceptance._timed(number, name, lambda: fn(fast=False))
    RESULTS[number] = result
    print(result.line(), flush=True)
    assert result.passed, result.line()


def test_survival_boundary_skips_points_outside_by_rounding():
    # this seed draws an affine-wall point that rounding puts just outside
    alg = acceptance._a1()
    ok, detail = acceptance._survival_on_boundary(alg, np.random.default_rng(6))
    assert ok, detail
    assert detail.startswith("1 boundary points")


def test_zz_summary():
    lines = [RESULTS[n].line() for n in sorted(RESULTS)]
    print("\n" + "\n".join(lines), flush=True)
    assert len(RESULTS) == len(acceptance.CHECKS)
