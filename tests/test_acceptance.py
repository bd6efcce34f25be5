"""Acceptance gate: every criterion at its frozen tolerance, one pass/fail
line per criterion (run pytest with -s to watch them stream)."""

import math

import numpy as np
import pytest

from affinewalks import acceptance, chain, characters, diffusion

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


def _nan_row(alg, lam, *args, **kwargs):
    return chain.KernelRow(lam, [], math.nan)


def _nan_every_fourth_point(monkeypatch):
    # r1 of every fourth point (two calls per point) is NaN
    calls = []
    real = diffusion.harmonic_residual

    def patched(*args):
        calls.append(None)
        return math.nan if len(calls) % 8 == 1 else real(*args)
    monkeypatch.setattr(diffusion, "harmonic_residual", patched)


@pytest.mark.parametrize("number,module,name", [
    (2, characters, "denominator_residual"),
    (4, chain, "q_omega_row"),
    (5, chain, "reflection_discrete_residual"),
    (6, diffusion, "wonpt_residual"),
    (7, diffusion, "reflected_density"),
    (8, diffusion, "harmonic_residual"),
])
def test_nan_residual_fails_its_gate(number, module, name, monkeypatch):
    # a NaN residual makes the worst NaN, which fails the gate and shows
    if number == 8:
        _nan_every_fourth_point(monkeypatch)
    else:
        monkeypatch.setattr(module, name, _nan_row if number == 4
                            else lambda *args, **kwargs: math.nan)
    _, cname, fn = acceptance.CHECKS[number - 1]
    result = acceptance._timed(number, cname, lambda: fn(fast=True))
    assert not result.passed, result.line()
    assert "nan" in result.detail, result.line()


def test_zz_summary():
    lines = [RESULTS[n].line() for n in sorted(RESULTS)]
    print("\n" + "\n".join(lines), flush=True)
    assert len(RESULTS) == len(acceptance.CHECKS)
