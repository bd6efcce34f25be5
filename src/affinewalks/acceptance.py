"""The acceptance suite: one callable per criterion, each returning a
structured pass/fail result at the tolerances frozen in
:mod:`affinewalks.thresholds`.

The test suite and the ``verify-all`` CLI command both run these; ``fast``
mode shrinks the stochastic sample sizes (and widens the purely
sampling-noise-driven bands accordingly) for smoke runs, while identity
checks keep their exact tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import chain, characters, diffusion, harness
from .algebra import Weight, algebra_from_name, weyl_vector
from .highestweight import (branching_mult, character_series_oracle,
                            decompose_product, freudenthal_table)
from .thresholds import GOLDEN
from .weyl import enumerate_bounded

__all__ = ["CriterionResult", "run_all", "CHECKS"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  [{self.number:2d}] {self.name}: {self.detail} ({self.runtime:.1f}s)"


def _timed(number, name, fn):
    t0 = time.time()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure with its message
        return CriterionResult(number, name, False,
                               f"{type(exc).__name__}: {exc}",
                               time.time() - t0)
    return CriterionResult(number, name, passed, detail, time.time() - t0)


def _a1():
    return algebra_from_name("A1~")


def _worst(residuals) -> float:
    """The largest residual, 0 for none, NaN if any is NaN: a gate compares
    it with ``<``, so a NaN fails it (``max`` would drop the NaN)."""
    return float(np.max(residuals, initial=0.0))


def _omega(alg):
    return Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)


# -- 1: oracle equivalence ------------------------------------------------------------


def check_oracle_equivalence(fast=False):
    t0 = time.time()
    a1 = _a1()
    lam1 = Weight.make(1, (Fraction(1, 2),), 0)
    cases = [(a1, a1.Lambda0(), GOLDEN.oracle_depth_a1),
             (a1, lam1, GOLDEN.oracle_depth_a1),
             (a1, Weight.make(2, (0,), 0), GOLDEN.oracle_depth_a1)]
    if not fast:
        a2 = algebra_from_name("A2~")
        cases.append((a2, a2.Lambda0(), GOLDEN.oracle_depth_a2))
    checked = 0
    for alg, lam, depth in cases:
        ft = freudenthal_table(alg, lam, depth)
        cs = character_series_oracle(alg, lam, depth)
        if ft.entries != cs.entries:
            return False, f"tables differ for {lam} at depth {depth}"
        checked += len(ft.entries)
    dt = time.time() - t0
    ok = dt < GOLDEN.oracle_runtime_s
    return ok, f"{len(cases)} modules, {checked} entries equal; {dt:.1f}s"


# -- 2: denominator identity ----------------------------------------------------------


def check_denominator(fast=False):
    t0 = time.time()
    residuals = []
    algs = ["A1~"] if fast else ["A1~", "A2~"]
    for name in algs:
        alg = algebra_from_name(name)
        for n in GOLDEN.denominator_spec_ns:
            s = characters.rho_specialization(alg, n)
            residuals.append(characters.denominator_residual(
                alg, s, GOLDEN.denominator_depth))
    worst = _worst(residuals)
    dt = time.time() - t0
    ok = worst < GOLDEN.denominator_rtol and dt < GOLDEN.denominator_runtime_s
    return ok, f"worst residual {worst:.2e} at depth {GOLDEN.denominator_depth}; {dt:.1f}s"


# -- 3: branching vs direct decomposition ---------------------------------------------


def check_brauer_klimyk(fast=False):
    alg = _a1()
    lam = alg.Lambda0()
    om = _omega(alg)
    depth = GOLDEN.branching_depth
    compared = 0
    for n in GOLDEN.branching_powers:
        comps = decompose_product(alg, lam, om, n, depth)
        top = lam + om.scale(n)
        # every dominant beta at depth <= depth, including zero multiplicity
        for d in range(depth + 1):
            for beta_bar in chain.dominant_states(alg, int(top.k)):
                off = [top.z[i] - beta_bar.z[i] for i in range(alg.rank)]
                if any(x.denominator != 1 for x in off):
                    continue
                beta = Weight.make(top.k, beta_bar.z, top.b - d)
                expected = comps.get((d, tuple(int(x) for x in off)), 0)
                got = branching_mult(alg, lam, om, n, beta)
                if got != expected:
                    return False, (f"n={n} depth={d} offset={off}: "
                                   f"branching {got} != decomposition {expected}")
                compared += 1
    return True, f"{compared} multiplicities match exactly (n in {GOLDEN.branching_powers})"


# -- 4: kernel row stochasticity ------------------------------------------------------


def check_row_stochasticity(fast=False):
    alg = _a1()
    om = _omega(alg)
    ns = (1, 5) if fast else GOLDEN.row_spec_ns
    sources = [alg.Lambda0(), Weight.make(2, (Fraction(1, 2),), 0)]
    gaps = []
    for n in ns:
        s = characters.rho_specialization(alg, n)
        for lam in sources:
            row = chain.q_omega_row(alg, lam, om, s, GOLDEN.row_depth,
                                    defect_target=GOLDEN.row_mass_tol / 10)
            gaps.append(abs(row.total() + row.defect - 1.0))
    worst = _worst(gaps)
    ok = worst <= GOLDEN.row_mass_tol
    return ok, f"{len(gaps)} rows, worst |mass+defect-1| = {worst:.2e}"


# -- 5: discrete reflection principle -------------------------------------------------


def _reflection_residuals(alg, s, n_steps, lam0, depth):
    """``(beta0, residual)`` of the discrete reflection principle for each
    dominant ``beta0`` at the level ``n_steps`` steps of the omega chain
    reach from ``lam0``; targets the chain cannot reach are skipped."""
    om = _omega(alg)
    out = []
    for b0 in chain.dominant_states(alg, int(lam0.k) + n_steps * int(om.k)):
        if chain.pbar_power(alg, om, s, n_steps, lam0, b0, depth) <= 0:
            continue
        out.append((b0, chain.reflection_discrete_residual(
            alg, om, s, n_steps, lam0, b0, depth)))
    return out


def check_discrete_reflection(fast=False):
    alg = _a1()
    s = characters.rho_specialization(alg, GOLDEN.reflection_spec_n)
    lam0 = alg.Lambda0()
    steps = (1, 2) if fast else GOLDEN.reflection_steps
    depth = GOLDEN.reflection_depth if not fast else 80
    residuals = [res for n_steps in steps
                 for _, res in _reflection_residuals(alg, s, n_steps, lam0, depth)]
    worst, pairs = _worst(residuals), len(residuals)
    ok = worst < GOLDEN.reflection_rtol and pairs >= (
        3 if fast else GOLDEN.reflection_min_pairs)
    return ok, f"{pairs} (lam0,beta0) pairs, worst residual {worst:.2e}"


# -- 6: translation covariance of the free kernel -------------------------------------


def check_wonpt(fast=False, alg=None):
    alg = alg or _a1()
    rng = np.random.default_rng(61)
    alpha_norm = math.sqrt(float(alg.finite_norm2(alg.alpha(1).z)))
    els = list(enumerate_bounded(alg, GOLDEN.wonpt_radius_alpha1 * alpha_norm
                                 + 1e-9))
    residuals = []
    count = GOLDEN.wonpt_samples if not fast else 25

    def quarters():
        return tuple(Fraction(int(rng.integers(-8, 8)), 4)
                     for _ in range(alg.rank))

    for _ in range(count):
        x = Weight.make(Fraction(int(rng.integers(1, 5))), quarters(),
                        Fraction(int(rng.integers(-8, 8)), 4))
        dt_lvl = Fraction(int(rng.integers(1, 40)), 10)
        y = Weight.make(x.k + dt_lvl * alg.dual_coxeter, quarters(),
                        Fraction(int(rng.integers(-8, 8)), 4))
        t = float(dt_lvl)
        w = els[int(rng.integers(0, len(els)))]
        residuals.append(diffusion.wonpt_residual(alg, x, y, t, w))
    worst = _worst(residuals)
    ok = worst < GOLDEN.wonpt_rtol
    return ok, f"{count} random (x,y,t,w), worst log residual {worst:.2e}"


# -- 7: continuous reflection + Girsanov ----------------------------------------------


def check_continuous_reflection(fast=False, alg=None):
    alg = alg or _a1()
    rng = np.random.default_rng(71)
    frame = diffusion._frame(alg)
    count = GOLDEN.creflect_samples if not fast else 15
    gaps_xy, gaps_gir = [], []
    for _ in range(count):
        t = 0.3 + 1.5 * rng.random()
        s0 = 1.0 + 2.0 * rng.random()
        x = diffusion.SpaceTimePoint(s0, harness._random_interior(alg, s0, rng))
        sy = s0 + t * alg.dual_coxeter
        y = diffusion.SpaceTimePoint(sy, harness._random_interior(alg, sy, rng))
        d1 = diffusion.reflected_density(alg, x, y, t, "drifted-by-x")
        d2 = diffusion.reflected_density(alg, x, y, t, "drifted-by-y")
        d0 = diffusion.reflected_density(alg, x, y, t, "undrifted")
        scale = max(abs(d1), abs(d2), 1e-290)
        gaps_xy.append(abs(d1 - d2) / scale)
        lr = math.exp(float((y.z - x.z) @ frame.rho_o)
                      - 0.5 * float(frame.rho_o @ frame.rho_o) * t)
        gaps_gir.append(abs(d1 - d0 * lr) / scale)
    worst_xy, worst_gir = _worst(gaps_xy), _worst(gaps_gir)
    ok = worst_xy < GOLDEN.creflect_rtol and worst_gir < GOLDEN.girsanov_rtol
    return ok, (f"{count} configs: x-vs-y {worst_xy:.2e}, "
                f"Girsanov {worst_gir:.2e}")


# -- 8: harmonicity -------------------------------------------------------------------


def check_harmonicity(fast=False, alg=None):
    alg = alg or _a1()
    rng = np.random.default_rng(81)
    els = [w for w in enumerate_bounded(alg, 3.0)][:GOLDEN.harmonic_elements]
    step = GOLDEN.harmonic_step
    n_points = GOLDEN.harmonic_points if not fast else 6
    residuals = []
    ratios = []
    for w in els:
        for _ in range(n_points // 2):
            p = diffusion.SpaceTimePoint(1.0 + 3.0 * rng.random(),
                                         rng.normal(0, 1, alg.rank))
            r1 = diffusion.harmonic_residual(alg, w, p, step)
            r2 = diffusion.harmonic_residual(alg, w, p, step / 2)
            residuals.append(abs(r1))
            if abs(r1) > 1e-10:
                ratios.append(abs(r2) / abs(r1))
    worst = _worst(residuals)
    ratio = float(np.mean(ratios))
    ok = (worst < GOLDEN.harmonic_rtol
          and GOLDEN.richardson_lo <= ratio <= GOLDEN.richardson_hi)
    return ok, (f"worst |residual| {worst:.2e} at step {step:g}, "
                f"Richardson ratio {ratio:.3f}")


# -- 9: survival function -------------------------------------------------------------


def _survival_on_boundary(alg, rng):
    """The survival function vanishes on the walls, within its bound.

    Draws ``GOLDEN.survival_boundary_points`` levels from ``rng`` and
    evaluates at the point on the wall z(coroot_1) = 0 and on the affine
    wall.  Rounding can put an affine-wall point just outside the chamber,
    where ``survival`` refuses it; such points are skipped and counted.
    Returns ``(ok, detail)``.
    """
    frame = diffusion._frame(alg)
    skipped = 0
    for _ in range(GOLDEN.survival_boundary_points):
        s0 = 0.5 + 3.0 * rng.random()
        for z in (np.zeros(1), np.array([s0 / 2.0 * float(frame.LT[0, 0])])):
            pt = diffusion.SpaceTimePoint(s0, z)
            inside, margin = diffusion.chamber_test(alg, pt)
            if abs(margin) > 1e-9:
                continue
            if not inside:
                skipped += 1
                continue
            v, tail = diffusion.survival(alg, pt)
            if abs(v) > max(tail, 1e-12):
                return False, f"boundary value {v:.2e} above tail bound {tail:.2e}"
    return True, f"{skipped} boundary points outside by rounding skipped"


def check_survival(fast=False):
    t0 = time.time()
    alg = _a1()
    rho = weyl_vector(alg)
    rng = np.random.default_rng(91)
    frame = diffusion._frame(alg)

    ok, boundary = _survival_on_boundary(alg, rng)
    if not ok:
        return False, boundary

    # interior: value in (0, 1]
    for _ in range(GOLDEN.survival_interior_points):
        s0 = 0.8 + 3.0 * rng.random()
        pt = diffusion.SpaceTimePoint(s0, harness._random_interior(alg, s0, rng))
        v, tail = diffusion.survival(alg, pt)
        if not (v > 0 and v <= 1.0 + tail + 1e-12):
            return False, f"interior value {v:.3e} outside (0,1]"

    # Monte Carlo exit probability against the mass of the killed density on
    # the level slice, in closed form with a certified bound (rank 1)
    horizon = GOLDEN.survival_exit_horizon
    n_paths = GOLDEN.survival_exit_paths if not fast else 2000
    x0 = diffusion.weight_to_point(alg, rho)
    batch = diffusion.sample_path_batch(
        alg, x0, horizon, GOLDEN.survival_exit_dt, n_paths, seed=909,
        conditioned=False)
    p_exit_mc = batch.exit_fraction(horizon)

    sy = x0.s + horizon * alg.dual_coxeter
    hi = sy / 2.0 * float(frame.LT[0, 0])
    stay, stay_err = _slice_quadrature(alg, x0, horizon, 0.0, hi)
    p_exit = 1.0 - stay
    se = math.sqrt(max(p_exit_mc * (1 - p_exit_mc), 1e-12) / n_paths)
    band = 3.0 * math.sqrt(se * se + stay_err * stay_err)
    gap = abs(p_exit_mc - p_exit)
    dt = time.time() - t0
    ok = gap <= band and dt < GOLDEN.survival_runtime_s
    return ok, (f"exit MC {p_exit_mc:.4f} vs closed form {p_exit:.4f} "
                f"(gap {gap:.4f}, band {band:.4f}); {boundary}; {dt:.0f}s")


def _slice_quadrature(alg, x0, t, lo, hi):
    """Mass of the killed density on ``[lo, hi]`` of a level slice in closed
    form, with a certified bound on its error: :func:`diffusion._slice_mass`,
    rank 1.  No quadrature runs; ``perfbench/workloads.py`` calls it by this
    name."""
    return diffusion._slice_mass(alg, x0, t, lo, hi)


# -- 10: walk scaling limit -----------------------------------------------------------


def check_walk_scaling(fast=False):
    cfg = harness.ExperimentConfig(
        algebra="A1~",
        spec_n=GOLDEN.walk_n if not fast else 50,
        time_grid=(GOLDEN.walk_t,),
        samples=GOLDEN.walk_samples if not fast else 2000,
        seed=1010)
    report = harness.scaling_walk_experiment(cfg)
    row = report.per_time[0]
    return bool(row["pass"]), (
        f"n={cfg.spec_n}: KS {row['ks']:.4f} (thr {row['ks_threshold']:.3f}), "
        f"|mean-{row['target_mean']:.4f}| = {row['mean_delta']:.4f} "
        f"(band {row['mean_band']:.4f})")


# -- 11: chain scaling limit ----------------------------------------------------------


def check_chain_scaling(fast=False):
    t0 = time.time()
    cfg = harness.ExperimentConfig(
        algebra="A1~",
        spec_n=GOLDEN.chain_n if not fast else 40,
        time_grid=GOLDEN.chain_times,
        samples=GOLDEN.chain_samples if not fast else 1500,
        seed=1111,
        dt=GOLDEN.chain_dt if not fast else 4e-3,
        start_pairings=("1", "1"))   # x = Lambda0 + Lambda1-ish: level 2 interior
    cal = harness.calibrate_chain_harness(
        cfg, n_runs=GOLDEN.calibration_runs if not fast else 4)
    if not cal.passed:
        return False, (f"harness calibration pass fraction "
                       f"{cal.notes['pass_fraction']:.2f} below "
                       f"{GOLDEN.calibration_pass_fraction}")
    report = harness.scaling_chain_experiment(cfg)
    dt = time.time() - t0
    detail = "; ".join(
        f"t={row['t']}: dmean {row['mean_delta']:.4f}/{row['mean_band']:.4f}, "
        f"KS {row['ks']:.4f}/{row['ks_threshold']:.4f}"
        for row in report.per_time)
    ok = report.passed and (fast or dt < GOLDEN.chain_runtime_s)
    return ok, f"calibration {cal.notes['pass_fraction']:.0%}; {detail}; {dt:.0f}s"


CHECKS = [
    (1, "multiplicity oracle equivalence", check_oracle_equivalence),
    (2, "denominator identity", check_denominator),
    (3, "branching vs series decomposition", check_brauer_klimyk),
    (4, "kernel row stochasticity", check_row_stochasticity),
    (5, "discrete reflection principle", check_discrete_reflection),
    (6, "free-kernel translation covariance", check_wonpt),
    (7, "continuous reflection + Girsanov", check_continuous_reflection),
    (8, "harmonicity of the chamber factors", check_harmonicity),
    (9, "survival function", check_survival),
    (10, "walk scaling limit", check_walk_scaling),
    (11, "chain scaling limit", check_chain_scaling),
]


def run_all(algebra: str = "A1~", fast: bool = False) -> list[CriterionResult]:
    if algebra != "A1~":
        raise ValueError("the acceptance suite is pinned to A1~ "
                         "(criteria 1-2 also cover A2~ internally)")
    results = []
    for number, name, fn in CHECKS:
        results.append(_timed(number, name, lambda fn=fn: fn(fast=fast)))
    return results
