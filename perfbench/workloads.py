"""The four benchmark workloads, each driving one part of ``affinewalks``
through its public entry points and checking its own outputs at the
tolerances in ``affinewalks.thresholds.GOLDEN``.

A workload is called as ``fn(seed, span)`` and returns a list of
``Check``; ``span(name)`` is a context manager the traced run uses to time
blocks that are not single calls.  Checks marked ``statistical`` compare
Monte Carlo output against a band; only their outcome depends on the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from affinewalks import acceptance, diffusion, harness
from affinewalks.algebra import algebra_from_name, weyl_vector
from affinewalks.thresholds import GOLDEN

# Free paths for the criterion-9 exit probability: criterion 9's fast size.
# GOLDEN.survival_exit_paths (10 000, about 76 s) is too long to repeat
# within the run budget.  Halving the free sampler's drift moved the exit
# probability by 0.035-0.046; at this size the band caught that on seed 3,
# at 1 500 paths it did not.
SURVIVAL_EXIT_PATHS = 2_000

# Literals of acceptance.check_survival that GOLDEN has no field for.
C9_BOUNDARY_MARGIN = 1e-9
C9_VALUE_FLOOR = 1e-12
C9_BAND_SIGMAS = 3.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    statistical: bool = False


def _guarded(name, fn, statistical=False):
    """Run one check; an exception is a failed check carrying its message."""
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001 - a raise is a failed check
        return Check(name, False, f"{type(exc).__name__}: {exc}", statistical)
    return Check(name, bool(ok), detail, statistical)


# -- exact-rows -----------------------------------------------------------------------


def exact_rows(seed: int, span) -> list[Check]:
    """Criteria 1-3 at full scale, then 4-5 at their fast scale, in one
    process so rows 4 and 5 share characters as in ``verify-all``.  No
    randomness: the seed is unused."""
    del seed, span
    plan = [("check_01 oracle equivalence", acceptance.check_oracle_equivalence, False),
            ("check_02 denominator identity", acceptance.check_denominator, False),
            ("check_03 branching vs decomposition", acceptance.check_brauer_klimyk, False),
            ("check_04 row stochasticity", acceptance.check_row_stochasticity, True),
            ("check_05 discrete reflection", acceptance.check_discrete_reflection, True)]
    return [_guarded(name, lambda fn=fn, fast=fast: fn(fast=fast))
            for name, fn, fast in plan]


# -- walk-scaling ---------------------------------------------------------------------


def walk_scaling(seed: int, span) -> list[Check]:
    """Criterion 10's configuration at the benchmark's seed."""
    cfg = harness.ExperimentConfig(
        algebra="A1~", spec_n=GOLDEN.walk_n, time_grid=(GOLDEN.walk_t,),
        samples=GOLDEN.walk_samples, seed=seed)
    try:
        report = harness.scaling_walk_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - a raise is a failed check
        return [Check("walk experiment", False, f"{type(exc).__name__}: {exc}")]
    checks = []
    for row in report.per_time:
        checks.append(Check(
            f"walk t={row['t']} mean band",
            row["mean_delta"] <= row["mean_band"],
            f"|mean-target| {row['mean_delta']:.4f} <= {row['mean_band']:.4f}", True))
        checks.append(Check(
            f"walk t={row['t']} KS",
            row["ks"] <= row["ks_threshold"],
            f"KS {row['ks']:.4f} <= {row['ks_threshold']:.4f}", True))
    return checks


# -- chain-scaling --------------------------------------------------------------------


def chain_scaling(seed: int, span) -> list[Check]:
    """Criterion 11's experiment (without its calibration loop) at the
    benchmark's seed.  The harness raises if the conditioned sampler aborts
    more than ``GOLDEN.chain_max_abort_fraction`` of its paths."""
    cfg = harness.ExperimentConfig(
        algebra="A1~", spec_n=GOLDEN.chain_n, time_grid=GOLDEN.chain_times,
        samples=GOLDEN.chain_samples, seed=seed, dt=GOLDEN.chain_dt,
        start_pairings=("1", "1"))      # criterion 11's level-2 interior start
    try:
        report = harness.scaling_chain_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - a raise is a failed check
        return [Check("chain experiment", False, f"{type(exc).__name__}: {exc}")]
    checks = []
    for row in report.per_time:
        for stat, band in (("mean_delta", "mean_band"), ("var_delta", "var_band"),
                           ("ks", "ks_threshold")):
            checks.append(Check(
                f"chain t={row['t']} {stat}", row[stat] <= row[band],
                f"{row[stat]:.4f} <= {row[band]:.4f}", True))
    return checks


# -- survival-exit --------------------------------------------------------------------


def survival_exit(seed: int, span) -> list[Check]:
    """Criteria 6-8 through their callables, then the calls criterion 9
    makes, seeded from the benchmark's seed: survival at boundary and
    interior points, the free sampler and the reflected-density quadrature."""
    checks = [_guarded("check_06 translation covariance", acceptance.check_wonpt),
              _guarded("check_07 continuous reflection", acceptance.check_continuous_reflection),
              _guarded("check_08 harmonicity", acceptance.check_harmonicity)]
    # the span keeps check_09's name: this block makes criterion 9's calls
    with span("acceptance.check_09"):
        checks.extend(_criterion_9_calls(seed))
    return checks


def _criterion_9_calls(seed: int) -> list[Check]:
    t0 = time.perf_counter()
    alg = algebra_from_name("A1~")
    rng = np.random.default_rng(seed)
    frame = diffusion._frame(alg)
    checks = []

    def boundary():
        # Rounding can put an affine-wall point up to 4.4e-16 outside the
        # chamber; survival must refuse such a point, and the check counts it.
        worst, refused = 0.0, 0
        for _ in range(GOLDEN.survival_boundary_points):
            s0 = 0.5 + 3.0 * rng.random()
            for z in (np.zeros(1), np.array([s0 / 2.0 * float(frame.LT[0, 0])])):
                pt = diffusion.SpaceTimePoint(s0, z)
                inside, margin = diffusion.chamber_test(alg, pt)
                if abs(margin) > C9_BOUNDARY_MARGIN:
                    continue
                if not inside:
                    try:
                        diffusion.survival(alg, pt)
                    except diffusion.OutsideChamberError:
                        refused += 1
                        continue
                    return False, f"survival accepted a point at margin {margin:.1e}"
                v, tail = diffusion.survival(alg, pt)
                worst = max(worst, abs(v) / max(tail, C9_VALUE_FLOOR))
        return worst <= 1.0, (f"worst |value|/tail bound {worst:.2e}; "
                              f"{refused} points outside by rounding refused")

    def interior():
        for _ in range(GOLDEN.survival_interior_points):
            s0 = 0.8 + 3.0 * rng.random()
            pt = diffusion.SpaceTimePoint(s0, harness._random_interior(alg, s0, rng))
            v, tail = diffusion.survival(alg, pt)
            if not (0 < v <= 1.0 + tail + C9_VALUE_FLOOR):
                return False, f"interior value {v:.3e} outside (0,1]"
        return True, f"{GOLDEN.survival_interior_points} values in (0,1]"

    def exit_probability():
        horizon = GOLDEN.survival_exit_horizon
        x0 = diffusion.weight_to_point(alg, weyl_vector(alg))
        batch = diffusion.sample_path_batch(
            alg, x0, horizon, GOLDEN.survival_exit_dt, SURVIVAL_EXIT_PATHS,
            seed=int(rng.integers(2**32)), conditioned=False)
        p_mc = batch.exit_fraction(horizon)
        hi = (x0.s + horizon * alg.dual_coxeter) / 2.0 * float(frame.LT[0, 0])
        stay, quad_err = acceptance._slice_quadrature(alg, x0, horizon, 0.0, hi)
        se = math.sqrt(max(p_mc * (1 - p_mc), C9_VALUE_FLOOR) / SURVIVAL_EXIT_PATHS)
        band = C9_BAND_SIGMAS * math.hypot(se, quad_err)
        gap = abs(p_mc - (1.0 - stay))
        return gap <= band, f"exit MC {p_mc:.4f} vs quadrature {1 - stay:.4f}, gap {gap:.4f} <= {band:.4f}"

    checks.append(_guarded("check_09 survival on the boundary", boundary))
    checks.append(_guarded("check_09 survival in the interior", interior))
    checks.append(_guarded("check_09 exit probability band", exit_probability, True))
    dt = time.perf_counter() - t0
    checks.append(Check("check_09 runtime gate", dt < GOLDEN.survival_runtime_s,
                        f"{dt:.1f}s < {GOLDEN.survival_runtime_s}s"))
    return checks


def traced_checks(summary: dict) -> list[Check]:
    """Checks that need the traced run's counts: the conditioned sampler's
    aborted paths against ``GOLDEN.chain_max_abort_fraction``."""
    row = summary.get("diffusion.sample_path_batch.conditioned")
    if row is None:
        return []
    frac = row["aborted"] / row["paths"]
    return [Check("conditioned sampler abort fraction",
                  frac <= GOLDEN.chain_max_abort_fraction,
                  f"{row['aborted']} of {row['paths']} paths aborted, "
                  f"{frac:.4f} <= {GOLDEN.chain_max_abort_fraction}")]


WORKLOADS = {
    "exact-rows": exact_rows,
    "walk-scaling": walk_scaling,
    "chain-scaling": chain_scaling,
    "survival-exit": survival_exit,
}

