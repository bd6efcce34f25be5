"""Experiment orchestration for the two scaling-limit statements, plus the
command-line interface.

Both experiments are two-estimator statistical comparisons: the limit
theorems carry no rates, so acceptance means agreement of Monte Carlo
marginals within standard-error bands at frozen scales (see
:mod:`affinewalks.thresholds`).  Reports are pure functions of the
configuration and seeds and carry a content hash of the configuration for
provenance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import characters, chain, diffusion
from .algebra import (AffineAlgebra, Weight, algebra_from_json,
                      algebra_from_name, classify_weight, pairing_coroot,
                      weight_from_pairings, weyl_vector)
from .layerseries import increment_atoms
from .thresholds import GOLDEN
from .weyl import WeylEnumerationError, dominant_representative

__all__ = [
    "ExperimentConfig",
    "ComparisonReport",
    "ks_statistic",
    "round_to_dominant",
    "scaling_walk_experiment",
    "scaling_chain_experiment",
    "calibrate_chain_harness",
    "run_cli",
    "main",
]


# -- configuration -----------------------------------------------------------------


@dataclass
class ExperimentConfig:
    algebra: str = "A1~"
    spec_n: int = GOLDEN.chain_n
    time_grid: tuple[float, ...] = GOLDEN.chain_times
    samples: int = GOLDEN.chain_samples
    seed: int = 20260808
    dt: float = GOLDEN.chain_dt
    start_pairings: tuple[str, ...] = ("1", "1")   # coroot pairings of x, rationals
    out: str | None = None

    def __post_init__(self):
        # a config file can carry any JSON value, and a bool is an int
        def refuse(name, what):
            raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name, kind in (("spec_n", numbers.Integral), ("seed", numbers.Integral),
                           ("samples", numbers.Integral), ("dt", numbers.Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                refuse(name, "an integer" if kind is numbers.Integral else "a number")
        if not isinstance(self.algebra, str):
            refuse("algebra", "a string")
        if not (self.out is None or isinstance(self.out, str)):
            refuse("out", "a string or null")
        if not isinstance(self.start_pairings, (list, tuple)):
            refuse("start_pairings", "a list")
        if not (isinstance(self.time_grid, (list, tuple)) and all(
                isinstance(t, numbers.Real) and not isinstance(t, bool)
                for t in self.time_grid)):
            refuse("time_grid", "a list of numbers")
        if self.spec_n < 1:
            raise ValueError("spec_n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.samples <= 0 or not all(0 <= t < math.inf for t in self.time_grid):
            raise ValueError("counts and times must be positive")
        try:
            algebra_from_name(self.algebra)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["time_grid"] = list(self.time_grid)
        d["start_pairings"] = list(self.start_pairings)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        d = json.loads(text)
        unknown = set(d) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        # JSON lists become tuples; any other value is refused by the fields' checks
        if isinstance(d.get("time_grid"), list):
            d["time_grid"] = tuple(d["time_grid"])
        if isinstance(d.get("start_pairings"), list):
            d["start_pairings"] = tuple(str(x) for x in d["start_pairings"])
        return ExperimentConfig(**d)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


@dataclass
class ComparisonReport:
    kind: str
    config_hash: str
    per_time: list[dict]
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def write_csv(self, path: str) -> None:
        if not self.per_time:
            return
        keys = sorted({k for row in self.per_time for k in row})
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in self.per_time:
                writer.writerow(row)


# -- statistics ---------------------------------------------------------------------


def ks_statistic(samples_a, samples_b_or_cdf) -> float:
    """Kolmogorov-Smirnov statistic: two-sample, or one-sample against a
    callable CDF."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    if a.size == 0:
        raise ValueError("empty sample")
    if callable(samples_b_or_cdf):
        cdf = samples_b_or_cdf(a)
        grid = np.arange(1, a.size + 1) / a.size
        return float(max(np.abs(grid - cdf).max(),
                         np.abs(cdf - (grid - 1.0 / a.size)).max()))
    b = np.sort(np.asarray(samples_b_or_cdf, dtype=float))
    if b.size == 0:
        raise ValueError("empty sample")
    both = np.concatenate([a, b])
    ca = np.searchsorted(a, both, side="right") / a.size
    cb = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(ca - cb).max())


def _normal_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _compare_samples(za: np.ndarray, zb: np.ndarray, sigmas: float,
                     ks_threshold: float) -> dict:
    """Mean / variance / KS agreement between two univariate samples."""
    na, nb = za.size, zb.size
    mean_delta = abs(za.mean() - zb.mean())
    se_mean = math.sqrt(za.var() / na + zb.var() / nb)
    var_delta = abs(za.var(ddof=1) - zb.var(ddof=1))
    se_var = math.sqrt(2 * za.var(ddof=1) ** 2 / (na - 1)
                       + 2 * zb.var(ddof=1) ** 2 / (nb - 1))
    ks = ks_statistic(za, zb)
    return {
        "mean_delta": mean_delta, "mean_band": sigmas * se_mean,
        "var_delta": var_delta, "var_band": sigmas * se_var,
        "ks": ks, "ks_threshold": ks_threshold,
        "pass": bool(mean_delta <= sigmas * se_mean
                     and var_delta <= sigmas * se_var
                     and ks <= ks_threshold),
    }


# -- weight helpers ------------------------------------------------------------------


def round_to_dominant(alg: AffineAlgebra, x: Weight, n: int) -> Weight:
    """Nearest dominant integral weight to ``n*x`` (componentwise pairing
    rounding with dominance repair through the Weyl group)."""
    target = x.scale(n)
    q = [round(float(pairing_coroot(alg, target, i)))
         for i in range(1, alg.rank + 1)]
    level = round(float(n * x.k))
    q0 = Fraction(level - sum(alg.comarks[i] * q[i - 1]
                              for i in range(1, alg.rank + 1)), alg.comarks[0])
    cand = weight_from_pairings(alg, [q0] + q)
    cls = classify_weight(alg, cand)
    if not cls.dominant:
        cand, _ = dominant_representative(alg, cand)
        cand = cand.bar()
    if not classify_weight(alg, cand).dominant:
        raise ValueError("dominance repair failed")
    return cand


# -- experiments ---------------------------------------------------------------------

# paths per block of walk draws, which bounds the walk's arrays
_WALK_BLOCK = 256


def scaling_walk_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Scaled weight-walk marginals against the drifted Gaussian limit.

    Increments follow the projected measure with ``omega = h_vee*Lambda0``
    at ``rho/n``; at each grid time the first orthonormal coordinate of the
    scaled finite part is tested against N(t*rho_drift, t).  The KS gate
    is ``GOLDEN.walk_ks_threshold``, sized for ``GOLDEN.walk_samples``,
    times ``sqrt(GOLDEN.walk_samples / samples)``.

    Increments are drawn by :meth:`~affinewalks.layerseries.IncrementAtoms.draw`
    in blocks of ``_WALK_BLOCK`` paths, which take the uniforms in the
    order of one ``rng.choice`` over all paths and steps and give its
    draws; each block adds its paths' sums at the grid times, so no
    (samples x steps) array is formed.
    """
    alg = algebra_from_name(cfg.algebra)
    omega = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
    s = characters.rho_specialization(alg, cfg.spec_n)
    atoms = increment_atoms(alg, omega, s)
    if not atoms.defect <= 1e-6:
        raise chain.ChainDefectError("increment table defect above threshold")
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n = cfg.spec_n
    steps = max(int(round(n * max(cfg.time_grid))), 1)
    frame = diffusion._frame(alg)
    rho_drift = float(frame.rho_o[0])
    grid = {int(round(n * t)) for t in cfg.time_grid} - {0}
    # increments omega_f - m in root units, one table per axis
    incr = [float(omega.z[j]) - m_j for j, m_j in enumerate(atoms.offsets().T)]
    # first orthonormal coordinate, summed in root units one axis at a time;
    # the blocks of paths take the uniforms in the order of one big draw
    first = {k: np.zeros(cfg.samples) for k in grid}
    for a in range(0, cfg.samples, _WALK_BLOCK):
        draws = atoms.draw(rng, (min(_WALK_BLOCK, cfg.samples - a), steps))
        for j, table in enumerate(incr):
            z_alpha = table[draws]
            np.cumsum(z_alpha, axis=1, out=z_alpha)
            for k in grid:
                first[k][a:a + len(draws)] += (z_alpha[:, k - 1] / n
                                               * float(frame.LT[0, j]))

    ks_threshold = GOLDEN.walk_ks_threshold * math.sqrt(
        GOLDEN.walk_samples / cfg.samples)
    per_time = []
    ok = True
    for t in cfg.time_grid:
        k = int(round(n * t))
        if k == 0:
            continue
        z = first[k]
        se = z.std() / math.sqrt(z.size)
        mean_delta = abs(z.mean() - t * rho_drift)
        ks = ks_statistic(z, lambda x, t=t: _normal_cdf(
            (x - t * rho_drift) / math.sqrt(t)))
        entry = {
            "t": t, "mean": float(z.mean()), "target_mean": t * rho_drift,
            "mean_delta": float(mean_delta),
            "mean_band": GOLDEN.walk_mean_sigmas * float(se),
            "var": float(z.var()), "target_var": t,
            "ks": float(ks), "ks_threshold": ks_threshold,
            "pass": bool(mean_delta <= GOLDEN.walk_mean_sigmas * se
                         and ks <= ks_threshold),
        }
        ok = ok and entry["pass"]
        per_time.append(entry)
    return ComparisonReport(kind="walk-scaling", config_hash=cfg.content_hash(),
                            per_time=per_time, passed=ok,
                            notes={"samples": cfg.samples, "n": n,
                                   "atom_defect": atoms.defect})


def _chain_marginals(cfg: ExperimentConfig, alg: AffineAlgebra,
                     x: Weight) -> dict[float, np.ndarray]:
    omega = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
    s = characters.rho_specialization(alg, cfg.spec_n)
    x_n = round_to_dominant(alg, x, cfg.spec_n)
    kernel = chain.FastBarredKernel(alg, omega, s)
    record = tuple(int(round(cfg.spec_n * t)) for t in cfg.time_grid)
    rec = kernel.sample(x_n, max(record), cfg.samples, cfg.seed,
                        record_steps=record)
    first = diffusion._frame(alg).LT[0]       # first orthonormal coordinate
    return {t: rec[int(round(cfg.spec_n * t))] / cfg.spec_n @ first
            for t in cfg.time_grid}


def _diffusion_marginals(cfg: ExperimentConfig, alg: AffineAlgebra,
                         x: Weight, seed: int) -> dict[float, np.ndarray]:
    x0 = diffusion.weight_to_point(alg, x)
    batch = diffusion.sample_path_batch(
        alg, x0, max(cfg.time_grid), cfg.dt, cfg.samples, seed,
        conditioned=True, record_times=cfg.time_grid)
    return {t: batch.z[int(round(t / cfg.dt))][:, 0] for t in cfg.time_grid}


def scaling_chain_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Finite-dimensional marginals: scaled dominant-weight chain against
    the conditioned space-time diffusion, both Monte Carlo."""
    alg = algebra_from_name(cfg.algebra)
    x = weight_from_pairings(alg, cfg.start_pairings)
    inside, margin = diffusion.chamber_test(alg, diffusion.weight_to_point(alg, x))
    if margin <= 0:
        raise ValueError("start must lie strictly inside the chamber")
    chain_m = _chain_marginals(cfg, alg, x)
    diff_m = _diffusion_marginals(cfg, alg, x, cfg.seed + 1)

    ks_threshold = GOLDEN.chain_ks_const * math.sqrt(
        2.0 / cfg.samples)
    per_time = []
    ok = True
    for t in cfg.time_grid:
        entry = {"t": t}
        entry.update(_compare_samples(chain_m[t], diff_m[t],
                                      GOLDEN.chain_sigmas, ks_threshold))
        ok = ok and entry["pass"]
        per_time.append(entry)
    return ComparisonReport(kind="chain-scaling", config_hash=cfg.content_hash(),
                            per_time=per_time, passed=ok,
                            notes={"n": cfg.spec_n, "samples": cfg.samples,
                                   "dt": cfg.dt})


def calibrate_chain_harness(cfg: ExperimentConfig,
                            n_runs: int | None = None) -> ComparisonReport:
    """Feed the chain-experiment comparison the SAME process on both sides
    (conditioned diffusion vs itself, fresh seeds) and report the pass
    fraction; guards the thresholds against being over-tight."""
    n_runs = n_runs or GOLDEN.calibration_runs
    alg = algebra_from_name(cfg.algebra)
    x = weight_from_pairings(alg, cfg.start_pairings)
    ks_threshold = GOLDEN.chain_ks_const * math.sqrt(2.0 / cfg.samples)
    passes = 0
    rows = []
    for run in range(n_runs):
        a = _diffusion_marginals(cfg, alg, x, cfg.seed + 1000 + 2 * run)
        b = _diffusion_marginals(cfg, alg, x, cfg.seed + 1001 + 2 * run)
        ok = True
        for t in cfg.time_grid:
            res = _compare_samples(a[t], b[t], GOLDEN.chain_sigmas, ks_threshold)
            ok = ok and res["pass"]
        passes += ok
        rows.append({"run": run, "pass": ok})
    frac = passes / n_runs
    return ComparisonReport(
        kind="chain-harness-calibration", config_hash=cfg.content_hash(),
        per_time=rows, passed=bool(frac >= GOLDEN.calibration_pass_fraction),
        notes={"pass_fraction": frac, "runs": n_runs,
               "required": GOLDEN.calibration_pass_fraction})


# -- CLI ------------------------------------------------------------------------------


class _InputError(ValueError):
    """Bad command-line input: :func:`run_cli` prints one ``error:`` line, exit 2."""


def _load_algebra(args) -> AffineAlgebra:
    try:
        if args.json:
            with open(args.json) as fh:
                return algebra_from_json(fh.read())
        return algebra_from_name(args.algebra)
    # an unknown name, or a --json file missing, malformed or not affine
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"--json {args.json}: {exc}" if args.json
                          else exc.args[0]) from None


def _at_least(convert, low, above=False):
    """An argparse ``type``: ``convert(text)``, at least ``low`` (or above)."""
    def number(text):                   # argparse names a failed convert
        x = convert(text)
        if not (x > low if above else x >= low):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {'>' if above else '>='} {low}")
        return x
    return number


def _weight_arg(alg, text) -> Weight:
    try:
        return weight_from_pairings(alg, text.split(","))
    except ValueError as exc:           # wrong count, or not a rational
        raise _InputError(f"coroot pairings {text!r}: {exc}") from None


def _dominant_arg(alg, text) -> Weight:
    lam = _weight_arg(alg, text)
    if not classify_weight(alg, lam).dominant:
        raise _InputError(f"coroot pairings {text!r}: the highest weight must "
                          "be dominant integral")
    return lam


def _cmd_algebra(args) -> int:
    alg = _load_algebra(args)
    rho = weyl_vector(alg)
    info = {
        "name": alg.name, "rank": alg.rank,
        "marks": list(alg.marks), "comarks": list(alg.comarks),
        "coxeter": alg.coxeter, "dual_coxeter": alg.dual_coxeter,
        "gram_hstar": [[str(x) for x in row] for row in alg.gram_hstar],
        "weyl_vector": {"level": str(rho.k), "z": [str(x) for x in rho.z]},
    }
    print(json.dumps(info, indent=2))
    return 0


def _cmd_mult(args) -> int:
    from .highestweight import character_series_oracle, freudenthal_table
    alg = _load_algebra(args)
    lam = _dominant_arg(alg, args.pairings)
    builder = freudenthal_table if args.method == "freudenthal" \
        else character_series_oracle
    table = builder(alg, lam, args.depth)
    if args.csv:
        table.to_csv(args.csv)
    print(json.dumps({"entries": len(table.entries), "depth": args.depth,
                      "total": table.total()}))
    return 0


def _cmd_tensor(args) -> int:
    from .highestweight import tensor_power_table
    alg = _load_algebra(args)
    om = _dominant_arg(alg, args.pairings)
    table = tensor_power_table(alg, om, args.n, args.depth)
    if args.csv:
        table.to_csv(args.csv)
    print(json.dumps({"entries": len(table.entries), "depth": args.depth,
                      "total": table.total()}))
    return 0


def _cmd_characters(args) -> int:
    alg = _load_algebra(args)
    s = characters.rho_specialization(alg, args.n)
    if args.action == "eval":
        lam = _dominant_arg(alg, args.pairings)
        try:
            r = characters.eval_character(alg, lam, s, eps=args.eps)
        except (characters.ConvergenceError, OverflowError) as exc:
            raise _InputError(str(exc)) from None     # n beyond reach
        out = {"value": r.value, "tail_bound": r.tail_bound,
               "depth": r.truncation_depth}
    elif args.action == "theta":
        lam = _weight_arg(alg, args.pairings)
        if lam.k <= 0:
            raise _InputError(f"{args.pairings!r}: theta needs a positive level")
        r = characters.eval_theta(alg, lam, s, eps=args.eps)
        out = {"value": r.value, "tail_bound": r.tail_bound,
               "depth": r.truncation_depth}
    else:
        try:
            res = characters.denominator_residual(alg, s, args.depth)
        except OverflowError as exc:
            raise _InputError(str(exc)) from None     # depth beyond int64
        out = {"residual": res, "depth": args.depth}
    print(json.dumps(out))
    return 0


def _cmd_chain(args) -> int:
    alg = _load_algebra(args)
    s = characters.rho_specialization(alg, args.n)
    if args.action == "simulate":
        if args.seed is None:
            raise _InputError("--seed is required for stochastic commands")
        omega = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
        start = _weight_arg(alg, args.start) if args.start else omega
        traj = chain.simulate_chain(alg, start, omega, s, args.steps,
                                    args.seed, depth=args.depth)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "level"]
                            + [f"z{i+1}" for i in range(alg.rank)] + ["b"])
            for i, w in enumerate(traj):
                writer.writerow([i, str(w.k)] + [str(x) for x in w.z]
                                + [str(w.b)])
        print(json.dumps({"steps": args.steps, "out": args.out}))
        return 0
    # verify-reflection: criterion 5's loop at one step count
    from . import acceptance
    lam0 = _weight_arg(alg, args.start) if args.start else alg.Lambda0()
    cases = acceptance._reflection_residuals(alg, s, args.steps, lam0,
                                             args.depth)
    worst = max([0.0] + [res for _, res in cases])
    reports = [{"beta0": [str(x) for x in b0.z], "residual": res}
               for b0, res in cases]
    print(json.dumps({"steps": args.steps, "worst": worst,
                      "cases": reports}, indent=2))
    return 0 if worst < GOLDEN.reflection_rtol else 1


# acceptance criterion run by each ``diffusion verify-*`` action
_DIFFUSION_CRITERIA = {"verify-wonpt": 6, "verify-reflection": 7,
                       "verify-harmonic": 8}


def _cmd_diffusion(args) -> int:
    alg = _load_algebra(args)
    rho = weyl_vector(alg)
    if args.action == "sample":
        if args.seed is None:
            raise _InputError("--seed is required for stochastic commands")
        x0 = diffusion.weight_to_point(alg, rho)
        batch = diffusion.sample_path_batch(alg, x0, args.horizon, args.dt,
                                            args.paths, args.seed,
                                            conditioned=args.conditioned,
                                            record=True)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t", "s"]
                            + [f"z{i+1}" for i in range(alg.rank)])
            for j in range(args.paths):
                for k, s in enumerate(batch.s.tolist()):
                    writer.writerow([j, k * args.dt, s] + list(batch.z[k][j]))
        print(json.dumps({"paths": args.paths, "out": args.out}))
        return 0
    if args.action == "survival":
        pt = diffusion.weight_to_point(alg, rho.scale(args.scale))
        v, bound = diffusion.survival(alg, pt)    # truncation plus rounding
        print(json.dumps({"value": v, "bound": bound}))
        return 0
    if args.seed is not None:
        raise _InputError(f"{args.action} runs its acceptance criterion at the "
                          "criterion's fixed seed; --seed does not apply")
    from . import acceptance
    number, name, fn = next(c for c in acceptance.CHECKS
                            if c[0] == _DIFFUSION_CRITERIA[args.action])
    result = acceptance._timed(number, name, lambda: fn(alg=alg))
    print(result.line())
    return 0 if result.passed else 1


# least wall margin of a random interior point, as a share of s / (rank + 1)
_INTERIOR_MARGIN = 0.15


def _random_interior(alg, s, rng):
    """Random point of the level-s chamber slice, away from the walls."""
    frame = diffusion._frame(alg)
    for _ in range(1000):
        z = rng.normal(0, max(s / 2.0, 0.5), alg.rank)
        pt = diffusion.SpaceTimePoint(float(s), z)
        inside, margin = diffusion.chamber_test(alg, pt)
        if inside and margin > _INTERIOR_MARGIN * s / (alg.rank + 1):
            return z
    raise RuntimeError("could not sample an interior point")


def _cmd_experiment(args) -> int:
    if args.seed is None and not args.config:
        raise _InputError("--seed (or a config carrying one) is required for "
                          "stochastic commands")
    # the walk's scale defaults to the frozen walk, the chain's to the
    # config defaults; a config's keys, then the flags, override them
    defaults = ({"spec_n": GOLDEN.walk_n, "samples": GOLDEN.walk_samples,
                 "time_grid": [GOLDEN.walk_t]} if args.kind == "walk" else {})
    flags = {k: v for k, v in (("seed", args.seed), ("samples", args.samples),
                               ("spec_n", args.n)) if v is not None}
    text = "{}"
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    try:
        given = json.loads(text)
        if not isinstance(given, dict):
            raise ValueError("a config must be a JSON object")
        cfg = ExperimentConfig.from_json(json.dumps({**defaults, **given, **flags}))
    except ValueError as exc:          # bad JSON, unknown key or value
        raise _InputError(f"--config {args.config}: {exc}") from None
    if args.kind != "walk":             # the chain runs start at start_pairings
        _weight_arg(algebra_from_name(cfg.algebra), ",".join(cfg.start_pairings))
    if args.kind == "walk":
        report = scaling_walk_experiment(cfg)
    elif args.kind == "chain":
        report = scaling_chain_experiment(cfg)
    else:
        report = calibrate_chain_harness(cfg, n_runs=args.runs)
    if args.out:
        report.write(args.out)
    if args.csv:
        report.write_csv(args.csv)
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_verify_all(args) -> int:
    from . import acceptance
    try:
        results = acceptance.run_all(algebra=args.algebra, fast=args.fast)
    except ValueError as exc:           # an algebra the suite does not cover
        raise _InputError(str(exc)) from None
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affinewalks",
        description="affine highest-weight chains and chamber diffusions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra(p):
        p.add_argument("--algebra", default="A1~")
        p.add_argument("--json", help="JSON file with {rank, matrix}")

    p = sub.add_parser("algebra", help="derived Cartan data")
    add_algebra(p)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("mult", help="weight multiplicity table")
    add_algebra(p)
    p.add_argument("--pairings", required=True,
                   help="coroot pairings q0,q1,... of the highest weight")
    p.add_argument("--depth", type=_at_least(int, 0), default=10)
    p.add_argument("--method", choices=["series", "freudenthal"],
                   default="series")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("tensor", help="tensor power multiplicity table")
    add_algebra(p)
    p.add_argument("--pairings", required=True)
    p.add_argument("--n", type=_at_least(int, 0), default=2)
    p.add_argument("--depth", type=_at_least(int, 0), default=10)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("characters", help="numeric character evaluation")
    p.add_argument("action", choices=["eval", "theta", "denominator"])
    add_algebra(p)
    p.add_argument("--pairings", default="1,0")
    p.add_argument("--n", type=_at_least(int, 1), default=1, help="rho/n specialization")
    p.add_argument("--eps", type=_at_least(float, 0, above=True), default=1e-10)
    p.add_argument("--depth", type=_at_least(int, 0), default=GOLDEN.denominator_depth)
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("chain", help="dominant-weight Markov chain")
    p.add_argument("action", choices=["simulate", "verify-reflection"])
    add_algebra(p)
    p.add_argument("--n", type=_at_least(int, 1), required=True,
                   help="rho/n specialization")
    p.add_argument("--steps", type=_at_least(int, 0), default=5)
    p.add_argument("--seed", type=_at_least(int, 0))
    p.add_argument("--depth", type=_at_least(int, 0), default=60)
    p.add_argument("--start", help="coroot pairings of the start weight")
    p.add_argument("--out", default="chain.csv")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("diffusion", help="space-time chamber diffusion")
    p.add_argument("action", choices=["sample", "survival", "verify-reflection",
                                      "verify-wonpt", "verify-harmonic"])
    add_algebra(p)
    p.add_argument("--horizon", type=_at_least(float, 0), default=1.0)
    p.add_argument("--dt", type=_at_least(float, 0, above=True), default=1e-3)
    p.add_argument("--paths", type=_at_least(int, 0), default=10)
    p.add_argument("--seed", type=_at_least(int, 0))
    p.add_argument("--conditioned", action="store_true")
    p.add_argument("--scale", type=_at_least(Fraction, 0, above=True), default="1",
                   help="start at scale*rho")
    p.add_argument("--out", default="paths.csv")
    p.set_defaults(func=_cmd_diffusion)

    p = sub.add_parser("experiment", help="scaling-limit experiments")
    p.add_argument("kind", choices=["walk", "chain", "calibrate"])
    p.add_argument("--config", help="JSON ExperimentConfig")
    p.add_argument("--seed", type=_at_least(int, 0))
    p.add_argument("--samples", type=_at_least(int, 1))
    p.add_argument("--n", type=_at_least(int, 1))
    p.add_argument("--runs", type=_at_least(int, 1), default=None)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify-all", help="run the acceptance checks")
    p.add_argument("--algebra", default="A1~")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_verify_all)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, WeylEnumerationError) as exc:  # the latter: E7~, E8~
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
