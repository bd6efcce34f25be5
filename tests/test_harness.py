import json
import math

import numpy as np
import pytest

from affinewalks import algebra as al, characters as ch, diffusion, harness
from affinewalks.algebra import Weight
from affinewalks.layerseries import increment_atoms
from affinewalks.thresholds import GOLDEN


def test_ks_statistic_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert harness.ks_statistic(a, a.copy()) == 0.0
    b = np.array([10.0, 11.0, 12.0])
    assert harness.ks_statistic(a, b) == 1.0
    with pytest.raises(ValueError):
        harness.ks_statistic(np.array([]), a)


def test_ks_one_sample_uniform_calibration():
    # classical calibration: at the 1% level the statistic stays below
    # 1.63/sqrt(N) in about 99% of seeded runs
    n = 10_000
    crit = 1.63 / math.sqrt(n)
    hits = 0
    runs = 50
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        stat = harness.ks_statistic(u, lambda x: x)
        hits += stat < crit
    assert hits >= runs - 3


def test_config_roundtrip_and_hash():
    cfg = harness.ExperimentConfig(spec_n=7, samples=123, seed=5,
                                   time_grid=(0.25, 1.0),
                                   start_pairings=("1", "1"))
    again = harness.ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.content_hash() == cfg.content_hash()
    with pytest.raises(ValueError):
        harness.ExperimentConfig(spec_n=0)
    # JSON integers are times, and numbers are pairings
    cfg = harness.ExperimentConfig.from_json(
        '{"time_grid": [1], "start_pairings": [1, 1], "out": "r.json"}')
    assert cfg.time_grid == (1,) and cfg.start_pairings == ("1", "1")


def test_weight_from_pairings(a1):
    x = harness.weight_from_pairings(a1, ("1", "1"))
    assert x == Weight.make(2, ("1/2",), 0)
    lam = harness.weight_from_pairings(a1, ("0", "3"))
    assert al.pairing_coroot(a1, lam, 0) == 0
    assert al.pairing_coroot(a1, lam, 1) == 3
    with pytest.raises(ValueError):
        harness.weight_from_pairings(a1, ("1",))


def test_round_to_dominant(a1):
    x = harness.weight_from_pairings(a1, ("1", "1"))
    for n in (10, 37, 100):
        xn = harness.round_to_dominant(a1, x, n)
        cls = al.classify_weight(a1, xn)
        assert cls.dominant and cls.integral
        assert abs(float(xn.k) / n - float(x.k)) <= 1.0 / n
        assert abs(float(xn.z[0]) / n - float(x.z[0])) <= 1.0 / n


def test_walk_experiment_smoke_and_reproducible():
    cfg = harness.ExperimentConfig(algebra="A1~", spec_n=20,
                                   time_grid=(0.5,), samples=800, seed=3)
    r1 = harness.scaling_walk_experiment(cfg)
    r2 = harness.scaling_walk_experiment(cfg)
    assert r1.to_json() == r2.to_json()      # same config + seed: identical
    assert r1.config_hash == cfg.content_hash()
    assert len(r1.per_time) == 1             # report generated (n far from
    # asymptopia, pass not asserted)


def _walk_reference(cfg):
    # the walk in one piece: rng.choice over all paths and steps, then the
    # cumulative sums of each root coordinate; first orthonormal coordinate
    # at each grid time
    alg = al.algebra_from_name(cfg.algebra)
    omega = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
    atoms = increment_atoms(alg, omega, ch.rho_specialization(alg, cfg.spec_n))
    n = cfg.spec_n
    steps = max(int(round(n * max(cfg.time_grid))), 1)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    draws = rng.choice(atoms.prob.size, p=atoms.prob.ravel(), size=(cfg.samples, steps))
    z = np.array([float(x) for x in omega.z]) - atoms.offsets()
    walk = z[draws].cumsum(axis=1)
    lt = diffusion._frame(alg).LT[0]
    return {t: sum(walk[:, int(round(n * t)) - 1, j] / n * float(lt[j])
                   for j in range(alg.rank))
            for t in cfg.time_grid}


@pytest.mark.parametrize("algebra, n, times, samples", [
    ("A1~", 50, (0.4, 1.0), 1001), ("A2~", 10, (0.5, 1.0), 700)])
def test_walk_experiment_matches_reference(algebra, n, times, samples):
    # per_time from the blocked guide-table draws equals the statistics of
    # the one-piece reference, bit for bit; the samples are not a multiple
    # of the block
    assert samples % harness._WALK_BLOCK
    cfg = harness.ExperimentConfig(algebra=algebra, spec_n=n, time_grid=times,
                                   samples=samples, seed=17)
    report = harness.scaling_walk_experiment(cfg)
    ref = _walk_reference(cfg)
    drift = float(diffusion._frame(al.algebra_from_name(algebra)).rho_o[0])
    assert [row["t"] for row in report.per_time] == list(times)
    for row in report.per_time:
        z, t = ref[row["t"]], row["t"]
        assert row["mean"] == float(z.mean())
        assert row["var"] == float(z.var())
        assert row["mean_band"] == GOLDEN.walk_mean_sigmas * float(z.std() / math.sqrt(z.size))
        assert row["ks"] == harness.ks_statistic(z, lambda x: harness._normal_cdf(
            (x - t * drift) / math.sqrt(t)))


def test_walk_experiment_se_scaling():
    cfg1 = harness.ExperimentConfig(algebra="A1~", spec_n=20,
                                    time_grid=(0.5,), samples=1000, seed=3)
    cfg2 = harness.ExperimentConfig(algebra="A1~", spec_n=20,
                                    time_grid=(0.5,), samples=4000, seed=3)
    b1 = harness.scaling_walk_experiment(cfg1).per_time[0]["mean_band"]
    b2 = harness.scaling_walk_experiment(cfg2).per_time[0]["mean_band"]
    assert 1.6 < b1 / b2 < 2.4               # bands shrink like sqrt(N)


@pytest.mark.parametrize("samples, threshold", [(10_000, 0.02),
                                                (500, 0.02 * math.sqrt(20))])
def test_walk_ks_threshold_scales_with_samples(samples, threshold):
    # the frozen gate at GOLDEN.walk_samples, widened as KS noise grows
    cfg = harness.ExperimentConfig(algebra="A1~", spec_n=5, time_grid=(0.2,),
                                   samples=samples, seed=3)
    row = harness.scaling_walk_experiment(cfg).per_time[0]
    assert row["ks_threshold"] == pytest.approx(threshold, rel=1e-15)
    assert row["pass"] == (row["mean_delta"] <= row["mean_band"]
                           and row["ks"] <= threshold)


def test_chain_experiment_rejects_boundary_start():
    cfg = harness.ExperimentConfig(algebra="A1~", spec_n=10,
                                   samples=100, seed=1,
                                   start_pairings=("2", "0"))
    with pytest.raises(ValueError):
        harness.scaling_chain_experiment(cfg)


def test_chain_experiment_t0_pointmass():
    cfg = harness.ExperimentConfig(algebra="A1~", spec_n=12,
                                   time_grid=(0.0, 0.25), samples=300,
                                   seed=2, dt=5e-3)
    report = harness.scaling_chain_experiment(cfg)
    row0 = next(r for r in report.per_time if r["t"] == 0.0)
    assert row0["mean_delta"] < 1e-12
    assert row0["var_delta"] < 1e-12
