import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from affinewalks import (acceptance as ac, algebra as al, diffusion as df,
                         harness as hs, highestweight as hw, weyl as wy)
from affinewalks.algebra import Weight


def test_chamber_examples(a1, rho1):
    inside, margin = df.chamber_test(a1, df.SpaceTimePoint(1.0, np.zeros(1)))
    assert inside and margin == 0.0
    # negative pairing with the finite coroot
    bad = df.SpaceTimePoint(2.0, np.array([-0.5]))
    assert not df.chamber_test(a1, bad)[0]
    for t in (0.5, 2.0, 7.0):
        pt = df.weight_to_point(a1, rho1.scale(Fraction(str(t))))
        inside, margin = df.chamber_test(a1, pt)
        assert inside and abs(margin - t) < 1e-12


def heat_density(alg, x, y, t, drifted):
    # the free Gaussian kernel on the level slice y.s = x.s + t h_vee, with
    # or without the rho drift: the reference the reflected densities reduce
    # to far from the walls
    f = df._frame(alg)
    assert t > 0 and abs(y.s - x.s - t * f.hv) <= 1e-9
    disp = y.z - x.z - (t * f.rho_o if drifted else 0.0)
    return math.exp(-float(disp @ disp) / (2 * t)) / (2 * math.pi * t) ** (f.l / 2)


def test_survival_values(a1, rho1):
    v, tail = df.survival(a1, df.weight_to_point(a1, rho1))
    assert 0 < v <= 1 and tail < 1e-10
    v50, _ = df.survival(a1, df.weight_to_point(a1, rho1.scale(50)))
    assert abs(v50 - 1.0) < 1e-6
    vb, tb = df.survival(a1, df.SpaceTimePoint(1.5, np.zeros(1)))
    assert abs(vb) <= max(tb, 1e-12)
    with pytest.raises(df.OutsideChamberError):
        df.survival(a1, df.SpaceTimePoint(1.0, np.array([-1.0])))


def _weyl_sum_terms(alg, terms, s, z):
    # the signed terms det(w) e^{(x, w(rho) - rho)} of the alternating sum
    # for h over the terms t_alpha w of _terms_for, and each exponent's
    # derivatives in s and z: the route Kac's product replaced, kept here as
    # its independent reference
    f = df._frame(alg)
    rot_rho = terms.rot @ f.rho_o
    b = -(np.einsum("ni,ni->n", rot_rho, terms.alpha)
          + 0.5 * terms.alpha_norm2 * f.hv)
    cw = rot_rho + f.hv * terms.alpha - f.rho_o
    return terms.sign * np.exp(s * b + cw @ z), b, cw


def test_survival_shell_stability(a1):
    # adding lattice shells moves the value by less than the claimed tail
    p = df.SpaceTimePoint(2.0, np.array([0.6]))
    terms_small, tail_small = df._terms_for(a1, p.s, 1.0, 1e-6)
    terms_big, _ = df._terms_for(a1, p.s, 1.0, 1e-14)
    assert abs(_weyl_sum_terms(a1, terms_small, p.s, p.z)[0].sum()
               - _weyl_sum_terms(a1, terms_big, p.s, p.z)[0].sum()) <= tail_small


def _gradient_h(alg, p):
    # (d_s h, grad_z h) as h times the gradient of log h that the
    # conditioned sampler draws its drift from
    lh, ds, dz, _ = df._log_h(alg, p.s, p.z[None, :])
    h = math.exp(lh[0])
    return h * float(ds[0]), h * dz[0]


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~"])
def test_survival_matches_weyl_sum(name):
    # Kac's product against the alternating Weyl sum, at interior points
    # where the sum resolves the value: the values within both bounds, the
    # gradients against the termwise derivative sums
    alg = al.algebra_from_name(name)
    rng = np.random.default_rng(21)
    for _ in range(12):
        s0 = 0.7 + 3.0 * rng.random()
        z = hs._random_interior(alg, s0, rng)
        terms, tail = df._terms_for(alg, s0, float(np.linalg.norm(z)), 1e-15)
        e, b, cw = _weyl_sum_terms(alg, terms, s0, z)
        total, sum_err = e.sum(), tail + e.size * 2.3e-16 * np.abs(e).sum()
        assert sum_err < 1e-6 * total
        h, bound = df.survival(alg, df.SpaceTimePoint(s0, z))
        assert abs(h - total) <= sum_err + bound
        ds, dz = _gradient_h(alg, df.SpaceTimePoint(s0, z))
        scale = abs(e @ b) + np.abs(e @ cw).max()
        assert abs(ds - e @ b) <= 1e-6 * scale
        assert np.abs(dz - e @ cw).max() <= 1e-6 * scale


def test_survival_vanishes_on_walls(a1, a2):
    # exactly 0.0 with a finite bound on the finite walls (z = 0) and on the
    # affine wall (along rho; rounding puts some such points outside)
    for alg in (a1, a2):
        f = df._frame(alg)
        pts = [df.SpaceTimePoint(1.5, np.zeros(alg.rank))]
        for s0 in (0.5, 1.0, 1.5, 2.0, 3.0):
            z = -s0 / float(f.pairing[0] @ f.rho_o) * f.rho_o
            pts.append(df.SpaceTimePoint(s0, z))
        pts = [p for p in pts if df.chamber_test(alg, p)[0]]
        assert len(pts) >= 3
        for p in pts:
            assert abs(df.chamber_test(alg, p)[1]) < 1e-12
            v, bound = df.survival(alg, p)
            assert v == 0.0 and math.isfinite(bound) and bound < 1e-12
            assert df._log_h(alg, p.s, p.z[None, :])[0][0] == -math.inf
    with pytest.raises(df.OutsideChamberError):
        df.survival(a1, df.SpaceTimePoint(0.0, np.zeros(1)))


def test_survival_depth_cap_raises(a1, monkeypatch):
    # the product's depth loop stops at its cap with the typed error
    monkeypatch.setattr(hw, "_KAC_DEPTH_MAX", 3)
    with pytest.raises(wy.ConvergenceError):
        df.survival(a1, df.SpaceTimePoint(2.0, np.array([0.6])))


def test_survival_gradient_fd(a1):
    rng = np.random.default_rng(0)
    step = 1e-4
    checked = 0
    for _ in range(40):
        s0 = 1.0 + 3.0 * rng.random()
        z = rng.uniform(0.1, s0 / 1.5, 1) / math.sqrt(2)
        p = df.SpaceTimePoint(s0, z)
        inside, margin = df.chamber_test(a1, p)
        if not inside or margin < 0.05:
            continue
        ds, dz = _gradient_h(a1, p)
        fd_s = (df.survival(a1, df.SpaceTimePoint(s0 + step, z))[0]
                - df.survival(a1, df.SpaceTimePoint(s0 - step, z))[0]) / (2 * step)
        fd_z = (df.survival(a1, df.SpaceTimePoint(s0, z + step))[0]
                - df.survival(a1, df.SpaceTimePoint(s0, z - step))[0]) / (2 * step)
        scale = max(abs(fd_s), abs(fd_z), 1e-9)
        assert abs(ds - fd_s) / scale < 1e-5
        assert abs(dz[0] - fd_z) / scale < 1e-5
        checked += 1
    assert checked >= 20


def test_survival_gradient_far_interior(a1, rho1):
    ds, dz = _gradient_h(a1, df.weight_to_point(a1, rho1.scale(40)))
    assert abs(ds) < 1e-12 and np.abs(dz).max() < 1e-12


def test_survival_increases_towards_interior(a1, rho1):
    # observation: directional derivative along the drift direction is
    # nonnegative at sampled interior points
    rng = np.random.default_rng(4)
    f = df._frame(a1)
    for _ in range(10):
        s0 = 1.5 + 2.0 * rng.random()
        p = df.SpaceTimePoint(s0, np.array([rng.uniform(0.2, s0 / 1.6)])
                              / math.sqrt(2))
        if not df.chamber_test(a1, p)[0]:
            continue
        ds, dz = _gradient_h(a1, p)
        directional = ds * f.hv + float(dz @ f.rho_o)
        assert directional >= -1e-8


def test_reflected_density_modes_and_positivity(a1):
    x = df.SpaceTimePoint(2.0, np.array([0.9]))
    t = 0.8
    y = df.SpaceTimePoint(x.s + 2 * t, np.array([1.4]))
    d1 = df.reflected_density(a1, x, y, t, "drifted-by-x")
    d2 = df.reflected_density(a1, x, y, t, "drifted-by-y")
    d0 = df.reflected_density(a1, x, y, t, "undrifted")
    assert abs(d1 - d2) / d1 < 1e-12
    assert d1 >= 0 and d0 >= 0
    with pytest.raises(ValueError):
        df.reflected_density(a1, x, y, 2 * t, "drifted-by-x")
    with pytest.raises(ValueError):
        df.reflected_density(a1, x, y, t, "nonsense")


def test_reflected_density_deep_interior_is_free(a1):
    # far from every wall only the identity term survives
    x = df.SpaceTimePoint(20.0, np.array([5.0 * math.sqrt(2)]))
    assert df.chamber_test(a1, x)[1] >= 9.9
    t = 0.5
    y = df.SpaceTimePoint(x.s + 2 * t, x.z + 0.3)
    refl = df.reflected_density(a1, x, y, t, "drifted-by-x")
    free = heat_density(a1, x, y, t, drifted=True)
    assert abs(refl - free) / free < 1e-8


# (t, x.s, x.z, y.z) -> (drifted-by-x, drifted-by-y, undrifted) values on A1~:
# the first three configurations of criterion 7 (seed 71), and criterion 9's
# start rho at t = 4 with y at node 137 of the 400-point Gauss-Legendre rule
_DENSITY_HEX = {
    ("0x1.5c38c19c74f90p-1", "0x1.070cc8fe78a84p+1", "0x1.085dfb010c307p-1",
     "0x1.be67df3d20d7ap-1"):
        ("0x1.606a9648385c8p-2", "0x1.606a9648385c7p-2", "0x1.44df9a1dad6e0p-2"),
    ("0x1.15b20e36a2a51p+0", "0x1.671f73e8f64fbp+0", "0x1.09973ac1c9591p-1",
     "0x1.5950cd69ce805p-1"):
        ("0x1.9b826c5f7dcd8p-4", "0x1.9b826c5f7dcc5p-4", "0x1.e36ef39db00b0p-4"),
    ("0x1.aa6efaa5ed8acp+0", "0x1.6b46952111a7fp+0", "0x1.89660ff6329b5p-2",
     "0x1.029ed4fd83b30p-1"):
        ("0x1.f3ea2964d0986p-6", "0x1.f3ea2964d0974p-6", "0x1.5c00d9bcce1e9p-5"),
    ("0x1.0000000000000p+2", "0x1.0000000000000p+1", "0x1.6a09e667f3bcdp-1",
     "0x1.deed387f8a57cp+0"):
        ("0x1.92fadf7f04418p-5", "0x1.92fadf7f0442cp-5", "0x1.e11398dc301bcp-5"),
}


@pytest.mark.parametrize("config", list(_DENSITY_HEX))
def test_reflected_density_bit_identical(a1, config):
    # the values recorded before the reflection sum moved into
    # _reflection_terms, which the slice mass shares
    t, s0, xz, yz = (float.fromhex(v) for v in config)
    x = df.SpaceTimePoint(s0, np.array([xz]))
    y = df.SpaceTimePoint(s0 + t * a1.dual_coxeter, np.array([yz]))
    got = tuple(df.reflected_density(a1, x, y, t, mode).hex()
                for mode in ("drifted-by-x", "drifted-by-y", "undrifted"))
    assert got == _DENSITY_HEX[config]


def _gauss_legendre_mass(alg, x0, t, lo, hi, n):
    # the reference: Gauss-Legendre quadrature of the killed density
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
    ws = 0.5 * (hi - lo) * ws
    total = 0.0
    for xx, ww in zip(xs, ws):
        y = df.SpaceTimePoint(x0.s + t * alg.dual_coxeter, np.array([xx]))
        total += ww * df.reflected_density(alg, x0, y, t, "drifted-by-x")
    return total


@pytest.mark.parametrize("start,t,window", [
    (None, 4.0, None),              # criterion 9: from rho, the whole slice
    ((2.0, 0.15), 1.0, None),
    ((2.0, 0.15), 1.0, (0.2, 0.7)),
    ((1.1, 0.5), 0.3, None)])
def test_slice_mass_matches_quadrature(a1, rho1, start, t, window):
    x0 = (df.weight_to_point(a1, rho1) if start is None
          else df.SpaceTimePoint(start[0], np.array([start[1]])))
    f = df._frame(a1)
    lo, hi = window or (0.0, (x0.s + t * f.hv) / 2.0 * float(f.LT[0, 0]))
    mass, bound = ac._slice_quadrature(a1, x0, t, lo, hi)
    fine = _gauss_legendre_mass(a1, x0, t, lo, hi, 400)
    estimate = abs(fine - _gauss_legendre_mass(a1, x0, t, lo, hi, 200))
    assert bound < 1e-12
    assert abs(mass - fine) <= bound + estimate


def test_slice_mass_empty_and_rank_2(a1, a2):
    x0 = df.SpaceTimePoint(2.0, np.array([0.15]))
    assert df._slice_mass(a1, x0, 1.0, 0.4, 0.4)[0] == 0.0
    x2 = df.weight_to_point(a2, al.weyl_vector(a2))
    with pytest.raises(ValueError, match="rank 2"):
        df._slice_mass(a2, x2, 1.0, 0.0, 1.0)


def test_wonpt_identity(a1):
    rng = np.random.default_rng(6)
    els = list(wy.enumerate_bounded(a1, 3 * math.sqrt(2) + 1e-9))
    ident = next(e for e in els if e.is_identity())
    x = Weight.make(2, (Fraction(1, 3),), Fraction(1, 7))
    y = Weight.make(3, (Fraction(-2, 5),), Fraction(2, 3))
    t = float(y.k - x.k) / 2.0
    assert df.wonpt_residual(a1, x, y, t, ident) == 0.0
    finite_only = [e for e in els if e.trans == (0,)]
    for e in finite_only:
        assert df.wonpt_residual(a1, x, y, t, e) < 1e-15
    worst = max(df.wonpt_residual(a1, x, y, t, e) for e in els)
    assert worst < 1e-12
    with pytest.raises(ValueError):
        df.wonpt_residual(a1, x, y, t + 0.5, ident)


def test_harmonic_residual(a1):
    els = list(wy.enumerate_bounded(a1, 2.2))
    ident = next(e for e in els if e.is_identity())
    p = df.SpaceTimePoint(2.0, np.array([0.4]))
    assert df.harmonic_residual(a1, ident, p, 1e-3) == 0.0
    s1 = next(e for e in els if e.trans == (0,) and e.finite.word)
    r1 = df.harmonic_residual(a1, s1, p, 1e-3)
    r2 = df.harmonic_residual(a1, s1, p, 5e-4)
    assert abs(r1) < 1e-5
    assert 0.2 < abs(r2 / r1) < 0.3


def test_sampler_drift_and_variance(a1, rho1):
    x0 = df.weight_to_point(a1, rho1.scale(4))
    batch = df.sample_path_batch(a1, x0, 0.5, 1e-3, 4000, seed=21,
                                 conditioned=False, record_times=(0.5,))
    f = df._frame(a1)
    disp = batch.z[500][:, 0] - x0.z[0]
    se = disp.std() / math.sqrt(disp.size)
    assert abs(disp.mean() - 0.5 * f.rho_o[0]) < 3 * se
    var_se = disp.var() * math.sqrt(2.0 / (disp.size - 1))
    assert abs(disp.var() - 0.5) < 4 * var_se


def test_sampler_reproducible(a1, rho1):
    x0 = df.weight_to_point(a1, rho1)
    b1 = df.sample_path_batch(a1, x0, 0.2, 1e-2, 50, seed=5,
                              conditioned=False, record=True)
    b2 = df.sample_path_batch(a1, x0, 0.2, 1e-2, 50, seed=5,
                              conditioned=False, record=True)
    assert b1.z.keys() == b2.z.keys() == set(range(21))
    assert all(np.array_equal(b1.z[k], b2.z[k]) for k in b1.z)
    assert np.array_equal(b1.exit_times, b2.exit_times)


def test_boundary_start_exits_quickly(a1):
    pb = df.SpaceTimePoint(2.0, np.zeros(1))
    fracs = []
    for dt in (1e-2, 1e-3, 1e-4):
        b = df.sample_path_batch(a1, pb, 0.05, dt, 1500, seed=3,
                                 conditioned=False)
        fracs.append(b.exit_fraction(0.05))
    assert fracs[-1] > 0.995
    assert fracs[0] <= fracs[-1] + 0.01


def test_bridge_exit_matches_quadrature(a1):
    # coarse steps (dt=0.1) from a start 0.21 from the wall: an endpoint-only
    # exit test reads about 0.58 here, the bridge test recovers the crossings
    x0 = df.SpaceTimePoint(2.0, np.array([0.15]))
    horizon, n_paths = 1.0, 20_000
    batch = df.sample_path_batch(a1, x0, horizon, 0.1, n_paths, seed=3,
                                 conditioned=False)
    p_mc = batch.exit_fraction(horizon)
    f = df._frame(a1)
    hi = (x0.s + horizon * f.hv) / 2.0 * float(f.LT[0, 0])
    stay, quad_err = ac._slice_quadrature(a1, x0, horizon, 0.0, hi)
    se = math.sqrt(p_mc * (1 - p_mc) / n_paths)
    assert abs(p_mc - (1.0 - stay)) < 3 * se + quad_err


def _bridge_loop(alg, x0, t_max, dt, n_paths, seed):
    # the law reference: the per-step loop the block sampler replaces, with
    # one uniform per tested path and step (exit when it is at or above the
    # step's stay factor) and margins recomputed at both ends of the step
    f = df._frame(alg)
    rng = np.random.Generator(np.random.Philox(seed))
    n_steps = int(round(t_max / dt))
    times = np.arange(n_steps + 1) * dt
    svals = x0.s + times * f.hv
    z = np.tile(x0.z, (n_paths, 1))
    exit_times = np.full(n_paths, np.inf)
    for k in range(n_steps):
        idx = np.flatnonzero(np.isinf(exit_times))
        zi = z[idx]
        znew = zi + f.rho_o * dt + rng.normal(0.0, math.sqrt(dt), zi.shape)
        z[idx] = znew
        before = np.maximum(df._wall_margins(f, float(svals[k]), zi), 0.0)
        after = np.maximum(df._wall_margins(f, float(svals[k + 1]), znew), 0.0)
        stay = np.prod(-np.expm1(-2.0 * before * after / (f.wall_var * dt)),
                       axis=1)
        crossed = rng.random(stay.size) >= stay
        exit_times[idx[crossed]] = float(times[k + 1])
    return exit_times


def _step_loop(alg, x0, t_max, dt, n_paths, seed, record=False,
               record_times=()):
    # the block sampler's draws in a plain per-step loop: one uniform per
    # path, then normals drawn per block of df._block_steps steps over the
    # paths moving at the block's start (every path when recording, else
    # those not yet exited); every wall's stay factor is formed at every
    # step, and a path exits once its running product is <= its uniform
    f = df._frame(alg)
    rng = np.random.Generator(np.random.Philox(seed))
    n_steps = int(round(t_max / dt))
    times = np.arange(n_steps + 1) * dt
    svals = x0.s + times * f.hv
    z = np.tile(x0.z, (n_paths, 1))
    exit_times = np.full(n_paths, np.inf)
    rec_idx = (set(range(n_steps + 1)) if record
               else {int(round(t / dt)) for t in record_times})
    recorded = {0: z.copy()} if 0 in rec_idx else {}
    u, run = rng.random(n_paths), np.ones(n_paths)
    scale = -2.0 / (f.wall_var * dt)

    def margins(k, zk):
        rows = []
        for i in range(f.l + 1):
            m = zk[:, 0] * f.pairing[i, 0]
            for j in range(1, f.l):
                m = m + zk[:, j] * f.pairing[i, j]
            rows.append(m + svals[k] if i == 0 else m)
        return np.maximum(np.array(rows), 0.0)

    until, k = max(rec_idx, default=0), 0
    while k < n_steps and (np.isinf(exit_times).any() or k < until):
        moving = (np.arange(n_paths) if rec_idx
                  else np.flatnonzero(np.isinf(exit_times)))
        b = min(n_steps - k, df._block_steps(moving.size, f.l))
        normals = rng.standard_normal((b, moving.size, f.l))
        for j in range(b):
            test = moving[np.isinf(exit_times[moving])]
            before = margins(k, z[test])
            z[moving] = z[moving] + (normals[j] * math.sqrt(dt) + f.rho_o * dt)
            k += 1
            after = margins(k, z[test])
            stay = np.ones(test.size)
            for q in -np.expm1(before * after * scale[:, None]):
                stay = stay * q
            run[test] = run[test] * stay
            exit_times[test[run[test] <= u[test]]] = times[k]
            if k in rec_idx:
                recorded[k] = z.copy()
    return exit_times, recorded


def test_free_sampler_bit_identical_to_bridge_loop(a1, a2, monkeypatch):
    # the block sampler's positions and exit times agree bit for bit with a
    # per-step loop over the same draws that forms every stay factor: the
    # factors it skips far from the walls are exactly 1.0; unrecorded
    # (exited paths dropped), with every index and at given times, at the
    # module's byte budget and at one that makes blocks of a few steps
    c2 = al.algebra_from_name("C2~")

    def start(alg, scale):
        return df.weight_to_point(alg, al.weyl_vector(alg).scale(Fraction(scale)))

    cases = [
        (a1, start(a1, 1), 2.0, 1e-3, 1000, 909, {}),
        (a1, df.SpaceTimePoint(2.0, np.array([0.15])), 1.0, 0.1, 2000, 3, {}),
        (a1, start(a1, "1/2"), 0.5, 1e-2, 300, 5, {"record": True}),
        (a2, start(a2, 1), 1.0, 1e-3, 500, 6, {}),
        (a2, start(a2, "1/2"), 0.5, 1e-2, 300, 7, {"record": True}),
        (c2, start(c2, "1/2"), 0.5, 1e-3, 500, 8, {"record_times": (0.25, 0.5)}),
        (c2, start(c2, 1), 1.0, 0.1, 1000, 9, {"record": True}),
    ]
    for budget in (df._BLOCK_BYTES, 1 << 15):
        monkeypatch.setattr(df, "_BLOCK_BYTES", budget)
        for alg, x0, t_max, dt, n, seed, kw in cases:
            batch = df.sample_path_batch(alg, x0, t_max, dt, n, seed=seed,
                                         conditioned=False, **kw)
            exit_times, recorded = _step_loop(alg, x0, t_max, dt, n, seed, **kw)
            assert 0 < np.isfinite(exit_times).mean() < 1
            assert np.array_equal(batch.exit_times, exit_times)
            assert (batch.z or {}).keys() == recorded.keys()
            assert all(np.array_equal(batch.z[k], z)
                       for k, z in recorded.items())


# 0.999 quantiles of chi-square with 10 and 20 degrees of freedom
_CHI2_999 = {10: 29.588, 20: 45.315}


@pytest.mark.parametrize("name,start,dt", [
    ("A1~", Fraction(1, 2), 0.1), ("A2~", Fraction(1), 0.05)])
def test_block_sampler_exit_law_matches_bridge_loop(name, start, dt):
    # one uniform per path against one per step: the exit times of 20 000
    # paths each, binned by grid step (and never), are homogeneous by a
    # chi-square test at level 1e-3
    alg = al.algebra_from_name(name)
    x0 = df.weight_to_point(alg, al.weyl_vector(alg).scale(start))
    n, t_max = 20_000, 1.0
    n_steps = int(round(t_max / dt))
    new = df.sample_path_batch(alg, x0, t_max, dt, n, seed=41,
                               conditioned=False).exit_times
    old = _bridge_loop(alg, x0, t_max, dt, n, seed=42)

    def counts(exits):
        k = np.where(np.isfinite(exits), np.rint(exits / dt), n_steps + 1)
        return np.bincount(k.astype(int), minlength=n_steps + 2)[1:]

    table = np.array([counts(new), counts(old)], dtype=float)
    assert table.min() >= 20
    expected = table.sum(axis=0) * 0.5          # two samples of equal size
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < _CHI2_999[n_steps]


def test_zero_stay_factor_exits_a_zero_uniform(a1, monkeypatch):
    # a start on a wall has stay factor exactly 0 in its first step, so it
    # exits there even with a uniform of 0.0: the exit rule is alive <= U
    class ZeroUniforms(np.random.Generator):
        def random(self, size=None):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "Generator", ZeroUniforms)
    batch = df.sample_path_batch(a1, df.SpaceTimePoint(2.0, np.zeros(1)), 0.01,
                                 1e-3, 50, seed=1, conditioned=False)
    assert (batch.exit_times == batch.times[1]).all()


def test_stay_factor_rounds_to_one_far_from_the_walls():
    # the block sampler skips the stay factors of a wall whose margins keep
    # 2 a b / (|pairing|^2 dt) >= 2 * _FAR = 38, where they are exactly 1.0
    assert 2 * df._FAR == 38.0
    assert -np.expm1(-38.0) == 1.0
    assert -np.expm1(-37.5) == 1.0       # room for a few roundings


def test_bridge_exit_times_on_coarse_grid(a1, rho1):
    batch = df.sample_path_batch(a1, df.weight_to_point(a1, rho1), 1.0, 0.05,
                                 500, seed=8, conditioned=False)
    hit = batch.exit_times[np.isfinite(batch.exit_times)]
    assert hit.size > 0
    assert np.isin(hit, batch.times[1:]).all()


def test_exit_fraction_counts_last_step(a1):
    # 3*0.1 rounds above 0.3: exits in the last step must still count
    x0 = df.SpaceTimePoint(2.0, np.array([0.15]))
    batch = df.sample_path_batch(a1, x0, 0.3, 0.1, 400, seed=3,
                                 conditioned=False)
    assert batch.times[-1] > 0.3
    last = batch.exit_times == batch.times[-1]
    assert last.any()
    assert batch.exit_fraction(0.3) == np.isfinite(batch.exit_times).mean()


def test_term_arrays_cache_bounded(a1):
    radii = range(wy._TERMS_MAX + 3)
    first = [vars(wy.weyl_terms(a1, r)).copy() for r in radii]
    assert wy.weyl_terms.cache_info().currsize == wy._TERMS_MAX
    for r, arrays in zip(radii, first):
        again = vars(wy.weyl_terms(a1, r))
        assert all(np.array_equal(arrays[f], again[f]) for f in arrays)
    assert wy.weyl_terms.cache_info().currsize == wy._TERMS_MAX


def test_conditioned_against_rejection(a1, rho1):
    # conditioned marginal vs free paths alive at t_short weighted by h(Y_t):
    # E[1{tau > t} h(Y_t) g(Y_t)] = h(x) E_cond[g(Y_t)]
    x0 = df.weight_to_point(a1, rho1.scale(2))
    t_short, dt = 0.4, 2e-3
    k = int(round(t_short / dt))
    cond = df.sample_path_batch(a1, x0, t_short, dt, 3000, seed=11,
                                conditioned=True, record_times=(t_short,))
    free = df.sample_path_batch(a1, x0, t_short, dt, 12000, seed=12,
                                conditioned=False, record_times=(t_short,))
    s_t = float(free.s[k])
    zr = free.z[k][np.isinf(free.exit_times)]
    w = np.array([df.survival(a1, df.SpaceTimePoint(s_t, z))[0] for z in zr])
    h_x, _ = df.survival(a1, x0)
    assert abs(w.sum() / free.z[k].shape[0] / h_x - 1.0) < 0.01
    zc = cond.z[k][:, 0]
    m = float(w @ zr[:, 0]) / w.sum()
    se_w = math.sqrt(float(w**2 @ (zr[:, 0] - m) ** 2)) / w.sum()
    se = math.sqrt(zc.var() / zc.size + se_w**2)
    assert abs(zc.mean() - m) < 3 * se


def _conditioned_cdf(a1, x0, t):
    """Quadrature CDF of ``q_t(x, y) h(y) / h(x)`` on the level slice, in
    the first orthonormal coordinate."""
    f = df._frame(a1)
    h_x, _ = df.survival(a1, x0)
    s_t = x0.s + t * f.hv
    grid = np.linspace(0.0, s_t / 2 * float(f.LT[0, 0]), 4001)
    dens = np.zeros(grid.size)     # the killed density vanishes on the walls
    for i in range(1, grid.size - 1):
        y = df.SpaceTimePoint(s_t, grid[i:i + 1])
        dens[i] = (df.reflected_density(a1, x0, y, t)
                   * df.survival(a1, y)[0] / h_x)
    cdf = np.concatenate(([0.0], np.cumsum(
        0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
    return grid, cdf


def test_conditioned_marginals_exact(a1):
    # criterion 11's configuration: the sampled marginals against the
    # quadrature CDF of q_t(x, y) h(y) / h(x) on the level slice
    x0 = df.weight_to_point(a1, al.weight_from_pairings(a1, (1, 1)))
    n, dt = 5000, 2e-3
    batch = df.sample_path_batch(a1, x0, 1.0, dt, n, seed=1112,
                                 conditioned=True, record_times=(0.5, 1.0))
    assert not batch.aborted.any() and np.isinf(batch.exit_times).all()
    f = df._frame(a1)
    for t in (0.5, 1.0):
        s_t = x0.s + t * f.hv
        z = batch.z[int(round(t / dt))]
        assert (df._wall_margins(f, s_t, z) > 0).all()
        grid, cdf = _conditioned_cdf(a1, x0, t)
        assert abs(cdf[-1] - 1.0) < 1e-4
        ks = hs.ks_statistic(z[:, 0], lambda v: np.interp(v, grid, cdf))
        assert ks < 1.95 / math.sqrt(n)


def test_whole_conditioned_paths_exact(a1):
    # every grid step is an exact transition: at coarse dt nothing aborts
    # (Euler-Maruyama with step halving aborted 0.06-0.1% here) and the
    # t = 0.5 marginal matches the quadrature CDF
    x0 = df.weight_to_point(a1, al.weight_from_pairings(a1, (1, 1)))
    n, dt = 5000, 0.1
    batch = df.sample_path_batch(a1, x0, 1.0, dt, n, seed=1113,
                                 conditioned=True, record=True)
    assert not batch.aborted.any() and np.isinf(batch.exit_times).all()
    f = df._frame(a1)
    for k in range(11):
        assert (df._wall_margins(f, batch.s[k], batch.z[k]) > 0).all()
    grid, cdf = _conditioned_cdf(a1, x0, 0.5)
    ks = hs.ks_statistic(batch.z[5][:, 0], lambda v: np.interp(v, grid, cdf))
    assert ks < 1.95 / math.sqrt(n)


def test_whole_conditioned_paths_a2_stay_inside(a2):
    x0 = df.weight_to_point(a2, al.weyl_vector(a2))
    batch = df.sample_path_batch(a2, x0, 0.5, 1e-2, 200, seed=6,
                                 conditioned=True, record=True)
    f = df._frame(a2)
    assert batch.z.keys() == set(range(51))
    for k, z in batch.z.items():
        assert (df._wall_margins(f, batch.s[k], z) > 0).all()
    assert not batch.aborted.any()


def test_conditioned_a2_from_small_level(a2):
    # from 0.1 rho the survival sum cancelled below its rounding and the
    # drift came from roundoff (the 10 000-proposal cap raised); with Kac's
    # product every path finishes inside the chamber
    x0 = df.weight_to_point(a2, al.weyl_vector(a2).scale(Fraction(1, 10)))
    batch = df.sample_path_batch(a2, x0, 1.0, 0.5, 100, seed=3,
                                 conditioned=True, record_times=(0.5, 1.0))
    f = df._frame(a2)
    for k in (1, 2):
        assert (df._wall_margins(f, batch.s[k], batch.z[k]) > 0).all()


def test_conditioned_acceptance_above_bound_raises(a1, rho1, monkeypatch):
    # a d/ds of log h lowered by 50 puts log h above its tangent plane
    product = df.log_kac_product

    def skewed(alg, s, v):
        lh, ds, dv, err = product(alg, s, v)
        return lh, ds - 50.0, dv, err

    monkeypatch.setattr(df, "log_kac_product", skewed)
    with pytest.raises(FloatingPointError):
        df.sample_path_batch(a1, df.weight_to_point(a1, rho1), 0.1, 1e-2, 20,
                             seed=4, conditioned=True, record=True)


def test_killed_over_free_and_bridge_bound(a1):
    # the sampler's q/p sum equals reflected over free density, and the
    # union bound over the walls lies below it
    f = df._frame(a1)
    rng = np.random.default_rng(13)
    tm, tail = df._terms_for(a1, 2.0, 3.0, 1e-14)
    for tau in (0.01, 0.1, 0.5):
        x = np.column_stack([rng.uniform(0.05, 1.35, 40)])
        dz = tau * f.rho_o + rng.normal(0.0, math.sqrt(tau), x.shape)
        y = x + dz
        s_y = 2.0 + f.hv * tau
        keep = df._wall_margins(f, s_y, y).min(axis=1) > 0
        x, dz, y = x[keep], dz[keep], y[keep]
        qp = df._killed_over_free(f, tm, tail, np.full(len(x), 2.0), x, dz,
                                  np.full(len(x), tau))
        ref = [df.reflected_density(a1, df.SpaceTimePoint(2.0, xi),
                                    df.SpaceTimePoint(s_y, yi), tau)
               / heat_density(a1, df.SpaceTimePoint(2.0, xi),
                              df.SpaceTimePoint(s_y, yi), tau, drifted=True)
               for xi, yi in zip(x, y)]
        assert np.allclose(qp, ref, rtol=1e-9, atol=1e-12)
        cross = np.exp(-2.0 * df._wall_margins(f, 2.0, x)
                       * df._wall_margins(f, s_y, y) / (f.wall_var * tau))
        assert (1.0 - cross.sum(axis=1) <= qp + 1e-12).all()
        assert (qp <= 1.0 + 1e-12).all()


def test_exact_conditioned_chunks_and_round_cap(a1, rho1, monkeypatch):
    x0 = df.weight_to_point(a1, rho1)
    f = df._frame(a1)
    monkeypatch.setattr(df, "_CHUNK", 100)      # a few paths per q/p slice
    sizes, killed_over_free = [], df._killed_over_free

    def recorded(f, tm, tail, s, *args):
        sizes.append((s.size, 100 // tm.sign.size))
        return killed_over_free(f, tm, tail, s, *args)

    monkeypatch.setattr(df, "_killed_over_free", recorded)
    batch = df.sample_path_batch(a1, x0, 0.5, 1e-2, 200, seed=4,
                                 conditioned=True, record_times=(0.25, 0.5))
    for k in (25, 50):
        assert (df._wall_margins(f, batch.s[k], batch.z[k]) > 0).all()
    # full slices, and no slice past the path x term budget
    assert all(n <= full for n, full in sizes)
    assert any(n == full for n, full in sizes)
    # a path rejected once, or needing a second substep, makes a second
    # proposal in its gap
    monkeypatch.setattr(df, "_MAX_ROUNDS", 1)
    with pytest.raises(wy.ConvergenceError):
        df.sample_path_batch(a1, x0, 0.5, 1e-2, 200, seed=4,
                             conditioned=True, record_times=(0.5,))
    with pytest.raises(wy.ConvergenceError):
        df.sample_path_batch(a1, x0, 0.5, 1e-2, 200, seed=4,
                             conditioned=True, record=True)


def test_conditioned_never_exits(a1, rho1):
    batch = df.sample_path_batch(a1, df.weight_to_point(a1, rho1), 0.5, 1e-3,
                                 1000, seed=9, conditioned=True, record=True)
    assert batch.aborted.mean() < 0.01


def test_sample_csv_paths_and_levels(tmp_path):
    out = tmp_path / "paths.csv"
    assert hs.run_cli(["diffusion", "sample", "--horizon", "0.1", "--dt", "1e-2",
                       "--paths", "3", "--seed", "5", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one row per path and grid time, from rho (level 2 on A1~)
    assert [int(r["path"]) for r in rows] == [j for j in range(3) for _ in range(11)]
    # level coordinate advances deterministically, by h_vee * dt
    for k, row in enumerate(rows):
        assert abs(float(row["t"]) - (k % 11) * 1e-2) < 1e-12
        assert abs(float(row["s"]) - (2.0 + 2.0 * (k % 11) * 1e-2)) < 1e-12


@pytest.mark.parametrize("conditioned", [True, False])
def test_sampler_path_counts(a1, rho1, conditioned):
    # no paths give an empty array at each recorded time, as many as with
    # paths; a negative count is refused at entry
    x0 = df.weight_to_point(a1, rho1)
    kw = dict(conditioned=conditioned, record_times=(0.5, 1.0))
    b = df.sample_path_batch(a1, x0, 1.0, 0.1, 0, seed=1, **kw)
    assert b.z.keys() == df.sample_path_batch(a1, x0, 1.0, 0.1, 2, seed=1, **kw).z.keys()
    assert all(v.shape == (0, 1) for v in b.z.values())
    assert b.exit_times.shape == (0,)
    with pytest.raises(ValueError, match="n_paths"):
        df.sample_path_batch(a1, x0, 1.0, 0.1, -1, seed=1, **kw)
