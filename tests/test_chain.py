import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from affinewalks import algebra as al, chain as cn, characters as ch
from affinewalks.algebra import Weight


def omega(a1):
    return Weight.make(2, (0,), 0)


def test_mu_omega_top_probability(a1):
    s = ch.rho_specialization(a1, 3)
    om = omega(a1)
    dist = cn.mu_omega(a1, om, s, 20)
    top = [p for w, p in dist.support if w == om]
    r = ch.eval_character(a1, om, s, eps=1e-13)
    expected = math.exp(float(al.inner_product(a1, om, s.point)) - r.log_value)
    assert top and abs(top[0] - expected) < 1e-13


def test_mu_omega_normalization(a1):
    s = ch.rho_specialization(a1, 3)
    dist = cn.mu_omega(a1, omega(a1), s, 25)
    assert abs(dist.total() + dist.defect - 1.0) <= 1e-9
    assert all(p >= 0 for _, p in dist.support)
    assert dist.defect >= 0


def test_mu_omega_deeper_refinement(a1):
    s = ch.rho_specialization(a1, 5)
    om = omega(a1)
    d1 = cn.mu_omega(a1, om, s, 15)
    d2 = cn.mu_omega(a1, om, s, 25)
    probs2 = {w: p for w, p in d2.support}
    for w, p in d1.support:
        assert abs(probs2[w] - p) <= d1.defect + 1e-12


def test_mu_omega_requires_positive_level(a1):
    s = ch.rho_specialization(a1, 3)
    with pytest.raises(ValueError):
        cn.mu_omega(a1, Weight.make(0, (0,), 0), s, 10)


def test_empirical_increment_law(a1):
    # 1e5 samples against the table, chi-square p-value above 1e-3
    s = ch.rho_specialization(a1, 3)
    dist = cn.mu_omega(a1, omega(a1), s, 30)
    probs = np.array([p for _, p in dist.support])
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.Philox(1234))
    counts = rng.multinomial(100_000, probs)
    keep = probs * 100_000 >= 5
    other_p = probs[~keep].sum()
    other_c = counts[~keep].sum()
    pk = np.append(probs[keep], other_p)
    ck = np.append(counts[keep], other_c)
    expected = pk * 100_000
    stat = float(((ck - expected) ** 2 / expected).sum())
    dof = len(pk) - 1
    pvalue = float(mp.gammainc(dof / 2, stat / 2, mp.inf, regularized=True))
    assert pvalue > 1e-3


def test_q_omega_row_top_entry(a1):
    s = ch.rho_specialization(a1, 4)
    om = omega(a1)
    lam = a1.Lambda0()
    row = cn.q_omega_row(a1, lam, om, s, 12)
    top = lam + om
    entry = [p for w, p in row.entries if w == top]
    num = ch.eval_character(a1, top, s, eps=1e-12)
    den1 = ch.eval_character(a1, lam, s, eps=1e-12)
    den2 = ch.eval_character(a1, om, s, eps=1e-12)
    expected = math.exp(num.log_value - den1.log_value - den2.log_value)
    assert entry and abs(entry[0] - expected) < 1e-12


def test_row_mass_and_defect(a1):
    s = ch.rho_specialization(a1, 5)
    row = cn.q_omega_row(a1, a1.Lambda0(), omega(a1), s, 20,
                         defect_target=1e-8)
    assert abs(row.total() + row.defect - 1.0) <= 1e-6
    assert all(al.classify_weight(a1, w).dominant for w, _ in row.entries)


def test_row_aggregation_matches_fast_kernel(a1):
    # delta-aggregated exact rows coincide with the reflected fast rows
    s = ch.rho_specialization(a1, 5)
    om = omega(a1)
    fast = cn.FastBarredKernel(a1, om, s)
    for level, q in ((1, 0), (3, 2)):
        lam0 = cn.dominant_states(a1, level)[q]
        agg = np.zeros(level + 2 + 1)
        for w, p in cn.barred_row(a1, lam0, om, s, 40,
                                  defect_target=1e-11).items():
            agg[int(2 * w.z[0])] += p
        probs, _, _ = fast.row(level, int(2 * lam0.z[0]))
        assert np.abs(probs - agg).max() < 1e-9


def test_pbar_basics(a1):
    s = ch.rho_specialization(a1, 3)
    om = omega(a1)
    lam0 = a1.Lambda0()
    assert cn.pbar_power(a1, om, s, 0, lam0, lam0, 10) == 1.0
    other = Weight.make(1, (Fraction(1, 2),), 0)
    assert cn.pbar_power(a1, om, s, 0, lam0, other, 10) == 0.0
    # n = 1 equals the delta-aggregated increment mass
    dist = cn.mu_omega(a1, om, s, 60)
    for b0 in cn.dominant_states(a1, 3):
        agg = sum(p for w, p in dist.support
                  if (lam0 + w).bar().z == b0.z)
        pb = cn.pbar_power(a1, om, s, 1, lam0, b0, 60)
        assert abs(pb - agg) < 1e-10


def test_pbar_two_steps_is_kernel_square(a1):
    # brute-force composition of the one-step projected walk kernel
    s = ch.rho_specialization(a1, 2)
    om = omega(a1)
    lam0 = a1.Lambda0().bar()
    depth = 60
    # intermediate states: all integral barred weights reachable in one step
    dist = cn.mu_omega(a1, om, s, depth)
    one = {}
    for w, p in dist.support:
        key = (lam0 + w).bar().z
        one[key] = one.get(key, 0.0) + p
    two_direct = {}
    for z_mid, p1 in one.items():
        mid = Weight.make(3, z_mid, 0)
        for w, p in dist.support:
            key = (mid + w).bar().z
            two_direct[key] = two_direct.get(key, 0.0) + p1 * p
    for b0 in cn.dominant_states(a1, 5):
        pb = cn.pbar_power(a1, om, s, 2, lam0, b0, depth)
        brute = two_direct.get(b0.z, 0.0)
        assert abs(pb - brute) < 5e-7


def test_pbar_level_mismatch(a1):
    s = ch.rho_specialization(a1, 3)
    with pytest.raises(ValueError):
        cn.pbar_power(a1, omega(a1), s, 1, a1.Lambda0(),
                      Weight.make(2, (0,), 0), 10)


def test_simulate_chain_contract(a1):
    s = ch.rho_specialization(a1, 3)
    om = omega(a1)
    traj = cn.simulate_chain(a1, a1.Lambda0(), om, s, steps=4, seed=7,
                             depth=30)
    assert len(traj) == 5
    for i, w in enumerate(traj):
        assert w.k == 1 + 2 * i                      # arithmetic level growth
        assert al.classify_weight(a1, w).dominant
    again = cn.simulate_chain(a1, a1.Lambda0(), om, s, steps=4, seed=7,
                              depth=30)
    assert traj == again
    other = cn.simulate_chain(a1, a1.Lambda0(), om, s, steps=4, seed=8,
                              depth=30)
    assert isinstance(other, list)


def test_reflection_zero_steps(a1):
    s = ch.rho_specialization(a1, 3)
    res = cn.reflection_discrete_residual(a1, omega(a1), s, 0,
                                          a1.Lambda0(), a1.Lambda0(), 20)
    assert res == 0.0


def test_reflection_small(a1):
    s = ch.rho_specialization(a1, 3)
    om = omega(a1)
    b0 = cn.dominant_states(a1, 3)[0]
    res = cn.reflection_discrete_residual(a1, om, s, 1, a1.Lambda0(), b0, 80)
    assert res < 1e-10


def test_reflection_radius_cap(a1, monkeypatch):
    # a tail bound that never certifies must stop at the radius cap
    monkeypatch.setattr(cn, "gaussian_lattice_tail", lambda *args: math.inf)
    monkeypatch.setattr(cn, "_REFLECTION_MAX_RADIUS", 6.0)
    s = ch.rho_specialization(a1, 3)
    with pytest.raises(ch.ConvergenceError):
        cn.reflection_discrete_residual(a1, omega(a1), s, 0, a1.Lambda0(),
                                        a1.Lambda0(), 20)


def test_doob_composition_matches_tensor_route(a1):
    # two-step kernel by composing rows equals the tensor-power branching
    # route (associativity of the decomposition)
    s = ch.rho_specialization(a1, 2)
    om = omega(a1)
    lam0 = a1.Lambda0().bar()
    depth = 35
    rows = {}
    dist = {lam0: 1.0}
    for _ in range(2):
        nxt = {}
        for st, pr in dist.items():
            if st not in rows:
                rows[st] = cn.barred_row(a1, st, om, s, depth,
                                         defect_target=1e-9)
            for nu, q in rows[st].items():
                nxt[nu] = nxt.get(nu, 0.0) + pr * q
        dist = nxt
    from affinewalks.highestweight import branching_mult
    log_norm = cn._log_ch(a1, lam0, s) + 2 * cn._log_ch(a1, om, s)
    c = float(ch.delta_pairing(a1, s))
    for b0 in cn.dominant_states(a1, 5):
        direct = 0.0
        for d in range(depth + 1):
            beta = Weight.make(b0.k, b0.z, -d)
            mlt = branching_mult(a1, lam0, om, 2, beta)
            if mlt:
                direct += math.exp(math.log(mlt)
                                   + cn._log_ch(a1, beta, s) - log_norm)
        composed = dist.get(b0, 0.0)
        assert abs(direct - composed) <= 1e-4 * max(composed, 1e-12)


def test_level_coset_conservation(a1):
    # increments keep the finite coordinate in the start's lattice coset
    s = ch.rho_specialization(a1, 4)
    row = cn.q_omega_row(a1, a1.Lambda0(), omega(a1), s, 15)
    for w, p in row.entries:
        assert (w.z[0] - 0).denominator == 1     # integral coset of z=0


def test_fast_kernel_defect_guard(a1):
    s = ch.rho_specialization(a1, 5)
    fk = cn.FastBarredKernel(a1, omega(a1), s, defect_threshold=1e-30)
    with pytest.raises(cn.ChainDefectError):
        fk.row(1, 0)


def test_fast_kernel_defect_guard_batched(a1):
    s = ch.rho_specialization(a1, 5)
    fk = cn.FastBarredKernel(a1, omega(a1), s, defect_threshold=1e-30)
    with pytest.raises(cn.ChainDefectError, match="level=1 q=0"):
        fk.row(1, np.array([0, 1]))


def test_fast_kernel_batched_rows_match_scalar(a1):
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 20))
    qs = np.arange(0, 61, 3)
    probs, cdf, defect = fk.row(60, qs)
    assert probs.shape == cdf.shape == (qs.size, 63)
    for i, q in enumerate(qs):
        p1, c1, d1 = fk.row(60, int(q))
        assert np.array_equal(probs[i], p1)
        assert np.array_equal(cdf[i], c1)
        assert defect[i] == d1 and isinstance(d1, float)


def test_fast_kernel_sample_matches_scalar_reference(a1):
    # the per-state loop of scalar rows, each state's paths drawing their
    # uniforms in path order, states in ascending order
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 20))
    start = Weight.make(40, (10,), 0)
    n_paths, steps, seed = 300, 20, 11
    got = fk.sample(start, steps, n_paths, seed, record_steps=range(steps + 1))
    rng = np.random.Generator(np.random.Philox(seed))
    cur = np.full(n_paths, 20, dtype=np.int64)
    level = 40
    for k in range(1, steps + 1):
        new = np.empty_like(cur)
        for uid in np.unique(cur):
            sel = np.flatnonzero(cur == uid)
            _, cdf, _ = fk.row(level, int(uid))
            new[sel] = np.searchsorted(cdf, rng.random(sel.size))
        cur = new
        level += 2
        assert np.array_equal(got[k], cur / 2.0)
    assert np.array_equal(got[0], np.full(n_paths, 10.0))


def test_ch_cache_bounded(a1, monkeypatch):
    monkeypatch.setattr(cn, "_CH_CACHE", {})
    monkeypatch.setattr(cn, "_CH_CACHE_MAX", 2)
    s = ch.rho_specialization(a1, 2)
    states = cn.dominant_states(a1, 3)
    first = [cn._log_ch(a1, w, s) for w in states]
    assert len(cn._CH_CACHE) == 2
    assert [cn._log_ch(a1, w, s) for w in states] == first
    assert len(cn._CH_CACHE) == 2
