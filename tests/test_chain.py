import dataclasses
import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from affinewalks import (acceptance, algebra as al, chain as cn,
                         characters as ch, harness as hs, highestweight as hw,
                         weyl as wy)
from affinewalks.algebra import Weight
from affinewalks.thresholds import GOLDEN


def omega(a1):
    return Weight.make(2, (0,), 0)


@functools.lru_cache(maxsize=None)
def _fast(alg, n):
    # one fast kernel at rho/n per algebra for the tests that only read it
    # (G2~'s atoms take seconds)
    om = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
    return cn.FastBarredKernel(alg, om, ch.rho_specialization(alg, n))


def _coset(alg, level, lam):
    # indices of the states of a level whose root coordinates differ from
    # lam's by integers: lam's root-lattice coset, in dominant_states order
    return np.array([i for i, w in enumerate(cn.dominant_states(alg, level))
                     if all((x - y).denominator == 1 for x, y in zip(w.z, lam.z))])


def _by_coset(alg, level, qs):
    # the source indices qs of a level split by root-lattice coset (the
    # fractional parts of the root coordinates), one array per coset
    states = cn.dominant_states(alg, level)
    groups = {}
    for q in qs:
        groups.setdefault(tuple(x % 1 for x in states[q].z), []).append(q)
    return [np.array(g) for g in groups.values()]


def test_mu_omega_top_probability(a1):
    s = ch.rho_specialization(a1, 3)
    om = omega(a1)
    dist = cn.mu_omega(a1, om, s, 20)
    top = [p for w, p in dist.entries if w == om]
    r = ch.eval_character(a1, om, s, eps=1e-13)
    expected = math.exp(float(al.inner_product(a1, om, s)) - r.log_value)
    assert top and abs(top[0] - expected) < 1e-13


def test_mu_omega_normalization(a1):
    s = ch.rho_specialization(a1, 3)
    dist = cn.mu_omega(a1, omega(a1), s, 25)
    # a kernel row from the zero weight, its defect the mass past depth 25
    assert isinstance(dist, cn.KernelRow) and dist.source == a1.zero()
    assert dist.defect == max(0.0, 1.0 - math.fsum(p for _, p in dist.entries))
    assert abs(dist.total() + dist.defect - 1.0) <= 1e-9
    assert all(p >= 0 for _, p in dist.entries)
    assert dist.defect >= 0


def test_mu_omega_deeper_refinement(a1):
    s = ch.rho_specialization(a1, 5)
    om = omega(a1)
    d1 = cn.mu_omega(a1, om, s, 15)
    d2 = cn.mu_omega(a1, om, s, 25)
    probs2 = {w: p for w, p in d2.entries}
    for w, p in d1.entries:
        assert abs(probs2[w] - p) <= d1.defect + 1e-12


def test_mu_omega_requires_positive_level(a1):
    s = ch.rho_specialization(a1, 3)
    with pytest.raises(ValueError):
        cn.mu_omega(a1, Weight.make(0, (0,), 0), s, 10)


def test_empirical_increment_law(a1):
    # 1e5 samples against the table, chi-square p-value above 1e-3
    s = ch.rho_specialization(a1, 3)
    dist = cn.mu_omega(a1, omega(a1), s, 30)
    probs = np.array([p for _, p in dist.entries])
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


def test_row_keeps_every_resolved_layer(a1):
    # at rho/5 the envelope needs layers far below depth 5: the row keeps
    # them, and its defect is the envelope on the mass beyond the last
    lam, om = a1.Lambda0(), omega(a1)
    row = cn.q_omega_row(a1, lam, om, ch.rho_specialization(a1, 5), 5,
                         defect_target=1e-8)
    assert max((lam + om).b - w.b for w, _ in row.entries) > 5
    assert 0 <= row.defect <= 1e-8
    assert abs(row.total() + row.defect - 1.0) <= 1e-7


def _fraction_ball(alg, center, r2):
    # the Fraction ball the integer tests replace: every integer m in a box
    # around center with ||m - center||^2 <= r2 in exact rationals
    if r2 < 0:
        return []
    ginv = np.linalg.inv(np.array(alg.finite_gram, dtype=float))
    axes = [range(math.floor(float(c) - w) - 1, math.ceil(float(c) + w) + 2)
            for c, w in zip(center, np.sqrt(float(r2) * np.diag(ginv)))]
    return [m for m in itertools.product(*axes)
            if alg.finite_norm2([Fraction(x) - c for x, c in zip(m, center)]) <= r2]


def _fraction_ball_candidates(alg, lam, om, depth):
    # the Fraction walk the integer candidates replace: every integer m in
    # the orbit-hull ball of lam + omega, kept when lam + omega - m - d
    # delta is dominant
    top = lam + om
    out = []
    for d in range(depth + 1):
        r2 = alg.finite_norm2(top.z) + 2 * top.k * d
        for m in _fraction_ball(alg, top.z, r2):
            if al.classify_weight(alg, top - Weight.make(0, m, d)).dominant:
                out.append((d, m))
    return out


def test_row_candidates_match_fraction_ball(a1, a2):
    cases = [(a1, Weight.make(2, (Fraction(1, 2),), 0), omega(a1), 12),
             (a1, Weight.make(5, (1,), -3), omega(a1), 12),
             (a2, al.weight_from_pairings(a2, [1, 1, 0]), a2.Lambda0().scale(3), 6),
             (a2, al.weight_from_pairings(a2, [0, 2, 1]), a2.Lambda0(), 6)]
    for alg, lam, om, depth in cases:
        candidates = cn._row_candidates(alg, lam, om)
        got = [(d, tuple(m)) for d in range(depth + 1)
               for m in candidates(d).tolist()]
        assert got == _fraction_ball_candidates(alg, lam, om, depth)
        assert got


def _minkowski_candidates(alg, lam, om):
    # the wider ball the orbit-hull ball replaced, in integers: the same
    # states in the same order, kept when |beta_z| <= sqrt(|lam_z|^2 +
    # 2 k_lam d) + sqrt(|omega_z|^2 + 2 k_omega d)
    top = lam + om
    zq, den = cn._dominant_coords(alg, int(top.k))
    zq = zq[::-1]
    ms = np.array([int(x * den) for x in top.z]) - zq
    coset = (ms % den == 0).all(axis=1)
    ms, zq = ms[coset] // den, zq[coset]
    gn, gd = alg.finite_gram_int
    scale = den * den * gd
    beta2 = np.einsum("ni,ij,nj->n", zq, gn, zq)
    lam2, om2 = alg.finite_norm2(lam.z), alg.finite_norm2(om.z)

    def candidates(d):
        a = int((lam2 + 2 * lam.k * d) * scale)
        b = int((om2 + 2 * om.k * d) * scale)
        gap = beta2 - a - b
        return ms[(gap <= 0) | (gap * gap <= 4 * a * b)]

    return candidates


def test_row_candidates_drop_only_zero_multiplicities():
    # the orbit-hull ball against the Minkowski-sum ball it replaced: its
    # candidates are the wider ball's in the same order, less some whose
    # branching multiplicity is 0, so a row's entries do not change
    kept = dropped = 0
    for name, depth in (("A1~", 12), ("A2~", 12), ("C2~", 12), ("G2~", 12), ("A3~", 6)):
        alg = al.algebra_from_name(name)
        fundamental = [0] * (alg.rank + 1)
        fundamental[1] = 1
        omegas = [alg.Lambda0().scale(alg.dual_coxeter),
                  al.weight_from_pairings(alg, fundamental)]
        sources = [alg.Lambda0()] + [al.weight_from_pairings(alg, p) for p in
                                     ([1] * (alg.rank + 1), [0, 2] + [1] * (alg.rank - 1),
                                      [3] + [0] * alg.rank)]
        for lam, om in itertools.product(sources, omegas):
            new, wide = cn._row_candidates(alg, lam, om), _minkowski_candidates(alg, lam, om)
            branch = hw._brancher(alg, lam, om, 1)
            for d in range(depth + 1):
                got, ms = new(d).tolist(), wide(d)
                inside = np.array([m in got for m in ms.tolist()], dtype=bool)
                assert ms[inside].tolist() == got
                if not inside.all():
                    assert not any(branch(d, ms[~inside]))
                kept += len(got)
                dropped += (~inside).sum()
    assert kept and dropped


def _criterion4_rows(a1, a2):
    # criterion 4's sources at rho/1 and rho/5, depth 20, and one A2~ row
    rows = [(a1, lam, omega(a1), ch.rho_specialization(a1, n), 20,
             GOLDEN.row_mass_tol / 10)
            for n in (1, 5)
            for lam in (a1.Lambda0(), Weight.make(2, (Fraction(1, 2),), 0))]
    rows.append((a2, al.weight_from_pairings(a2, [1, 1, 0]),
                 a2.Lambda0().scale(3), ch.rho_specialization(a2, 1), 4, 1e-7))
    return rows


def _spy_brancher(monkeypatch, seen):
    # record (alg, lam, omega, n, d, ms) of every stack the rows branch on
    core = hw._brancher

    def spy(*head):
        branch = core(*head)
        return lambda d, ms: seen(*head, d, ms) or branch(d, ms)

    monkeypatch.setattr(cn, "_brancher", spy)


def test_branching_stack_matches_single_calls(a1, a2, monkeypatch):
    # every stack the rows branch on, against one branching_mult per
    # component; the stack shares the terms of its largest radius
    stacks = []
    _spy_brancher(monkeypatch, lambda *args: stacks.append(args))
    for alg, lam, om, s, depth, target in _criterion4_rows(a1, a2):
        cn.q_omega_row(alg, lam, om, s, depth, defect_target=target)
    radii = []
    terms = wy.weyl_terms
    monkeypatch.setattr(hw, "weyl_terms",
                        lambda alg, r: radii.append(r) or terms(alg, r))
    wider = 0
    for alg, lam, om, n, d, ms in stacks:
        radii.clear()
        got = hw._brancher(alg, lam, om, n)(d, ms)
        (shared,) = radii
        radii.clear()
        top = lam + om
        assert got == [hw.branching_mult(alg, lam, om, 1,
                                         top - Weight.make(0, m, d))
                       for m in ms.tolist()]
        assert max(radii) == shared
        wider += min(radii) < shared
    assert {alg for alg, *_ in stacks} == {a1, a2}
    assert wider


def test_row_checks_once_per_row(a1, monkeypatch):
    # the entry checks and the branching calls of one row do not grow with
    # its depth or its candidate count, and it takes no Fraction norm
    s = ch.rho_specialization(a1, 5)
    rows = [(a1.Lambda0(), 5), (Weight.make(2, (Fraction(1, 2),), 0), 150)]
    for lam, depth in rows:          # character values cached beforehand
        cn.q_omega_row(a1, lam, omega(a1), s, depth)
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kw):
            calls[fn.__name__] += 1
            return fn(*args, **kw)
        return wrapper

    for fn in (al.classify_weight, hw.branching_mult):
        for name, mod in list(sys.modules.items()):
            if name.startswith("affinewalks") and vars(mod).get(fn.__name__) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted(fn))
    monkeypatch.setattr(al.AffineAlgebra, "finite_norm2",
                        counted(al.AffineAlgebra.finite_norm2))
    sizes = Counter()
    _spy_brancher(monkeypatch,
                  lambda *args: sizes.update({"candidates": len(args[-1])}))
    seen = []
    for lam, depth in rows:
        calls.clear()
        sizes.clear()
        cn.q_omega_row(a1, lam, omega(a1), s, depth)
        seen.append((dict(calls), sizes["candidates"]))
    (c1, n1), (c2, n2) = seen
    assert c1 == c2 == {"classify_weight": 2}     # no Fraction norm
    assert n2 > n1 + 100


def test_row_refuses_non_dominant_omega(a1):
    s = ch.rho_specialization(a1, 5)
    with pytest.raises(ValueError, match="omega must be dominant integral"):
        cn.q_omega_row(a1, a1.Lambda0(), Weight.make(1, (1,), 0), s, 4)


def test_support_ball_matches_fraction_ball():
    # the integer support ball of highestweight against the Fraction ball:
    # the candidates of a depth and their bounding box, and the membership
    # test point by point
    cases = [("A1~", [2, 0], 12), ("A1~", [3, 2], 12), ("A2~", [1, 1, 0], 6),
             ("A2~", [0, 2, 1], 6), ("A3~", [1, 0, 1, 0], 3), ("A3~", [0, 1, 0, 2], 3)]
    for name, pairings, depth in cases:
        alg = al.algebra_from_name(name)
        lam = al.weight_from_pairings(alg, pairings)
        support = hw._SupportBall(alg, lam)
        for d in range(depth + 1):
            r2 = alg.finite_norm2(lam.z) + 2 * lam.k * d
            ball = _fraction_ball(alg, lam.z, r2)
            cone = [m for m in ball if all(m[i - 1] + d * alg.marks[i] >= 0
                                           for i in range(1, alg.rank + 1))]
            lo, mask = support.box(d)
            assert {tuple((np.array(lo) + i).tolist()) for i in np.argwhere(mask)} \
                == set(cone)
            assert lo == tuple(map(min, zip(*cone)))
            assert mask.shape == tuple(max(c) - a + 1 for c, a in zip(zip(*cone), lo))
            shell = {tuple(x + e for x, e in zip(m, step)) for m in ball
                     for step in itertools.product((-1, 0, 1), repeat=alg.rank)}
            assert {m for m in shell if support.contains(d, m)} == set(ball)


def test_row_aggregation_matches_fast_kernel(a1):
    # delta-aggregated exact rows coincide with the reflected fast rows
    s = ch.rho_specialization(a1, 5)
    om = omega(a1)
    fast = cn.FastBarredKernel(a1, om, s)
    for level, q in ((1, 0), (3, 2)):
        lam0 = cn.dominant_states(a1, level)[q]
        agg = np.zeros(level + 2 + 1)
        for w, p in cn.barred_row(a1, lam0, om, s, 40):
            agg[int(2 * w.z[0])] += p
        states, (probs,), _, _ = fast.row(level, np.array([int(2 * lam0.z[0])]))
        assert np.abs(probs - agg[states]).max() < 1e-9
        assert not np.delete(agg, states).any()


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
        agg = sum(p for w, p in dist.entries
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
    for w, p in dist.entries:
        key = (lam0 + w).bar().z
        one[key] = one.get(key, 0.0) + p
    two_direct = {}
    for z_mid, p1 in one.items():
        mid = Weight.make(3, z_mid, 0)
        for w, p in dist.entries:
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


def test_simulate_chain_pinned_trajectory(a1):
    # A1~ at rho/3 from Lambda0, seed 7: each step moves to the first
    # entry whose running sum reaches the uniform, and these are its states
    traj = cn.simulate_chain(a1, a1.Lambda0(), omega(a1),
                             ch.rho_specialization(a1, 3), steps=4, seed=7)
    assert [(w.k, w.z, w.b) for w in traj] == [
        (1, (0,), 0), (3, (1,), -2), (5, (1,), -5), (7, (1,), -8), (9, (1,), -10)]


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


def test_reflection_direct_rows_memo(a1, monkeypatch):
    # criterion 5's residuals are those of a memo cleared before each pair
    s = ch.rho_specialization(a1, GOLDEN.reflection_spec_n)
    lam0 = a1.Lambda0()
    for n_steps in (1, 2):
        cases = acceptance._reflection_residuals(a1, s, n_steps, lam0, 80)
        assert cases
        for b0, res in cases:
            cn.barred_row.cache_clear()
            assert cn.reflection_discrete_residual(
                a1, omega(a1), s, n_steps, lam0, b0, 80) == res
    # filled past its bound the memo stays at it, with unchanged values
    monkeypatch.setattr(cn, "q_omega_row", lambda alg, lam, om, s, depth, **kw:
                        cn.KernelRow(source=lam, entries=[(lam, depth / 7)],
                                     defect=0.0))
    cn.barred_row.cache_clear()
    try:
        size = cn.barred_row.cache_info().maxsize
        keys = [(a1, lam0, omega(a1), s, d) for d in range(size + 5)]
        first = [cn.barred_row(*key) for key in keys]
        assert first[3] == ((lam0, 3 / 7),)
        assert cn.barred_row.cache_info().currsize == size
        assert [cn.barred_row(*key) for key in keys] == first
        assert cn.barred_row.cache_info().currsize == size
    finally:
        cn.barred_row.cache_clear()


def test_reflection_radius_cap(a1, monkeypatch):
    # a tail bound that never certifies must stop at the radius cap
    monkeypatch.setattr(wy, "gaussian_lattice_tail", lambda *args: math.inf)
    monkeypatch.setattr(wy, "_MAX_RADIUS", 6.0)
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
                rows[st] = cn.barred_row(a1, st, om, s, depth)
            for nu, q in rows[st]:
                nxt[nu] = nxt.get(nu, 0.0) + pr * q
        dist = nxt
    from affinewalks.highestweight import branching_mult
    log_norm = cn._log_ch(a1, lam0, s) + 2 * cn._log_ch(a1, om, s)
    c = float(al.pair_delta(a1, s))
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


def test_fast_kernel_defect_guard(a1, monkeypatch):
    s = ch.rho_specialization(a1, 5)
    fk = cn.FastBarredKernel(a1, omega(a1), s)
    monkeypatch.setattr(cn, "_ROW_DEFECT_MAX", 1e-30)
    with pytest.raises(cn.ChainDefectError):
        fk.row(1, np.array([0]))


def test_fast_kernel_defect_guard_batched(a1, monkeypatch):
    s = ch.rho_specialization(a1, 5)
    fk = cn.FastBarredKernel(a1, omega(a1), s)
    monkeypatch.setattr(cn, "_ROW_DEFECT_MAX", 1e-30)
    with pytest.raises(cn.ChainDefectError, match="level=2 q=0"):
        fk.row(2, np.array([0, 2]))


def test_simulate_chain_defect_guard(a1, monkeypatch):
    # the same row-defect constant refuses simulate_chain's first row
    monkeypatch.setattr(cn, "_ROW_DEFECT_MAX", 1e-30)
    with pytest.raises(cn.ChainDefectError):
        cn.simulate_chain(a1, a1.Lambda0(), omega(a1), ch.rho_specialization(a1, 5),
                          steps=1, seed=1)


def test_fast_kernel_batched_rows_match_scalar(a1, a2):
    # one batched row per coset of the sources, every coset of the level,
    # against a call per source
    for alg, n, level, step, det in ((a1, 20, 60, 3, 2), (a2, 2, 2, 1, 3)):
        om = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
        fk = cn.FastBarredKernel(alg, om, ch.rho_specialization(alg, n))
        groups = _by_coset(alg, level, range(0, len(cn.dominant_states(alg, level)), step))
        assert len(groups) == det
        for qs in groups:
            states, probs, cdf, defect = fk.row(level, qs)
            assert probs.shape == cdf.shape == (qs.size, states.size)
            for i, q in enumerate(qs):
                s1, (p1,), (c1,), (d1,) = fk.row(level, np.array([q]))
                assert np.array_equal(s1, states)
                assert np.array_equal(probs[i], p1)
                assert np.array_equal(cdf[i], c1)
                assert defect[i] == d1


def test_fast_kernel_row_states_are_the_source_coset(a1, a2):
    # a row's states are exactly the next level's states in the coset of
    # lam0 + omega (here omega's finite part is 0): the level's states fall
    # into det(finite Cartan) cosets, one on G2~, whose root lattice is its
    # weight lattice; sources of two cosets are refused
    c2, g2 = al.algebra_from_name("C2~"), al.algebra_from_name("G2~")
    for alg, n, level, det in ((a1, 5, 6, 2), (a2, 10, 4, 3), (c2, 10, 4, 2),
                               (g2, 10, 3, 1)):
        fk = _fast(alg, n)
        sources = cn.dominant_states(alg, level)
        nxt = cn.dominant_states(alg, level + alg.dual_coxeter)
        cosets = set()
        for q, lam in enumerate(sources):
            states = fk.row(level, np.array([q]))[0]
            assert np.array_equal(states, _coset(alg, level + alg.dual_coxeter, lam))
            cosets.add(tuple(states))
        assert len(cosets) == det
        assert sorted(i for c in cosets for i in c) == list(range(len(nxt)))
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 5))
    with pytest.raises(ValueError, match="coset"):
        fk.row(2, np.array([0, 1]))


def _dense_row(fk, level, qs, states):
    # the dense per-term loop the live pairs replace: every source, every
    # term and every next state gathers its atom, the defect summed over the
    # next states ``states``; also per (source, term), whether a nonzero atom
    # was read and whether an index fell inside the unpadded atoms array
    zq, log_nhat, *_ = fk._level(level)
    zq_next, log_nhat_next, *_ = fk._level(level + int(fk.omega.k))
    pad = np.pad(fk.atoms.prob, 1)
    base = zq[qs][:, None, :] + fk._om_q - zq_next[None, :, :]
    base = np.where((base % fk._den == 0).all(axis=2, keepdims=True),
                    base // fk._den - np.array(fk.atoms.lo) + 1, -2 ** 62)
    base = np.moveaxis(base, 2, 0).copy()
    mq, wq = fk._terms(level, qs)
    raw = np.zeros((qs.size, len(zq_next)))
    hit = np.zeros(mq.shape[:2], dtype=bool)
    inside = np.zeros_like(hit)
    for t in range(mq.shape[1]):
        idx = [b - mq[:, t, j, None] for j, b in enumerate(base)]
        flat = sum(np.clip(x, 0, pad.shape[j] - 1) * (pad.strides[j] // pad.itemsize)
                   for j, x in enumerate(idx))
        atoms = pad.ravel()[flat]
        raw += wq[:, t, None] * atoms
        hit[:, t] = (atoms != 0).any(axis=1)
        inside[:, t] = np.logical_and.reduce(
            [(x >= 1) & (x <= n) for x, n in zip(idx, fk.atoms.prob.shape)]).any(axis=1)
    top = log_nhat_next.max()
    probs = (raw * np.exp(log_nhat_next - top)
             * np.exp(top - log_nhat[qs])[:, None])
    np.clip(probs, 0.0, None, out=probs)
    # take, not probs[:, states], whose column-major copy sums in another order
    defect = np.abs(1.0 - probs.take(states, axis=1).sum(axis=1))
    return probs, np.cumsum(probs, axis=1), defect, hit, inside


def test_fast_kernel_live_pairs_bit_identical_to_dense(a1, a2, monkeypatch):
    # rows from the live pairs only equal the dense loop bit for bit at the
    # source coset's states, and the dense row is exactly zero elsewhere,
    # for one batched row per coset of the sources, every coset of the
    # level; every pair that reads a nonzero atom is live, and some skipped
    # pair reads the atoms array outside its nonzero box, so the box is
    # what decides
    cases = [(a1, 100, 200, 1, 2), (a1, 100, 300, 1, 2), (a2, 20, 60, 50, 3),
             (al.algebra_from_name("C2~"), 5, 12, 1, 2),
             (al.algebra_from_name("G2~"), 10, 12, 1, 1)]
    skipped = skipped_inside = 0
    for alg, n, level, step, det in cases:
        om = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
        fk = cn.FastBarredKernel(alg, om, ch.rho_specialization(alg, n))
        masks = []
        core = fk._offsets
        monkeypatch.setattr(fk, "_offsets",
                            lambda *args: masks.append(core(*args)) or masks[-1])
        groups = _by_coset(alg, level, range(0, len(cn.dominant_states(alg, level)), step))
        assert len(groups) == det
        for qs in groups:
            states, probs, cdf, defect = fk.row(level, qs)
            live = masks[-1][-1]
            want_p, want_c, want_d, hit, inside = _dense_row(fk, level, qs, states)
            assert np.array_equal(probs, want_p[:, states])
            assert np.array_equal(cdf, want_c[:, states])
            assert not np.delete(want_p, states, axis=1).any()
            assert np.array_equal(defect, want_d)
            assert not (hit & ~live).any()
            skipped += (~live).sum()
            skipped_inside += (inside & ~live).sum()
        assert len(masks) == det
    assert skipped and skipped_inside


def test_fast_kernel_rank_two_matches_aggregated_row(a2):
    # A2~ fast rows from Lambda0 at rho/1 against the delta-aggregated exact
    # row, indexed by dominant_states
    s = ch.rho_specialization(a2, 1)
    om = Weight.make(3, (0, 0), 0)
    states = cn.dominant_states(a2, 4)
    agg = np.zeros(len(states))
    for w, p in cn.barred_row(a2, a2.Lambda0(), om, s, 4):
        agg[states.index(w)] += p
    lam0 = cn.dominant_states(a2, 1).index(a2.Lambda0())
    cols, (probs,), _, _ = cn.FastBarredKernel(a2, om, s).row(1, np.array([lam0]))
    assert np.abs(probs - agg[cols]).max() < 1e-12
    assert not np.delete(agg, cols).any()


@pytest.mark.parametrize("level", [1, 2])
def test_fast_kernel_refuses_near_critical_line(a1, level):
    # the float64 numerators cancel near the origin at rho/100: the row must
    # refuse with the typed error, never come back silently wrong
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 100))
    with pytest.raises(cn.ChainDefectError):
        fk.row(level, np.array([0]))


def test_fast_kernel_rows_from_level_three_at_rho_100(a1):
    # with Nhat from Kac's product only the numerators cancel: from level 3
    # the rows of the wall state sum to one within the defect threshold
    # (level 3 loses about 5 digits), and by level 10 within rounding
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 100))
    assert fk.row(3, np.array([0]))[3] < 1e-4
    assert fk.row(10, np.array([0]))[3] < 1e-12


def test_fast_kernel_keeps_two_levels(a1):
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 20))
    fk.sample(Weight.make(40, (10,), 0), steps=20, n_paths=50, seed=3)
    assert sorted(fk._levels) == [78, 80]


def test_fast_kernel_sample_matches_scalar_reference(a1, a2):
    # the per-state loop of one-source rows, each state's paths drawing their
    # uniforms in path order, states in ascending order; on A2~ and C2~ the
    # states of a level lie in several root-lattice cosets, on G2~ in one
    c2, g2 = al.algebra_from_name("C2~"), al.algebra_from_name("G2~")
    for alg, n, start, n_paths, steps, seed in (
            (a1, 20, Weight.make(40, (10,), 0), 300, 20, 11),
            (a2, 10, al.weight_from_pairings(a2, [3, 3, 3]), 100, 4, 12),
            (c2, 10, al.weight_from_pairings(c2, [3, 3, 3]), 100, 3, 13),
            (g2, 10, al.weight_from_pairings(g2, [3, 3, 3]), 100, 3, 14)):
        fk = _fast(alg, n)
        got = fk.sample(start, steps, n_paths, seed, record_steps=range(steps + 1))
        rng = np.random.Generator(np.random.Philox(seed))
        level = int(start.k)
        cur = np.full(n_paths, cn.dominant_states(alg, level).index(start))
        for k in range(steps + 1):
            if k:
                new = np.empty_like(cur)
                for uid in np.unique(cur):
                    sel = np.flatnonzero(cur == uid)
                    states, _, (cdf,), _ = fk.row(level, np.array([uid]))
                    new[sel] = states[np.searchsorted(cdf, rng.random(sel.size))]
                cur = new
                level += alg.dual_coxeter
            coords = np.array([[float(x) for x in w.z]
                               for w in cn.dominant_states(alg, level)])
            assert got[k].shape == (n_paths, alg.rank)
            assert np.array_equal(got[k], coords[cur])


def test_fast_kernel_sample_path_counts(a1):
    # no paths give an empty array at each recorded step, as many as with
    # paths; a negative count is refused at entry
    fk = cn.FastBarredKernel(a1, omega(a1), ch.rho_specialization(a1, 20))
    start = Weight.make(40, (10,), 0)
    got = fk.sample(start, 3, 0, 1, record_steps=(0, 2, 3, 5))
    assert got.keys() == fk.sample(start, 3, 2, 1, record_steps=(0, 2, 3, 5)).keys()
    assert all(v.shape == (0, 1) and v.dtype == float for v in got.values())
    with pytest.raises(ValueError, match="n_paths"):
        fk.sample(start, 3, -1, 1)


def test_fast_kernel_block_terms_are_whole_level_rows(a1, a2):
    # a block's alternant terms are the rows of the whole level's arrays:
    # cut at the level's largest |lam + rho|, not at the block's own
    for alg, n, level in ((a1, 20, 60), (a2, 20, 60), (al.algebra_from_name("C2~"), 5, 12)):
        om = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
        fk = cn.FastBarredKernel(alg, om, ch.rho_specialization(alg, n))
        zq = fk._level(level)[0]
        k = level + int(fk.rho.k)
        sign, m, expo, den, _ = ch._alternant_exponents(
            alg, k, zq + fk._rho_q, fk._den, fk.s, 1e-13)
        qs = np.array([0, len(zq) // 3])
        got_m, got_w = fk._terms(level, qs)
        assert np.array_equal(got_m, m[qs])
        assert np.array_equal(got_w, (sign * np.exp(expo / den))[qs])
        # the first source alone would cut fewer terms
        own = ch._alternant_exponents(alg, k, zq[:1] + fk._rho_q, fk._den, fk.s, 1e-13)
        assert own[0].size < sign.size


def test_fast_kernel_blocks_of_one_source(a1, a2, monkeypatch):
    # with the byte budget down to one source per row call the recorded
    # paths equal the default's, which batches several sources per call
    c2 = al.algebra_from_name("C2~")
    default = cn._ROW_BYTES
    for alg, n, start, n_paths, steps, seed in (
            (a1, 20, Weight.make(40, (10,), 0), 300, 10, 21),
            (a2, 10, al.weight_from_pairings(a2, [3, 3, 3]), 200, 5, 22),
            (c2, 10, al.weight_from_pairings(c2, [3, 3, 3]), 200, 4, 23)):
        om = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
        fk = cn.FastBarredKernel(alg, om, ch.rho_specialization(alg, n))
        row, sizes = fk.row, {}

        def run(budget):
            sizes[budget] = []
            monkeypatch.setattr(cn, "_ROW_BYTES", budget)
            monkeypatch.setattr(fk, "row", lambda level, q: (
                sizes[budget].append(len(q)) or row(level, q)))
            return fk.sample(start, steps, n_paths, seed, record_steps=range(steps + 1))

        want, got = run(default), run(1)
        assert len(sizes[1]) == sum(sizes[1]) == sum(sizes[default]) > steps
        assert max(sizes[default]) > 1
        for k in range(steps + 1):
            assert np.array_equal(got[k], want[k])


def test_ch_cache_bounded(a1):
    s = ch.rho_specialization(a1, 2)
    states = cn.dominant_states(a1, cn._CH_CACHE_MAX + 2)
    first = [cn._log_ch(a1, w, s) for w in states]
    assert cn._ch_barred.cache_info().currsize == cn._CH_CACHE_MAX
    assert [cn._log_ch(a1, w, s) for w in states] == first
    assert cn._ch_barred.cache_info().currsize == cn._CH_CACHE_MAX


def test_dominant_coords_match_product_enumeration(a1, a2):
    # the itertools enumeration the index grid replaces: every pairing tuple
    # whose comark-weighted sum stays within the level
    for alg in (a1, a2, al.algebra_from_name("C2~"), al.algebra_from_name("G2~")):
        for level in (0, 1, 2, 5, 12, 31):
            ranges = [range(level // c + 1) for c in alg.comarks[1:]]
            pairings = [q for q in itertools.product(*ranges)
                        if sum(c * x for c, x in zip(alg.comarks[1:], q)) <= level]
            zq, den = cn._dominant_coords(alg, level)
            cinv = np.array([[int(x * den) for x in row]
                             for row in alg._finite_cartan_inverse])
            want = np.array(pairings, dtype=np.int64) @ cinv.T
            assert zq.dtype == np.int64
            assert np.array_equal(zq, want[np.lexsort(want.T[::-1])])
            # the fast kernel's step 0 from every state is that state
            fk = _fast(alg, 10)
            for st in cn.dominant_states(alg, level):
                (got,) = fk.sample(st, 0, 2, 1, record_steps=(0,)).values()
                assert got.tolist() == [[float(x) for x in st.z]] * 2


def test_dominant_states_pairings(a1, a2):
    for alg in (a1, a2):
        for level in range(7):
            states = cn.dominant_states(alg, level)
            # type A: all comarks are 1, so one state per composition
            assert len(states) == math.comb(level + alg.rank, alg.rank)
            # the fast kernel indexes states in this order
            assert [w.z for w in states] == sorted(w.z for w in states)
            for w in states:
                q = [al.pairing_coroot(alg, w, i) for i in range(alg.rank + 1)]
                assert all(x.denominator == 1 and x >= 0 for x in q)
                assert sum(c * x for c, x in zip(alg.comarks, q)) == level


def test_nan_defects_fail_the_gates(a1, monkeypatch):
    # a NaN compares false with every threshold: each gate must refuse it
    s = ch.rho_specialization(a1, 5)
    nan_row = cn.KernelRow(source=a1.Lambda0(), entries=[], defect=math.nan)
    monkeypatch.setattr(cn, "q_omega_row", lambda *args, **kw: nan_row)
    with pytest.raises(cn.ChainDefectError):
        cn.simulate_chain(a1, a1.Lambda0(), omega(a1), s, 1, seed=1)
    fk = cn.FastBarredKernel(a1, omega(a1), s)
    fk.atoms.prob[fk.atoms.prob.size // 2] = math.nan
    with pytest.raises(cn.ChainDefectError):
        fk.row(4, np.array([1]))
    atoms = fk.atoms
    monkeypatch.setattr(hs, "increment_atoms", lambda *args: dataclasses.replace(
        atoms, defect=math.nan))
    with pytest.raises(cn.ChainDefectError):
        hs.scaling_walk_experiment(hs.ExperimentConfig(spec_n=5, samples=10,
                                                       time_grid=(1.0,), seed=1))
