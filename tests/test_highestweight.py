import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affinewalks import algebra as al, characters as ch, highestweight as hw, weyl as wy
from affinewalks.algebra import Weight

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_basic_module_multiplicities(a1):
    table = hw.freudenthal_table(a1, a1.Lambda0(), 6)
    assert table.mult(0, (0,)) == 1
    assert table.mult(1, (0,)) == 1
    assert table.mult(2, (0,)) == 2
    # the delta-string multiplicities of the level-one module are the
    # partition numbers
    assert [table.mult(d, (0,)) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_oracle_agreement_small(a1):
    lam1 = Weight.make(1, (Fraction(1, 2),), 0)
    for lam in (a1.Lambda0(), lam1, Weight.make(2, (0,), 0)):
        assert hw.freudenthal_table(a1, lam, 8) == \
            hw.character_series_oracle(a1, lam, 8)


def _fraction_candidates(alg, lam, depth):
    """Per depth ``d <= depth``: the ball of finite parts in exact
    rationals, and its points in the cone ``m_i + d a_i >= 0`` in
    increasing height."""
    r2 = [alg.finite_norm2(lam.z) + 2 * lam.k * d for d in range(depth + 1)]
    ginv = np.linalg.inv(np.array(alg.finite_gram, dtype=float))
    axes = [range(math.floor(float(c) - w) - 1, math.ceil(float(c) + w) + 2)
            for c, w in zip(lam.z, np.sqrt(float(r2[-1]) * np.diag(ginv)))]
    norms = {m: alg.finite_norm2([x - c for x, c in zip(m, lam.z)])
             for m in itertools.product(*axes)}
    out = []
    for d in range(depth + 1):
        ball = {m for m, v in norms.items() if v <= r2[d]}
        out.append((ball, sorted((m for m in ball if all(
            x + d * a >= 0 for x, a in zip(m, alg.marks[1:]))),
            key=lambda m: (sum(m), m))))
    return out


def _fraction_freudenthal(alg, lam, balls):
    """The recursion of :func:`freudenthal_table` in ``Fraction`` arithmetic
    over the candidates ``balls``, every string read until it leaves the
    ball or passes depth 0."""
    depth = len(balls) - 1
    rho = al.weyl_vector(alg)
    c = [a + b for a, b in zip(lam.z, rho.z)]
    lev, g, l = lam.k + rho.k, alg.finite_gram, alg.rank
    roots = [(n, r, [sum(g[i][j] * r[j] for j in range(l)) for i in range(l)],
              alg.finite_norm2([Fraction(x) for x in r]))
             for (n, r, _) in hw.positive_roots(alg, depth) if any(r)]
    entries = {}
    for d in range(depth + 1):
        for m in balls[d][1]:
            if d == 0 and not any(m):
                entries[(0, m)] = 1
                continue
            acc = Fraction(0)
            for (n, r, gr, rr) in roots:
                if n > d:
                    continue
                base = sum((lam.z[i] - m[i]) * gr[i] for i in range(l)) + n * lam.k
                j = 1
                while d - j * n >= 0:
                    mm = tuple(a - j * b for a, b in zip(m, r))
                    if n == 0 and mm not in balls[d][0]:
                        break
                    acc += (base + j * rr) * entries.get((d - j * n, mm), 0)
                    j += 1
            for n in range(1, d + 1):
                acc += l * n * lam.k * sum(entries.get((dd, m), 0)
                                           for dd in range(d - n, -1, -n))
            mv = [Fraction(x) for x in m]
            denom = (2 * d * lev + 2 * sum(c[i] * g[i][j] * mv[j] for i in range(l)
                                           for j in range(l)) - alg.finite_norm2(mv))
            val = 2 * acc / denom
            assert denom > 0 and val.denominator == 1 and val >= 0
            if val:
                entries[(d, m)] = int(val)
    return entries


def _dict_series(alg, lam, balls):
    """The series quotient by a dict, point by point over the candidates
    ``balls`` in increasing height."""
    num, den_rest = hw._quotient_terms(alg, lam, len(balls) - 1)
    entries = {}
    for d, (_, cone) in enumerate(balls):
        for m in cone:
            val = num.get((d, m), 0) - sum(
                c * entries.get((d - dg, tuple(a - b for a, b in zip(m, mg))), 0)
                for (dg, mg, c) in den_rest if dg <= d)
            assert val >= 0
            if val:
                entries[(d, m)] = val
    return entries


@pytest.mark.parametrize("name,level,depth", [
    ("A1~", "L0", 10), ("A1~", "L0+a/2", 10), ("A1~", "2L0", 10), ("A2~", "L0", 6),
    ("A2~", "2L0", 4), ("A2~", "3L0", 3), ("A3~", "L0", 3), ("A3~", "2L0", 2),
    ("C2~", "L0", 4), ("C2~", "2L0", 3), ("G2~", "L0", 4)])
def test_oracles_equal_fraction_and_dict_references(name, level, depth):
    # both integer oracles reproduce the Fraction recursion and the dict
    # quotient, table for table, nonzero entries only
    alg = al.algebra_from_name(name)
    lam = (Weight.make(1, (Fraction(1, 2),), 0) if level == "L0+a/2"
           else alg.Lambda0().scale(int(level[0]) if level[0].isdigit() else 1))
    balls = _fraction_candidates(alg, lam, depth)
    ref = _fraction_freudenthal(alg, lam, balls)
    assert dict(hw.freudenthal_table(alg, lam, depth).entries) == ref
    assert dict(hw.character_series_oracle(alg, lam, depth).entries) == ref
    assert _dict_series(alg, lam, balls) == ref


def test_first_power_layers_equal_dict_series(a1, a2):
    # the tensor store's first power against the dict quotient, grown in
    # two requests; 2 Lambda0 to depth 168 is what criterion 4 reads
    hw._tensor_store.cache_clear()
    for alg, om, depths in ((a1, a1.Lambda0().scale(2), (40, 168)),
                            (a2, a2.Lambda0().scale(3), (2, 4))):
        ref = _dict_series(alg, om, _fraction_candidates(alg, om, depths[-1]))
        for depth in depths:
            assert dict(hw.tensor_power_table(alg, om, 1, depth).entries) == \
                {k: v for k, v in ref.items() if k[0] <= depth}


def test_oracles_fail_loud(a1, a2, monkeypatch):
    # the series quotient without one denominator term goes negative or
    # leaves the support ball; a Freudenthal scale off by a factor leaves
    # the integers
    core = hw._quotient_terms
    for alg, lam, dropped in ((a1, a1.Lambda0(), (0, (1,))),
                              (a1, a1.Lambda0().scale(2), (3, (3,))),
                              (a2, a2.Lambda0(), (0, (1, 0)))):
        num, den_rest = core(alg, lam, 8)
        assert dropped in {(dg, mg) for dg, mg, _ in den_rest}
        monkeypatch.setattr(hw, "_quotient_terms", lambda *args, dropped=dropped: (
            num, [t for t in den_rest if t[:2] != dropped]))
        with pytest.raises(ArithmeticError, match="negative or outside the support"):
            hw.character_series_oracle(alg, lam, 8)
    monkeypatch.setattr(hw, "_quotient_terms", core)
    gn, gd = a2.finite_gram_int
    monkeypatch.setitem(a2.__dict__, "finite_gram_int", (gn, 2 * gd))
    with pytest.raises(ArithmeticError, match="non-integer multiplicity"):
        hw.freudenthal_table(a2, a2.Lambda0(), 4)


def test_freudenthal_rejects_bad_inputs(a1):
    with pytest.raises(ValueError):
        hw.freudenthal_table(a1, Weight.make(0, (Fraction(1, 2),), 0), 4)
    for oracle in (hw.freudenthal_table, hw.character_series_oracle):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            oracle(a1, a1.Lambda0(), -1)


def test_layer_weyl_symmetry(a1):
    # each depth layer is symmetric under the finite reflection centered at
    # the highest weight's finite part
    lam = Weight.make(2, (Fraction(1, 2),), 0)
    table = hw.freudenthal_table(a1, lam, 8)
    for (d, m), v in table.entries.items():
        mu_z = lam.z[0] - m[0]
        reflected_z = -mu_z              # s1 in root coordinates
        m_ref = lam.z[0] - reflected_z
        assert v == table.mult(d, (int(m_ref),))


def test_orbit_representative_multiplicity(a1):
    # mult at mu equals mult at the dominant representative of its orbit
    lam = Weight.make(2, (0,), 0)
    table = hw.freudenthal_table(a1, lam, 10)
    rng = random.Random(5)
    hits = 0
    for (d, m), v in sorted(table.entries.items()):
        if not v or rng.random() < 0.7:
            continue
        mu = table.weight_of(d, m)
        dom, _ = wy.dominant_representative(a1, mu)
        off = lam - dom
        if off.b.denominator != 1 or off.b < 0 or off.b > 10:
            continue
        assert table.mult(int(off.b), (int(off.z[0]),)) == v
        hits += 1
    assert hits > 3


def test_positive_roots_structure(a1, a2):
    for alg in (a1, a2):
        roots = hw.positive_roots(alg, 4)
        for (n, r, mult) in roots:
            beta = Weight.make(0, r, n)
            norm2 = al.inner_product(alg, beta, beta)
            if any(r):
                assert norm2 > 0 and mult == 1          # real root
            else:
                assert norm2 == 0 and mult == alg.rank  # imaginary n*delta
        imag = [n for (n, r, m) in roots if not any(r)]
        assert imag == list(range(1, 5))


def test_positive_roots_cache_bounded(a1):
    depths = range(hw._POSITIVE_ROOTS_MAX + 3)
    first = [hw.positive_roots(a1, d) for d in depths]
    assert hw.positive_roots.cache_info().currsize == hw._POSITIVE_ROOTS_MAX
    assert [hw.positive_roots(a1, d) for d in depths] == first
    assert hw.positive_roots.cache_info().currsize == hw._POSITIVE_ROOTS_MAX


def test_tensor_cache_bounded(a1):
    # one layer store per (algebra, omega), least recently used evicted
    oms = [Weight.make(k, (0,), 0) for k in range(1, hw._TENSOR_STORE_MAX + 3)]
    first = [dict(hw.tensor_power_table(a1, om, 2, 4).entries) for om in oms]
    assert hw._tensor_store.cache_info().currsize == hw._TENSOR_STORE_MAX
    assert [dict(hw.tensor_power_table(a1, om, 2, 4).entries) for om in oms] == first
    assert hw._tensor_store.cache_info().currsize == hw._TENSOR_STORE_MAX


def _dict_power(alg, om, n, depth):
    # the one-shot route the layer store replaces: n - 1 sparse dict
    # convolutions of the series oracle's table
    base = hw.character_series_oracle(alg, om, depth).entries
    acc = dict(base)
    for _ in range(n - 1):
        out = {}
        for (d1, m1), v1 in acc.items():
            for (d2, m2), v2 in base.items():
                if d1 + d2 <= depth:
                    key = (d1 + d2, tuple(a + b for a, b in zip(m1, m2)))
                    out[key] = out.get(key, 0) + v1 * v2
        acc = out
    return acc


@pytest.mark.parametrize("name,level,n", [("A1~", 2, 1), ("A1~", 2, 2), ("A1~", 2, 3),
                                          ("A2~", 1, 1), ("A2~", 1, 2)])
def test_tensor_grown_in_steps_matches_dict_convolution(name, level, n):
    hw._tensor_store.cache_clear()
    alg = al.algebra_from_name(name)
    om = alg.Lambda0().scale(level)
    views = [hw.tensor_power_table(alg, om, n, depth) for depth in (3, 7, 20, 21)]
    # no layer is built past the deepest request
    assert [len(p) for p in hw._tensor_store(alg, om).powers] == [22] * n
    ref = _dict_power(alg, om, n, 21)
    for view in views:
        assert dict(view.entries) == {k: v for k, v in ref.items()
                                      if k[0] <= view.depth}
        assert view.highest == om.scale(n)


def test_tensor_entry_beyond_int64(a1):
    # the largest depth-100 entry of (2 Lambda0)^(x)3 against the plain
    # Python-int sum over triples of the series oracle's entries
    om = Weight.make(2, (0,), 0)
    table = hw.tensor_power_table(a1, om, 3, 100).entries
    (d, (m,)), val = max(((k, v) for k, v in table.items() if k[0] == 100),
                         key=lambda kv: kv[1])
    assert val > 2 ** 63 and type(val) is int
    base = hw.character_series_oracle(a1, om, 100).entries
    brute = 0
    for (d1, (m1,)), v1 in base.items():
        for (d2, (m2,)), v2 in base.items():
            if d1 + d2 <= d:
                brute += v1 * v2 * base.get((d - d1 - d2, (m - m1 - m2,)), 0)
    assert brute == val


def test_alternant_depth0(a1, rho1):
    # only the finite Weyl group survives at depth zero
    terms = hw.alternant_terms(a1, a1.Lambda0() + rho1, 0)
    assert terms == {(0, (0,)): 1, (0, (1,)): -1}
    den = hw.alternant_terms(a1, rho1, 0)
    assert den == {(0, (0,)): 1, (0, (1,)): -1}


def test_denominator_series_constant_term(a1, a2):
    for alg in (a1, a2):
        series = hw.denominator_product_series(alg, 4)
        assert series[(0, (0,) * alg.rank)] == 1


def _dict_denominator_steps(alg, depth):
    """The denominator product by sparse dict multiplication, one factor at
    a time: yields every partial product, the last one complete."""
    series = {(0, (0,) * alg.rank): 1}
    for (n, r, mult) in hw.positive_roots(alg, depth):
        for _ in range(mult):
            nxt = dict(series)
            for (d, m), v in series.items():
                if d + n <= depth:
                    key = (d + n, tuple(a + b for a, b in zip(m, r)))
                    nxt[key] = nxt.get(key, 0) - v
            series = {k: v for k, v in nxt.items() if v}
            yield series


def test_denominator_series_equals_alternant(a1, a2):
    # the int64 layers equal the dict expansion and the Weyl-orbit side,
    # on non-simply-laced algebras too
    c2, g2 = al.algebra_from_name("C2~"), al.algebra_from_name("G2~")
    sizes = []
    for alg, depth in ((a1, 20), (a2, 20), (c2, 10), (g2, 10)):
        *_, expected = _dict_denominator_steps(alg, depth)
        series = hw.denominator_product_series(alg, depth)
        assert series == expected
        assert series == hw.alternant_terms(alg, al.weyl_vector(alg), depth)
        sizes.append(len(series))
    assert sizes[2:] == [96, 120]


def test_weyl_denominator_memo(a1, a2, monkeypatch):
    # one memo per algebra keeps the deepest alternant of rho so far; a
    # request at any depth equals a fresh call, and only a deeper one than
    # before enumerates the orbit again
    fresh, calls = hw.alternant_terms, []
    monkeypatch.setattr(hw, "alternant_terms",
                        lambda *args: calls.append(args[2]) or fresh(*args))
    hw._weyl_denominator_memo.cache_clear()
    algs = [(a1, 12), (a2, 6), (al.algebra_from_name("A3~"), 3),
            (al.algebra_from_name("C2~"), 5), (al.algebra_from_name("G2~"), 5)]
    for alg, depth in algs:
        rho = al.weyl_vector(alg)
        calls.clear()
        for d in (1, 0, depth - 1, *range(depth + 1)):
            assert hw._weyl_denominator(alg, d) == fresh(alg, rho, d)
        assert calls == [1, depth - 1, depth]
        assert hw._weyl_denominator_memo(alg)[0] == depth
    info = hw._weyl_denominator_memo.cache_info()
    assert info.currsize == len(algs) and info.maxsize == al._ALGEBRAS_MAX


def test_denominator_overflow_bound(a2, a1, monkeypatch):
    # the bound dominates the absolute coefficients of every partial product
    bound = hw._denominator_bound(a2, 8)
    for partial in _dict_denominator_steps(a2, 8):
        for d in range(9):
            assert sum(abs(v) for (dd, _), v in partial.items() if dd == d) \
                <= bound[d]
    # a depth whose bound reaches 2**63 is refused before any array exists
    assert max(hw._denominator_bound(a1, 250)) >= 2 ** 63

    def no_arrays(*args, **kw):
        raise AssertionError("array built")
    monkeypatch.setattr(hw.np, "zeros", no_arrays)
    with pytest.raises(OverflowError):
        hw.denominator_product_series(a1, 250)


def test_tensor_power_basics(a1):
    om = Weight.make(2, (0,), 0)
    t1 = hw.tensor_power_table(a1, om, 1, 8)
    assert t1.entries == hw.character_series_oracle(a1, om, 8).entries
    t0 = hw.tensor_power_table(a1, om, 0, 8)
    assert t0.entries == {(0, (0,)): 1}
    with pytest.raises(ValueError):
        hw.tensor_power_table(a1, om, -1, 8)


def test_tensor_convolution_brute_force(a1):
    om = Weight.make(2, (0,), 0)
    base = hw.character_series_oracle(a1, om, 6).entries
    t2 = hw.tensor_power_table(a1, om, 2, 6).entries
    brute = {}
    for (d1, m1), v1 in base.items():
        for (d2, m2), v2 in base.items():
            if d1 + d2 <= 6:
                key = (d1 + d2, (m1[0] + m2[0],))
                brute[key] = brute.get(key, 0) + v1 * v2
    assert brute == t2


def test_branching_basics(a1):
    L0 = a1.Lambda0()
    om = Weight.make(2, (0,), 0)
    top = Weight.make(3, (0,), 0)
    assert hw.branching_mult(a1, L0, om, 1, top) == 1
    assert hw.branching_mult(a1, L0, om, 0, L0) == 1
    assert hw.branching_mult(a1, L0, om, 0, top) == 0
    # beta outside the root-lattice coset of the top weight
    off_coset = Weight.make(3, (Fraction(1, 2),), 0)
    assert hw.branching_mult(a1, L0, om, 1, off_coset) == 0


FROZEN_COMPONENTS_N1_D4 = {
    (0, (0,)): 1,
    (1, (-1,)): 1,
    (2, (-1,)): 1,
    (2, (0,)): 1,
    (3, (-1,)): 2,
    (3, (0,)): 1,
    (4, (-1,)): 2,
    (4, (0,)): 2,
}


def test_decompose_product_frozen_values(a1):
    # component multiplicities of V(Lambda0) (x) V(2 Lambda0) to depth 4,
    # computed by the greedy series decomposition and frozen here; the
    # alternating branching sum must reproduce them exactly
    L0 = a1.Lambda0()
    om = Weight.make(2, (0,), 0)
    comps = hw.decompose_product(a1, L0, om, 1, 4)
    assert comps == FROZEN_COMPONENTS_N1_D4
    top = L0 + om
    for (d, m), v in comps.items():
        beta = top - Weight.make(0, m, d)
        assert hw.branching_mult(a1, L0, om, 1, beta) == v


def test_character_factorization(a1):
    # sum_beta M(beta) * series(beta) reconstructs series(lam)*series(omega)^n
    L0 = a1.Lambda0()
    om = Weight.make(2, (0,), 0)
    depth = 6
    comps = hw.decompose_product(a1, L0, om, 1, depth)
    top = L0 + om
    lhs = {}
    for (d, m), mult in comps.items():
        beta = top - Weight.make(0, m, d)
        for (dd, mm), v in hw.character_series_oracle(
                a1, beta, depth - d).entries.items():
            key = (d + dd, (m[0] + mm[0],))
            lhs[key] = lhs.get(key, 0) + mult * v
    prod = hw._convolve(a1, hw.character_series_oracle(a1, L0, depth).entries,
                        hw.character_series_oracle(a1, om, depth).entries,
                        depth)
    assert lhs == prod


def test_branching_nonnegative_sweep(a1):
    L0 = a1.Lambda0()
    om = Weight.make(2, (0,), 0)
    top = L0 + om.scale(2)
    from affinewalks.chain import dominant_states
    for d in range(6):
        for bbar in dominant_states(a1, 5):
            off = top.z[0] - bbar.z[0]
            if off.denominator != 1:
                continue
            beta = Weight.make(top.k, bbar.z, top.b - d)
            assert hw.branching_mult(a1, L0, om, 2, beta) >= 0


@pytest.mark.parametrize("n,depth,count", [(1, 3, 20), (2, 2, 36)])
def test_branching_matches_decomposition_rank_two(a2, n, depth, count):
    # criterion 3 on A2~ for V(Lambda0) (x) V(3 Lambda0)^n: every dominant
    # beta in the coset of the top weight, zero multiplicities included
    from affinewalks.chain import dominant_states
    L0 = a2.Lambda0()
    om = L0.scale(3)
    comps = hw.decompose_product(a2, L0, om, n, depth)
    top = L0 + om.scale(n)
    compared = 0
    for d in range(depth + 1):
        for bbar in dominant_states(a2, int(top.k)):
            off = tuple(x - y for x, y in zip(top.z, bbar.z))
            if any(x.denominator != 1 for x in off):
                continue
            beta = Weight.make(top.k, bbar.z, top.b - d)
            assert hw.branching_mult(a2, L0, om, n, beta) == comps.get(
                (d, tuple(map(int, off))), 0)
            compared += 1
    assert compared == count


def test_csv_golden(a1, tmp_path):
    table = hw.character_series_oracle(a1, a1.Lambda0(), 6)
    out = tmp_path / "basic.csv"
    table.to_csv(out)
    golden = (GOLDEN_DIR / "a1_basic_depth6.csv").read_text()
    assert out.read_text() == golden


@pytest.mark.parametrize("n", [1, 5, 20, 50])
@pytest.mark.parametrize("name", ["A1~", "A2~", "A3~", "C2~", "G2~"])
def test_kac_product_matches_certified_alternant(name, n, monkeypatch):
    # h(rho/n) = A_rho(rho/n): Kac's product against the certified dual
    # alternant, whose own certificate is 1e-12 (A3~ and G2~ miss
    # _ALTERNANT_RTOL's 1e-13); at rho/n the simple-root pairings are |alpha_i|^2 / 2n
    # and the delta pairing is h_vee / n
    monkeypatch.setattr(ch, "_ALTERNANT_RTOL", 1e-12)
    alg = al.algebra_from_name(name)
    v = np.array([[float(alg.finite_gram[i][i]) / (2 * n) for i in range(alg.rank)]])
    lh, _, _, err = hw.log_kac_product(alg, alg.dual_coxeter / n, v)
    ref = ch.weyl_alternating_value(alg, al.weyl_vector(alg),
                                    ch.rho_specialization(alg, n))
    rel = abs(math.expm1(lh[0] - math.log(ref)))
    assert rel <= 1e-13
    assert rel <= math.expm1(err[0]) + 1e-12
