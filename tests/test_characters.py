import math
from fractions import Fraction

import numpy as np
import pytest

from affinewalks import (_linalg, algebra as al, characters as ch,
                         highestweight as hw)
from affinewalks.algebra import Weight
from affinewalks.weyl import finite_group, lattice_basis, translate


def test_rho_specialization(a1):
    s = ch.rho_specialization(a1, 1)
    assert s == Weight.make(2, (Fraction(1, 2),), 0)
    assert al.pair_delta(a1, s) == 2
    s5 = ch.rho_specialization(a1, 5)
    assert al.pair_delta(a1, s5) == Fraction(2, 5)
    # linearity of the pairing in the evaluation point
    mu = Weight.make(1, (Fraction(1, 3),), Fraction(1, 7))
    assert al.inner_product(a1, mu, s5) == \
        al.inner_product(a1, mu, s) / 5
    with pytest.raises(ValueError):
        ch.rho_specialization(a1, 0)


def test_depth0_truncation_is_highest_term(a1):
    # at depth zero the series is the single highest-weight term
    table = hw.character_series_oracle(a1, a1.Lambda0(), 0)
    assert table.entries == {(0, (0,)): 1}


def test_eval_character_positive_and_bounded_below(a1):
    s = ch.rho_specialization(a1, 1)
    r = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-10)
    base = math.exp(float(al.inner_product(a1, a1.Lambda0(), s)))
    assert r.value > base
    assert r.value > 0
    assert r.tail_bound <= 1e-10 * r.value


def test_eval_character_self_consistency(a1):
    s = ch.rho_specialization(a1, 5)
    r1 = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-8)
    r2 = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-13)
    assert abs(r1.value - r2.value) <= r1.tail_bound + r2.tail_bound


def test_eval_character_errors(a1):
    bad = Weight.make(-1, (0,), 0)
    with pytest.raises(ch.SpecializationError):
        ch.eval_character(a1, a1.Lambda0(), bad)
    with pytest.raises(ValueError):
        ch.eval_character(a1, a1.Lambda0(), ch.rho_specialization(a1, 1), eps=-1)
    # rho/1000: log ch = 822 is past float64's range, which is refused
    with pytest.raises(OverflowError, match="float range"):
        ch.eval_character(a1, a1.Lambda0(), ch.rho_specialization(a1, 1000))


def _frenkel_kac_log(alg, s, span):
    # Frenkel-Kac: ch_Lambda0 = e^(Lambda0|p) sum_{gamma in Q}
    # e^{-|gamma|^2 c/2 - (gamma|p)} / prod_m (1 - e^{-mc})^rank
    c = float(al.pair_delta(alg, s))
    g = np.array(alg.finite_gram, dtype=float)
    gp = np.array(alg.finite_covector(s.z), dtype=float)
    grid = np.arange(-span, span + 1)
    gam = np.stack(np.meshgrid(*[grid] * alg.rank), -1).reshape(-1, alg.rank)
    expo = -0.5 * c * np.einsum("ij,jk,ik->i", gam, g, gam) - gam @ gp
    top = expo.max()
    log_theta = top + math.log(math.fsum(np.exp(expo - top)))
    log_phi = math.fsum(math.log1p(-math.exp(-m * c))
                        for m in range(1, math.ceil(80 / c)))
    return (float(al.inner_product(alg, alg.Lambda0(), s))
            + log_theta - alg.rank * log_phi)


@pytest.mark.parametrize("name, n", [("A1~", 800), ("A2~", 500)])
def test_eval_character_certified_near_critical_line(name, n):
    # far past the reach of any series in the multiplicities (A_rho(rho/n)
    # is about e^{-1974} and e^{-2193} here), yet certified to 1e-12;
    # log ch is 657.6 and 547.8
    alg = al.algebra_from_name(name)
    s = ch.rho_specialization(alg, n)
    r = ch.eval_character(alg, alg.Lambda0(), s, eps=1e-12)
    assert r.tail_bound <= 1e-12 * r.value
    assert isinstance(r.truncation_depth, int)
    assert abs(r.log_value - _frenkel_kac_log(alg, s, 160)) < 1e-12 * r.log_value


def _series_log_value(alg, lam, s, table):
    # the multiplicity series summed at the point, from its exact table
    c = al.pair_delta(alg, s)
    gp = alg.finite_covector(s.z)
    total = math.fsum(
        v * math.exp(-float(d * c + sum(x * y for x, y in zip(m, gp))))
        for (d, m), v in table.entries.items())
    return float(al.inner_product(alg, lam, s)) + math.log(total)


def test_weyl_kac_value_identity(a1, a2):
    # the Weyl-Kac quotient against the multiplicity series of the
    # independent series oracle, at a depth where the series has converged
    cases = [(a1, a1.Lambda0(), 200, range(1, 6)),
             (a1, Weight.make(2, (0,), 0), 200, range(1, 6)),
             (a2, a2.Lambda0(), 40, range(1, 3))]
    for alg, lam, depth, ns in cases:
        table = hw.character_series_oracle(alg, lam, depth)
        for n in ns:
            s = ch.rho_specialization(alg, n)
            r = ch.eval_character(alg, lam, s, eps=1e-13)
            assert r.tail_bound <= 1e-13 * r.value
            assert abs(r.log_value - _series_log_value(alg, lam, s, table)) < 1e-12


def test_level_one_character_near_critical_line(a1, a2):
    # Frenkel-Kac, checked where the multiplicity series is out of reach
    for alg, n in ((a1, 200), (a2, 20)):
        s = ch.rho_specialization(alg, n)
        r = ch.eval_character(alg, alg.Lambda0(), s, eps=1e-12)
        assert r.tail_bound <= 1e-12 * r.value
        assert abs(r.log_value - _frenkel_kac_log(alg, s, 80)) < 1e-12


def test_theta_invariance_under_lattice(a1):
    s = ch.rho_specialization(a1, 5)
    lam = Weight.make(2, (Fraction(1, 2),), 0)
    shifted = translate(a1, (1,), lam)
    t1 = ch.eval_theta(a1, lam, s, eps=1e-11)
    t2 = ch.eval_theta(a1, shifted, s, eps=1e-11)
    assert abs(t1.value - t2.value) <= t1.tail_bound + t2.tail_bound \
        + 1e-12 * t1.value


def test_theta_requires_positive_level(a1):
    s = ch.rho_specialization(a1, 2)
    with pytest.raises(ValueError):
        ch.eval_theta(a1, Weight.make(0, (1,), 0), s)


def test_theta_self_consistency(a1):
    s = ch.rho_specialization(a1, 4)
    lam = Weight.make(3, (1,), 0)
    r1 = ch.eval_theta(a1, lam, s, eps=1e-7)
    r2 = ch.eval_theta(a1, lam, s, eps=1e-13)
    assert abs(r1.value - r2.value) <= r1.tail_bound + r2.tail_bound


def test_theta_bridge_identity(a1, rho1):
    # alternating finite-Weyl sum of thetas equals the full orbit sum
    from affinewalks.weyl import finite_apply, finite_group
    s = ch.rho_specialization(a1, 3)
    lam = rho1  # level 2, strictly dominant
    k = al.inner_product(a1, a1.delta(), lam)
    c = float(al.pair_delta(a1, s))
    prefactor = math.exp(float(al.inner_product(a1, lam, lam) / (2 * k)) * c)
    lhs = 0.0
    bound = 0.0
    for w in finite_group(a1):
        img = finite_apply(a1, w, lam)
        r = ch.eval_theta(a1, img, s, eps=1e-12)
        lhs += w.sign * r.value
        bound += r.tail_bound
    lhs *= prefactor
    rhs = math.exp(float(al.inner_product(a1, lam, s))) \
        * ch.weyl_alternating_value(a1, lam, s)
    assert abs(lhs - rhs) <= prefactor * bound + 1e-10 * abs(rhs)


def test_denominator_residual_monotone_and_degenerate(a1):
    s = ch.rho_specialization(a1, 2)
    r0 = ch.denominator_residual(a1, s, 0)
    assert r0 >= 0.0
    res = [ch.denominator_residual(a1, s, d) for d in (5, 10, 15, 20)]
    for a, b in zip(res, res[1:]):
        assert b <= a + 1e-12   # float-noise slack: both sides agree exactly


def test_denominator_acceptance_scale(a1, a2):
    for alg in (a1, a2):
        for n in (1, 5, 10):
            s = ch.rho_specialization(alg, n)
            assert ch.denominator_residual(alg, s, 20) < 1e-8


def test_denominator_analytic_small_n(a1, a2):
    # the alternating sum at mu = rho, certified to its default 1e-13,
    # against the float product formula, whose own rounding is about 1e-15
    for alg, n in ((a1, 1), (a1, 5), (a2, 3)):
        s = ch.rho_specialization(alg, n)
        c = al.pair_delta(alg, s)
        log_prod = math.fsum(
            mult * math.log1p(-math.exp(-float(
                d * c + alg.finite_inner([Fraction(x) for x in r], s.z))))
            for (d, r, mult) in hw.positive_roots(alg, math.ceil(60 / c)))
        total = ch.weyl_alternating_value(alg, al.weyl_vector(alg), s)
        assert abs(math.exp(log_prod) - total) / math.exp(log_prod) < 1e-14


def test_alternating_value_needs_strictly_dominant(a1):
    s = ch.rho_specialization(a1, 2)
    with pytest.raises(ValueError, match="strictly dominant"):
        ch.weyl_alternating_value(a1, a1.Lambda0(), s)


@pytest.mark.parametrize("name, n", [("A1~", 1000), ("A2~", 100)])
def test_log_denominator_against_product(name, n):
    # log A_rho near the critical line (e^{-2463} on A1~ at rho/1000, far
    # below float64) against the product over the positive roots, summed
    # exactly rounded in float64 up to the factors below e^{-40}; each of
    # its terms is within a few units of rounding
    alg = al.algebra_from_name(name)
    s = ch.rho_specialization(alg, n)
    c = float(al.pair_delta(alg, s))
    gp = np.array(alg.finite_covector(s.z), dtype=float)
    terms = [mult * math.log(-math.expm1(-(d * c + float(np.dot(r, gp)))))
             for (d, r, mult) in hw.positive_roots(alg, math.ceil(40 / c))]
    want = math.fsum(terms)
    rho = al.weyl_vector(alg)
    got = ch._log_alternant(alg, rho, s)
    log_value = float(got.ref + Fraction(float(got.rest[0].real)))
    rel = math.exp(got.log_err[0] - got.rest[0].real)
    assert rel < 1e-13
    assert abs(log_value - want) <= rel + 2.0 ** -50 * math.fsum(map(abs, terms))


def _orbit_coords(alg, z):
    # dual-lattice coordinates n_j = (beta|b_j) of the finite Weyl orbit of z
    basis = [[Fraction(x) for x in b] for b in lattice_basis(alg)]
    orbit = {tuple(w.act_z(z)) for w in finite_group(alg)}
    return np.array([[int(alg.finite_inner(list(beta), b)) for b in basis]
                     for beta in sorted(orbit)], dtype=np.int64)


def test_phase_sums_vanish_exactly(a1, a2):
    # singular shells cancel exactly, not to a float residue: the orbit of
    # omega_1 on A2~, and the even shells of A1~ at mu = rho; the regular
    # shells next to them do not
    for alg, shells, regular in (
            (a2, [(Fraction(2, 3), Fraction(1, 3))],
             [(Fraction(1), Fraction(1))]),
            (a1, [(Fraction(j, 2),) for j in (2, 4, 6)],
             [(Fraction(j, 2),) for j in (1, 3, 5)])):
        rho = al.weyl_vector(alg)
        (zq,), q = _linalg.int_scaled([rho.z])
        for n in (1, 7, 100):
            s = ch.rho_specialization(alg, n)
            for zs, vanish in ((shells, True), (regular, False)):
                for z in zs:
                    sums = ch._phase_sums(alg, int(rho.k), zq, q, s,
                                          _orbit_coords(alg, z))
                    assert (sums == 0).all() == vanish
                    assert (sums != 0).all() != vanish


@pytest.mark.parametrize("n, exps, signs, zero", [
    (3, (0, 1, 2), (1, 1, 1), True),                  # 1 + w + w^2
    (6, (0, 2, 4), (1, 1, 1), True),                  # the same on a coarser grid
    (4, (1, 3), (1, 1), True),                        # i + (-i)
    (12, (0, 4, 8, 3, 9), (1, 1, 1, 1, 1), True),     # both of the above
    (30, (0, 6, 12, 18, 24, 10, 20), (1, 1, 1, 1, 1, -1, -1), False),  # = 1
    (7, (0, 1, 3), (1, 1, -1), False),
    (5, (2, 7), (1, -1), True),                       # equal phases
])
def test_vanishes_decides_root_of_unity_sums(n, exps, signs, zero):
    # distinct roots of unity that cancel only as algebraic numbers
    assert ch._vanishes(n, exps, signs) == zero
    value = sum(sg * np.exp(2j * np.pi * e / n) for e, sg in zip(exps, signs))
    assert (abs(value) < 1e-12) == zero


def test_denominator_sides_built_once_per_depth(a1, monkeypatch):
    ch._denominator_sides.cache_clear()
    builds = []

    def spy(alg, depth):
        builds.append(depth)
        return hw.denominator_product_series(alg, depth)
    monkeypatch.setattr(ch, "denominator_product_series", spy)
    for n in (1, 5, 10):
        assert ch.denominator_residual(a1, ch.rho_specialization(a1, n), 20) < 1e-8
    assert builds == [20]
    monkeypatch.undo()
    # filled past its bound the memo stays at it, with unchanged values
    ch._denominator_sides.cache_clear()
    size = ch._denominator_sides.cache_info().maxsize
    first = [ch._denominator_sides(a1, d) for d in range(size + 3)]
    assert ch._denominator_sides.cache_info().currsize == size
    assert [ch._denominator_sides(a1, d) for d in range(size + 3)] == first
    assert ch._denominator_sides.cache_info().currsize == size
