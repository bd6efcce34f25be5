import math
from fractions import Fraction

import numpy as np
import pytest

from affinewalks import algebra as al, characters as ch, highestweight as hw
from affinewalks.algebra import Weight
from affinewalks.weyl import translate


def test_rho_specialization(a1):
    s = ch.rho_specialization(a1, 1)
    assert s.point == Weight.make(2, (Fraction(1, 2),), 0)
    assert ch.delta_pairing(a1, s) == 2
    s5 = ch.rho_specialization(a1, 5)
    assert ch.delta_pairing(a1, s5) == Fraction(2, 5)
    # linearity of the pairing in the evaluation point
    mu = Weight.make(1, (Fraction(1, 3),), Fraction(1, 7))
    assert al.inner_product(a1, mu, s5.point) == \
        al.inner_product(a1, mu, s.point) / 5
    with pytest.raises(ValueError):
        ch.rho_specialization(a1, 0)


def test_depth0_truncation_is_highest_term(a1):
    # at depth zero the series is the single highest-weight term
    table = hw.character_series_oracle(a1, a1.Lambda0(), 0)
    assert table.entries == {(0, (0,)): 1}


def test_eval_character_positive_and_bounded_below(a1):
    s = ch.rho_specialization(a1, 1)
    r = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-10)
    base = math.exp(float(al.inner_product(a1, a1.Lambda0(), s.point)))
    assert r.value > base
    assert r.value > 0
    assert r.tail_bound <= 1e-10 * r.value


def test_eval_character_self_consistency(a1):
    s = ch.rho_specialization(a1, 5)
    r1 = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-8)
    r2 = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-13)
    assert abs(r1.value - r2.value) <= r1.tail_bound + r2.tail_bound


def test_eval_character_errors(a1):
    bad = ch.Specialization(point=Weight.make(-1, (0,), 0), description="bad")
    with pytest.raises(ch.SpecializationError):
        ch.eval_character(a1, a1.Lambda0(), bad)
    with pytest.raises(ValueError):
        ch.eval_character(a1, a1.Lambda0(), ch.rho_specialization(a1, 1), eps=-1)
    # A_rho(rho/400) is about e^-983, below float64: refused, where a tail
    # bound that underflowed would certify a wrong value
    with pytest.raises(ch.ConvergenceError, match="critical line"):
        ch.eval_character(a1, a1.Lambda0(), ch.rho_specialization(a1, 400))


def _series_log_value(alg, lam, s, table):
    # the multiplicity series summed at the point, from its exact table
    c = ch.delta_pairing(alg, s)
    gp = alg.finite_covector(s.point.z)
    total = math.fsum(
        v * math.exp(-float(d * c + sum(x * y for x, y in zip(m, gp))))
        for (d, m), v in table.entries.items())
    return float(al.inner_product(alg, lam, s.point)) + math.log(total)


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
    # Frenkel-Kac: ch_Lambda0 = e^(Lambda0|p) sum_{gamma in Q}
    # e^{-|gamma|^2 c/2 - (gamma|p)} / prod_m (1 - e^{-mc})^rank, checked
    # where the multiplicity series is out of reach
    for alg, n in ((a1, 200), (a2, 20)):
        s = ch.rho_specialization(alg, n)
        c = float(ch.delta_pairing(alg, s))
        g = np.array(alg.finite_gram, dtype=float)
        gp = np.array(alg.finite_covector(s.point.z), dtype=float)
        span = np.arange(-80, 81)
        gam = np.stack(np.meshgrid(*[span] * alg.rank), -1).reshape(-1, alg.rank)
        theta = math.fsum(np.exp(-0.5 * c * np.einsum("ij,jk,ik->i", gam, g, gam)
                                 - gam @ gp))
        log_phi = math.fsum(math.log1p(-math.exp(-m * c))
                            for m in range(1, math.ceil(80 / c)))
        want = (float(al.inner_product(alg, alg.Lambda0(), s.point))
                + math.log(theta) - alg.rank * log_phi)
        r = ch.eval_character(alg, alg.Lambda0(), s, eps=1e-12)
        assert r.tail_bound <= 1e-12 * r.value
        assert abs(r.log_value - want) < 1e-12


def test_character_ratio_propagation(a1):
    s = ch.rho_specialization(a1, 3)
    lam = Weight.make(2, (0,), 0)
    num = ch.eval_character(a1, lam, s, eps=1e-8)
    den = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-8)
    ratio, bound = ch.character_ratio(num, den)
    deep_n = ch.eval_character(a1, lam, s, eps=1e-14)
    deep_d = ch.eval_character(a1, a1.Lambda0(), s, eps=1e-14)
    deep = deep_n.value / deep_d.value
    assert abs(ratio - deep) <= bound * deep + 1e-15


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
    c = float(ch.delta_pairing(a1, s))
    prefactor = math.exp(float(al.inner_product(a1, lam, lam) / (2 * k)) * c)
    lhs = 0.0
    bound = 0.0
    for w in finite_group(a1):
        img = finite_apply(a1, w, lam)
        r = ch.eval_theta(a1, img, s, eps=1e-12)
        lhs += w.sign * r.value
        bound += r.tail_bound
    lhs *= prefactor
    rhs = math.exp(float(al.inner_product(a1, lam, s.point))) \
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
    # the mp alternating sum at mu = rho against the float product formula,
    # whose own rounding is about 1e-15 here
    for alg, n in ((a1, 1), (a1, 5), (a2, 3)):
        s = ch.rho_specialization(alg, n)
        c = ch.delta_pairing(alg, s)
        log_prod = math.fsum(
            mult * math.log1p(-math.exp(-float(
                d * c + alg.finite_inner([Fraction(x) for x in r], s.point.z))))
            for (d, r, mult) in hw.positive_roots(alg, math.ceil(60 / c)))
        total = ch.weyl_alternating_value(alg, al.weyl_vector(alg), s, rtol=1e-15)
        assert abs(math.exp(log_prod) - total) / math.exp(log_prod) < 1e-14


def test_alternating_value_needs_strictly_dominant(a1):
    s = ch.rho_specialization(a1, 2)
    with pytest.raises(ValueError, match="strictly dominant"):
        ch.weyl_alternating_value(a1, a1.Lambda0(), s)
