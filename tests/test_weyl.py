import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from affinewalks import algebra as al, chain as cn, characters as ch, weyl as wy
from affinewalks.algebra import Weight


def test_finite_group_a1(a1):
    g = wy.finite_group(a1)
    assert len(g) == 2
    assert sorted(e.sign for e in g) == [-1, 1]
    assert all(e.sign == (-1) ** len(e.word) for e in g)


def test_finite_group_a2(a2):
    g = wy.finite_group(a2)
    assert len(g) == 6
    assert sum(e.sign for e in g) == 0


def test_reflect_examples(a1):
    alpha1 = a1.alpha(1)
    assert wy.reflect(a1, 1, alpha1) == -1 * alpha1
    L0 = a1.Lambda0()
    assert wy.reflect(a1, 0, L0) == Weight.make(1, (1,), -1)  # L0 + a1 - delta
    fixed = Weight.make(0, (0,), 3)  # pairing with both coroots is 0
    assert wy.reflect(a1, 1, fixed) == fixed
    lam = Weight.make(2, (Fraction(1, 3),), 0)
    assert wy.reflect(a1, 1, wy.reflect(a1, 1, lam)) == lam


def test_lattice_basis(a1, a2):
    assert wy.lattice_basis(a1) == ((1,),)
    for alg in (a1, a2):
        for b in wy.lattice_basis(alg):
            beta = Weight.make(0, b, 0)
            assert al.inner_product(alg, beta, alg.delta()) == 0


def test_translate_examples(a1):
    L0 = a1.Lambda0()
    assert wy.translate(a1, (1,), L0) == Weight.make(1, (1,), -1)
    # level zero and orthogonal: fixed
    lam = Weight.make(0, (0,), Fraction(2, 3))
    assert wy.translate(a1, (5,), lam) == lam
    # group law
    mu = Weight.make(3, (Fraction(1, 7),), Fraction(2, 5))
    assert wy.translate(a1, (-2,), wy.translate(a1, (2,), mu)) == mu
    t1 = wy.translate(a1, (1,), wy.translate(a1, (1,), mu))
    assert t1 == wy.translate(a1, (2,), mu)


def test_apply_examples(a1, rho1):
    els = list(wy.enumerate_bounded(a1, 3.0))
    ident = next(e for e in els if e.is_identity())
    lam = Weight.make(2, (Fraction(1, 2),), Fraction(1, 3))
    assert wy.apply(a1, ident, lam) == lam
    s1 = next(e for e in els if e.trans == (0,) and e.finite.word == (1,))
    assert wy.apply(a1, s1, rho1) == Weight.make(2, (Fraction(-1, 2),), 0)
    rng = random.Random(0)
    for _ in range(100):
        e = rng.choice(els)
        mu = Weight.make(rng.randint(0, 4),
                         (Fraction(rng.randint(-6, 6), 2),),
                         Fraction(rng.randint(-4, 4), 3))
        assert wy.apply(a1, e, mu).k == mu.k


def test_enumerate_bounded_counts(a1):
    assert len(list(wy.enumerate_bounded(a1, 0))) == 2
    els = list(wy.enumerate_bounded(a1, 1.5))
    assert len(els) == 6
    assert sorted({e.trans for e in els}) == [(-1,), (0,), (1,)]
    assert sum(e.sign for e in els) == 0
    with pytest.raises(ValueError):
        list(wy.enumerate_bounded(a1, -1))


def test_form_invariance_exact(a1):
    els = list(wy.enumerate_bounded(a1, 2.2))
    rng = random.Random(1)
    weights = [Weight.make(rng.randint(0, 3),
                           (Fraction(rng.randint(-8, 8), 4),),
                           Fraction(rng.randint(-8, 8), 4)) for _ in range(6)]
    for e in els:
        for lam, mu in itertools.combinations(weights, 2):
            assert al.inner_product(a1, wy.apply(a1, e, lam),
                                    wy.apply(a1, e, mu)) == \
                al.inner_product(a1, lam, mu)


def test_delta_fixed(a1):
    for e in wy.enumerate_bounded(a1, 2.2):
        assert wy.apply(a1, e, a1.delta()) == a1.delta()


def test_dominant_representative(a1):
    rng = random.Random(3)
    for _ in range(20):
        lam = Weight.make(rng.randint(1, 5),
                          (Fraction(rng.randint(-40, 40), 2),), 0)
        dom, sign = wy.dominant_representative(a1, lam)
        assert sign in (-1, 1)
        assert all(al.pairing_coroot(a1, dom, i) >= 0 for i in (0, 1))
        # same orbit: norms agree (the form is invariant and b is tracked)
        assert al.inner_product(a1, dom, dom) == al.inner_product(a1, lam, lam)


def test_weyl_terms_follow_enumeration(a2):
    # stacked arrays: translation_vectors x finite_group order, and a
    # smaller radius is a prefix of a larger one
    terms = wy.weyl_terms(a2, 3)
    elems = list(wy.enumerate_bounded(a2, 3))
    assert terms.sign.size == len(elems)
    for i, e in enumerate(elems):
        assert terms.sign[i] == e.sign
        assert tuple(map(tuple, terms.matrix[i].tolist())) == e.finite.matrix
        assert tuple(terms.trans[i].tolist()) == wy._trans_to_z(a2, e.trans)
        assert terms.norm2[i] == float(a2.finite_norm2(wy._trans_to_z(a2, e.trans)))
    small = wy.weyl_terms(a2, 2)
    assert (terms.trans[:small.sign.size] == small.trans).all()


@pytest.mark.parametrize("name", ["A1~", "A2~", "A3~"])
def test_orbit_offsets_match_weyl_action(name):
    # the integer offsets against the reference Fraction action, term by
    # term; rho + Lambda_1 has fractional root coordinates on every A_l and
    # is stacked with rho + Lambda_0, which has the same level
    alg = al.algebra_from_name(name)
    rho = al.weyl_vector(alg)
    lam1 = al.weight_from_pairings(alg, [0, 1] + [0] * (alg.rank - 1))
    terms = wy.weyl_terms(alg, 4)
    elems = list(wy.enumerate_bounded(alg, 4))
    assert terms.sign.size == len(elems)
    for mus in ([rho], [rho + alg.Lambda0(), rho + lam1]):
        q = math.lcm(*(x.denominator for mu in mus for x in mu.z))
        zq = np.array([[int(x * q) for x in mu.z] for mu in mus])
        m, d = wy.orbit_offsets(alg, terms, int(mus[0].k), zq, q)
        for i, mu in enumerate(mus):
            for t, e in enumerate(elems):
                off = mu - wy.apply(alg, e, mu)
                assert off.k == 0
                assert tuple(m[i, t].tolist()) == off.z and d[i, t] == off.b


def _spec(a1):
    return ch.rho_specialization(a1, 3)


_OMEGA = Weight.make(2, (0,), 0)
_CAP_CALLS = {
    "eval_theta": lambda a1: ch.eval_theta(
        a1, Weight.make(2, (Fraction(1, 2),), 0), _spec(a1)),
    "eval_character": lambda a1: ch.eval_character(
        a1, a1.Lambda0(), _spec(a1)),
    "weyl_alternating_value": lambda a1: ch.weyl_alternating_value(
        a1, al.weyl_vector(a1), _spec(a1)),
    "reflection_discrete_residual": lambda a1: cn.reflection_discrete_residual(
        a1, _OMEGA, _spec(a1), 0, a1.Lambda0(), a1.Lambda0(), 20),
    "FastBarredKernel.row": lambda a1: cn.FastBarredKernel(
        a1, _OMEGA, ch.rho_specialization(a1, 5)).row(2, np.array([1])),
}


@pytest.mark.parametrize("name", list(_CAP_CALLS))
def test_radius_cap_raises(a1, monkeypatch, name):
    # a tail bound that never certifies must stop at the radius cap with
    # the typed error, in every caller of the certified Weyl sum
    monkeypatch.setattr(wy, "gaussian_lattice_tail", lambda *args: math.inf)
    monkeypatch.setattr(wy, "_MAX_RADIUS", 8.0)
    with pytest.raises(wy.ConvergenceError):
        _CAP_CALLS[name](a1)
