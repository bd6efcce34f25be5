import importlib
import json
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest

import affinewalks
from affinewalks import _linalg, algebra as al
from affinewalks.algebra import Weight


def test_a1_marks_and_coxeter(a1):
    assert a1.marks == (1, 1)
    assert a1.comarks == (1, 1)
    assert a1.coxeter == 2
    assert a1.dual_coxeter == 2


def test_finite_matrix_rejected():
    with pytest.raises(al.NotAffineError):
        al.build_algebra(al.AffineCartanMatrix(((2,),)))
    # corank 0 with rank 2 (finite A2 Cartan matrix)
    with pytest.raises(al.NotAffineError):
        al.build_algebra(al.AffineCartanMatrix(((2, -1), (-1, 2))))


def test_delta_pairings(a1, a2):
    for alg in (a1, a2):
        delta = alg.delta()
        assert al.inner_product(alg, delta, alg.Lambda0()) == 1
        assert al.inner_product(alg, delta, delta) == 0
        for i in range(alg.rank + 1):
            assert al.inner_product(alg, delta, alg.alpha(i)) == 0


def test_level_matches_full_form():
    # classify_weight reads the level off the delta row of the form; it
    # equals the full pairing (delta | lam), delta-shifted weights included
    rng = random.Random(3)
    for name in ("A1~", "A2~", "A3~"):
        alg = al.algebra_from_name(name)
        rho = al.weyl_vector(alg)
        for _ in range(30):
            lam = Weight.make(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                              [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(alg.rank)],
                              Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for mu in (lam, lam + rho, lam - alg.delta().scale(5)):
                assert al.classify_weight(alg, mu).level == \
                    al.inner_product(alg, alg.delta(), mu)


def test_inner_product_examples(a1):
    assert al.inner_product(a1, a1.alpha(1), a1.alpha(1)) == 2
    lam = Weight.make(3, (Fraction(1, 2),), 1)
    assert al.inner_product(a1, lam, a1.zero()) == 0
    mu = Weight.make(1, (2,), 0)
    assert al.inner_product(a1, lam, mu) == al.inner_product(a1, mu, lam)


def test_pairing_coroot_examples(a1, a2):
    for alg in (a1, a2):
        L0 = alg.Lambda0()
        for i in range(alg.rank + 1):
            assert al.pairing_coroot(alg, L0, i) == (1 if i == 0 else 0)
        for i in range(alg.rank + 1):
            for j in range(alg.rank + 1):
                assert al.pairing_coroot(alg, alg.alpha(j), i) == \
                    alg.cartan.entries[i][j]
        rho = al.weyl_vector(alg)
        for i in range(alg.rank + 1):
            assert al.pairing_coroot(alg, rho, i) == 1
    with pytest.raises(IndexError):
        al.pairing_coroot(a1, a1.Lambda0(), 5)


def test_pairing_consistent_with_form(a1):
    # lam(coroot_i) = 2 (lam | alpha_i) / (alpha_i | alpha_i)
    lam = Weight.make(2, (Fraction(3, 2),), Fraction(-1, 3))
    for i in range(2):
        ai = a1.alpha(i)
        lhs = al.pairing_coroot(a1, lam, i)
        rhs = 2 * al.inner_product(a1, lam, ai) / al.inner_product(a1, ai, ai)
        assert lhs == rhs


def test_weyl_vector(a1, a2):
    rho = al.weyl_vector(a1)
    assert rho == Weight.make(2, (Fraction(1, 2),), 0)
    assert al.inner_product(a1, a1.delta(), rho) == a1.dual_coxeter
    assert a1.finite_norm2(rho.z) == Fraction(1, 2)
    rho2 = al.weyl_vector(a2)
    assert rho2.k == 3 and rho2.b == 0


def test_finite_gram_cached(a1, a2):
    for alg in (a1, a2):
        assert alg.finite_gram is alg.finite_gram
        assert alg.finite_gram == tuple(
            tuple(alg.gram_hstar[i][j] for j in range(1, alg.rank + 1))
            for i in range(1, alg.rank + 1))


@pytest.mark.parametrize("rows, lcd", [
    ([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5, 4), 0]], 12),  # mixed, negative
    ([[Fraction(-7, 6)], [Fraction(1, 10)], [3]], 30),
    ([[1, -2, 3], [0, 4, -5]], 1),                                    # all integers
    ([[0, 0, 0]], 1),                                                 # the zero row
    ([[Fraction(4, 6), Fraction(-9, 15)]], 15)])                     # unreduced inputs
def test_int_scaled(rows, lcd):
    # n / d is the rational matrix exactly, d its least common denominator
    n, d = _linalg.int_scaled(rows)
    assert n.dtype == np.int64 and n.shape == (len(rows), len(rows[0]))
    assert d == lcd
    assert [[Fraction(int(x), d) for x in row] for row in n] == \
        [[Fraction(x) for x in row] for row in rows]


def test_primitive_integer_vector():
    assert _linalg.primitive_integer_vector(
        [Fraction(-2, 3), Fraction(4, 9), 0]) == (3, -2, 0)
    assert _linalg.primitive_integer_vector([0, 6, 9]) == (0, 2, 3)
    with pytest.raises(ValueError):
        _linalg.primitive_integer_vector([0, Fraction(0)])


def test_classify(a1):
    L0 = a1.Lambda0()
    c = al.classify_weight(a1, L0)
    assert c.level == 1 and c.dominant and c.integral
    assert not al.classify_weight(a1, -1 * L0).dominant
    half = Weight.make(0, (Fraction(1, 2),), 0)
    cc = al.classify_weight(a1, half)
    assert cc.integral and not cc.dominant
    assert al.pairing_coroot(a1, half, 0) == -1
    assert al.pairing_coroot(a1, half, 1) == 1


def test_projections_idempotent(a1):
    lam = Weight.make(2, (Fraction(1, 3),), Fraction(5, 7))
    assert lam.bar().bar() == lam.bar()
    assert lam.bar().b == 0 and lam.bar().k == lam.k


def test_gram_symmetric_positive(a1, a2):
    for alg in (a1, a2):
        g = alg.gram_hstar
        n = len(g)
        assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
        # finite block positive definite via Cholesky over floats
        import numpy as np
        fin = np.array([[float(alg.finite_gram[i][j])
                         for j in range(alg.rank)] for i in range(alg.rank)])
        np.linalg.cholesky(fin)


def test_registry_and_json(a2):
    assert al.algebra_from_name("A2~") is a2
    for name in ("E8", "E6~", "A0~", "B1~", "D3~", "F5~", "G2", "A01~"):
        with pytest.raises(KeyError, match=r"A<l>~ \(l >= 1\).*F4~, G2~"):
            al.algebra_from_name(name)
    obj = {"rank": 1, "matrix": [[2, -2], [-2, 2]]}
    alg = al.algebra_from_json(json.dumps(obj))
    assert alg.marks == (1, 1)
    with pytest.raises(ValueError):
        al.algebra_from_json({"rank": 2, "matrix": [[2, -2], [-2, 2]]})
    assert al.algebra_from_name("A3~").rank == 3


def test_weight_dimension_mismatch(a1, a2):
    lam2 = a2.Lambda0()
    with pytest.raises(ValueError):
        al.inner_product(a1, lam2, lam2)


@pytest.mark.parametrize("rows", [
    [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],      # D3^(2), marks (1, 1, 1)
    [[2, -4], [-1, 2]],                         # A2^(2), a_0 = 2
    [[2, -1], [-4, 2]],                         # A2^(2) labelled from the other end
])
def test_twisted_matrices_refused(rows):
    with pytest.raises(al.NotAffineError, match="twisted"):
        al.build_algebra(rows)
    with pytest.raises(al.NotAffineError, match="twisted"):
        al.algebra_from_json({"rank": len(rows) - 1, "matrix": rows})


def test_caches_bounded():
    # every lru_cache in the package, at module level or on a class
    found = []
    for info in pkgutil.iter_modules(affinewalks.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"affinewalks.{info.name}")
        owners = [mod] + [c for c in vars(mod).values() if isinstance(c, type)]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_info"):
                    found.append((f"{info.name}.{name}", obj.cache_info().maxsize))
    assert len(found) >= 10
    assert [name for name, size in found if size is None] == []
