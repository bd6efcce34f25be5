import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from affinewalks import algebra as al, characters as ch
from affinewalks.algebra import Weight
from affinewalks.highestweight import character_series_oracle
from affinewalks.layerseries import _GUIDE, increment_atoms
from affinewalks.weyl import apply, enumerate_bounded


def exact_marginal(alg, om, s, depth):
    c = float(al.pair_delta(alg, s))
    agg = {}
    for (d, m), v in character_series_oracle(alg, om, depth).entries.items():
        w = v * math.exp(-d * c - float(alg.finite_inner(
            [Fraction(m[0])], s.z)))
        agg[m[0]] = agg.get(m[0], 0.0) + w
    total = math.fsum(agg.values())
    return {m: v / total for m, v in agg.items()}


def test_atoms_match_exact_aggregation(a1):
    om = Weight.make(2, (0,), 0)
    for n, depth in ((3, 120), (10, 500)):
        s = ch.rho_specialization(a1, n)
        atoms = increment_atoms(a1, om, s)
        exact = exact_marginal(a1, om, s, depth)
        worst = max(abs(atoms.probability((m,)) - p)
                    for m, p in exact.items())
        assert worst < 1e-13
        assert atoms.defect < 1e-10


def test_atoms_moments_near_critical(a1):
    om = Weight.make(2, (0,), 0)
    n = 50
    s = ch.rho_specialization(a1, n)
    atoms = increment_atoms(a1, om, s)
    idx = atoms.offsets()[:, 0]
    mean = float((idx * atoms.prob).sum())
    var = float((idx ** 2 * atoms.prob).sum()) - mean ** 2
    # cumulant expansion of the normalized character at rho/n
    assert abs(mean + 0.5) < 5e-3
    assert abs(var - n / 2) / (n / 2) < 5e-3


@pytest.mark.parametrize("n", [600, 800])
def test_atoms_defect_finite_far_below_critical(a1, n):
    # past float64's exp range in units of the first chunk's reference the
    # error used to overflow and the defect came out NaN
    atoms = increment_atoms(a1, Weight.make(2, (0,), 0), ch.rho_specialization(a1, n))
    assert math.isfinite(atoms.defect) and atoms.defect < 1e-4


def test_atoms_default_grid_follows_the_widest_coordinate():
    # G2~'s short-root coordinate has variance 6 k/c, twelve times A1~'s;
    # a grid from k/c alone (128 here) leaves a defect near 1e-6
    g2 = al.algebra_from_name("G2~")
    om = Weight.make(g2.dual_coxeter, (0, 0), 0)
    atoms = increment_atoms(g2, om, ch.rho_specialization(g2, 20))
    assert atoms.prob.shape == (256, 256)
    assert atoms.defect <= 1e-10


def test_atoms_require_positive_level(a1):
    s = ch.rho_specialization(a1, 3)
    with pytest.raises(ValueError):
        increment_atoms(a1, Weight.make(0, (0,), 0), s)


def test_atoms_grid_too_small_raises(a1):
    s = ch.rho_specialization(a1, 50)
    with pytest.raises(ArithmeticError):
        increment_atoms(a1, Weight.make(2, (0,), 0), s, grid=8)


def test_atoms_probability_outside_window(a1):
    s = ch.rho_specialization(a1, 3)
    atoms = increment_atoms(a1, Weight.make(2, (0,), 0), s)
    assert atoms.probability((10 ** 6,)) == 0.0
    assert abs(atoms.prob.sum() - 1.0) < 1e-12


def test_atoms_grid_must_be_power_of_two(a1):
    s = ch.rho_specialization(a1, 3)
    with pytest.raises(ValueError, match="power of two"):
        increment_atoms(a1, Weight.make(2, (0,), 0), s, grid=96)


def _mp_torus_values(alg, mu, s, grid, radius):
    # N_mu at every torus point of a grid, summed term by term over the
    # affine Weyl group in 40-digit mp from the exact Fraction action
    pts = list(np.ndindex((grid,) * alg.rank))
    out = []
    with mp.workdps(40):
        terms = []
        for w in enumerate_bounded(alg, radius):
            off = mu - apply(alg, w, mu)            # m + d delta, exactly
            x = al.inner_product(alg, off, s)
            terms.append((w.sign * mp.exp(-mp.mpf(x.numerator) / x.denominator),
                          off.z))
        for idx in pts:
            out.append(mp.fsum(
                cf * mp.expjpi(-2 * mp.mpf(int(sum(i * m for i, m in zip(idx, mz))))
                               / grid) for cf, mz in terms))
    return pts, out


@pytest.mark.parametrize("name, n", [("A1~", 3), ("A2~", 5)])
def test_torus_values_match_direct_sum(name, n):
    # the float64 evaluator on a grid-4 torus, both alternants of the atoms
    # of h_vee Lambda0, against an independent mp sum; each gap within the
    # evaluator's own certified bound
    alg = al.algebra_from_name(name)
    s = ch.rho_specialization(alg, n)
    rho = al.weyl_vector(alg)
    omega = Weight.make(alg.dual_coxeter, (0,) * alg.rank, 0)
    for mu in (omega + rho, rho):
        pts, want = _mp_torus_values(alg, mu, s, 4, 10 if alg.rank == 1 else 9)
        idx = (np.array(pts, dtype=np.int64) + 2) % 4 - 2
        got = ch._log_alternant(alg, mu, s, (idx, 4))
        with mp.workdps(40):
            ref = mp.exp(mp.mpf(got.ref.numerator) / got.ref.denominator)
            for j, w in enumerate(want):
                gap = abs(ref * mp.exp(mp.mpc(got.rest[j])) - w)
                bound = ref * mp.exp(got.log_err[j])
                assert gap <= bound
                assert gap <= 1e-12 * abs(w)


def test_torus_values_of_atom_terms(a1):
    # the atoms of 2 Lambda0 at rho/3 from the mp torus values of both
    # alternants, inverted by an exact-size DFT, against increment_atoms
    s = ch.rho_specialization(a1, 3)
    om = Weight.make(2, (0,), 0)
    rho = al.weyl_vector(a1)
    grid = 64
    _, num = _mp_torus_values(a1, om + rho, s, grid, 10)
    _, den = _mp_torus_values(a1, rho, s, grid, 10)
    f = np.array([complex(a / b) for a, b in zip(num, den)])
    want = np.fft.fftshift(np.fft.ifft(f / f[0].real).real)
    atoms = increment_atoms(a1, om, s, grid=grid)
    assert atoms.lo == (-grid // 2,)
    assert np.abs(atoms.prob - want / want.sum()).max() < 1e-14


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


class _Uniforms:
    """Stands in for a generator whose ``random`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape)


def _crowded_atoms(a1):
    # zero atoms at both ends and one atom holding almost all the mass, so
    # many cdf points share the buckets around it
    atoms = increment_atoms(a1, Weight.make(2, (0,), 0), ch.rho_specialization(a1, 5))
    prob = np.zeros(300)
    prob[20:280] = np.linspace(1.0, 2.0, 260) * 1e-12
    prob[150] = 0.0
    prob[151] = 1.0 - prob.sum()
    return dataclasses.replace(atoms, lo=(-150,), prob=prob)


def test_draw_equals_generator_choice(a1, a2):
    # the guide-table draws are rng.choice's bit for bit, and both leave the
    # generator in the same state
    cases = [(increment_atoms(a1, Weight.make(2, (0,), 0), ch.rho_specialization(a1, 200)),
              (257, 200)),
             (increment_atoms(a2, Weight.make(3, (0, 0), 0), ch.rho_specialization(a2, 10)),
              (50_000,)),
             (_crowded_atoms(a1), (40_000,))]
    for atoms, shape in cases:
        mine, theirs = _philox(7), _philox(7)
        got = atoms.draw(mine, shape)
        want = theirs.choice(atoms.prob.size, p=atoms.prob.ravel(), size=shape)
        assert got.shape == shape and np.array_equal(got, want)
        assert mine.random() == theirs.random()
    # the last case sends draws down the search in crowded buckets
    crowded = cases[-1][0]._guide[2]
    assert crowded[(_philox(7).random(40_000) * _GUIDE).astype(int)].any()


def test_draw_on_bucket_edges(a1):
    # uniforms on the buckets' left ends k/G and one ulp below them, where a
    # cdf point may sit exactly, and on the cdf points inside the buckets:
    # the answer is searchsorted's, side right
    quarters = dataclasses.replace(_crowded_atoms(a1),
                                   prob=np.array([0.25, 0.25, 0.0, 0.5]))
    for atoms in (quarters, _crowded_atoms(a1),
                  increment_atoms(a1, Weight.make(2, (0,), 0), ch.rho_specialization(a1, 200))):
        cdf = atoms.prob.ravel().cumsum()
        cdf /= cdf[-1]
        edges = np.arange(_GUIDE) / _GUIDE
        inner = cdf[cdf < 1.0]
        u = np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                            inner, np.nextafter(inner, 0.0)])
        got = atoms.draw(_Uniforms(u), u.shape)
        assert np.array_equal(got, cdf.searchsorted(u, "right"))
    assert (quarters.draw(_Uniforms(np.array([0.0, 0.25, 0.5, 0.75])), (4,))
            == [0, 1, 3, 3]).all()


@pytest.mark.parametrize("bad", ["negative", "nan", "sum"])
def test_draw_refuses_what_choice_refuses(a1, bad):
    prob = np.full(8, 1 / 8)
    if bad == "negative":
        prob[[0, 1]] = [-1 / 8, 3 / 8]
    elif bad == "nan":
        prob[3] = math.nan
    else:
        prob *= 1 + 1e-6
    atoms = dataclasses.replace(_crowded_atoms(a1), prob=prob)
    with pytest.raises(ValueError):
        _philox(1).choice(prob.size, p=prob, size=3)
    with pytest.raises(ValueError):
        atoms.draw(_philox(1), (3,))
