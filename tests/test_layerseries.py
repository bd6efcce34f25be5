import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from affinewalks import algebra as al, characters as ch, layerseries as ls
from affinewalks.algebra import Weight
from affinewalks.highestweight import character_series_oracle
from affinewalks.layerseries import increment_atoms


def exact_marginal(alg, om, s, depth):
    c = float(ch.delta_pairing(alg, s))
    agg = {}
    for (d, m), v in character_series_oracle(alg, om, depth).entries.items():
        w = v * math.exp(-d * c - float(alg.finite_inner(
            [Fraction(m[0])], s.point.z)))
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
    idx = atoms.offsets()
    mean = float((idx * atoms.prob).sum())
    var = float((idx ** 2 * atoms.prob).sum()) - mean ** 2
    # cumulant expansion of the normalized character at rho/n
    assert abs(mean + 0.5) < 5e-3
    assert abs(var - n / 2) / (n / 2) < 5e-3


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


def _direct_torus_sum(terms, l, roots):
    grid = len(roots)
    out = np.empty((grid,) * l, dtype=object)
    for idx in np.ndindex(out.shape):
        acc = mp.mpc(0)
        for m, cf in terms:
            acc += cf * roots[sum(i * x for i, x in zip(idx, m)) % grid]
        out[idx] = acc
    return out


@pytest.mark.parametrize("l, grid", [(1, 8), (2, 4)])
def test_torus_values_match_direct_sum(l, grid):
    # offsets span far more than the grid, so the fold wraps
    rng = np.random.default_rng(3)
    with mp.workdps(40):
        terms = [(tuple(int(x) for x in rng.integers(-30, 31, size=l)),
                  mp.mpf(float(rng.normal())) / 7)
                 for _ in range(25)]
        roots = [mp.e ** (-2j * mp.pi * mp.mpf(j) / grid) for j in range(grid)]
        got = ls._torus_values(terms, l, roots)
        want = _direct_torus_sum(terms, l, roots)
        assert got.shape == (grid,) * l
        assert max(abs(a - b) for a, b in zip(got.flat, want.flat)) < 1e-35


def test_torus_values_of_atom_terms(a1):
    # the orbit-sum coefficients increment_atoms folds at rho/3
    s = ch.rho_specialization(a1, 3)
    om = Weight.make(2, (0,), 0)
    with mp.workdps(30):
        terms = ls._mp_terms(a1, om + al.weyl_vector(a1), s, 12,
                             ch.delta_pairing(a1, s))
        offsets = [m[0] for m, _ in terms]
        assert max(offsets) - min(offsets) + 1 > 4      # the fold wraps
        roots = [mp.e ** (-2j * mp.pi * mp.mpf(j) / 4) for j in range(4)]
        got = ls._torus_values(terms, 1, roots)
        want = _direct_torus_sum(terms, 1, roots)
        scale = max(abs(cf) for _, cf in terms)
        assert max(abs(a - b) for a, b in zip(got.flat, want.flat)) \
            < 1e-25 * scale
