"""Cartan data of untwisted affine algebras from Kac's closed forms.

Each algebra is built from a finite Cartan matrix and the highest root of
its finite root system (Kac, Table Aff 1): node 0 is ``alpha_0 = delta -
theta``.  The form, the translation lattice, marks and comarks are frozen
in ``golden/untwisted_cartan.json``, written by the general derivation
(the form by inverting the pairing matrix and ``nu``, the lattice as the
Hermite normal form of the finite Weyl orbit of ``nu(theta∨)``) that the
closed forms replaced.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from affinewalks import algebra as al, weyl as wy
from affinewalks._linalg import det


def _chain(l, long_end=None):
    """Tridiagonal Cartan matrix of a path; ``a[i][j] = -2`` at the double
    bond ``(i, j)``, given as ``long_end`` = ``(i, j)``."""
    a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(l)]
         for i in range(l)]
    if long_end is not None:
        i, j = long_end
        a[i][j] = -2
    return a


# name: (finite Cartan matrix a_ij = alpha_j(coroot_i), highest root, (h, h∨))
CASES = {
    **{f"A{l}~": (_chain(l), (1,) * l, (l + 1, l + 1)) for l in range(1, 6)},
    **{f"B{l}~": (_chain(l, (l - 1, l - 2)), (1,) + (2,) * (l - 1), (2 * l, 2 * l - 1))
       for l in range(2, 5)},
    **{f"C{l}~": (_chain(l, (l - 2, l - 1)), (2,) * (l - 1) + (1,), (2 * l, l + 1))
       for l in range(2, 5)},
    "D4~": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
            (1, 2, 1, 1), (6, 6)),
    "G2~": ([[2, -1], [-3, 2]], (2, 3), (6, 4)),
    "F4~": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
            (2, 3, 4, 2), (12, 9)),
}

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "untwisted_cartan.json").read_text())


def untwisted(finite, theta):
    """Affine Cartan matrix with node 0 added: ``a_i0 = -theta(coroot_i)``,
    ``a_0j = -alpha_j(theta∨)``."""
    l = len(finite)
    # d_i = |alpha_i|^2 / 2 solves d_i a_ij = d_j a_ji along the diagram
    d = [Fraction(1)] + [None] * (l - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(l):
            if finite[i][j] and d[j] is None:
                d[j] = d[i] * finite[i][j] / finite[j][i]
                stack.append(j)
    top = max(d)                           # theta is long
    cot = [t * x / top for t, x in zip(theta, d)]
    rows = [[2] + [-int(sum(c * finite[i][j] for i, c in enumerate(cot)))
                   for j in range(l)]]
    rows += [[-sum(finite[i][j] * theta[j] for j in range(l))] + list(finite[i])
             for i in range(l)]
    return rows


def _build(name):
    finite, theta, _ = CASES[name]
    return al.build_algebra(untwisted(finite, theta), name=name)


def _fractions(rows):
    return [[str(x) for x in row] for row in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cartan_data_frozen(name):
    alg = _build(name)
    want = GOLDEN[name]
    assert alg.cartan.entries == tuple(map(tuple, want["matrix"]))
    assert _fractions(alg.gram_hstar) == want["gram_hstar"]
    assert _fractions(alg.finite_gram) == [row[1:-1] for row in want["gram_hstar"][1:-1]]
    assert list(map(list, wy.lattice_basis(alg))) == want["lattice_basis"]
    assert list(alg.marks) == want["marks"]
    assert list(alg.comarks) == want["comarks"]
    assert (alg.coxeter, alg.dual_coxeter) == (want["coxeter"], want["dual_coxeter"])
    assert alg.marks == (1,) + CASES[name][1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_coxeter_numbers_match_kac_table(name):
    alg = _build(name)
    assert (alg.coxeter, alg.dual_coxeter) == CASES[name][2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_finite_weyl_group_preserves_lattice(name):
    # every w maps each basis vector into the lattice, and its matrix on
    # lattice coordinates is unimodular, so w maps the lattice onto itself
    alg = _build(name)
    basis = wy.lattice_basis(alg)
    for w in wy.finite_group(alg):
        images = [w.act_z(b) for b in basis]
        coords = [[Fraction(x[j], basis[j][j]) for j in range(alg.rank)]
                  for x in images]
        assert all(c.denominator == 1 for row in coords for c in row)
        assert abs(det(coords)) == 1
