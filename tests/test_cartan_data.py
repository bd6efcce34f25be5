"""Cartan data of the named untwisted affine algebras (Kac, Table Aff 1).

The form, the translation lattice, marks and comarks are frozen in
``golden/untwisted_cartan.json``, written by the general derivation (the
form by inverting the pairing matrix and ``nu``, the lattice as the Hermite
normal form of the finite Weyl orbit of ``nu(theta∨)``) that Kac's closed
forms replaced.  Kac's Coxeter numbers are the reference for every name.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from affinewalks import algebra as al, weyl as wy
from affinewalks._linalg import det

# name: (h, h∨), Kac, Table Aff 1
KAC = {
    **{f"A{l}~": (l + 1, l + 1) for l in range(1, 7)},
    **{f"B{l}~": (2 * l, 2 * l - 1) for l in range(2, 6)},
    **{f"C{l}~": (2 * l, l + 1) for l in range(2, 6)},
    **{f"D{l}~": (2 * l - 2, 2 * l - 2) for l in range(4, 7)},
    "F4~": (12, 9),
    "G2~": (6, 4),
}

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "untwisted_cartan.json").read_text())


def _fractions(rows):
    return [[str(x) for x in row] for row in rows]


# highest roots in the node order of Kac's Table Aff 1
THETA = {"A": lambda l: (1,) * l,
         "B": lambda l: (1,) + (2,) * (l - 1),
         "C": lambda l: (2,) * (l - 1) + (1,),
         "D": lambda l: (1,) + (2,) * (l - 3) + (1, 1)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cartan_data_frozen(name):
    alg = al.algebra_from_name(name)
    want = GOLDEN[name]
    assert alg.cartan.entries == tuple(map(tuple, want["matrix"]))
    assert _fractions(alg.gram_hstar) == want["gram_hstar"]
    assert _fractions(alg.finite_gram) == [row[1:-1] for row in want["gram_hstar"][1:-1]]
    assert list(map(list, wy.lattice_basis(alg))) == want["lattice_basis"]
    assert list(alg.marks) == want["marks"]
    assert list(alg.comarks) == want["comarks"]
    assert (alg.coxeter, alg.dual_coxeter) == (want["coxeter"], want["dual_coxeter"])
    # the JSON loader builds the same algebra from the frozen matrix
    js = al.algebra_from_json({"rank": alg.rank, "matrix": want["matrix"]})
    assert (js, js.marks, js.comarks, js.gram_hstar) == \
        (alg, alg.marks, alg.comarks, alg.gram_hstar)


@pytest.mark.parametrize("name", sorted(KAC))
def test_coxeter_numbers_match_kac_table(name):
    alg = al.algebra_from_name(name)
    assert (alg.coxeter, alg.dual_coxeter) == KAC[name]
    if name[0] in THETA:
        assert alg.marks == (1,) + THETA[name[0]](alg.rank)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_finite_weyl_group_preserves_lattice(name):
    # every w maps each basis vector into the lattice, and its matrix on
    # lattice coordinates is unimodular, so w maps the lattice onto itself
    alg = al.algebra_from_name(name)
    basis = wy.lattice_basis(alg)
    for w in wy.finite_group(alg):
        images = [w.act_z(b) for b in basis]
        coords = [[Fraction(x[j], basis[j][j]) for j in range(alg.rank)]
                  for x in images]
        assert all(c.denominator == 1 for row in coords for c in row)
        assert abs(det(coords)) == 1
