"""Cartan data of the named untwisted affine algebras (Kac, Table Aff 1).

The form, the translation lattice, marks and comarks are frozen in
``golden/untwisted_cartan.json``, written by the general derivation (the
form by inverting the pairing matrix and ``nu``, the lattice as the Hermite
normal form of the finite Weyl orbit of ``nu(theta∨)``) that Kac's closed
forms replaced.  Kac's Coxeter numbers are the reference for every name.
"""

import json
import math
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


# |W| of the finite part: (l+1)! for A_l, 2^l l! for B_l and C_l, 2^(l-1) l!
# for D_l
WEYL_ORDER = {"A": lambda l: math.factorial(l + 1),
              "B": lambda l: 2 ** l * math.factorial(l),
              "C": lambda l: 2 ** l * math.factorial(l),
              "D": lambda l: 2 ** (l - 1) * math.factorial(l),
              "F": lambda l: 1152, "G": lambda l: 12}


@pytest.mark.parametrize("name", sorted(KAC))
def test_weyl_group_order_formula(name):
    # the closed form finite_group checks before enumerating, against the
    # textbook orders, and against the enumeration on the frozen names
    alg = al.algebra_from_name(name)
    order = wy._group_order(alg)
    assert order == WEYL_ORDER[name[0]](alg.rank)
    if name in GOLDEN:
        assert len(wy.finite_group(alg)) == order


@pytest.mark.parametrize("l, order", [(6, 51840), (7, 2903040), (8, 696729600)])
def test_weyl_group_order_of_e_types(affine_e, l, order):
    # E7 and E8 are past the cap: refused from the order, before any element
    alg = al.build_algebra(affine_e(l))
    assert wy._group_order(alg) == order
    if order > wy._GROUP_MAX:
        with pytest.raises(wy.WeylEnumerationError, match=str(order)):
            wy.finite_group(alg)


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
