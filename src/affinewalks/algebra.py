"""Cartan data of an affine Lie algebra, in exact rational arithmetic.

A weight lives in the dual of the extended Cartan subalgebra and is stored
in the coordinate system ``(Lambda0, alpha_1, ..., alpha_l, delta)``: every
weight decomposes uniquely as ``k*Lambda0 + z + b*delta`` with ``z`` in the
span of the finite simple roots.  The normalized invariant form is written
once per algebra from Kac's closed form in the marks and comarks; it stays
in ``Fraction`` arithmetic so that the reflection identities checked
downstream hold exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import _linalg

__all__ = [
    "NotAffineError",
    "AffineCartanMatrix",
    "Weight",
    "AffineAlgebra",
    "WeightClassification",
    "build_algebra",
    "algebra_from_name",
    "algebra_from_json",
    "inner_product",
    "pair_delta",
    "pairing_coroot",
    "weyl_vector",
    "classify_weight",
]

# caches keyed by an algebra keep this many algebras; the test suite
# builds only a few
_ALGEBRAS_MAX = 32


class NotAffineError(ValueError):
    """The input matrix is not a generalized Cartan matrix of affine type."""


@dataclass(frozen=True)
class AffineCartanMatrix:
    """Generalized Cartan matrix ``a[i][j] = alpha_j(coroot_i)``, 0 <= i,j <= l."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1 or any(len(row) != n for row in self.entries):
            raise NotAffineError("matrix must be square and nonempty")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise NotAffineError("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] > 0:
                        raise NotAffineError("off-diagonal entries must be <= 0")
                    if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                        raise NotAffineError("zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.entries) - 1

    def transpose(self) -> "AffineCartanMatrix":
        return AffineCartanMatrix(tuple(zip(*self.entries)))


@dataclass(frozen=True)
class Weight:
    """Element ``k*Lambda0 + sum_i z_i alpha_i + b*delta`` with rational coords."""

    k: Fraction
    z: tuple[Fraction, ...]
    b: Fraction

    @staticmethod
    def make(k, z, b) -> "Weight":
        return Weight(Fraction(k), tuple(Fraction(x) for x in z), Fraction(b))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.k + other.k,
                      tuple(a + b for a, b in zip(self.z, other.z)),
                      self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.k - other.k,
                      tuple(a - b for a, b in zip(self.z, other.z)),
                      self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.k, tuple(-a for a in self.z), -self.b)

    def scale(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(self.k * c, tuple(a * c for a in self.z), self.b * c)

    __rmul__ = scale
    __mul__ = scale

    def bar(self) -> "Weight":
        """Projection killing the delta component."""
        return Weight(self.k, self.z, Fraction(0))


@dataclass(frozen=True)
class WeightClassification:
    level: Fraction
    dominant: bool
    integral: bool


@dataclass(frozen=True, eq=False)
class AffineAlgebra:
    """Validated affine Cartan matrix with its derived invariant data.

    ``gram_hstar`` is the Gram matrix of the normalized invariant form on
    the dual space in the basis ``(Lambda0, alpha_1..alpha_l, delta)``.

    Identity is decided by the Cartan matrix alone (everything else is
    derived deterministically); hashing the full rational Gram data on
    every cache lookup would dominate hot paths.
    """

    cartan: AffineCartanMatrix
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    coxeter: int
    dual_coxeter: int
    gram_hstar: _linalg.Mat
    name: str | None = None

    def __eq__(self, other):
        return (isinstance(other, AffineAlgebra)
                and self.cartan.entries == other.cartan.entries)

    def __hash__(self):
        return hash(self.cartan.entries)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def finite_gram(self) -> _linalg.Mat:
        l = self.rank
        return tuple(tuple(self.gram_hstar[i][j] for j in range(1, l + 1))
                     for i in range(1, l + 1))

    @cached_property
    def finite_gram_int(self) -> tuple[np.ndarray, int]:
        """``(gn, gd)`` with ``finite_gram == gn / gd`` and ``gn`` integer."""
        return _linalg.int_scaled(self.finite_gram)

    @cached_property
    def _finite_cartan_inverse(self) -> _linalg.Mat:
        l = self.rank
        return _linalg.invert(tuple(tuple(Fraction(self.cartan.entries[i][j])
                                          for j in range(1, l + 1))
                                    for i in range(1, l + 1)))

    # -- distinguished weights ------------------------------------------------

    def zero(self) -> Weight:
        return Weight.make(0, (0,) * self.rank, 0)

    def Lambda0(self) -> Weight:
        return Weight.make(1, (0,) * self.rank, 0)

    def delta(self) -> Weight:
        return Weight.make(0, (0,) * self.rank, 1)

    def alpha(self, i: int) -> Weight:
        """Simple root alpha_i; alpha_0 is expressed through delta."""
        l = self.rank
        if not 0 <= i <= l:
            raise IndexError(f"simple root index {i} out of range 0..{l}")
        if i >= 1:
            z = [Fraction(0)] * l
            z[i - 1] = Fraction(1)
            return Weight.make(0, z, 0)
        a0 = self.marks[0]
        z = [Fraction(-self.marks[j], a0) for j in range(1, l + 1)]
        return Weight.make(0, z, Fraction(1, a0))

    # -- exact numeric helpers -------------------------------------------------

    def finite_covector(self, z) -> tuple[Fraction, ...]:
        """``G z`` for the finite Gram matrix ``G``, so that
        ``finite_inner(m, z) == sum(m_i * (G z)_i)``: contract a fixed
        point once, then pair it with many offsets."""
        g = self.finite_gram
        return tuple(sum(g[i][j] * z[j] for j in range(self.rank))
                     for i in range(self.rank))

    def finite_inner(self, z1, z2) -> Fraction:
        g = self.finite_gram
        return sum(z1[i] * sum(g[i][j] * z2[j] for j in range(self.rank))
                   for i in range(self.rank))

    def finite_norm2(self, z) -> Fraction:
        return self.finite_inner(z, z)


def _null_marks(matrix: AffineCartanMatrix) -> tuple[int, ...]:
    basis = _linalg.nullspace(matrix.entries)
    if len(basis) != 1:
        raise NotAffineError(
            f"not affine: null space has dimension {len(basis)}, expected 1")
    vec = _linalg.primitive_integer_vector(basis[0])
    if any(x <= 0 for x in vec):
        raise NotAffineError("not affine: null vector is not strictly positive")
    return vec


def _highest_root(finite, short=False) -> tuple[int, ...]:
    """Root coordinates of the highest root of a finite Cartan matrix (with
    ``short``, of the highest short root).

    Reflecting a simple root up to the dominant chamber gives the dominant
    root of its Weyl orbit; the highest root is the tallest of these.
    """
    l = len(finite)
    roots = []
    for s in range(l):
        beta = [int(j == s) for j in range(l)]
        while True:
            pairings = [sum(a * b for a, b in zip(row, beta)) for row in finite]
            i = next((i for i, p in enumerate(pairings) if p < 0), None)
            if i is None:
                break
            beta[i] -= pairings[i]
        roots.append(tuple(beta))
    return (min if short else max)(roots, key=sum)


def build_algebra(matrix: AffineCartanMatrix, name: str | None = None) -> AffineAlgebra:
    """Assemble marks, comarks, Coxeter numbers and the bilinear form.

    The normalized invariant form is Kac's closed form (*Infinite-dimensional
    Lie algebras*, section 6.2): ``(alpha_i | alpha_j) = (a∨_i / a_i) a_ij``
    and ``(Lambda0 | delta) = 1 / a_0``; every other pairing of the basis
    ``(Lambda0, alpha_1..alpha_l, delta)`` is zero.  Matrices whose integer
    null space is not spanned by a single strictly positive vector are
    rejected, and so are twisted types: the matrix must be untwisted with
    node 0 the affine node, i.e. ``a_0 = 1`` and ``marks[1:]`` the highest
    root of the finite part.
    """
    if not isinstance(matrix, AffineCartanMatrix):
        matrix = AffineCartanMatrix(tuple(tuple(int(x) for x in row) for row in matrix))
    marks = _null_marks(matrix)
    if marks[0] != 1 or marks[1:] != _highest_root([r[1:] for r in matrix.entries[1:]]):
        raise NotAffineError(
            f"twisted affine types are not supported: marks {marks} are not "
            "a_0 = 1 followed by the highest root of the finite part")
    comarks = _null_marks(matrix.transpose())
    l = matrix.rank
    a = matrix.entries

    # (alpha_i | alpha_j) = (a∨_i / a_i) a_ij over all nodes
    form = [[Fraction(comarks[i], marks[i]) * a[i][j] for j in range(l + 1)]
            for i in range(l + 1)]
    for i in range(l + 1):
        for j in range(l + 1):
            if form[i][j] != form[j][i]:
                raise NotAffineError("not affine: defining form is not symmetric")

    # basis (Lambda0, alpha_1..alpha_l, delta): the finite block of the form,
    # (Lambda0 | delta) = 1 / a_0 and zero elsewhere
    gram = [[Fraction(0)] * (l + 2) for _ in range(l + 2)]
    for i in range(1, l + 1):
        gram[i][1:l + 1] = form[i][1:]
    gram[0][l + 1] = gram[l + 1][0] = Fraction(1, marks[0])
    gram = tuple(map(tuple, gram))

    alg = AffineAlgebra(
        cartan=matrix,
        marks=marks,
        comarks=comarks,
        coxeter=sum(marks),
        dual_coxeter=sum(comarks),
        gram_hstar=gram,
        name=name,
    )
    _check_form(alg)
    return alg


def _check_form(alg: AffineAlgebra) -> None:
    l = alg.rank
    delta = alg.delta()
    for i in range(l + 1):
        if inner_product(alg, delta, alg.alpha(i)) != 0:
            raise NotAffineError("(delta | alpha_i) != 0")
    if inner_product(alg, delta, delta) != 0:
        raise NotAffineError("(delta | delta) != 0")
    if inner_product(alg, delta, alg.Lambda0()) != Fraction(alg.comarks[0]):
        raise NotAffineError("(delta | Lambda0) != comark_0")
    # finite block positive definite: leading principal minors
    g = [list(row) for row in alg.finite_gram]
    for m in range(1, l + 1):
        sub = tuple(tuple(g[i][j] for j in range(m)) for i in range(m))
        if _linalg.det(sub) <= 0:
            raise NotAffineError("finite Gram block is not positive definite")


# -- form and pairings ---------------------------------------------------------


def _coords(w: Weight) -> tuple[Fraction, ...]:
    return (w.k,) + w.z + (w.b,)


def inner_product(alg: AffineAlgebra, lam: Weight, mu: Weight) -> Fraction:
    """Invariant form on the dual space, exact in rational arithmetic."""
    if len(lam.z) != alg.rank or len(mu.z) != alg.rank:
        raise ValueError("weight dimension does not match algebra rank")
    x, y, g = _coords(lam), _coords(mu), alg.gram_hstar
    return sum(x[i] * sum(g[i][j] * y[j] for j in range(len(y)))
               for i in range(len(x)))


def pair_delta(alg: AffineAlgebra, lam: Weight) -> Fraction:
    """``(delta | lam)``, read off the delta row of ``gram_hstar``: the
    level of ``lam`` without the full form."""
    if len(lam.z) != alg.rank:
        raise ValueError("weight dimension does not match algebra rank")
    return sum((g * x for g, x in zip(alg.gram_hstar[-1], _coords(lam)) if g),
               Fraction(0))


def pairing_coroot(alg: AffineAlgebra, lam: Weight, i: int) -> Fraction:
    """Evaluation ``lam(coroot_i)`` for 0 <= i <= rank."""
    l = alg.rank
    if not 0 <= i <= l:
        raise IndexError(f"coroot index {i} out of range 0..{l}")
    if len(lam.z) != l:
        raise ValueError("weight dimension does not match algebra rank")
    a = alg.cartan.entries
    val = lam.k if i == 0 else Fraction(0)
    for j in range(1, l + 1):
        val += lam.z[j - 1] * a[i][j]
    return val


def weight_from_pairings(alg: AffineAlgebra, pairings) -> Weight:
    """Weight with the given coroot pairings (q_0..q_l) and no delta part."""
    vals = [Fraction(str(x)) for x in pairings]
    if len(vals) != alg.rank + 1:
        raise ValueError(f"need {alg.rank + 1} pairings")
    level = sum(Fraction(alg.comarks[i]) * vals[i] for i in range(alg.rank + 1))
    z = _linalg.mat_vec(alg._finite_cartan_inverse, vals[1:])
    return Weight.make(level, z, 0)


@lru_cache(maxsize=_ALGEBRAS_MAX)
def weyl_vector(alg: AffineAlgebra) -> Weight:
    """The weight with all coroot pairings 1, level h∨, and no delta part."""
    l = alg.rank
    rho = weight_from_pairings(alg, [1] * (l + 1))
    for i in range(l + 1):
        if pairing_coroot(alg, rho, i) != 1:
            raise AssertionError("Weyl vector pairing check failed")
    return rho


def classify_weight(alg: AffineAlgebra, lam: Weight) -> WeightClassification:
    pairings = [pairing_coroot(alg, lam, i) for i in range(alg.rank + 1)]
    integral = all(p.denominator == 1 for p in pairings)
    dominant = integral and all(p >= 0 for p in pairings)
    return WeightClassification(
        level=pair_delta(alg, lam),
        dominant=dominant,
        integral=integral,
    )


# -- registry and JSON loading ---------------------------------------------------

# family: (smallest rank, largest rank, the entries ``(i, j, a_ij)`` of its
# finite Cartan matrix that differ from a path's), in the node order of
# Kac's Table Aff 1; E6-E8 are not built
_FAMILIES = {
    "A": (1, math.inf, lambda l: []),
    "B": (2, math.inf, lambda l: [(l - 1, l - 2, -2)]),
    "C": (2, math.inf, lambda l: [(l - 2, l - 1, -2)]),
    "D": (4, math.inf, lambda l: [(l - 1, l - 2, 0), (l - 2, l - 1, 0),
                                  (l - 1, l - 3, -1), (l - 3, l - 1, -1)]),
    "F": (4, 4, lambda l: [(2, 1, -2)]),
    "G": (2, 2, lambda l: [(1, 0, -3)]),
}


@lru_cache(maxsize=_ALGEBRAS_MAX)
def algebra_from_name(name: str) -> AffineAlgebra:
    """The untwisted affine algebra ``X<l>~`` of Kac's Table Aff 1, for the
    families and ranks of ``_FAMILIES``."""
    m = re.fullmatch(r"([A-Z])([1-9][0-9]*)~", name)
    family, l = (m[1], int(m[2])) if m else ("", 0)
    low, high, bonds = _FAMILIES.get(family, (1, 0, None))
    if not low <= l <= high:
        names = ", ".join(f"{f}<l>~ (l >= {lo})" if hi == math.inf else f"{f}{lo}~"
                          for f, (lo, hi, _) in _FAMILIES.items())
        raise KeyError(f"unknown algebra name {name!r}; expected one of {names}")
    finite = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(l)]
              for i in range(l)]
    for i, j, a in bonds(l):
        finite[i][j] = a
    # node 0 is alpha_0 = delta - theta: a_i0 = -theta(coroot_i) and a_0j =
    # -alpha_j(theta∨), where theta∨ is the highest short root of the
    # coroots, whose Cartan matrix is the transpose
    theta = _highest_root(finite)
    coroot = _highest_root(list(zip(*finite)), short=True)
    top = (2,) + tuple(-sum(a * c for a, c in zip(col, coroot)) for col in zip(*finite))
    rows = ((-sum(a * t for a, t in zip(row, theta)), *row) for row in finite)
    return build_algebra(AffineCartanMatrix((top, *rows)), name=name)


def algebra_from_json(text_or_obj) -> AffineAlgebra:
    """Load ``{"rank": l, "matrix": [[...]]}`` from a JSON string or dict."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    matrix = AffineCartanMatrix(tuple(tuple(int(x) for x in row)
                                      for row in obj["matrix"]))
    if matrix.rank != int(obj["rank"]):
        raise ValueError("declared rank does not match matrix size")
    return build_algebra(matrix, name=obj.get("name"))
