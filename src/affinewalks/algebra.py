"""Cartan data of an affine Lie algebra, in exact rational arithmetic.

A weight lives in the dual of the extended Cartan subalgebra and is stored
in the coordinate system ``(Lambda0, alpha_1, ..., alpha_l, delta)``: every
weight decomposes uniquely as ``k*Lambda0 + z + b*delta`` with ``z`` in the
span of the finite simple roots.  The invariant bilinear form is assembled
once per algebra from the defining pairings on the coroot side and pushed
to the dual space; all of it stays in ``Fraction`` arithmetic so that the
reflection identities checked downstream hold exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    "registry_names",
    "inner_product",
    "pairing_coroot",
    "weyl_vector",
    "classify_weight",
]


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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

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

    def barbar(self) -> "Weight":
        """Projection onto the span of the finite simple roots."""
        return Weight(Fraction(0), self.z, Fraction(0))

    def is_zero(self) -> bool:
        return self.k == 0 and self.b == 0 and all(x == 0 for x in self.z)


@dataclass(frozen=True)
class WeightClassification:
    level: Fraction
    dominant: bool
    integral: bool


@dataclass(frozen=True, eq=False)
class AffineAlgebra:
    """Validated affine Cartan matrix with its derived invariant data.

    ``gram_hstar`` is the Gram matrix of the induced form on the dual space
    in the basis ``(Lambda0, alpha_1..alpha_l, delta)``; ``nu_matrix`` sends
    coroot-side coordinates ``(coroot_0..coroot_l, d)`` to that basis.

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
    nu_matrix: _linalg.Mat
    name: str | None = None

    def __eq__(self, other):
        return (isinstance(other, AffineAlgebra)
                and self.cartan.entries == other.cartan.entries)

    def __hash__(self):
        return hash(self.cartan.entries)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def finite_gram(self) -> _linalg.Mat:
        l = self.rank
        return tuple(tuple(self.gram_hstar[i][j] for j in range(1, l + 1))
                     for i in range(1, l + 1))

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

    def weight_from_finite(self, k, zvec, b=0) -> Weight:
        return Weight.make(k, zvec, b)

    # -- exact numeric helpers -------------------------------------------------

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


def _highest_root(matrix: AffineCartanMatrix) -> tuple[int, ...]:
    """Root coordinates of the highest root of the finite part (nodes 1..l).

    Reflecting a simple root up to the dominant chamber gives the dominant
    root of its Weyl orbit; the highest root is the tallest of these.
    """
    a, l = matrix.entries, matrix.rank
    best: list[int] = []
    for s in range(l):
        beta = [int(j == s) for j in range(l)]
        while True:
            pairings = [sum(a[i + 1][j + 1] * beta[j] for j in range(l))
                        for i in range(l)]
            i = next((i for i, p in enumerate(pairings) if p < 0), None)
            if i is None:
                break
            beta[i] -= pairings[i]
        if sum(beta) > sum(best):
            best = beta
    return tuple(best)


def build_algebra(matrix: AffineCartanMatrix, name: str | None = None) -> AffineAlgebra:
    """Assemble marks, comarks, Coxeter numbers and the bilinear form.

    The form on the Cartan side is fixed by the pairings
    ``(coroot_i | coroot_j) = (a_j / a∨_j) a_ij``, ``(coroot_i | d) = a_0 δ_{i0}``
    and ``(d | d) = 0``; it is pushed to the dual space through the
    isomorphism ``nu``.  Matrices whose integer null space is not spanned by
    a single strictly positive vector are rejected, and so are twisted types:
    the matrix must be untwisted with node 0 the affine node, i.e.
    ``a_0 = 1`` and ``marks[1:]`` the highest root of the finite part.
    """
    if not isinstance(matrix, AffineCartanMatrix):
        matrix = AffineCartanMatrix(tuple(tuple(int(x) for x in row) for row in matrix))
    marks = _null_marks(matrix)
    if marks[0] != 1 or marks[1:] != _highest_root(matrix):
        raise NotAffineError(
            f"twisted affine types are not supported: marks {marks} are not "
            "a_0 = 1 followed by the highest root of the finite part")
    comarks = _null_marks(matrix.transpose())
    l = matrix.rank
    a = matrix.entries

    # Gram matrix on the Cartan side, basis (coroot_0..coroot_l, d).
    n = l + 2
    bh = [[Fraction(0)] * n for _ in range(n)]
    for i in range(l + 1):
        for j in range(l + 1):
            bh[i][j] = Fraction(marks[j], comarks[j]) * a[i][j]
    bh[0][l + 1] = bh[l + 1][0] = Fraction(marks[0])
    for i in range(l + 1):
        for j in range(l + 1):
            if bh[i][j] != bh[j][i]:
                raise NotAffineError("not affine: defining form is not symmetric")

    # Pairing matrix P[row: dual basis][col: Cartan basis].
    p = [[Fraction(0)] * n for _ in range(n)]
    for i in range(l + 1):
        p[0][i] = Fraction(1 if i == 0 else 0)       # Lambda0(coroot_i)
        for j in range(1, l + 1):
            p[j][i] = Fraction(a[i][j])              # alpha_j(coroot_i)
    p[l + 1][l + 1] = Fraction(marks[0])             # delta(d) = a_0

    p = tuple(tuple(row) for row in p)
    bh = tuple(tuple(row) for row in bh)
    p_inv_t = _linalg.transpose(_linalg.invert(p))
    nu = _linalg.mat_mul(p_inv_t, bh)                # columns: nu(basis of h)
    gram = _linalg.mat_mul(p, _linalg.invert(nu))    # induced form on h*

    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise NotAffineError("induced form failed symmetry check")

    alg = AffineAlgebra(
        cartan=matrix,
        marks=marks,
        comarks=comarks,
        coxeter=sum(marks),
        dual_coxeter=sum(comarks),
        gram_hstar=gram,
        nu_matrix=nu,
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
        if _det(sub) <= 0:
            raise NotAffineError("finite Gram block is not positive definite")


def _det(m) -> Fraction:
    m = [list(row) for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv_p = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv_p
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


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


@lru_cache(maxsize=None)
def weyl_vector(alg: AffineAlgebra) -> Weight:
    """The weight with all coroot pairings 1, level h∨, and no delta part."""
    l = alg.rank
    finite = tuple(tuple(Fraction(alg.cartan.entries[i][j])
                         for j in range(1, l + 1)) for i in range(1, l + 1))
    zbar = _linalg.solve(finite, [1] * l)
    rho = Weight.make(alg.dual_coxeter, zbar, 0)
    for i in range(l + 1):
        if pairing_coroot(alg, rho, i) != 1:
            raise AssertionError("Weyl vector pairing check failed")
    return rho


def classify_weight(alg: AffineAlgebra, lam: Weight) -> WeightClassification:
    pairings = [pairing_coroot(alg, lam, i) for i in range(alg.rank + 1)]
    integral = all(p.denominator == 1 for p in pairings)
    dominant = integral and all(p >= 0 for p in pairings)
    return WeightClassification(
        level=inner_product(alg, alg.delta(), lam),
        dominant=dominant,
        integral=integral,
    )


# -- registry and JSON loading ---------------------------------------------------

_NAME_RE = re.compile(r"^A(\d+)~$")


def registry_names(max_rank: int = 8) -> list[str]:
    return [f"A{n}~" for n in range(1, max_rank + 1)]


@lru_cache(maxsize=None)
def algebra_from_name(name: str) -> AffineAlgebra:
    """Built-in untwisted type A registry: ``A1~``, ``A2~``, ..."""
    m = _NAME_RE.match(name)
    if not m:
        raise KeyError(f"unknown algebra name {name!r}; expected 'A<n>~'")
    n = int(m.group(1))
    size = n + 1
    if n == 1:
        rows = ((2, -2), (-2, 2))
    else:
        rows = tuple(
            tuple(2 if i == j else (-1 if (i - j) % size in (1, size - 1) else 0)
                  for j in range(size))
            for i in range(size)
        )
    return build_algebra(AffineCartanMatrix(rows), name=name)


def algebra_from_json(text_or_obj) -> AffineAlgebra:
    """Load ``{"rank": l, "matrix": [[...]]}`` from a JSON string or dict."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    matrix = AffineCartanMatrix(tuple(tuple(int(x) for x in row)
                                      for row in obj["matrix"]))
    if matrix.rank != int(obj["rank"]):
        raise ValueError("declared rank does not match matrix size")
    return build_algebra(matrix, name=obj.get("name"))
