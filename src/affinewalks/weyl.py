"""The affine Weyl group as the semidirect product of translations and the
finite Weyl group.

Elements are kept in translation-first normal form ``t_alpha * w`` with
``alpha`` an integer vector in a fixed basis of the translation lattice and
``w`` a finite Weyl element acting on the finite coordinates.  Composition
uses the semidirect rule, so no reduced-word machinery is needed beyond the
breadth-first enumeration of the finite group.

Alternating sums over the group (theta functions, Weyl-orbit sums and
reflected densities) are cut off by translation norm.
:func:`certified_terms` owns that cutoff: one radius policy, the certified
Gaussian shell bound for everything beyond it, and the stacked term arrays
in a bounded cache.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _linalg
from .algebra import _ALGEBRAS_MAX, AffineAlgebra, Weight, pairing_coroot

__all__ = [
    "FiniteWeylElement",
    "AffineWeylElement",
    "finite_group",
    "reflect",
    "finite_apply",
    "lattice_basis",
    "translate",
    "apply",
    "compose",
    "enumerate_bounded",
    "translation_vectors",
    "dominant_representative",
    "WeylEnumerationError",
    "ConvergenceError",
    "WeylTerms",
    "weyl_terms",
    "orbit_offsets",
    "gaussian_lattice_tail",
    "certified_terms",
]


class WeylEnumerationError(RuntimeError):
    """Finite Weyl group larger than the configured enumeration cap."""


class ConvergenceError(RuntimeError):
    """Requested accuracy not reachable within the depth/radius caps."""


@dataclass(frozen=True)
class FiniteWeylElement:
    """Finite Weyl group element as an integer matrix on root coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    word: tuple[int, ...]
    sign: int

    def act_z(self, z):
        return tuple(sum(row[j] * z[j] for j in range(len(z))) for row in self.matrix)


@dataclass(frozen=True)
class AffineWeylElement:
    """Normal form ``t_alpha * w``; ``trans`` holds lattice-basis coordinates."""

    trans: tuple[int, ...]
    finite: FiniteWeylElement

    @property
    def sign(self) -> int:
        return self.finite.sign

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.trans) and not self.finite.word

    def to_json(self) -> str:
        return json.dumps({"alpha": list(self.trans), "word": list(self.finite.word)})


def _simple_matrix(alg: AffineAlgebra, i: int) -> tuple[tuple[int, ...], ...]:
    l = alg.rank
    a = alg.cartan.entries
    rows = []
    for r in range(1, l + 1):
        row = [1 if r == c else 0 for c in range(1, l + 1)]
        if r == i:
            for c in range(1, l + 1):
                row[c - 1] -= a[i][c]
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=_ALGEBRAS_MAX)
def finite_group(alg: AffineAlgebra, cap: int = 10**6) -> tuple[FiniteWeylElement, ...]:
    """Breadth-first closure of the finite Weyl group under the generators."""
    l = alg.rank
    ident = FiniteWeylElement(
        matrix=tuple(tuple(1 if i == j else 0 for j in range(l)) for i in range(l)),
        word=(), sign=1)
    gens = {i: _simple_matrix(alg, i) for i in range(1, l + 1)}
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i, g in gens.items():
                prod = tuple(
                    tuple(sum(w.matrix[r][m] * g[m][c] for m in range(l))
                          for c in range(l))
                    for r in range(l))
                if prod not in seen:
                    elem = FiniteWeylElement(prod, w.word + (i,), -w.sign)
                    seen[prod] = elem
                    nxt.append(elem)
                    if len(seen) > cap:
                        raise WeylEnumerationError(
                            f"finite Weyl group exceeds cap {cap}")
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda e: (len(e.word), e.word)))


def reflect(alg: AffineAlgebra, i: int, lam: Weight) -> Weight:
    """Fundamental reflection ``s_i(x) = x - x(coroot_i) * alpha_i``."""
    return lam - pairing_coroot(alg, lam, i) * alg.alpha(i)


def finite_apply(alg: AffineAlgebra, w: FiniteWeylElement, lam: Weight) -> Weight:
    """Finite Weyl action: rotates the finite coordinates, fixes k and b."""
    return Weight(lam.k, tuple(Fraction(x) for x in w.act_z(lam.z)), lam.b)


@lru_cache(maxsize=_ALGEBRAS_MAX)
def lattice_basis(alg: AffineAlgebra) -> tuple[tuple[int, ...], ...]:
    """Z-basis (in root coordinates) of the translation lattice.

    The lattice is generated by the finite-Weyl orbit of the image of
    ``theta∨ = sum_{i>=1} a∨_i coroot_i`` under ``nu``; the Hermite normal
    form of the orbit is returned, so the basis is canonical.
    """
    l = alg.rank
    nu = alg.nu_matrix
    # nu(theta∨) in dual coordinates (Lambda0, alpha_1.., delta)
    coords = [sum(Fraction(alg.comarks[i]) * nu[r][i] for i in range(1, l + 1))
              for r in range(l + 2)]
    if coords[0] != 0 or coords[l + 1] != 0:
        raise AssertionError("nu(theta∨) must be a finite vector")
    theta = coords[1:l + 1]
    orbit = set()
    for w in finite_group(alg):
        vec = w.act_z(theta)
        if any(x.denominator != 1 for x in map(Fraction, vec)):
            raise AssertionError("orbit of nu(theta∨) left the root lattice")
        orbit.add(tuple(int(x) for x in vec))
    hnf = _linalg.hermite_normal_form(sorted(orbit))
    if len(hnf) != l:
        raise AssertionError("translation lattice is not full rank")
    return tuple(hnf)


def translate(alg: AffineAlgebra, alpha_z, lam: Weight) -> Weight:
    """Translation ``t_alpha``:

    ``t_alpha(x) = x + x(K) alpha - ((x|alpha) + (alpha|alpha) x(K)/2) delta``.
    ``alpha_z`` is given in root coordinates and must be a finite vector.
    """
    alpha_z = tuple(Fraction(x) for x in alpha_z)
    if len(alpha_z) != alg.rank:
        raise ValueError("translation vector must live in the finite span")
    level = lam.k  # x(K) equals the Lambda0 coefficient for comark_0 = 1
    pair = alg.finite_inner(lam.z, alpha_z)
    halfnorm = alg.finite_norm2(alpha_z) / 2
    return Weight(
        lam.k,
        tuple(a + level * b for a, b in zip(lam.z, alpha_z)),
        lam.b - (pair + halfnorm * level),
    )


def _trans_to_z(alg: AffineAlgebra, coeffs) -> tuple[Fraction, ...]:
    basis = lattice_basis(alg)
    return tuple(
        Fraction(sum(coeffs[i] * basis[i][j] for i in range(alg.rank)))
        for j in range(alg.rank))


def apply(alg: AffineAlgebra, w: AffineWeylElement, lam: Weight) -> Weight:
    """Apply ``t_alpha * w`` to a weight (finite part first, then translate)."""
    return translate(alg, _trans_to_z(alg, w.trans), finite_apply(alg, w.finite, lam))


# one matrix per finite Weyl element, for any of the cached algebras
_ELEMENT_MATRICES_MAX = 4096


@lru_cache(maxsize=_ELEMENT_MATRICES_MAX)
def _finite_on_lattice(alg: AffineAlgebra, w: FiniteWeylElement) -> tuple[tuple[int, ...], ...]:
    """Matrix of w on lattice-basis coordinates (integer; the lattice is stable)."""
    basis = lattice_basis(alg)
    bmat = _linalg.as_fraction_matrix(list(zip(*basis)))  # columns = basis vectors
    binv = _linalg.invert(bmat)
    wmat = _linalg.as_fraction_matrix(w.matrix)
    m = _linalg.mat_mul(binv, _linalg.mat_mul(wmat, bmat))
    for row in m:
        for x in row:
            if x.denominator != 1:
                raise AssertionError("finite Weyl element does not preserve lattice")
    return tuple(tuple(int(x) for x in row) for row in m)


def compose(alg: AffineAlgebra, w1: AffineWeylElement, w2: AffineWeylElement) -> AffineWeylElement:
    """Semidirect product rule: ``(t_a u)(t_b v) = t_{a + u(b)} (u v)``."""
    m = _finite_on_lattice(alg, w1.finite)
    moved = tuple(sum(m[r][c] * w2.trans[c] for c in range(alg.rank))
                  for r in range(alg.rank))
    trans = tuple(a + b for a, b in zip(w1.trans, moved))
    l = alg.rank
    prod = tuple(
        tuple(sum(w1.finite.matrix[r][k] * w2.finite.matrix[k][c] for k in range(l))
              for c in range(l)) for r in range(l))
    finite = FiniteWeylElement(prod, w1.finite.word + w2.finite.word,
                               w1.finite.sign * w2.finite.sign)
    return AffineWeylElement(trans, finite)


@lru_cache(maxsize=_ALGEBRAS_MAX)
def _lattice_gram(alg: AffineAlgebra) -> _linalg.Mat:
    basis = lattice_basis(alg)
    l = alg.rank
    return tuple(
        tuple(alg.finite_inner([Fraction(x) for x in basis[i]],
                               [Fraction(x) for x in basis[j]])
              for j in range(l)) for i in range(l))


def translation_vectors(alg: AffineAlgebra, radius,
                        gram: _linalg.Mat | None = None) -> list[tuple[int, ...]]:
    """All lattice points with norm at most ``radius``, in deterministic order.

    The lattice is the translation lattice, or the one whose basis has the
    exact Gram matrix ``gram``.  Box-then-filter: coefficient bounds come
    from the inverse Gram diagonal, membership is decided by the exact
    quadratic form.
    """
    r2 = Fraction(radius) ** 2
    gram = _lattice_gram(alg) if gram is None else gram
    ginv = _linalg.invert(gram)
    gd = math.lcm(*(x.denominator for row in gram for x in row))
    gn = np.array([[int(x * gd) for x in row] for row in gram], dtype=np.int64)
    bounds = [math.isqrt(int(r2 * ginv[i][i])) + 1 if r2 * ginv[i][i] > 0 else 0
              for i in range(len(gram))]
    # the box in lexicographic order; |c|^2 <= r2 iff c.gn.c <= floor(r2 gd)
    box = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in bounds],
                               indexing="ij"), -1).reshape(-1, len(gram))
    q = ((box @ gn) * box).sum(axis=1)
    keep = q <= math.floor(r2 * gd)
    box, q = box[keep], q[keep]
    # sorted by norm, then by coefficients
    return list(map(tuple, box[np.lexsort((*box.T[::-1], q))].tolist()))


def enumerate_bounded(alg: AffineAlgebra, radius):
    """Yield every ``t_alpha * w`` with ``|alpha| <= radius``, each exactly once."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    group = finite_group(alg)
    for coeffs in translation_vectors(alg, radius):
        for w in group:
            yield AffineWeylElement(coeffs, w)


# -- certified Weyl sums ------------------------------------------------------------

# translation radius past which a certified Weyl sum gives up
_MAX_RADIUS = 500.0
# least recently used term arrays are evicted beyond this many radii; the
# full test suite, branching included, holds at most 43 at once (radius at
# most 234), so nothing there evicts
_TERMS_MAX = 64


@dataclass(frozen=True)
class WeylTerms:
    """Every ``t_alpha w`` with ``|alpha| <= radius``, stacked in
    ``translation_vectors`` x ``finite_group`` order (the identity first in
    each block of ``len(finite_group)`` terms).

    ``sign`` is det(w), ``matrix`` the finite part on root coordinates,
    ``trans`` the translation ``alpha`` in root coordinates (all integer)
    and ``norm2`` the float ``|alpha|^2``.
    """

    sign: np.ndarray
    matrix: np.ndarray
    trans: np.ndarray
    norm2: np.ndarray


@lru_cache(maxsize=_TERMS_MAX)
def weyl_terms(alg: AffineAlgebra, radius: int) -> WeylTerms:
    """Stacked terms with translation norm at most the integer ``radius``;
    a smaller radius gives a prefix of a larger one."""
    group = finite_group(alg)
    l, n_w = alg.rank, len(group)
    zs = [tuple(int(x) for x in _trans_to_z(alg, c))
          for c in translation_vectors(alg, radius)]
    return WeylTerms(
        sign=np.tile([w.sign for w in group], len(zs)),
        matrix=np.tile(np.array([w.matrix for w in group], dtype=np.int64),
                       (len(zs), 1, 1)),
        trans=np.repeat(np.array(zs, dtype=np.int64).reshape(-1, l), n_w,
                        axis=0),
        norm2=np.repeat([float(alg.finite_norm2(z)) for z in zs], n_w))


def orbit_offsets(alg: AffineAlgebra, terms: WeylTerms, k: int, zq: np.ndarray,
                  q: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(m, d)`` with ``mu_i - w_t(mu_i) = m[i, t] + d[i, t] delta``
    (``m`` in root coordinates) for a stack of integral weights ``mu_i`` at
    level ``k`` and every term ``w_t``; row ``i`` of ``zq`` is ``q`` times the
    root coordinates ``z`` of ``mu_i``.  For ``w = t_alpha w0``,
    ``m = z - w0(z) - k alpha``, and ``(w(mu)|w(mu)) = (mu|mu)`` fixes
    ``d = (|m|^2 - 2(z|m)) / 2k``."""
    gn, gd = alg.finite_gram_int
    num = zq[:, None, :] - np.einsum("tij,nj->nti", terms.matrix, zq)
    if (num % q).any():
        raise AssertionError("orbit offset left the root lattice")
    m = num // q - k * terms.trans
    mg = m @ gn
    dnum = q * (mg * m).sum(axis=2) - 2 * (mg * zq[:, None, :]).sum(axis=2)
    if (dnum % (2 * k * q * gd)).any():           # dnum = 2k q gd d
        raise AssertionError("orbit offset has a fractional delta coefficient")
    return m, dnum // (2 * k * q * gd)


@lru_cache(maxsize=_ALGEBRAS_MAX)
def _lattice_geometry(alg: AffineAlgebra,
                      gram: _linalg.Mat | None = None) -> tuple[float, float, float]:
    """Covolume, half the sum of the basis norms, volume of the unit ball,
    for the translation lattice or the one with Gram matrix ``gram``."""
    gram = _lattice_gram(alg) if gram is None else gram
    l = len(gram)
    covol = math.sqrt(float(_linalg.det(gram)))
    rho_f = 0.5 * sum(math.sqrt(float(gram[i][i])) for i in range(l))
    ball_vol = math.pi ** (l / 2) / math.gamma(l / 2 + 1)
    return covol, rho_f, ball_vol


def gaussian_lattice_tail(alg: AffineAlgebra, a: float, b: float, start: float,
                          gram: _linalg.Mat | None = None) -> float:
    """Upper bound on ``sum_{alpha in M, |alpha - v| >= start}
    exp(-a|alpha - v|^2 + b|alpha - v|)`` for any centre ``v``.

    ``M`` is the translation lattice, or the one whose basis has the exact
    Gram matrix ``gram``.  Shells ``[j, j+1)`` are counted by a volume bound
    (each point's cell, centred on it, lies within half the sum of the
    basis norms, whatever the centre) and each point is dominated by the
    shell's left endpoint, valid once the integrand is decreasing there.
    Returns ``inf`` when ``start`` is too small for the bound to apply.
    """
    if a <= 0:
        return math.inf
    covol, rho_f, ball_vol = _lattice_geometry(alg, gram)
    l = alg.rank
    j = max(int(math.floor(start)), 0)
    if j < b / (2 * a) + 1:
        return math.inf

    def count(r):
        return ball_vol * (r + 1 + rho_f) ** l / covol

    term = count(j) * math.exp(-a * j * j + b * j)
    nxt = count(j + 1) * math.exp(-a * (j + 1) ** 2 + b * (j + 1))
    if term <= 0:
        return 0.0
    ratio = nxt / term
    if ratio >= 1.0:
        return math.inf
    return term / (1.0 - ratio)


def certified_terms(alg: AffineAlgebra, a: float, b: float, scale: float,
                    tol: float) -> tuple[WeylTerms, float]:
    """Terms of a Weyl sum whose summands obey
    ``|term| <= scale * exp(-a|alpha|^2 + b|alpha|)``, cut at the first
    radius whose tail bound is at most ``tol``; returns ``(terms, bound)``.
    The radius policy: ``b/a + 2``, then steps of one up to the cap.
    """
    r = b / a + 2.0 if a > 0 else math.inf
    while r <= _MAX_RADIUS:
        tail = scale * gaussian_lattice_tail(alg, a, b, r)
        if tail <= tol:
            return weyl_terms(alg, math.ceil(r)), tail
        r += 1.0
    raise ConvergenceError(
        f"Weyl sum tail not certified within translation radius {_MAX_RADIUS}")


def dominant_representative(alg: AffineAlgebra, lam: Weight, max_steps: int = 100000):
    """Reflect a positive-level weight into the dominant chamber.

    Returns ``(mu, sign)`` where ``mu`` is dominant up to its delta
    component and ``sign`` is the determinant of the element used.  The
    delta coordinate is tracked exactly through the reflections.
    """
    mu = lam
    sign = 1
    for _ in range(max_steps):
        neg = next((i for i in range(alg.rank + 1)
                    if pairing_coroot(alg, mu, i) < 0), None)
        if neg is None:
            return mu, sign
        mu = reflect(alg, neg, mu)
        sign = -sign
    raise RuntimeError("dominant chamber not reached; is the level positive?")
