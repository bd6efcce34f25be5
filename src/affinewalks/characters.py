"""Numerical evaluation of characters, theta functions and the alternating
denominator sum at specializations with positive delta pairing.

Evaluation points are weights ``p`` (the image of a Cartan element under
the form), so ``<mu, h> = (mu | p)``.  Everything converges on the half
space ``c = (delta | p) > 0``; the ``rho/n`` family approaches its edge as
``n`` grows.

Every truncation is certified.  Lattice (theta / Weyl-orbit) sums decay
like a Gaussian in the translation norm, and the Gaussian shell bound of
:mod:`affinewalks.weyl` bounds what is cut off.  A character is the
Weyl-Kac quotient ``e^{(lam|p)} A_{lam+rho}(p) / A_rho(p)`` of two
alternants ``A_mu(p) = sum_w det(w) e^{(w(mu) - mu|p)}``.  Near
the critical line both fall far below their order-one terms (``A_rho`` is
about ``e^{-2.47n}`` on A1~ at ``rho/n``), so :func:`_log_alternant` sums
them in float64 and in log space, by whichever of two series converges
faster: the direct one over the translation lattice ``M``, or its Poisson
dual over ``M*`` (the S-transformation of Kac and Peterson), whose leading
shell carries the small value with no cancellation.  Whether a finite
Weyl phase sum of the dual vanishes is decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _linalg, weyl
from .algebra import (_ALGEBRAS_MAX, AffineAlgebra, Weight, classify_weight,
                      inner_product, pair_delta, weyl_vector)
from .highestweight import (_U, _weyl_denominator, denominator_product_series,
                            finite_roots)
from .weyl import (ConvergenceError, certified_terms, finite_group,
                   lattice_basis, orbit_offsets, orbit_sum_terms)

__all__ = [
    "EvalResult",
    "SpecializationError",
    "ConvergenceError",
    "rho_specialization",
    "eval_character",
    "eval_theta",
    "denominator_residual",
    "weyl_alternating_value",
]


class SpecializationError(ValueError):
    """Evaluation point outside the convergence half-space."""


@dataclass
class EvalResult:
    value: float
    truncation_depth: int
    tail_bound: float
    log_value: float

    @property
    def rel_bound(self) -> float:
        return self.tail_bound / self.value if self.value else math.inf


def rho_specialization(alg: AffineAlgebra, n: int) -> Weight:
    """The point ``rho/n``; its delta pairing is ``h_vee / n``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return weyl_vector(alg).scale(Fraction(1, n))


def _require_convergent(alg: AffineAlgebra, s: Weight) -> Fraction:
    c = pair_delta(alg, s)
    if c <= 0:
        raise SpecializationError(
            f"(delta|point) = {c} <= 0: character series does not converge")
    return c


# -- alternants ----------------------------------------------------------------------

_TAIL = 2.0 ** -60         # truncation target, relative to the leading term
_DIRECT_LOSS = 3.0         # nats of cancellation the direct series may carry
# 2 pi^2 to 36 digits: exact reference exponents lose nothing to it
_TWO_PI2 = 2 * Fraction("3.14159265358979323846264338327950288") ** 2


@dataclass(frozen=True)
class _DualLattice:
    """The dual ``M*`` of the translation lattice (the weight lattice), its
    points written ``n_j = (beta|b_j)`` over the basis rows ``b_j`` of
    ``M``: Gram ``gram = gn/gd``, ``(beta|x) = n . tn x / td`` for ``x``
    in root coordinates, ``reg2`` the squared norm of its shortest regular
    point, and ``log_covol`` that of ``M``."""

    gram: tuple
    gn: np.ndarray
    gd: int
    basis: np.ndarray
    tn: np.ndarray
    td: int
    roots: np.ndarray
    reg2: Fraction
    log_covol: float


@lru_cache(maxsize=_ALGEBRAS_MAX)
def _dual_lattice(alg: AffineAlgebra) -> _DualLattice:
    gram = _linalg.invert(weyl._lattice_gram(alg))
    gn, gd = _linalg.int_scaled(gram)
    # the inverse transpose of the diagonal basis, as tn / td
    scale = [b[i] for i, b in enumerate(lattice_basis(alg))]
    td = math.lcm(*scale)
    tn = np.diag(np.array([td // x for x in scale], dtype=np.int64))
    roots = np.array(finite_roots(alg), dtype=np.int64)
    # the finite Weyl vector is a regular point of M*
    nb = np.array(weyl.translation_vectors(alg, math.sqrt(float(
        alg.finite_norm2(weyl_vector(alg).z))) + 1e-9, gram), dtype=np.int64)
    nb = nb[(nb @ tn @ roots.T != 0).all(axis=1)]
    return _DualLattice(gram, gn, gd, np.array(lattice_basis(alg)), tn, td, roots,
                        Fraction(int(np.einsum("ni,ij,nj->n", nb, gn, nb).min()), gd),
                        -0.5 * math.log(float(_linalg.det(gram))))


@lru_cache(maxsize=1 << 16)
def _vanishes(n: int, exps: tuple[int, ...], signs: tuple[int, ...]) -> bool:
    """Whether ``sum_w signs[w] zeta^exps[w]`` is zero, ``zeta`` a primitive
    ``n``-th root of unity, decided exactly in ``Z[x] / (x^n - 1)``: equal
    phases are grouped, and the sum vanishes iff the n-th cyclotomic
    polynomial divides it, that is iff its product with every
    ``x^{n/p} - 1``, ``p`` a prime factor of ``n``, is zero."""
    e0 = exps[0]
    g = math.gcd(n, *(e - e0 for e in exps))
    n //= g
    poly = np.zeros(n, dtype=np.int64)
    np.add.at(poly, [(e - e0) // g % n for e in exps], signs)
    rest, p = n, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            poly = np.roll(poly, n // p) - poly
            while rest % p == 0:
                rest //= p
        p += 1
    return not poly.any()


def _alternant_terms(alg: AffineAlgebra, k: int, zq: np.ndarray, q: int,
                     s: Weight, tol: float) -> weyl.WeylTerms:
    """The one term list of :func:`~affinewalks.weyl.orbit_sum_terms`, with
    a tail of ``tol`` at the largest ``|mu|``, that serves the alternants of
    every row of ``zq`` (see :func:`_alternant_exponents`)."""
    gn, gd = alg.finite_gram_int
    z_norm = math.sqrt(int(np.einsum("ni,ij,nj->n", zq, gn, zq).max())
                       / (q * q * gd))
    p_norm = math.sqrt(float(alg.finite_norm2(s.z)))
    return orbit_sum_terms(alg, k, float(pair_delta(alg, s)), p_norm, z_norm, tol)[0]


def _alternant_exponents(alg: AffineAlgebra, k: int, zq: np.ndarray, q: int,
                         s: Weight, tol: float,
                         terms: weyl.WeylTerms | None = None):
    """Signs, offsets and exact exponents of the alternants ``A_mu(p)`` of a
    stack of ``mu`` at level ``k``, each ``mu - rho`` dominant integral; row
    ``i`` of the integer array ``zq`` is ``q`` times the root coordinates of
    ``mu_i``.  One term list, :func:`_alternant_terms` with a tail of ``tol``,
    serves every row; ``terms``, the list cut for a larger stack, replaces
    it (and ``tol``), so the rows of a block of that stack are the stack's.
    Returns ``(sign, m, expo, den, radius)``: ``m[i, t]`` is the finite part
    of ``mu_i - w_t(mu_i)`` in root coordinates, ``expo[i, t] / den`` is
    ``(w_t(mu_i) - mu_i|p)``, and ``radius`` is the largest translation
    norm, rounded up."""
    if terms is None:
        terms = _alternant_terms(alg, k, zq, q, s, tol)
    m, d = orbit_offsets(alg, terms, k, zq, q)
    # the exponent -(mu - w(mu)|p) = -(d c + (m|p)), here over den = 2ke
    n, e = _linalg.int_scaled([[pair_delta(alg, s), *alg.finite_covector(s.z)]])
    expo = -(2 * k * int(n[0, 0]) * d + m @ (2 * k * n[0, 1:]))
    radius = int(math.ceil(math.sqrt(float(terms.norm2.max()))))
    return terms.sign, m, expo, 2 * k * e, radius


def _phase_sums(alg: AffineAlgebra, k: int, zq: np.ndarray, q: int,
                s: Weight, nb: np.ndarray) -> np.ndarray:
    """``e^{2 pi i (beta|p)/c} sum_w det(w) e^{-2 pi i (beta|w(z))/k}``
    over the finite Weyl group, for the dual points of the rows of ``nb``
    and ``z = zq/q``, ``zq`` an integer vector; shape ``(len(nb),)``.  Each
    sum is decided exactly zero or nonzero before a float is formed: a
    singular ``beta`` (fixed by a reflection) cancels in pairs, and any
    other is decided on its exact rational phases by :func:`_vanishes`."""
    dl = _dual_lattice(alg)
    group = finite_group(alg)
    sign = tuple(w.sign for w in group)
    c = pair_delta(alg, s)
    pn, pd = _linalg.int_scaled([[x / c for x in s.z]])
    den = math.lcm(q * k, pd)
    # phase (beta|p/c - w(z)/k) = n . tn v / (td den), v integer
    v = pn[0] * (den // pd) - np.einsum(
        "wij,j->wi", np.array([w.matrix for w in group]), zq) * (den // (q * k))
    big = dl.td * den
    psi = np.einsum("bj,ji,wi->bw", nb, dl.tn, v) % big
    zero = (nb @ dl.tn @ dl.roots.T == 0).any(axis=1)
    for b in np.flatnonzero(~zero):
        zero[b] = _vanishes(big, tuple(psi[b].tolist()), sign)
    turn = ((psi + big // 2) % big - big // 2) / big      # in [-1/2, 1/2)
    sums = (np.exp(2j * np.pi * turn) * np.array(sign)).sum(axis=1)
    sums[zero] = 0.0
    return sums


@dataclass(frozen=True)
class _LogAlternants:
    """``log A_mu = ref + rest`` at a list of torus points, ``ref`` exact,
    with ``|A_mu e^{-ref} - e^{rest[j]}| <= e^{log_err[j]}`` at point ``j``
    for truncation and rounding together; ``radius`` is that of the
    lattice sum used, over ``M`` or ``M*``, rounded up."""

    ref: Fraction
    rest: np.ndarray
    log_err: np.ndarray
    radius: int


def _log_alternant(alg: AffineAlgebra, mu: Weight, s: Weight,
                   theta=None) -> _LogAlternants:
    """Log alternant ``A_mu(p) = sum_w det(w) e^{(w(mu) - mu|p)}`` of one
    ``mu`` with ``mu - rho`` dominant integral, at the point (one entry)
    or, with ``theta = (idx, grid)``, at the torus points ``p + i phi``,
    ``(alpha_j|phi) = 2 pi idx_j/grid`` per row of ``idx``, where the terms
    gain ``e^{-2 pi i m.idx/grid}``.

    Two float64 series give the value (one unit roundoff counted per float
    operation and ``exp``):

    - the direct one over ``M`` (:func:`_alternant_exponents`), a Gaussian
      of rate ``ck/2``, ``c = (delta|p)``;
    - its Poisson dual over ``M*`` (Kac-Peterson): with
      ``p = c Lambda0 + pbar`` plus a delta multiple, ``A_mu = (2 pi/ck)^{l/2}
      / vol(M) e^{k|pbar|^2/2c + c|z|^2/2k - (z|pbar)} sum_{beta in M*}
      e^{-2 pi^2 |beta|^2/ck} S(beta)``, ``S`` from :func:`_phase_sums`; at
      torus points the Gaussian is centred at ``-k phi/2 pi``.

    The dual's first regular shell puts ``A_mu`` about ``e^{-loss}`` below
    the direct series' leading term 1, so the direct one is summed only
    when ``loss <= _DIRECT_LOSS`` and its Gaussian needs fewer points.
    """
    c = _require_convergent(alg, s)
    gp = alg.finite_covector(s.z)
    if min(c - sum(a * x for a, x in zip(alg.marks[1:], gp)), *gp) <= 0:
        raise SpecializationError("the Weyl-Kac quotient needs every positive "
                                  "root paired positively with the point")
    k, (zq, q) = int(mu.k), _linalg.int_scaled([mu.z])
    l, dl, ck = alg.rank, _dual_lattice(alg), float(c * k)
    idx, grid = theta if theta is not None else (np.zeros((1, l), np.int64), 1)
    z_norm = math.sqrt(float(alg.finite_norm2(mu.z)))
    b = k * math.sqrt(float(alg.finite_norm2(s.z))) + float(c) * z_norm
    direct = (2 * b / ck + math.sqrt(92 / ck) + 1) ** l * math.exp(-dl.log_covol)
    dual = (math.sqrt(23 * ck) / math.pi + 1) ** l * math.exp(dl.log_covol)
    if 2 * math.pi ** 2 / ck * dl.reg2 <= _DIRECT_LOSS and direct < dual:
        sign, m, expo, den, radius = _alternant_exponents(alg, k, zq, q, s, _TAIL)
        x = expo[0] / den                                # <= 0, within u|x|
        w = sign * np.exp(x)
        roots = np.exp(-2j * np.pi * np.arange(grid) / grid)      # within 21u
        total = np.einsum("pt,t->p", roots[idx @ m[0].T % grid], w)
        err = _TAIL + _U * (np.abs(w) * (np.abs(x) + x.size + 21)).sum()
        return _finish(Fraction(0), np.zeros(total.shape), 0.0, total, err, radius)
    return _dual_sum(alg, k, zq[0], q, s, c, idx, grid)


def _finish(ref, pre, turn, total, err, radius) -> _LogAlternants:
    """``rest = pre + log(total) + 2 pi i turn``, the float ``pre`` within
    ``u|pre|``; ``err`` bounds the error of ``total``."""
    with np.errstate(divide="ignore"):
        log_total = np.log(total)
    fin = 2 * _U * (np.abs(pre) + np.abs(log_total.real) + 2 * np.pi + 8)
    return _LogAlternants(ref, pre + log_total + 2j * np.pi * turn,
                          pre + np.log(err + np.abs(total) * fin), radius)


def _dual_sum(alg, k, zq, q, s, c, idx, grid) -> _LogAlternants:
    dl = _dual_lattice(alg)
    l, n_w = alg.rank, len(finite_group(alg))
    a = 2 * math.pi ** 2 / float(c * k)
    # Gaussian centres n* = ncen/grid; the points within r + spread of base
    # cover each centre's ball of radius r
    ncen = -k * (idx @ dl.basis.T)
    base = np.rint(ncen.mean(axis=0) / grid).astype(np.int64)
    off = ncen - grid * base
    spread = math.sqrt(int(np.einsum("pi,ij,pj->p", off, dl.gn, off).max())
                       / (dl.gd * grid * grid)) * (1 + 1e-12)
    # |beta - n*|^2 / (ck) = qi * c.denominator / qden, qi integer
    qden = grid * grid * dl.gd * c.numerator * k
    sc = 2.0 ** max(0, math.ceil(math.log2(8 * math.sqrt(a))))
    scaled = tuple(tuple(x * Fraction(sc * sc) for x in row) for row in dl.gram)
    r = math.sqrt(46 / a)
    while True:
        if r > weyl._MAX_RADIUS:
            raise ConvergenceError(
                f"dual Weyl sum not certified within radius {weyl._MAX_RADIUS}")
        nb = base + np.array(weyl.translation_vectors(alg, r + spread, dl.gram),
                             dtype=np.int64).reshape(-1, l)
        sums = _phase_sums(alg, k, zq, q, s, nb)
        v = grid * nb[None, :, :] - ncen[:, None, :]
        qi = ((v @ dl.gn) * v).sum(axis=2)
        live = sums != 0
        if not live.any():
            r *= 2
            continue
        qmin = np.where(live, qi, np.iinfo(np.int64).max).min(axis=1)
        # the tail past r_need is below 2^-60 of each point's nearest live
        # term, at most r_far away: there a r_far^2 <= a r_far |beta - n*|.
        # The shells run on M* scaled by sc, narrow against the Gaussian
        r_far = math.sqrt(int(qmin.max()) / (dl.gd * grid * grid)) * (1 + 1e-12)
        r_need = 0.5 * r_far + math.sqrt(0.25 * r_far * r_far + 46 / a)
        while r_need <= weyl._MAX_RADIUS and weyl.gaussian_lattice_tail(
                alg, a / (sc * sc), a * r_far / sc, r_need * sc, scaled) > _TAIL:
            r_need += 0.25 / math.sqrt(a)
        if r_need <= r:
            break
        r = r_need
    qref = int(qmin.min())
    pbar = s.z
    z = [Fraction(x, q) for x in zq.tolist()]
    ref = (k * alg.finite_norm2(pbar) / (2 * c) + c * alg.finite_norm2(z) / (2 * k)
           - alg.finite_inner(z, pbar) - _TWO_PI2 * Fraction(qref * c.denominator, qden))
    # exponents below the reference, each within 4u of its size
    dead = ~live
    y = float(_TWO_PI2) * c.denominator / qden * (qref - qi)
    d = np.where(dead, -np.inf, y)
    m = d.max(axis=1)
    d -= m[:, None]
    e = np.exp(d)
    err = n_w * (_TAIL + _U * (e * np.where(
        dead, 0.0, 4 * np.abs(y) - d + n_w + nb.shape[0] + 20)).sum(axis=1))
    # the torus phase (k pbar/c - z).(2 pi idx/grid), exact until the float
    un, ud = _linalg.int_scaled([[k * x / c - zi for x, zi in zip(pbar, z)]])
    turn = ((un[0] @ idx.T + ud * grid // 2) % (ud * grid) - ud * grid // 2) / (ud * grid)
    pre = 0.5 * l * math.log(2 * math.pi / float(c * k)) - dl.log_covol + m
    return _finish(ref, pre, turn, np.einsum("pb,b->p", e, sums), err,
                   math.ceil(r))


# -- character evaluation ------------------------------------------------------------


def eval_character(alg: AffineAlgebra, lam: Weight, s: Weight,
                   eps: float = 1e-10) -> EvalResult:
    """Character value as the Weyl-Kac quotient
    ``e^{(lam|p)} A_{lam+rho}(p) / A_rho(p)``, with a certified relative
    error at most ``eps``.

    Both alternants come from :func:`_log_alternant`; their exact
    reference exponents and ``(lam|p)`` are combined before the one
    rounding to float.  ``tail_bound`` covers truncation and rounding, and
    ``truncation_depth`` is the radius of the larger lattice sum used.  A
    value past the float range raises ``OverflowError``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not classify_weight(alg, lam).dominant:
        raise ValueError("character evaluation needs a dominant integral weight")
    rho = weyl_vector(alg)
    num, den = (_log_alternant(alg, mu, s) for mu in (lam + rho, rho))
    rel_num, rel_den = (math.exp(r.log_err[0] - r.rest[0].real) for r in (num, den))
    if not rel_den < 0.5:
        raise ArithmeticError("denominator alternant not resolved")
    small = float(num.rest[0].real - den.rest[0].real)
    log_value = float(inner_product(alg, lam, s) + num.ref - den.ref
                      + Fraction(small))
    # the quotient, then the roundings of small, log_value and exp
    rel = ((rel_num + rel_den) / (1 - rel_den)
           + 2 * _U * (abs(log_value) + abs(small) + 4))
    if log_value > math.log(np.finfo(float).max):
        raise OverflowError(f"character value e^{log_value:.1f} exceeds float range")
    value = math.exp(log_value)
    tail = value * rel
    if not tail <= eps * value:
        raise ArithmeticError(
            f"certified relative error {rel:.2e} above eps {eps:.2e}")
    return EvalResult(value=value, truncation_depth=max(num.radius, den.radius),
                      tail_bound=tail, log_value=log_value)


# -- theta functions ---------------------------------------------------------------


def eval_theta(alg: AffineAlgebra, lam: Weight, s: Weight,
               eps: float = 1e-10) -> EvalResult:
    """Classical theta function of a positive-level weight:

    ``exp(-(lam|lam)/(2k) * (delta|p)) * sum_{alpha in M} exp((t_alpha(lam)|p))``.

    The lattice sum is truncated by translation norm with the certified
    Gaussian shell bound for the discarded part; ``truncation_depth`` is
    the translation radius.
    """
    k = pair_delta(alg, lam)
    if k <= 0:
        raise ValueError("theta functions need a positive level")
    c = float(_require_convergent(alg, s))
    kf = float(k)
    a_coef = 0.5 * kf * c
    # exponent(alpha) - (lam|p) = (alpha | k*p - c*lam)_finite - a|alpha|^2
    drift = kf * np.array(s.z, dtype=float) - c * np.array(lam.z, dtype=float)
    g_drift = np.array(alg.finite_gram, dtype=float) @ drift
    bnorm = math.sqrt(max(float(drift @ g_drift), 0.0))
    # the alpha = 0 term is 1 and all are positive, so the sum is at least
    # 1 and an absolute tail of eps is relative
    terms, tail = certified_terms(alg, a_coef, bnorm, 1.0, eps)
    # one term per translation: the identity opens each finite block
    n_w = len(finite_group(alg))
    partial = float(np.exp(terms.trans[::n_w] @ g_drift
                           - a_coef * terms.norm2[::n_w]).sum())
    radius = int(math.ceil(math.sqrt(float(terms.norm2.max()))))
    log_base = (float(inner_product(alg, lam, s))
                - float(inner_product(alg, lam, lam) / (2 * k)) * c)
    log_value = log_base + math.log(partial)
    value = math.exp(log_value)
    return EvalResult(value=value, truncation_depth=radius,
                      tail_bound=math.exp(log_base) * tail, log_value=log_value)


# -- denominator identity -------------------------------------------------------------


# the three specializations of criterion 2 share one pair per (algebra,
# depth); the full test suite holds at most 6 pairs
_DENOMINATOR_MAX = 16


@lru_cache(maxsize=_DENOMINATOR_MAX)
def _denominator_sides(alg: AffineAlgebra, depth: int):
    """The product and the sum side of the denominator identity as integer
    series items ``((d, m), coeff)``; neither depends on the specialization.
    The sum side is the series oracle's memo of ``A_rho``."""
    return (tuple(denominator_product_series(alg, depth).items()),
            tuple(_weyl_denominator(alg, depth).items()))


def denominator_residual(alg: AffineAlgebra, s: Weight, depth: int) -> float:
    """Relative gap between the two sides of the denominator identity, both
    truncated at the same delta depth and evaluated at the specialization.

    The product over the root datum is expanded as an exact integer series
    (int64 layers, :func:`~affinewalks.highestweight.denominator_product_series`);
    the sum side is the alternating Weyl-orbit series of the Weyl vector
    with the radius needed to reach the same depth, shared with the series
    oracle.  Both are kept per ``(alg, depth)`` in a bounded memo.  The
    identity asserts the two truncated series are equal
    coefficient-by-coefficient, so the evaluated residual sits at
    floating-point noise whenever the coefficients agree.
    """
    cf = float(_require_convergent(alg, s))
    gp = alg.finite_covector(s.z)

    def evaluate(series) -> float:
        return math.fsum(
            coeff * math.exp(-d * cf - float(sum(x * y for x, y in zip(m, gp))))
            for (d, m), coeff in series)

    prod, total = map(evaluate, _denominator_sides(alg, depth))
    return abs(prod - total) / abs(prod)


# -- alternating Weyl-orbit values (numerator route) ----------------------------------


# relative error certified by weyl_alternating_value
_ALTERNANT_RTOL = 1e-13


def weyl_alternating_value(alg: AffineAlgebra, mu: Weight, s: Weight) -> float:
    """Value of ``A_mu(p) = sum_w det(w) exp((w(mu) - mu | p))`` within
    ``_ALTERNANT_RTOL`` relative, certified by :func:`_log_alternant`, for
    ``mu`` strictly dominant integral; with ``mu = rho`` it is the
    denominator product.  The final rounding to float is included.
    """
    if not classify_weight(alg, mu - weyl_vector(alg)).dominant:
        raise ValueError("alternant point must be strictly dominant integral")
    r = _log_alternant(alg, mu, s)
    small = float(r.rest[0].real)
    rel = math.exp(r.log_err[0] - small) + 2 * _U * (abs(small) + 4)
    if not rel <= _ALTERNANT_RTOL:
        raise ArithmeticError(
            f"certified relative error {rel:.2e} above rtol {_ALTERNANT_RTOL:.2e}")
    return math.exp(float(r.ref + Fraction(small)))
