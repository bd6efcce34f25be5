"""Numerical evaluation of characters, theta functions and the alternating
denominator sum at specializations with positive delta pairing.

Evaluation points are weights ``p`` (the image of a Cartan element under
the form), so ``<mu, h> = (mu | p)``.  Everything converges on the half
space ``(delta | p) > 0``; the rate degrades as that pairing approaches
zero, which for the ``rho/n`` family means large ``n``.

Every truncation is certified.  Lattice (theta / Weyl-orbit) sums decay
like a Gaussian in the translation norm, and the Gaussian shell bound of
:mod:`affinewalks.weyl` bounds what is cut off.  A character is the
Weyl-Kac quotient ``e^{(lam|p)} A_{lam+rho}(p) / A_rho(p)`` of two
alternants ``A_mu(p) = sum_w det(w) e^{(w(mu) - mu|p)}``.  Near the
critical line both cancel to about ``A_rho(p)``, far below their order-one
terms, so :func:`_alternant_terms` builds the terms in mpmath from exact
rational exponents.  The stable product form of ``A_rho(p)`` gives a lower
bound that sets the truncation tolerance and the working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .algebra import (AffineAlgebra, Weight, classify_weight, inner_product,
                      pair_delta, weyl_vector)
from .highestweight import (alternant_terms, denominator_product_series,
                            finite_roots, positive_roots)
from .weyl import (ConvergenceError, certified_terms, finite_group,
                   orbit_offsets)

__all__ = [
    "Specialization",
    "EvalResult",
    "SpecializationError",
    "ConvergenceError",
    "rho_specialization",
    "delta_pairing",
    "eval_character",
    "eval_theta",
    "denominator_residual",
    "weyl_alternating_value",
    "character_ratio",
]


class SpecializationError(ValueError):
    """Evaluation point outside the convergence half-space."""


@dataclass(frozen=True)
class Specialization:
    """Evaluation point ``p`` with ``<mu,h> = (mu|p)``."""

    point: Weight
    description: str = ""


@dataclass
class EvalResult:
    value: float
    truncation_depth: int
    tail_bound: float
    log_value: float

    @property
    def rel_bound(self) -> float:
        return self.tail_bound / self.value if self.value else math.inf


def rho_specialization(alg: AffineAlgebra, n: int) -> Specialization:
    """The ``rho/n`` family; its delta pairing is ``h_vee / n``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Specialization(point=weyl_vector(alg).scale(Fraction(1, n)),
                          description=f"rho/{n}")


def delta_pairing(alg: AffineAlgebra, s: Specialization) -> Fraction:
    return pair_delta(alg, s.point)


def _require_convergent(alg: AffineAlgebra, s: Specialization) -> Fraction:
    c = delta_pairing(alg, s)
    if c <= 0:
        raise SpecializationError(
            f"(delta|point) = {c} <= 0: character series does not converge")
    return c


# -- alternants --------------------------------------------------------------------


def _log_denominator_value(alg: AffineAlgebra, s: Specialization) -> float:
    """Lower bound on ``log A_rho(p)`` from the product form
    ``prod_{alpha > 0} (1 - e^{-(alpha|p)})^{mult(alpha)}``.

    Factors to delta-depth ``D = ceil(60/c) + 1`` are summed in float64; the
    result is lowered by a bound on their rounding and on the omitted
    factors, each of which pairs above ``(n - 1)c >= Dc``.  A point with a
    positive root paired nonpositively is refused.
    """
    c = _require_convergent(alg, s)
    cf = float(c)
    depth = int(math.ceil(60.0 / cf)) + 1
    gp = alg.finite_covector(s.point.z)
    roots = positive_roots(alg, depth)
    out = err = 0.0
    for (n, r, mult) in roots:
        pairing = float(n * c + sum(x * y for x, y in zip(r, gp)))
        if pairing <= 0:
            raise SpecializationError(
                "the Weyl-Kac quotient needs every positive root paired "
                "positively with the point")
        term = mult * math.log1p(-math.exp(-pairing))
        out += term
        # rounding of exp(-x) seen through log1p near x = 0, and of log1p
        err += mult * (1 + pairing) ** 2 * math.exp(-pairing) / pairing - 2 * term
    omitted = (2 * (len(finite_roots(alg)) + alg.rank) * math.exp(-depth * cf)
               / -math.expm1(-cf))
    return out - omitted - 2.0 ** -52 * (err + len(roots) * abs(out))


def _working_dps(log_tol: float) -> int:
    """mp digits resolving an absolute tolerance ``e^{log_tol}`` on sums of
    order-one terms, with 20 guard digits."""
    return max(30, int(math.ceil(-log_tol / math.log(10))) + 20)


def _alternant_exponents(alg: AffineAlgebra, k: int, zq: np.ndarray, q: int,
                         s: Specialization, tol: float):
    """Signs, offsets and exact exponents of the alternants ``A_mu(p)`` of a
    stack of ``mu`` at level ``k``, each ``mu - rho`` dominant integral; row
    ``i`` of the integer array ``zq`` is ``q`` times the root coordinates of
    ``mu_i``.  One term list of :func:`~affinewalks.weyl.certified_terms`,
    with a tail of ``tol`` at the largest ``|mu|``, serves every row.
    Returns ``(sign, m, expo, den, radius)``: ``m[i, t]`` is the finite part
    of ``mu_i - w_t(mu_i)`` in root coordinates, ``expo[i, t] / den`` is
    ``(w_t(mu_i) - mu_i|p)``, and ``radius`` is the largest translation
    norm, rounded up."""
    c = delta_pairing(alg, s)
    cf = float(c)
    gn, gd = alg.finite_gram_int
    z_norm = math.sqrt(int(np.einsum("ni,ij,nj->n", zq, gn, zq).max())
                       / (q * q * gd))
    p_norm = math.sqrt(float(alg.finite_norm2(s.point.z)))
    # |exponent + a|alpha|^2| <= 2|z||p| + b|alpha|
    terms, _ = certified_terms(
        alg, 0.5 * k * cf, k * p_norm + cf * z_norm,
        len(finite_group(alg)) * math.exp(2.0 * z_norm * p_norm), tol)
    m, d = orbit_offsets(alg, terms, k, zq, q)
    # the exponent -(mu - w(mu)|p) = -(d c + (m|p)), here over den = 2ke
    gp = alg.finite_covector(s.point.z)
    e = math.lcm(c.denominator, *(x.denominator for x in gp))
    expo = -(2 * k * int(c * e) * d
             + m @ np.array([int(2 * k * x * e) for x in gp], dtype=np.int64))
    radius = int(math.ceil(math.sqrt(float(terms.norm2.max()))))
    return terms.sign, m, expo, 2 * k * e, radius


def _alternant_terms(alg: AffineAlgebra, mu: Weight, s: Specialization,
                     log_tol: float):
    """Terms ``(m, det(w) e^{(w(mu) - mu|p)})`` of the alternant ``A_mu(p)``
    for ``mu - rho`` dominant integral; ``m`` is the finite part of
    ``mu - w(mu)`` in root coordinates.

    The terms come from :func:`_alternant_exponents` at a tolerance of
    ``e^{log_tol}``, refused below the float64 range; each weight is
    exponentiated at the current mp precision from its exact rational
    exponent.  Returns ``(terms, bound, radius)``: summed in any order, the
    weights are within the mp number ``bound`` of ``A_mu(p)`` (tail plus
    rounding, each mp operation taken to round within one unit); ``radius``
    is the largest translation norm, rounded up.
    """
    if not classify_weight(alg, mu - weyl_vector(alg)).dominant:
        raise ValueError("alternant point must be strictly dominant integral")
    tol = math.exp(log_tol)
    if tol < 1e-300:
        raise ConvergenceError(
            f"alternant tolerance e^{log_tol:.0f} is below the float64 range: "
            "the point is too close to the critical line")
    q = math.lcm(*(x.denominator for x in mu.z))
    zq = np.array([[int(x * q) for x in mu.z]], dtype=np.int64)
    sign, m, expo, expo_den, radius = _alternant_exponents(
        alg, int(mu.k), zq, q, s, tol)
    weights = [sign * mp.e ** (mp.mpf(x) / expo_den)
               for sign, x in zip(sign.tolist(), expo[0].tolist())]
    x_max = float(np.abs(expo).max()) / expo_den
    rounding = ((len(weights) + x_max + 2) * mp.fsum(weights, absolute=True)
                * mp.mpf(2) ** (2 - mp.mp.prec))
    return list(zip(map(tuple, m[0].tolist()), weights)), tol + rounding, radius


# -- character evaluation ------------------------------------------------------------


def eval_character(alg: AffineAlgebra, lam: Weight, s: Specialization,
                   eps: float = 1e-10) -> EvalResult:
    """Character value as the Weyl-Kac quotient
    ``e^{(lam|p)} A_{lam+rho}(p) / A_rho(p)``, with a certified relative
    error at most ``eps``.

    Both alternants are summed to one absolute tolerance, ``eps/4`` times
    the product-form lower bound on ``A_rho(p)``; that serves the numerator
    too, since ``A_{lam+rho} >= A_rho``.  The same bound sets the mp
    precision.  ``tail_bound`` covers truncation and mp rounding (the final
    float conversion adds at most one unit in the last place), and
    ``truncation_depth`` is the translation radius.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not classify_weight(alg, lam).dominant:
        raise ValueError("character evaluation needs a dominant integral weight")
    rho = weyl_vector(alg)
    log_tol = math.log(min(eps, 1.0) / 4) + _log_denominator_value(alg, s)
    lam_p = inner_product(alg, lam, s.point)
    with mp.workdps(_working_dps(log_tol)):
        num_terms, num_err, num_radius = _alternant_terms(alg, lam + rho, s, log_tol)
        den_terms, den_err, den_radius = _alternant_terms(alg, rho, s, log_tol)
        num = mp.fsum(w for _, w in num_terms)
        den = mp.fsum(w for _, w in den_terms)
        if den <= den_err:
            raise ArithmeticError("denominator alternant not resolved")
        # quotient of the two sums, then the rounding of e^{(lam|p)} and of
        # the two products
        rel = float((num_err / num + den_err / den) / (1 - den_err / den)
                    + (float(abs(lam_p)) + 4) * mp.mpf(2) ** (1 - mp.mp.prec))
        quotient = mp.e ** (mp.mpf(lam_p.numerator) / lam_p.denominator) * num / den
        log_value = float(mp.log(quotient))
        value = float(quotient)
    if not math.isfinite(value):
        raise OverflowError(f"character value e^{log_value:.1f} exceeds float range")
    tail = value * rel
    if not tail <= eps * value:
        raise ArithmeticError(
            f"certified relative error {rel:.2e} above eps {eps:.2e}")
    return EvalResult(value=value, truncation_depth=max(num_radius, den_radius),
                      tail_bound=tail, log_value=log_value)


def character_ratio(num: EvalResult, den: EvalResult) -> tuple[float, float]:
    """Ratio of two evaluations with a propagated relative error bound."""
    rel = (num.rel_bound + den.rel_bound) / max(1.0 - den.rel_bound, 1e-12)
    return math.exp(num.log_value - den.log_value), rel


# -- theta functions ---------------------------------------------------------------


def eval_theta(alg: AffineAlgebra, lam: Weight, s: Specialization,
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
    p = s.point
    kf = float(k)
    a_coef = 0.5 * kf * c
    # exponent(alpha) - (lam|p) = (alpha | k*p - c*lam)_finite - a|alpha|^2
    drift = kf * np.array(p.z, dtype=float) - c * np.array(lam.z, dtype=float)
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
    log_base = (float(inner_product(alg, lam, p))
                - float(inner_product(alg, lam, lam) / (2 * k)) * c)
    log_value = log_base + math.log(partial)
    value = math.exp(log_value)
    return EvalResult(value=value, truncation_depth=radius,
                      tail_bound=math.exp(log_base) * tail, log_value=log_value)


# -- denominator identity -------------------------------------------------------------


def denominator_residual(alg: AffineAlgebra, s: Specialization, depth: int) -> float:
    """Relative gap between the two sides of the denominator identity, both
    truncated at the same delta depth and evaluated at the specialization.

    The product over the root datum is expanded as an exact integer series
    (sparse polynomial multiplication); the sum side is the alternating
    Weyl-orbit series of the Weyl vector with the radius needed to reach
    the same depth.  The identity asserts the two truncated series are
    equal coefficient-by-coefficient, so the evaluated residual sits at
    floating-point noise whenever the coefficients agree.
    """
    cf = float(_require_convergent(alg, s))
    gp = alg.finite_covector(s.point.z)

    def evaluate(series) -> float:
        return math.fsum(
            coeff * math.exp(-d * cf - float(sum(x * y for x, y in zip(m, gp))))
            for (d, m), coeff in series.items())

    prod = evaluate(denominator_product_series(alg, depth))
    total = evaluate(alternant_terms(alg, weyl_vector(alg), depth))
    return abs(prod - total) / abs(prod)


# -- alternating Weyl-orbit values (numerator route) ----------------------------------


def weyl_alternating_value(alg: AffineAlgebra, mu: Weight, s: Specialization,
                           rtol: float = 1e-13) -> float:
    """Value of ``A_mu(p) = sum_w det(w) exp((w(mu) - mu | p))`` within
    ``rtol`` relative, for ``mu`` strictly dominant integral; with
    ``mu = rho`` it is the denominator product.

    The mp terms are summed to within ``rtol/2`` times the product-form
    lower bound on ``A_rho(p) <= A_mu(p)``, rounding included; the float
    conversion adds at most one unit in the last place.
    """
    log_tol = math.log(rtol / 2) + _log_denominator_value(alg, s)
    with mp.workdps(_working_dps(log_tol)):
        terms, _, _ = _alternant_terms(alg, mu, s, log_tol)
        return float(mp.fsum(w for _, w in terms))
