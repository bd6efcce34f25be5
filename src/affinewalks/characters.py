"""Numerical evaluation of characters, theta functions and the alternating
denominator sum at specializations with positive delta pairing.

Evaluation points are weights ``p`` (the image of a Cartan element under
the form), so ``<mu, h> = (mu | p)``.  Everything converges on the half
space ``(delta | p) > 0``; the rate degrades as that pairing approaches
zero, which for the ``rho/n`` family means large ``n``.

Two tail-bound regimes are used.  Character series have no elementary
closed-form growth envelope, so the discarded mass is bounded by a fitted
geometric envelope of the observed layer masses with a factor-two safety
margin (:func:`_geometric_tail`, shared with the kernel rows of
:mod:`affinewalks.chain`).  Lattice (theta / Weyl-orbit) sums decay like a
Gaussian in the translation norm and are summed by
:func:`affinewalks.weyl.certified_sum` with its certified shell bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (AffineAlgebra, Weight, classify_weight, inner_product,
                      weyl_vector)
from .highestweight import (alternant_terms, character_series_oracle,
                            denominator_product_series)
from .weyl import ConvergenceError, certified_sum, finite_group

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
    return inner_product(alg, alg.delta(), s.point)


def _require_convergent(alg: AffineAlgebra, s: Specialization) -> Fraction:
    c = delta_pairing(alg, s)
    if c <= 0:
        raise SpecializationError(
            f"(delta|point) = {c} <= 0: character series does not converge")
    if c < Fraction(alg.dual_coxeter, 50):
        warnings.warn(
            "specialization is close to the critical line; series "
            "truncations converge slowly (rho/n with n > 50)",
            RuntimeWarning, stacklevel=3)
    return c


# -- character evaluation ------------------------------------------------------------


def _layer_masses(alg: AffineAlgebra, lam: Weight, s: Specialization,
                  depth: int, c: float):
    table = character_series_oracle(alg, lam, depth)
    gp = alg.finite_covector(s.point.z)
    masses = [0.0] * (depth + 1)
    for (d, m), v in table.entries.items():
        masses[d] += v * math.exp(-d * c - float(sum(x * y for x, y in zip(m, gp))))
    return masses


def _geometric_tail(layer_mass: dict[int, float], resolution: int) -> float:
    """Envelope for the mass beyond ``resolution``: factor-two safety margin
    on the worst trailing ratio of nonzero layer masses (gap-corrected)."""
    pts = sorted((d, v) for d, v in layer_mass.items() if v > 0)
    if not pts:
        return 0.0
    window = [p for p in pts if p[0] >= resolution - max(6, resolution // 3)]
    if len(window) < 3:
        window = pts[-4:]
    qs = []
    for (d0, v0), (d1, v1) in zip(window, window[1:]):
        qs.append((v1 / v0) ** (1.0 / (d1 - d0)))
    if not qs:
        return math.inf
    q = max(qs)
    if q >= 1.0:
        return math.inf
    last_d, last_v = pts[-1]
    # geometric continuation from the last computed layer
    lead = last_v * q ** (resolution + 1 - last_d)
    return 2.0 * lead / (1.0 - q)


def eval_character(alg: AffineAlgebra, lam: Weight, s: Specialization,
                   eps: float = 1e-10, max_depth: int = 1024,
                   start_depth: int = 16) -> EvalResult:
    """Truncated character value with a relative tail bound at most ``eps``.

    The series is summed over delta-depth layers; the discarded mass is
    bounded by a geometric envelope fitted to the trailing observed layer
    ratios with a factor-two safety margin (gap-corrected over layers of
    zero mass), and the truncation depth grows until that bound drops
    below ``eps`` times the partial sum.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not classify_weight(alg, lam).dominant:
        raise ValueError("character evaluation needs a dominant integral weight")
    c = float(_require_convergent(alg, s))
    depth = start_depth
    while True:
        masses = _layer_masses(alg, lam, s, depth, c)
        partial = math.fsum(masses)
        tail = _geometric_tail(dict(enumerate(masses)), depth)
        if tail <= eps * partial:
            base = float(inner_product(alg, lam, s.point))
            log_value = base + math.log(partial)
            value = math.exp(log_value)
            return EvalResult(value=value, truncation_depth=depth,
                              tail_bound=value * (tail / partial),
                              log_value=log_value)
        if depth >= max_depth:
            raise ConvergenceError(
                f"character tail bound stuck above eps at depth {depth}")
        depth = min(max_depth, 2 * depth)


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
    k = inner_product(alg, alg.delta(), lam)
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
    n_w = len(finite_group(alg))

    def shell_sum(terms) -> float:
        # one term per translation: the identity opens each finite block
        return float(np.exp(terms.trans[::n_w] @ g_drift
                            - a_coef * terms.norm2[::n_w]).sum())

    partial, tail, radius = certified_sum(alg, a_coef, bnorm, 1.0, eps,
                                          shell_sum)
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


def _orbit_exponents(alg: AffineAlgebra, mu: Weight, s: Specialization,
                     terms) -> np.ndarray:
    """``(w(mu) - mu | p)`` in float arithmetic for each ``w = t_alpha w0``
    of the stacked :class:`~affinewalks.weyl.WeylTerms`.

    ``w(mu) - mu`` has finite part ``w0(z) + k*alpha - z`` and delta part
    ``-((w0(z)|alpha) + k|alpha|^2/2)``, which pairs with ``(delta|p)``.
    """
    g = np.array(alg.finite_gram, dtype=float)
    z = np.array(mu.z, dtype=float)
    k = float(mu.k)
    alpha = terms.trans.astype(float)
    wz = terms.matrix @ z
    db = -(((wz @ g) * alpha).sum(axis=1) + 0.5 * k * terms.norm2)
    return (float(delta_pairing(alg, s)) * db
            + (wz + k * alpha - z) @ (g @ np.array(s.point.z, dtype=float)))


def weyl_alternating_value(alg: AffineAlgebra, mu: Weight, s: Specialization,
                           rtol: float = 1e-13) -> float:
    """Value of ``sum_w det(w) exp((w(mu) - mu | p))``, truncated with a
    certified tail below ``rtol``.

    For strictly dominant ``mu`` this equals ``exp(-(mu|p))`` times the
    numerator of the character formula at ``mu``; with ``mu = rho`` it is
    the denominator product.  Terms decay like a Gaussian in the
    translation norm at rate ``(mu|delta)(delta|p)/2``.

    ``rtol`` bounds the truncation only.  The float64 terms are of order
    one and cancel down to the result, and that rounding error is not
    bounded: at ``mu = rho`` the value is 1.5e-12 relative off the product
    formula on A2~ at rho/3 and 3e-13 on A1~ at rho/5.  Below that level
    the result is an estimate.
    """
    c = float(_require_convergent(alg, s))
    kf = float(mu.k)
    z_mu_norm = math.sqrt(float(alg.finite_norm2(mu.z)))
    p_norm = math.sqrt(float(alg.finite_norm2(s.point.z)))
    # |exp argument + a|alpha|^2| <= const + b|alpha|
    bnorm = kf * p_norm + c * z_mu_norm
    const = 2.0 * z_mu_norm * p_norm
    total, _, _ = certified_sum(
        alg, 0.5 * kf * c, bnorm, len(finite_group(alg)) * math.exp(const),
        rtol, lambda t: math.fsum(t.sign * np.exp(_orbit_exponents(alg, mu, s, t))))
    return total
