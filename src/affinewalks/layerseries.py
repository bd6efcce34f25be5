"""Aggregated (delta-summed) increment measures via Fourier inversion.

The projected increment law of the weight walk needs, for each finite
offset ``m``, the delta-aggregated weighted multiplicity

    A(m) = sum_d  mult(d, m) * exp(-d*c - (m | p)),        c = (delta | p).

Near the critical line (``rho/n`` with ``n`` in the hundreds) the depth
sums run to ``O(1/c^2)`` and a layer-by-layer float recursion is unstable:
the reciprocal of the denominator series grows faster than the character,
so roundoff injected at one depth is amplified through later depths.

Instead, ``sum_m A(m) e^{-i m.theta}`` is the character evaluated at the
complex point with the finite directions shifted imaginarily, which is a
quotient of two alternating Weyl-orbit sums converging Gaussian-fast at
every ``theta``.  Sampling that quotient on a uniform torus grid and
applying the inverse FFT recovers ``A`` with spectral accuracy: the atoms
decay like a Gaussian in ``m``, so aliasing is negligible once the grid
covers the support.

Both sums come from :func:`affinewalks.characters._log_alternant` in
float64 and in log space, a bounded chunk of torus points at a time; near
the critical line it takes the Poisson-dual series, whose leading shell
holds each value without cancellation.  Its certified bounds enter the
reported defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg
from .algebra import AffineAlgebra, Weight, classify_weight, pair_delta, weyl_vector
from .characters import _U, _log_alternant

__all__ = ["IncrementAtoms", "increment_atoms"]


@dataclass
class IncrementAtoms:
    """Normalized delta-aggregated increment measure on finite offsets.

    ``prob[idx]`` is the probability of offset ``m`` (root coordinates)
    with ``idx = m - lo`` per axis.  The increment itself is
    ``omega_finite - sum_j m_j alpha_j`` at level ``level(omega)``.
    """

    alg: AffineAlgebra
    omega: Weight
    spec: Weight
    lo: tuple[int, ...]
    prob: np.ndarray
    defect: float

    def probability(self, m) -> float:
        idx = tuple(int(mi) - lo for mi, lo in zip(m, self.lo))
        if any(i < 0 or i >= n for i, n in zip(idx, self.prob.shape)):
            return 0.0
        return float(self.prob[idx])

    def offsets(self) -> np.ndarray:
        """Offset ``m`` of every atom, shape ``(prob.size, rank)``, in the
        order of ``prob.ravel()``."""
        return np.indices(self.prob.shape).reshape(len(self.lo), -1).T + self.lo

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cdf, first, crowded)``: the cdf ``Generator.choice`` forms, the
        count of cdf points at or below each bucket's left end ``b/_GUIDE``,
        and whether a bucket holds two or more cdf points."""
        p = self.prob.ravel()
        if np.isnan(p).any():
            raise ValueError("probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        if not abs(float(p.sum()) - 1.0) <= math.sqrt(np.finfo(float).eps):
            raise ValueError("probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        edges = cdf.searchsorted(np.arange(_GUIDE + 1) / _GUIDE, "right")
        return cdf, edges[:-1], np.diff(edges) > 1

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Atom indices into ``prob.ravel()`` of ``rng.random(shape)``: bit
        for bit the draws of ``rng.choice(prob.size, p=prob.ravel(),
        size=shape)``, with its refusals (``ValueError``).

        The inverse cdf is Chen and Asau's guide table: a uniform ``u`` lies
        in bucket ``b = int(u * _GUIDE)`` (exact, ``_GUIDE`` a power of two),
        whose left end has ``first[b]`` cdf points at or below it.  A bucket
        holding at most one cdf point answers ``first[b] + (cdf[first[b]]
        <= u)``; the few crowded ones search the cdf."""
        cdf, first, crowded = self._guide
        u = rng.random(shape)
        b = (u * _GUIDE).astype(np.intp)
        i = first[b]
        idx = i + (cdf[i] <= u)
        c = crowded[b]
        idx[c] = cdf.searchsorted(u[c], "right")
        return idx


# buckets of the draws' guide table; a power of two, so a uniform's bucket
# is exact
_GUIDE = 4096


# torus points per evaluator call, which bounds its arrays
_CHUNK = 2048


def increment_atoms(alg: AffineAlgebra, omega: Weight, s: Weight,
                    grid: int | None = None) -> IncrementAtoms:
    """Fourier inversion of the normalized character on the torus.

    ``grid`` is the FFT size per finite axis and must be a power of two
    (default scales with the Gaussian spread of the atoms' root
    coordinates).  The torus points, indices centred on zero, go to the
    alternant evaluator in chunks of ``_CHUNK``; the quotient's certified error, relative to its
    value at ``theta = 0``, is added to the aliasing defect.
    """
    if grid is not None and (grid < 2 or grid & (grid - 1)):
        raise ValueError(f"grid must be a power of two, got {grid}")
    if not classify_weight(alg, omega).dominant or omega.k <= 0:
        raise ValueError("increments need a dominant weight of positive level")
    l = alg.rank
    c = float(pair_delta(alg, s))
    if c <= 0:
        raise ValueError("specialization must have positive delta pairing")
    rho = weyl_vector(alg)
    if grid is None:
        # root coordinate i spreads with variance (k/c) (G^-1)_ii, G the
        # finite Gram matrix: 24 sqrt(k/c) + 8 points (34 standard
        # deviations on A1~), and at least 16 of the widest coordinate (6k/c
        # on G2~'s short root)
        spread = math.sqrt(float(omega.k) / c)
        widest = math.sqrt(float(omega.k) / c * float(max(
            row[i] for i, row in enumerate(_linalg.invert(alg.finite_gram)))))
        need = int(2 ** math.ceil(math.log2(
            max(64.0, 24.0 * spread + 8, 16.0 * widest + 8))))
        grid = min(need, 8192 if l == 1 else 512)

    # FFT order, each index centred on zero so the dual Gaussians stay near
    # the origin; chunks are taken in blocks of nearby points, whose
    # Gaussian centres lie close together
    idx = (np.indices((grid,) * l).reshape(l, -1).T + grid // 2) % grid - grid // 2
    side = 2 ** (int(math.log2(_CHUNK)) // l)
    order = np.lexsort(((idx + grid // 2) // side).T[::-1])
    logf = np.empty(len(idx), dtype=complex)
    log_err = np.empty(len(idx))    # in units of e^{ref}, ref of the first chunk
    for a in range(0, len(idx), _CHUNK):
        at = order[a:a + _CHUNK]
        pts = (idx[at], grid)
        num, den = (_log_alternant(alg, mu, s, pts) for mu in (omega + rho, rho))
        if a == 0:
            ref = num.ref - den.ref
        shift = float(num.ref - den.ref - ref)
        chunk = num.rest - den.rest + shift
        rel_den = np.exp(den.log_err - den.rest.real)
        if not (rel_den < 0.5).all():
            raise ArithmeticError("denominator alternant not resolved on the torus")
        with np.errstate(divide="ignore"):
            log_err[at] = np.logaddexp(
                num.log_err - den.rest.real + shift,
                chunk.real + np.log(rel_den + 2 * _U * abs(shift) * (1 - rel_den))
            ) - np.log1p(-rel_den)
        logf[at] = chunk
    log_f0 = float(ref) + logf[0].real
    if not log_f0 >= math.log1p(-1e-9):
        raise ArithmeticError(
            f"aggregated total e^{log_f0!r} below 1: truncation or precision bug")
    # quotient over its value at theta = 0, and the certified error of that;
    # the error leaves log space only relative to f(0), so it stays in range
    f = np.exp(logf - logf[0].real).reshape((grid,) * l)
    value_err = (math.exp(float(log_err.max()) - logf[0].real)
                 + float(np.abs(f).max()) * math.exp(log_err[0] - logf[0].real))
    atoms = np.fft.ifftn(f)
    imag_max = float(np.abs(atoms.imag).max())
    atoms = atoms.real
    scale = float(atoms.max())
    if imag_max > 1e-9 * scale:
        raise ArithmeticError("atoms came out non-real; grid too small?")
    neg = float(atoms.min())
    if neg < -1e-9 * scale:
        raise ArithmeticError(f"negative atom mass {neg:.3e}; grid too small?")
    atoms = np.clip(atoms, 0.0, None)
    atoms = np.fft.fftshift(atoms)
    lo = tuple(-(grid // 2) for _ in range(l))
    edge = 0.0
    for ax in range(l):
        sl = [slice(None)] * l
        sl[ax] = [0, 1, -2, -1]
        edge = max(edge, float(np.abs(atoms[tuple(sl)]).max()))
    total = float(atoms.sum())
    defect = (edge * grid * l) / total + value_err
    if not defect <= 1e-4:
        raise ArithmeticError(
            f"aliasing defect {defect:.2e}: grid {grid} too small for the "
            "support of the increment measure")
    return IncrementAtoms(alg=alg, omega=omega, spec=s, lo=lo,
                          prob=atoms / total, defect=defect)
