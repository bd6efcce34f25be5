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

One subtlety: near criticality the two orbit sums individually cancel to
``exp(-O(1/c))`` while their terms are O(1), far below float64 resolution.
Their size is known in advance from the stable product form of the
denominator, so the grid evaluation runs in mpmath at exactly the needed
precision.  Each orbit sum is a DFT of its coefficients folded onto
``m mod grid``, so its values on the whole power-of-two torus grid come
from one radix-2 mp FFT per axis; the O(1) ratio is then downcast and
inverted by the float64 FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .algebra import AffineAlgebra, Weight, classify_weight, weyl_vector
from .characters import Specialization, delta_pairing
from .highestweight import alternant_terms, positive_roots

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
    spec: Specialization
    lo: tuple[int, ...]
    prob: np.ndarray
    defect: float

    def probability(self, m) -> float:
        idx = tuple(int(mi) - lo for mi, lo in zip(m, self.lo))
        if any(i < 0 or i >= n for i, n in zip(idx, self.prob.shape)):
            return 0.0
        return float(self.prob[idx])

    def offsets(self) -> np.ndarray:
        if self.alg.rank != 1:
            raise NotImplementedError
        return np.arange(self.lo[0], self.lo[0] + self.prob.size)


def _log_denominator_value(alg: AffineAlgebra, s: Specialization,
                           depth: int) -> float:
    """Stable log of the alternating denominator sum via the product form."""
    c = delta_pairing(alg, s)
    out = 0.0
    for (n, r, mult) in positive_roots(alg, depth):
        pairing = float(n * c + alg.finite_inner(
            [Fraction(x) for x in r], s.point.z))
        out += mult * math.log1p(-math.exp(-pairing))
    return out


def _mp_terms(alg, mu, s, depth_cut, c_frac: Fraction):
    """Alternant terms with weights exponentiated at working precision.

    The exponents are kept as exact rationals until the mp evaluation:
    float64-rounded logs would inject O(1e-14) absolute noise per term,
    which the near-total cancellation of the sums then amplifies.
    """
    terms = alternant_terms(alg, mu, depth_cut)
    out = []
    for (d, m), coeff in terms.items():
        logw = -(d * c_frac) - alg.finite_inner(
            [Fraction(x) for x in m], s.point.z)
        w = mp.e ** (mp.mpf(logw.numerator) / logw.denominator)
        out.append((m, coeff * w))
    return out


def _fft_mp(x: list, roots: list) -> list:
    """Radix-2 forward DFT ``X[k] = sum_r x[r] roots[k*r mod n]`` in mp
    arithmetic; ``roots[j] = exp(-2 pi i j / n)`` and ``n`` a power of two."""
    n = len(x)
    if n == 1:
        return list(x)
    even = _fft_mp(x[0::2], roots[0::2])
    odd = _fft_mp(x[1::2], roots[0::2])
    half = n // 2
    out = [None] * n
    for k in range(half):
        t = roots[k] * odd[k]
        out[k] = even[k] + t
        out[k + half] = even[k] - t
    return out


def _torus_values(terms, l: int, roots: list) -> np.ndarray:
    """``sum_k cf_k roots[idx.m_k mod grid]`` at every torus point ``idx``.

    The coefficients are folded onto ``m mod grid`` (mp additions at the
    working precision), and the folded array is transformed by the 1-D mp
    FFT along each of the ``l`` axes.
    """
    grid = len(roots)
    arr = np.empty((grid,) * l, dtype=object)
    arr.fill(mp.mpf(0))
    for m, cf in terms:
        idx = tuple(int(x) % grid for x in m)
        arr[idx] = arr[idx] + cf
    for ax in range(l):
        moved = np.moveaxis(arr, ax, -1)
        lines = np.empty((moved.size // grid, grid), dtype=object)
        for i, line in enumerate(moved.reshape(-1, grid)):
            lines[i, :] = _fft_mp(list(line), roots)
        arr = np.moveaxis(lines.reshape(moved.shape), -1, ax)
    return arr


def increment_atoms(alg: AffineAlgebra, omega: Weight, s: Specialization,
                    grid: int | None = None) -> IncrementAtoms:
    """Fourier inversion of the normalized character on the torus.

    ``grid`` is the FFT size per finite axis and must be a power of two
    (default scales with the Gaussian spread of the atoms).  The orbit sums
    at the torus origin cancel all the way down to the denominator product
    value, so both the delta-depth cutoff and the working precision are
    sized from the stable log of that product.  Both sums are evaluated on
    the whole torus at once: their mp coefficients are folded onto
    ``m mod grid`` and transformed by a radix-2 mp FFT along each axis.
    """
    if grid is not None and (grid < 2 or grid & (grid - 1)):
        raise ValueError(f"grid must be a power of two, got {grid}")
    if not classify_weight(alg, omega).dominant or omega.k <= 0:
        raise ValueError("increments need a dominant weight of positive level")
    l = alg.rank
    c = float(delta_pairing(alg, s))
    if c <= 0:
        raise ValueError("specialization must have positive delta pairing")
    rho = weyl_vector(alg)
    if grid is None:
        spread = math.sqrt(float(omega.k) / c)
        need = int(2 ** math.ceil(math.log2(max(64.0, 24.0 * spread + 8))))
        grid = min(need, 8192 if l == 1 else 512)

    # the sums at theta=0 equal the denominator product times an O(1)
    # ratio; both the term cutoff and the precision must resolve it
    log_den = _log_denominator_value(alg, s, int(math.ceil(60.0 / c)) + 1)
    tail_log = max(46.0, -log_den + 40.0)
    depth_cut = int(math.ceil(tail_log / c)) + 1
    dps = max(30, int(math.ceil(tail_log / math.log(10))) + 20)
    c_frac = delta_pairing(alg, s)

    with mp.workdps(dps):
        roots = [mp.e ** (-2j * mp.pi * mp.mpf(j) / grid) for j in range(grid)]
        num = _torus_values(
            _mp_terms(alg, omega + rho, s, depth_cut, c_frac), l, roots)
        den = _torus_values(_mp_terms(alg, rho, s, depth_cut, c_frac), l, roots)
        if any(v == 0 for v in den.flat):
            raise ArithmeticError("denominator vanished on the torus")
        f = np.array([complex(a / b) for a, b in zip(num.flat, den.flat)],
                     dtype=complex).reshape(num.shape)

    f0 = f[(0,) * l].real
    if not (f0 >= 1.0 - 1e-9):
        raise ArithmeticError(
            f"aggregated total {f0!r} below 1: truncation or precision bug")
    f = f / f0
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
    defect = (edge * grid * l) / total + math.exp(-tail_log) * 10.0
    if defect > 1e-4:
        raise ArithmeticError(
            f"aliasing defect {defect:.2e}: grid {grid} too small for the "
            "support of the increment measure")
    return IncrementAtoms(alg=alg, omega=omega, spec=s, lo=lo,
                          prob=atoms / total, defect=defect)
