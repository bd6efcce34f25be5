"""Space-time Gaussian dynamics in the affine Weyl chamber.

Points carry a "time-like" level coordinate ``s`` (the Lambda0 component,
advancing deterministically at rate ``h_vee``) and a spatial part ``z`` in
a fixed orthonormal basis of the finite weight space (Cholesky-reduced from
root coordinates, chosen once per algebra).  The module provides:

* the chamber membership test with its margin,
* free and drifted heat kernels on level slices,
* the survival function ``h`` and the gradient of ``log h`` that the
  conditioned sampler draws its drift from, by Kac's denominator product
  (:func:`affinewalks.highestweight.log_kac_product`), which does not
  cancel near the walls or at small levels,
* reflected densities for the killed process (three equivalent forms),
  and their mass on an interval of a rank-1 level slice in closed form,
* Euler-Maruyama sampling of the drifted process, with a Brownian-bridge
  wall-crossing test on each coarse step (exit times are resolved to the
  end of the step): one uniform per path against the running product of
  its stay factors, in blocks of steps under a byte budget, the factors
  skipped where they are exactly 1.0 far from the walls, so criterion 9's
  10 000 A1~ paths over 4 000 steps take about 0.5 s (2-CPU host), most of
  it in the normal draws,
* exact sampling of the conditioned process, whole paths or at recorded
  times: one Doob h-transform transition per recorded gap, made of
  substeps proposed along the Doob drift and accepted by rejection with a
  bound from the concavity of log survival (no time-step bias, no aborted
  path).  Whole paths from rho, 10 x 1000 steps, take about 0.2 s on A1~
  and 0.3 s on A2~ (2-CPU host); 300 A2~ paths from 0.05 rho over four
  gaps of 0.5 take about 4 s,
* finite-difference verifiers for the harmonic identity and for the
  translation-covariance identity of the free kernel.

The Weyl sums of the killed densities are truncated by translation norm
with the certified Gaussian shell bound of
:func:`affinewalks.weyl.orbit_sum_terms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _ALGEBRAS_MAX, AffineAlgebra, Weight, weyl_vector
from .highestweight import log_kac_product
from .weyl import AffineWeylElement, ConvergenceError, apply, orbit_sum_terms

__all__ = [
    "SpaceTimePoint",
    "PathBatch",
    "chamber_test",
    "weight_to_point",
    "survival",
    "reflected_density",
    "wonpt_residual",
    "harmonic_residual",
    "sample_path_batch",
    "OutsideChamberError",
    "GridSizeError",
]


class OutsideChamberError(ValueError):
    pass


class GridSizeError(ValueError):
    """A sampler's time grid of more than ``_MAX_GRID_STEPS`` steps."""


@dataclass
class SpaceTimePoint:
    s: float
    z: np.ndarray


@dataclass
class PathBatch:
    """Vectorized trajectories: ``z[k]`` holds all paths at grid time k*dt
    for each recorded grid index ``k``."""

    times: np.ndarray
    s: np.ndarray                 # level coordinate per grid time
    z: dict[int, np.ndarray] | None   # index -> (n_paths, l); None if none
    exit_times: np.ndarray        # +inf where no exit observed
    aborted: np.ndarray           # all False: no sampler aborts a path
    dt: float
    seed: int

    def exit_fraction(self, horizon: float) -> float:
        # free exit times are grid points k*dt, which can round one ulp
        # past a horizon written in decimal (3*0.1 > 0.3)
        return float(np.mean(self.exit_times <= horizon + 1e-6 * self.dt))


# -- orthonormal frame -------------------------------------------------------------


class _Frame:
    def __init__(self, alg: AffineAlgebra):
        l = alg.rank
        g = np.array([[float(alg.finite_gram[i][j]) for j in range(l)]
                      for i in range(l)])
        self.L = np.linalg.cholesky(g)       # g = L @ L.T
        self.LT = self.L.T
        self.LT_inv = np.linalg.inv(self.LT)
        rho = weyl_vector(alg)
        self.rho_o = self.LT @ np.array([float(x) for x in rho.z])
        self.hv = float(alg.dual_coxeter)
        a = alg.cartan.entries
        rows = np.array([[float(a[i][j]) for j in range(1, l + 1)]
                         for i in range(l + 1)])
        self.pairing = rows @ self.LT_inv    # coroot pairings of the z part
        self.wall_var = (self.pairing ** 2).sum(axis=1)  # |pairing_i|^2
        self.l = l

    def to_orth(self, zfrac) -> np.ndarray:
        return self.LT @ np.array([float(x) for x in zfrac])


@lru_cache(maxsize=_ALGEBRAS_MAX)
def _frame(alg: AffineAlgebra) -> _Frame:
    return _Frame(alg)


def weight_to_point(alg: AffineAlgebra, w: Weight) -> SpaceTimePoint:
    """Drop the delta coordinate and move to orthonormal spatial coordinates."""
    f = _frame(alg)
    return SpaceTimePoint(float(w.k), f.to_orth(w.z))


def chamber_test(alg: AffineAlgebra, p: SpaceTimePoint) -> tuple[bool, float]:
    """All rank+1 coroot pairings nonnegative; margin is the smallest one."""
    f = _frame(alg)
    vals = f.pairing @ p.z
    vals[0] += p.s
    margin = float(vals.min())
    return margin >= 0.0, margin


# -- Weyl terms for the killed densities --------------------------------------------


@dataclass
class _Terms:
    """Weyl terms ``t_alpha w`` in orthonormal coordinates, one row each."""

    sign: np.ndarray              # det(w)
    alpha: np.ndarray             # translation
    rot: np.ndarray               # finite part as an orthogonal matrix
    alpha_norm2: np.ndarray


def _terms_for(alg: AffineAlgebra, s_min: float, z_norm: float,
               rtol: float) -> tuple[_Terms, float]:
    """Terms plus certified bound on everything beyond the chosen radius.

    The survival-type summand is a Weyl-orbit sum of ``x = (s_min, z)``
    at ``rho`` (:func:`~affinewalks.weyl.orbit_sum_terms`, of Gaussian rate
    ``s_min*h_vee/2``); the radius grows until the lattice tail bound sits
    below ``rtol`` in those units.
    """
    if s_min <= 0:
        raise OutsideChamberError(
            "alternating sums need a positive level coordinate")
    f = _frame(alg)
    terms, tail = orbit_sum_terms(alg, s_min, f.hv, float(np.linalg.norm(f.rho_o)),
                                  z_norm, rtol)
    alpha = terms.trans.astype(float) @ f.LT.T
    rot = f.LT @ terms.matrix.astype(float) @ f.LT_inv
    norm2 = np.einsum("ni,ni->n", alpha, alpha)
    return _Terms(terms.sign.astype(float), alpha, rot, norm2), tail


# -- survival function ---------------------------------------------------------------


def _log_h(alg: AffineAlgebra, s, z: np.ndarray):
    """``log h``, its gradient ``(d_s, grad_z)`` and the bound on ``log h``
    of :func:`~affinewalks.highestweight.log_kac_product`, per row of ``z``
    (levels ``s``: one, or one per row); ``(alpha_i|x)`` is ``L z``."""
    L = _frame(alg).L
    lh, ds, dv, err = log_kac_product(alg, s, z @ L.T)
    with np.errstate(invalid="ignore"):     # off the chamber dv is not finite
        return lh, ds, dv @ L, err


# the largest absolute error survival returns
_SURVIVAL_EPS = 1e-12
# truncation of reflected_density's Weyl sum, relative to the heat kernel's scale
_DENSITY_RTOL = 1e-12


def survival(alg: AffineAlgebra, p: SpaceTimePoint):
    """Probability of never leaving the chamber, for the drifted process:
    ``h(x) = sum_w det(w) e^{(x, w(rho)-rho)}``, as Kac's product
    (:func:`~affinewalks.highestweight.log_kac_product`).

    Returns ``(value, bound)``, ``bound`` on the absolute error of the value;
    a bound above ``_SURVIVAL_EPS`` raises
    :class:`~affinewalks.weyl.ConvergenceError`.
    The value lies in (0, 1] inside and is exactly 0.0 on the walls, where
    the bound is the rounding of the wall pairings.  Points outside the
    chamber or at a level ``s <= 0`` raise :class:`OutsideChamberError`.
    """
    inside, margin = chamber_test(alg, p)
    if not inside or p.s <= 0:
        raise OutsideChamberError(
            f"point outside the chamber (margin {margin:.3g}, level {p.s:.3g})")
    lh, _, _, err = _log_h(alg, p.s, p.z[None, :])
    value, f = math.exp(lh[0]), _frame(alg)
    # on a wall a factor 1 - e^{-u} <= u vanished, u within rounding of 0
    bound = (value * math.expm1(err[0]) if value else 8 * (f.l + 2) * np.finfo(
        float).eps * (p.s + float((np.abs(f.pairing) @ np.abs(p.z)).max())))
    if not bound <= _SURVIVAL_EPS:
        raise ConvergenceError(
            f"survival bound {bound:.2e} above eps {_SURVIVAL_EPS:.2e}")
    return value, bound


# -- heat kernels --------------------------------------------------------------------


def reflected_density(alg: AffineAlgebra, x: SpaceTimePoint, y: SpaceTimePoint,
                      t: float, mode: str = "drifted-by-x") -> float:
    """Density of the drifted process killed at the chamber wall.

    modes:  ``drifted-by-x``  sum_w det(w) e^{(w(x)-x, rho)} p^rho_t(bar wx, y)
            ``drifted-by-y``  sum_w det(w) e^{(y-w(y), rho)} p^rho_t(x, bar wy)
            ``undrifted``     rho replaced by h_vee*Lambda0 and p^0 (free kernel
                              form of the same reflection argument)
    """
    tm, _, pref, disp = _reflection_terms(alg, x, y, t, mode)
    e = np.exp(pref - np.einsum("ni,ni->n", disp, disp) / (2 * t))
    return float(tm.sign @ e) * heat_density_scale(alg, t)


def _reflection_terms(alg: AffineAlgebra, x: SpaceTimePoint, y: SpaceTimePoint,
                      t: float, mode: str) -> tuple[_Terms, float, np.ndarray,
                                                    np.ndarray]:
    """The reflection sum of :func:`reflected_density` in ``mode``:
    ``(terms, tail, pref, disp)`` with the density
    ``sum_w det(w) e^{pref_w - |disp_w|^2 / (2t)}`` times the heat kernel's
    scale.  The ``e^{pref_w}`` of the terms beyond ``terms`` sum to at most
    ``tail``.  In ``drifted-by-x`` mode ``disp_w = y - mu_w``, the Gaussian
    of term ``w`` having mean ``mu_w = w(x) + t rho``."""
    f = _frame(alg)
    if abs(y.s - x.s - t * f.hv) > 1e-9:
        raise ValueError("level slice mismatch: need y.s = x.s + t*h_vee")
    if mode not in ("drifted-by-x", "drifted-by-y", "undrifted"):
        raise ValueError(f"unknown mode {mode!r}")
    base = x if mode != "drifted-by-y" else y
    tm, tail = _terms_for(alg, base.s, float(np.linalg.norm(base.z)),
                          _DENSITY_RTOL * heat_density_scale(alg, t))
    w_z, b_w = (a[0] for a in _images(tm, base.s, base.z[None, :]))
    if mode == "drifted-by-x":
        pref = b_w * f.hv + (w_z - x.z) @ f.rho_o
        disp = y.z - t * f.rho_o - w_z
    elif mode == "drifted-by-y":
        pref = -b_w * f.hv - (w_z - y.z) @ f.rho_o
        disp = w_z - t * f.rho_o - x.z
    else:
        pref = b_w * f.hv
        disp = y.z - w_z
    return tm, tail, pref, disp


def _slice_mass(alg: AffineAlgebra, x: SpaceTimePoint, t: float, lo: float,
                hi: float) -> tuple[float, float]:
    """Mass of the killed drifted density from ``x`` after time ``t``
    (:func:`reflected_density`, ``drifted-by-x``) on ``lo <= z <= hi`` of
    the level slice ``x.s + t h_vee``; rank 1 only, where that slice is
    one-dimensional.  Returns ``(mass, bound)``, ``bound`` on the absolute
    error of ``mass``.

    Term ``w`` of the sum is ``det(w) e^{pref_w}`` times the normal density
    of mean ``mu_w`` and variance ``t`` (:func:`_reflection_terms`), so the
    mass is ``sum_w det(w) e^{pref_w} (Phi((hi - mu_w) / sqrt(t))
    - Phi((lo - mu_w) / sqrt(t)))``, with ``hi - mu_w`` and ``lo - mu_w``
    the displacements that the density forms at the two ends.  A difference
    of ``Phi`` is taken from ``erf`` when the ends straddle ``mu_w``, else
    from ``erfc`` of the two ends on the same side, which does not cancel;
    the terms are added by ``math.fsum``.

    The bound, to first order in the machine epsilon ``eps``:

    * the omitted terms carry Gaussians of mass at most 1, so they add at
      most the ``tail`` that bounds the sum of their ``e^{pref_w}``;
    * ``pref_w`` and the end displacements are formed from values of size
      at most ``M_w = h_vee (|alpha| |z| + s |alpha|^2 / 2)
      + |rho| (2 |z| + s |alpha|)`` and
      ``D_w = max(|lo|, |hi|) + t |rho| + |z| + s |alpha|`` (``alpha`` the
      term's translation, ``x = (s, z)``; the finite part is a rotation),
      so they are off by at most ``g M_w`` and ``g D_w``,
      ``g = 8 (rank + 2) eps``, a margin over the operation count that
      also covers scaling the ends by ``1 / sqrt(2t)``;
    * ``g M_w`` in ``pref_w`` scales ``e^{pref_w}`` by at most
      ``1 + 2 g M_w``, and ``exp``, the product and the subtraction add
      ``3 eps``, relative to the term;
    * ``g D_w`` at each end moves its ``Phi`` by at most
      ``g D_w / sqrt(2 pi t)``, the normal density being at most
      ``1 / sqrt(2 pi)``;
    * ``erf`` and ``erfc`` err by at most ``2 eps`` of their values
      ``E_1, E_2``, halved exactly: ``eps (E_1 + E_2)``;
    * ``math.fsum`` rounds the exact sum of the terms once: ``eps |mass|``.
    """
    if alg.rank != 1:
        raise ValueError("the slice mass needs a one-dimensional level slice "
                         f"(rank 1), got rank {alg.rank}")
    f = _frame(alg)
    sy = x.s + t * f.hv
    (tm, tail, pref, d_lo), (_, _, _, d_hi) = (
        _reflection_terms(alg, x, SpaceTimePoint(sy, np.array([end])), t,
                          "drifted-by-x") for end in (lo, hi))
    eps = float(np.finfo(float).eps)
    g = 8 * (f.l + 2) * eps
    alpha = np.sqrt(tm.alpha_norm2)
    z, rho = float(np.linalg.norm(x.z)), float(np.linalg.norm(f.rho_o))
    pref_err = 2 * g * (f.hv * (alpha * z + 0.5 * x.s * tm.alpha_norm2)
                        + rho * (2 * z + x.s * alpha)) + 3 * eps
    ends_err = (2 * g * (max(abs(lo), abs(hi)) + t * rho + z + x.s * alpha)
                / math.sqrt(2 * math.pi * t))
    root = math.sqrt(2 * t)         # Phi(d / sqrt(t)) = erfc(-d / root) / 2
    terms, errs = [], []
    for sign, p, u, v, p_err, d_err in zip(tm.sign, pref, d_lo[:, 0] / root,
                                           d_hi[:, 0] / root, pref_err,
                                           ends_err):
        if u >= 0:              # both ends above the mean
            e1, e2 = math.erfc(u), math.erfc(v)
            diff = 0.5 * (e1 - e2)
        elif v <= 0:            # both ends below it
            e1, e2 = math.erfc(-v), math.erfc(-u)
            diff = 0.5 * (e1 - e2)
        else:
            e1, e2 = math.erf(v), math.erf(-u)
            diff = 0.5 * (e1 + e2)
        w = math.exp(p)
        terms.append(sign * w * diff)
        errs.append(w * (abs(diff) * p_err + d_err + eps * (e1 + e2)))
    mass = math.fsum(terms)
    return mass, tail + math.fsum(errs) + eps * abs(mass)


def _images(tm: _Terms, s, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite part, shape (n_paths, n_terms, l), and delta coordinate,
    shape (n_paths, n_terms), of ``w(x)`` for each path ``x = (s, z)``
    (rows of ``z``, levels ``s``: one, or one per path) and each term ``w``."""
    s = np.reshape(s, (-1, 1))
    rot_z = (tm.rot @ z.T).transpose(2, 0, 1)
    w_z = rot_z + s[:, :, None] * tm.alpha
    b_w = -(np.einsum("pti,ti->pt", rot_z, tm.alpha) + 0.5 * tm.alpha_norm2 * s)
    return w_z, b_w


def heat_density_scale(alg: AffineAlgebra, t: float) -> float:
    return 1.0 / (2 * math.pi * t) ** (_frame(alg).l / 2)


# -- identity verifiers --------------------------------------------------------------


def wonpt_residual(alg: AffineAlgebra, x: Weight, y: Weight, t: float,
                   w: AffineWeylElement) -> float:
    """Log-space gap in the translation covariance of the free kernel:

    ``p0_t(bar wx, bar wy) = e^{(w(y-x)-(y-x), hv*Lambda0)} p0_t(bar x, bar y)``.

    Exact weight arithmetic feeds both sides; the residual is the absolute
    difference of the two log densities divided by max(1, |log lhs|).
    """
    f = _frame(alg)
    if abs(float(y.k - x.k) - t * f.hv) > 1e-9:
        raise ValueError("level consistency (y|delta) = (x|delta) + t*h_vee required")
    wx, wy = apply(alg, w, x), apply(alg, w, y)

    def log_p0(a: Weight, b: Weight) -> float:
        za = f.to_orth(a.z)
        zb = f.to_orth(b.z)
        disp = zb - za
        return (-float(disp @ disp) / (2 * t)
                - 0.5 * f.l * math.log(2 * math.pi * t))

    lhs = log_p0(wx.bar(), wy.bar())
    w_factor = (wy - wx) - (y - x)
    factor = f.hv * float(w_factor.b)
    rhs = factor + log_p0(x.bar(), y.bar())
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def harmonic_residual(alg: AffineAlgebra, w: AffineWeylElement,
                      p: SpaceTimePoint, step: float) -> float:
    """Central finite differences of the generator applied to
    ``g_w(s, z) = exp((s*Lambda0 + z, w(rho) - rho))``, normalized by g_w(p).

    The generator is ``Laplacian/2 + h_vee d/ds + (rho-drift) . grad``; the
    exact identity makes the residual O(step^2).
    """
    f = _frame(alg)
    rho = weyl_vector(alg)
    wrho = apply(alg, w, rho)
    diff = wrho - rho
    b_w = float(diff.b)
    c_w = f.to_orth(diff.z)

    def g(s, z):
        return math.exp(s * b_w + float(c_w @ z))

    g0 = g(p.s, p.z)
    lap = 0.0
    drift = 0.0
    for i in range(f.l):
        e = np.zeros(f.l)
        e[i] = step
        gp, gm = g(p.s, p.z + e), g(p.s, p.z - e)
        lap += (gp - 2 * g0 + gm) / step**2
        drift += f.rho_o[i] * (gp - gm) / (2 * step)
    dt_term = f.hv * (g(p.s + step, p.z) - g(p.s - step, p.z)) / (2 * step)
    return (0.5 * lap + dt_term + drift) / g0


# -- sampling ------------------------------------------------------------------------


def _wall_margins(f: _Frame, s: float, z: np.ndarray) -> np.ndarray:
    """Coroot pairings of each path with every wall, shape (n_paths, rank+1)."""
    vals = z @ f.pairing.T
    vals[:, 0] += s
    return vals


# proposals one path may make within one recorded gap before the exact
# conditioned sampler gives up; a proposal accepts with probability about
# 1/2 or more
_MAX_ROUNDS = 10_000
# path x term entries one slice of q/p sums evaluates at most
_CHUNK = 1 << 18


def _conditioned_transitions(alg: AffineAlgebra, rng: np.random.Generator,
                             s: float, z: np.ndarray, gaps):
    """Exact transitions of the conditioned process from the rows of ``z``
    (all at level ``s``), one per entry of ``gaps``; yields the positions
    after each.

    A gap is covered by substeps, which compose exactly.  From ``x``, with
    ``(S, G)`` the gradient of ``log h`` in ``(s, z)``, a substep of length
    ``tau`` proposes ``y = x + tau (rho + G) + N(0, tau)`` and accepts with
    probability ``(q/p)(x, y) exp(log h(y) - log h(x) - (y - x).(S, G))``
    (``q`` the killed and ``p`` the free drifted density), so an accepted
    ``y`` has density ``q(x, y) h(y) / h(x)``.  Both factors are at most 1:
    ``log h`` is Kac's product (:func:`_log_h`), a sum of concave terms
    ``log(1 - e^{-(x, beta)})``, and a gap above the rounding bound of the
    two values and the tangent raises.  The mean acceptance
    is ``exp(-tau r)``, ``r = h_vee S + rho.G + |G|^2/2``, and
    ``tau = min(time left, log 2 / r)`` keeps it at 1/2 or more.  ``q/p``,
    the chance that the bridge from ``x`` to ``y`` stays in the chamber, is
    at least ``1 - sum_i exp(-2 a_i b_i / (|pairing_i|^2 tau))`` (wall
    margins ``a_i``, ``b_i`` at the ends); its Weyl sum is evaluated only
    where that bound leaves the decision open, in slices of at most
    ``_CHUNK`` path x term entries.  Each round proposes once for every
    path not yet through the gap.
    """
    f = _frame(alg)
    z = z.copy()

    def log_h(s_at, z_at):
        """log h, its gradient (S, G), its error bound and the rate r, per
        path; outside the chamber log h is -inf and the rest undefined."""
        lh, S, G, err = _log_h(alg, s_at, z_at)
        with np.errstate(invalid="ignore"):
            rate = f.hv * S + G @ f.rho_o + 0.5 * np.einsum("pi,pi->p", G, G)
        return lh, S, G, err, np.maximum(rate, 1e-300)

    # the q/p sum's certificate holds for every level above s and norm
    # below z_cert
    z_cert = math.sqrt(f.l) * float(np.abs(z).max()) + 1.0
    tm, tail = _terms_for(alg, s, z_cert, 1e-14)
    lh, S, G, err, rate = log_h(s, z)
    for gap in gaps:
        s_end = s + f.hv * gap
        left = np.full(len(z), float(gap))
        rounds = np.zeros(len(z), dtype=int)
        idx = np.arange(len(z))           # the paths still in this gap
        while idx.size:
            if rounds[idx].max() >= _MAX_ROUNDS:
                raise ConvergenceError(
                    f"conditioned path not accepted within {_MAX_ROUNDS} "
                    "proposals in one gap")
            rounds[idx] += 1
            x, Gx, left_x = z[idx], G[idx], left[idx]
            tau = np.minimum(left_x, math.log(2.0) / rate[idx])
            dz = (tau[:, None] * (f.rho_o + Gx)
                  + rng.standard_normal(x.shape) * np.sqrt(tau)[:, None])
            y, left_y = x + dz, left_x - tau
            sx, sy = s_end - f.hv * left_x, s_end - f.hv * left_y
            u = rng.random(idx.size)
            y_norm = math.sqrt(f.l) * float(np.abs(y).max())
            if y_norm > z_cert:
                z_cert = y_norm + 1.0
                tm, tail = _terms_for(alg, s, z_cert, 1e-14)
            lh_y, S_y, G_y, err_y, rate_y = log_h(sy, y)
            # outside the chamber q vanishes and log h is not concave
            a, b = _wall_margins(f, sx, x), _wall_margins(f, sy, y)
            tangent = np.column_stack(((sy - sx) * S[idx], Gx * dz))
            log_gap = np.where(b.min(axis=1) > 0, lh_y - lh[idx]
                               - tangent.sum(axis=1), -np.inf)
            # the two values' bounds, and the tangent's own rounding
            slack = (err[idx] + err_y + 4 * (f.l + 2) * np.finfo(float).eps
                     * np.abs(tangent).sum(axis=1))
            if not np.all(log_gap <= slack):
                raise FloatingPointError("log survival above its tangent plane "
                                         "beyond the rounding of Kac's product")
            bound = np.exp(log_gap)
            cross = np.exp(-2.0 * a * np.maximum(b, 0.0) / (f.wall_var * tau[:, None]))
            accept = u < (1.0 - cross.sum(axis=1)) * bound
            open_ = np.flatnonzero(~accept & (u < bound))
            step = max(1, _CHUNK // tm.sign.size)
            for o in (open_[i:i + step] for i in range(0, open_.size, step)):
                qp = _killed_over_free(f, tm, tail, sx[o], x[o], dz[o], tau[o])
                accept[o] = u[o] < qp * bound[o]
            acc = idx[accept]
            z[acc], left[acc] = y[accept], left_y[accept]
            lh[acc], S[acc], G[acc], err[acc], rate[acc] = (
                lh_y[accept], S_y[accept], G_y[accept], err_y[accept],
                rate_y[accept])
            done = accept & (left_y <= 0)
            idx = idx[~done]
        s = s_end
        yield z.copy()


def _killed_over_free(f: _Frame, tm: _Terms, tail: float, s: np.ndarray,
                      x: np.ndarray, dz: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """``(q/p)(x, x + dz)`` over time ``tau``, per path: the drifted-by-x
    sum of :func:`reflected_density` over the free drifted Gaussian, whose
    terms are those of ``h`` times at most ``exp(|d|^2 / (2 tau))``.  A
    value above 1 beyond that tail plus rounding raises."""
    d = dz - tau[:, None] * f.rho_o     # y - tau rho - w(x) = d + x - w(x)
    w_z, b_w = _images(tm, s, x)
    shift = x[:, None, :] - w_z
    e = np.exp(b_w * f.hv - shift @ f.rho_o
               - (2 * np.einsum("pi,pti->pt", d, shift)
                  + np.einsum("pti,pti->pt", shift, shift)) / (2 * tau[:, None]))
    qp = e @ tm.sign
    qp_bound = (tail * np.exp(np.einsum("pi,pi->p", d, d) / (2 * tau))
                + tm.sign.size * np.finfo(float).eps * e.sum(axis=1))
    if not np.all(qp <= 1 + qp_bound):
        raise FloatingPointError("killed over free density above 1 beyond "
                                 "its certified bound")
    return qp


# grid steps sample_path_batch accepts; its time and level arrays take 16
# bytes a step before any path moves
_MAX_GRID_STEPS = 10 ** 7
# bytes per block of free paths, over the block's positions and one wall's
# margins: the block length is this over the bytes one step of the moving
# paths takes (the stay factors are formed only near the walls)
_BLOCK_BYTES = 1 << 20
# -expm1(-x) rounds to 1.0 in float64 for every x above 37.5: a path whose
# margins on wall i stay at or above sqrt(_FAR |pairing_i|^2 dt) over a
# block, both ends included, has a stay factor of exactly 1.0 on that wall
# at every step of the block (2 _FAR = 38, the few roundings in between
# cannot bring it below 37.5)
_FAR = 19.0


def _block_steps(n_moving: int, l: int) -> int:
    """Grid steps per block of ``n_moving`` free paths of rank ``l``."""
    return max(1, _BLOCK_BYTES // (8 * (l + 2) * max(n_moving, 1)))


def _wall_pairing(f: _Frame, i: int, z: np.ndarray, out=None) -> np.ndarray:
    """Pairing of the z part with wall ``i``, over the last axis of ``z``,
    summed in coordinate order (so a block and a single step agree bit for
    bit); wall 0 also needs the level."""
    m = np.multiply(z[..., 0], f.pairing[i, 0], out=out)
    for j in range(1, f.l):
        m += z[..., j] * f.pairing[i, j]
    return m


def sample_path_batch(alg: AffineAlgebra, x0: SpaceTimePoint, t_max: float,
                      dt: float, n_paths: int, seed: int,
                      conditioned: bool, record: bool = False,
                      record_times: tuple[float, ...] = ()) -> PathBatch:
    """Batch of paths on the grid ``k*dt``.

    The level coordinate advances deterministically by ``h_vee * dt``.  A
    grid of more than ``_MAX_GRID_STEPS`` steps raises
    :class:`GridSizeError` before anything is allocated.

    Free paths (``conditioned=False``) take one Gaussian step per grid
    interval with the constant drift rho.  A Brownian-bridge test on the
    margins at both ends of the step detects wall crossings between grid
    points; the exit time is the end of the coarse step in which the
    crossing was detected.  Wall margin i is a Brownian motion with
    variance rate ``|pairing_i|^2``; given margins ``a, b > 0`` at the two
    ends it stayed positive with probability
    ``1 - exp(-2ab / (|pairing_i|^2 dt))``, and the product over the walls
    is Gobet's stay factor for the alcove.  Each path draws one uniform
    ``U`` and exits at the first grid step where the running product of
    its stay factors is ``<= U``, so given the path it is alive after k
    steps with probability the product of its first k factors, as with one
    Bernoulli draw per step.

    Free paths advance in blocks of grid steps, as many as the byte budget
    ``_BLOCK_BYTES`` holds at the number of moving paths: one normal draw
    of shape (steps, moving paths, rank), one ``cumsum`` for the positions,
    then wall by wall the margins at every grid level of the block, and one
    ``cumprod`` of the stay factors, whose first crossing gives the exit.
    A path whose margins on a wall stay at or above
    ``sqrt(_FAR |pairing_i|^2 dt)`` over the block, both ends included, has
    stay factor exactly 1.0 on that wall at every step, so that factor is
    not formed; a path far from every wall takes no ``expm1`` and no
    product at all.  A recorded free path keeps moving after its exit (exit
    is a stopping time of the free process, not an absorbing state), but
    only the paths not yet exited are tested; without recording an exited
    path leaves at the end of its block.

    Conditioned paths are exact: each recorded position is drawn from the
    previous one by the h-transform transition over the gap (see
    :func:`_conditioned_transitions`), so ``dt`` only places the recorded
    indices, and no path exits or aborts (``aborted`` is all False).

    ``record=True`` records every grid index, ``record_times`` the indices
    nearest those times; ``PathBatch.z`` maps each recorded index to the
    positions of all paths (empty arrays for no paths; a negative
    ``n_paths`` raises ``ValueError``).
    """
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    steps = t_max / dt
    if not steps <= _MAX_GRID_STEPS:
        raise GridSizeError(f"a grid of {steps:.3g} steps (horizon {t_max:g}, "
                            f"dt {dt:g}) is past the cap of {_MAX_GRID_STEPS}")
    f = _frame(alg)
    _, margin = chamber_test(alg, x0)
    if conditioned and margin <= 0:
        raise OutsideChamberError("conditioned sampling needs an interior start")
    rng = np.random.Generator(np.random.Philox(seed))
    n_steps = int(round(steps))
    times = np.arange(n_steps + 1) * dt
    svals = x0.s + times * f.hv

    z = np.tile(x0.z, (n_paths, 1))
    exit_times = np.full(n_paths, np.inf)

    rec_idx = (set(range(n_steps + 1)) if record
               else {int(round(t / dt)) for t in record_times})
    recorded = {0: z.copy()} if 0 in rec_idx else {}

    if conditioned:
        ks = sorted(i for i in rec_idx if 0 < i <= n_steps)
        gaps = np.diff(times[[0] + ks])
        recorded.update(zip(ks, _conditioned_transitions(
            alg, rng, x0.s, z, gaps) if n_paths else (z.copy() for _ in gaps)))
    else:
        ids = np.arange(n_paths)        # path index of each tested path
        u = rng.random(n_paths)         # it exits once alive <= u
        alive = np.ones(n_paths)        # its running product of stay factors
        # its margins at the current grid level, one row per wall
        edge = np.array([_wall_pairing(f, i, z) for i in range(f.l + 1)])
        edge[0] += svals[0]
        far = np.sqrt(_FAR * f.wall_var * dt)
        scale = -2.0 / (f.wall_var * dt)
        until, k0 = max(rec_idx, default=0), 0
        while k0 < n_steps and (ids.size or k0 < until):
            b = min(n_steps - k0, _block_steps(len(z), f.l))
            block = rng.standard_normal((b, len(z), f.l))
            block *= math.sqrt(dt)
            block += f.rho_o * dt
            block[0] += z
            np.cumsum(block, axis=0, out=block)     # grid k0+1 .. k0+b
            zt = block if ids.size == len(z) else block[:, ids]
            near = []               # (tested columns, stay factors) per wall
            m = np.empty((b + 1, ids.size))     # one wall's margins
            for i in range(f.l + 1):
                m[0] = edge[i]
                _wall_pairing(f, i, zt, out=m[1:])
                if i == 0:
                    m[1:] += svals[k0 + 1:k0 + b + 1, None]
                edge[i] = m[-1]
                cols = np.flatnonzero(m.min(axis=0) < far[i])
                if cols.size:
                    a = np.maximum(m[:, cols], 0.0)
                    q = a[:-1] * a[1:]
                    q *= scale[i]
                    np.expm1(q, out=q)
                    near.append((cols, np.negative(q, out=q)))
            keep = np.ones(ids.size, dtype=bool)
            if near:
                union = np.zeros(ids.size, dtype=bool)
                for c, _ in near:
                    union[c] = True
                cols = np.flatnonzero(union)
                run = np.ones((b, cols.size))
                for c, q in near:
                    run[:, np.searchsorted(cols, c)] *= q
                run[0] *= alive[cols]
                np.cumprod(run, axis=0, out=run)
                crossed = run <= u[cols]
                first = crossed.argmax(axis=0)
                hit = crossed[first, np.arange(cols.size)]
                exit_times[ids[cols[hit]]] = times[k0 + 1 + first[hit]]
                alive[cols] = run[-1]
                keep[cols[hit]] = False
            for k in range(k0 + 1, k0 + b + 1):
                if k in rec_idx:
                    recorded[k] = block[k - k0 - 1].copy()
            z = block[-1].copy() if rec_idx else block[-1][keep]
            ids, u, alive, edge = ids[keep], u[keep], alive[keep], edge[:, keep]
            k0 += b
            del block, zt, m    # before the next block is drawn

    return PathBatch(times=times, s=svals, z=recorded or None,
                     exit_times=exit_times,
                     aborted=np.zeros(n_paths, dtype=bool), dt=dt, seed=seed)
