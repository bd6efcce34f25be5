"""Random walk on the integral weights, the tensor-product Markov kernel on
dominant weights, their projections modulo delta, and the discrete
reflection-principle verifier.

State keys for the projected (barred) kernels are weights with the delta
coordinate set to zero: modules whose highest weights differ by a multiple
of delta are isomorphic, so kernels only depend on the barred data.  The
unprojected kernel rows keep exact weights, delta coordinate included.

Row defects are estimated independently of the row-sum identity being
tested: the mass beyond the requested depth is summed out to a resolution
depth and the remainder is bounded by a fitted geometric envelope with a
factor-two safety margin, so "mass + defect = 1" stays a genuine check of
the character-product decomposition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .algebra import (AffineAlgebra, Weight, classify_weight, inner_product,
                      weyl_vector)
from .characters import (ConvergenceError, EvalResult, Specialization,
                         delta_pairing, eval_character, gaussian_lattice_tail)
from .highestweight import (branching_mult, character_series_oracle,
                            _tensor_cached)
from .weyl import apply, enumerate_bounded, finite_group

__all__ = [
    "DiscreteDistribution",
    "KernelRow",
    "ChainDefectError",
    "FastBarredKernel",
    "mu_omega",
    "q_omega_row",
    "barred_row",
    "pbar_power",
    "simulate_chain",
    "reflection_discrete_residual",
    "dominant_states",
]


class ChainDefectError(RuntimeError):
    """A sampling draw landed in (or a row exceeded) the defect mass."""


@dataclass
class DiscreteDistribution:
    support: list[tuple[Weight, float]]
    defect: float

    def total(self) -> float:
        return sum(p for _, p in self.support)


@dataclass
class KernelRow:
    source: Weight
    entries: list[tuple[Weight, float]]
    defect: float

    def total(self) -> float:
        return sum(p for _, p in self.entries)


def _require_positive_level(omega: Weight) -> None:
    if omega.k <= 0:
        raise ValueError("kernel construction requires level(omega) > 0")


# least-recently-used character values; the full test suite holds at most
# 66 at once (the exact-rows benchmark pass 21), so nothing there evicts
_CH_CACHE_MAX = 512
_CH_CACHE: dict[tuple, EvalResult] = {}


def _log_ch(alg: AffineAlgebra, w: Weight, s: Specialization,
            eps: float = 1e-12) -> float:
    """log character value; cached on the barred representative."""
    canon = w.bar()
    key = (alg.cartan.entries, canon, s.point, eps)
    res = _CH_CACHE.pop(key, None)
    if res is None:
        res = eval_character(alg, canon, s, eps=eps)
        if len(_CH_CACHE) >= _CH_CACHE_MAX:
            del _CH_CACHE[next(iter(_CH_CACHE))]
    _CH_CACHE[key] = res
    shift = float(w.b) * float(delta_pairing(alg, s))
    return res.log_value + shift


def mu_omega(alg: AffineAlgebra, omega: Weight, s: Specialization,
             depth: int) -> DiscreteDistribution:
    """Increment law of the weight walk: multiplicity times the exponential
    of the pairing, normalized by the character value."""
    _require_positive_level(omega)
    table = character_series_oracle(alg, omega, depth)
    log_ch = _log_ch(alg, omega, s)
    p = s.point
    support = []
    for (d, m), mult in sorted(table.entries.items()):
        mu = table.weight_of(alg, d, m)
        logp = math.log(mult) + float(inner_product(alg, mu, p)) - log_ch
        support.append((mu, math.exp(logp)))
    mass = math.fsum(pr for _, pr in support)
    return DiscreteDistribution(support=support, defect=max(0.0, 1.0 - mass))


# -- dominant state enumeration ----------------------------------------------------


def dominant_states(alg: AffineAlgebra, level: int) -> list[Weight]:
    """All dominant integral barred weights of a given level (b = 0)."""
    l = alg.rank
    if level < 0:
        return []
    finite = tuple(tuple(Fraction(alg.cartan.entries[i][j])
                         for j in range(1, l + 1)) for i in range(1, l + 1))
    inv = _linalg.invert(finite)
    out = []
    ranges = [range(0, level // alg.comarks[i] + 1) for i in range(1, l + 1)]
    for q in itertools.product(*ranges):
        q0 = level - sum(alg.comarks[i + 1] * q[i] for i in range(l))
        if q0 < 0 or q0 % alg.comarks[0] != 0:
            continue
        z = _linalg.mat_vec(inv, [Fraction(x) for x in q])
        out.append(Weight.make(level, z, 0))
    out.sort(key=lambda w: w.z)
    return out


# -- kernel rows -------------------------------------------------------------------


def _row_candidates(alg: AffineAlgebra, lam: Weight, omega: Weight, depth: int):
    """Dominant candidates for components of V(lam) (x) V(omega), per depth.

    The Minkowski sum of the two orbit-hull balls is a proven superset of
    the tensor-product weights, hence of its highest-weight components.
    """
    top = lam + omega
    center = [a + b for a, b in zip(lam.z, omega.z)]
    r_lam = float(alg.finite_norm2(lam.z))
    r_om = float(alg.finite_norm2(omega.z))
    from .highestweight import _ball_ints
    for d in range(depth + 1):
        rad = (math.sqrt(r_lam + 2 * float(lam.k) * d)
               + math.sqrt(r_om + 2 * float(omega.k) * d))
        r2 = Fraction(rad * rad * (1 + 1e-9)).limit_denominator(10**12)
        for m in _ball_ints(alg, [Fraction(c) for c in center], r2):
            beta = top - Weight.make(0, m, d)
            if classify_weight(alg, beta).dominant:
                yield d, m, beta


def q_omega_row(alg: AffineAlgebra, lam: Weight, omega: Weight,
                s: Specialization, depth: int,
                defect_resolution: int | None = None,
                defect_target: float = 1e-7,
                extend_entries: bool = False) -> KernelRow:
    """One row of the tensor-product kernel on dominant weights.

    Entries cover dominant ``beta`` with nonzero branching multiplicity at
    delta-depth <= ``depth`` below ``lam + omega``; each probability is
    ``M(beta) ch(beta) / (ch(lam) ch(omega))``.  The defect sums the same
    expression over ``depth < d <= resolution`` and adds a fitted geometric
    envelope for everything beyond, extending the resolution until the
    envelope drops below ``defect_target`` (or a hard cap trips).
    """
    _require_positive_level(omega)
    if not classify_weight(alg, lam).dominant:
        raise ValueError("row source must be dominant integral")
    log_norm = _log_ch(alg, lam, s) + _log_ch(alg, omega, s)
    entries: list[tuple[Weight, float]] = []
    layer_mass: dict[int, float] = {}

    resolution = defect_resolution if defect_resolution is not None else depth
    hard_cap = max(depth, resolution, 40) + 1200

    def compute_layers(dmax, dmin=0):
        for d, m, beta in _row_candidates(alg, lam, omega, dmax):
            if d < dmin:
                continue
            mlt = branching_mult(alg, lam, omega, 1, beta)
            if mlt == 0:
                continue
            pr = math.exp(math.log(mlt) + _log_ch(alg, beta, s) - log_norm)
            layer_mass[d] = layer_mass.get(d, 0.0) + pr
            if d <= depth or extend_entries:
                entries.append((beta, pr))

    compute_layers(resolution)
    while True:
        tail = _geometric_tail(layer_mass, resolution)
        if tail <= defect_target:
            break
        if resolution >= hard_cap:
            raise ChainDefectError(
                f"row defect envelope not below {defect_target} at depth {resolution}")
        step = max(10, resolution // 2)
        compute_layers(min(resolution + step, hard_cap), resolution + 1)
        resolution = min(resolution + step, hard_cap)

    if extend_entries:
        return KernelRow(source=lam, entries=entries, defect=tail)
    beyond = math.fsum(v for d, v in layer_mass.items() if d > depth)
    return KernelRow(source=lam, entries=entries, defect=beyond + tail)


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


def barred_row(alg: AffineAlgebra, lam0: Weight, omega: Weight,
               s: Specialization, depth: int, **kw) -> dict[Weight, float]:
    """Row of the projected kernel: aggregate an exact row over delta shifts."""
    kw.setdefault("extend_entries", True)
    row = q_omega_row(alg, lam0.bar(), omega, s, depth, **kw)
    out: dict[Weight, float] = {}
    for beta, pr in row.entries:
        key = beta.bar()
        out[key] = out.get(key, 0.0) + pr
    return out


# -- projected n-step walk kernel --------------------------------------------------


def pbar_power(alg: AffineAlgebra, omega: Weight, s: Specialization,
               n_steps: int, lam0: Weight, beta0: Weight, depth: int,
               with_tail: bool = False):
    """n-step transition of the projected weight walk:

    ``sum over delta-shifts`` of the tensor-power multiplicity at
    ``beta - lam0`` times the pairing exponential, over ``ch(omega)^n``.
    """
    _require_positive_level(omega)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    lam0, beta0 = lam0.bar(), beta0.bar()
    if n_steps == 0:
        val = 1.0 if (lam0 == beta0) else 0.0
        return (val, 0.0) if with_tail else val
    diff = beta0 - lam0
    if diff.k != n_steps * omega.k:
        raise ValueError("level gap must equal n_steps * level(omega)")
    zeta = [Fraction(n_steps) * omega.z[i] - diff.z[i] for i in range(alg.rank)]
    if any(x.denominator != 1 for x in zeta):
        return (0.0, 0.0) if with_tail else 0.0
    zeta = tuple(int(x) for x in zeta)
    table = _tensor_cached(alg, omega.bar(), n_steps, depth)
    c = float(delta_pairing(alg, s))
    p = s.point
    base = float(inner_product(alg, diff, p)) - n_steps * _log_ch(alg, omega.bar(), s)
    layer_mass: dict[int, float] = {}
    for d in range(depth + 1):
        mult = table.entries.get((d, zeta), 0)
        if mult:
            layer_mass[d] = mult * math.exp(base - d * c)
    val = math.fsum(layer_mass.values())
    tail = _geometric_tail(layer_mass, depth) if layer_mass else 0.0
    return (val, tail) if with_tail else val


# -- simulation --------------------------------------------------------------------


def simulate_chain(alg: AffineAlgebra, start: Weight, omega: Weight,
                   s: Specialization, steps: int, seed: int, depth: int = 40,
                   defect_threshold: float = 1e-4) -> list[Weight]:
    """Sample a trajectory of the dominant-weight chain.

    Rows are refused (not renormalized) when their defect exceeds the
    threshold, and a uniform draw landing inside the defect mass raises:
    silent renormalization would bias the reflection-identity checks run
    against simulated data.
    """
    if not classify_weight(alg, start).dominant:
        raise ValueError("start must be dominant integral")
    rng = np.random.Generator(np.random.Philox(seed))
    traj = [start]
    current = start
    row_cache: dict[Weight, KernelRow] = {}
    for _ in range(steps):
        key = current.bar()
        row = row_cache.get(key)
        if row is None:
            row = q_omega_row(alg, key, omega, s, depth,
                              defect_target=min(defect_threshold / 10, 1e-6),
                              extend_entries=True)
            if row.defect > defect_threshold:
                raise ChainDefectError(
                    f"row defect {row.defect:.3e} above threshold at {key}")
            row_cache[key] = row
        u = float(rng.random())
        acc = 0.0
        chosen = None
        for beta, pr in row.entries:
            acc += pr
            if u <= acc:
                chosen = beta
                break
        if chosen is None:
            raise ChainDefectError("draw landed in the defect mass")
        # re-attach the delta offset accumulated by the actual (unbarred) state
        chosen = chosen + Weight.make(0, (0,) * alg.rank, current.b - key.b)
        traj.append(chosen)
        current = chosen
    return traj


# -- fast projected kernel for near-critical specializations ------------------------


class FastBarredKernel:
    """Single-step rows of the projected dominant-weight kernel, built from
    the reflected-walk representation:

        row(lam0)[beta0] = (Nhat(beta0+rho) / Nhat(lam0+rho)) *
            sum_w det(w) e^{<w(lam0+rho)-(lam0+rho), h>} *
            Abar(beta0 - bar(w(lam0+rho)-rho)),

    with ``Abar`` the delta-aggregated increment measure (Fourier atoms)
    and ``Nhat(mu) = sum_w det(w) e^{<w(mu)-mu, h>}``.  Only ratios of
    high-level ``Nhat`` values appear, which keeps everything in float64
    even when the level-zero sums are far below float resolution.

    Rows sum to one up to the recorded defect; a row whose defect exceeds
    the threshold refuses to sample rather than renormalizing.

    ``row`` builds the rows of a batch of source states in one pass over the
    Weyl terms, and ``sample`` calls it once per step for the occupied
    states.  Rows are not cached: the level grows by ``level(omega)`` every
    step, so no ``(level, q)`` is visited twice in one ``sample`` call.
    """

    def __init__(self, alg: AffineAlgebra, omega: Weight, s: Specialization,
                 defect_threshold: float = 1e-4):
        from .layerseries import increment_atoms
        _require_positive_level(omega)
        if alg.rank != 1:
            raise NotImplementedError("fast kernel is vectorized for rank one")
        self.alg = alg
        self.omega = omega.bar()
        self.s = s
        self.defect_threshold = defect_threshold
        self.atoms = increment_atoms(alg, self.omega, s)
        self.rho = weyl_vector(alg)
        self.c = float(delta_pairing(alg, s))
        self.g11 = float(alg.finite_gram[0][0])
        self.pz = float(s.point.z[0])
        self.om_q2 = int(2 * self.omega.z[0])      # omega finite part, half-units
        self.rho_q2 = int(2 * self.rho.z[0])
        self._terms: dict[int, list] = {}
        self._nhat_cache: dict[int, np.ndarray] = {}

    # dominant states of level K are q/2*alpha_1 with q = 0..K (half-units)

    def _weyl_terms(self, k_mu: int):
        """(sign, eps, r) data with certified radius for level-``k_mu`` sums:
        the element ``t_{r alpha} w_eps`` with ``w_eps z = eps*z``."""
        hit = self._terms.get(k_mu)
        if hit is not None:
            return hit
        a_coef = 0.5 * k_mu * self.c
        zmax = (k_mu / 2.0 + 1.0) * math.sqrt(self.g11)
        pnorm = math.sqrt(self.g11) * abs(self.pz)
        b = k_mu * pnorm + self.c * zmax
        radius = b / max(a_coef, 1e-300) + 2.0
        while gaussian_lattice_tail(self.alg, a_coef, b, radius) * \
                2 * math.exp(2 * zmax * pnorm) > 1e-13:
            radius += 1.0
        rmax = int(radius / math.sqrt(self.g11)) + 1
        out = [(1 if eps > 0 else -1, eps, r)
               for r in range(-rmax, rmax + 1) for eps in (1, -1)]
        self._terms[k_mu] = out
        return out

    def _exponents(self, k_mu: int, q2: np.ndarray):
        """Per term, exponent of e^{<w(mu)-mu, h>} for the grid ``z = q2/2``.

        With ``w = t_{r alpha} w_eps``:  b-part = -(eps*z*r*g + r^2 g k/2),
        finite part = (eps-1)z + k r; exponent = c*b + (finite | p).
        """
        z = q2 / 2.0
        out = []
        for sign, eps, r in self._weyl_terms(k_mu):
            bpart = -(eps * z * r * self.g11 + 0.5 * r * r * self.g11 * k_mu)
            fin = (eps - 1.0) * z + k_mu * r
            out.append((sign, self.c * bpart + fin * self.g11 * self.pz))
        return out

    def _nhat_grid(self, level: int) -> np.ndarray:
        """Nhat(state + rho) for every dominant state q = 0..level.

        States carry the coroot pairing q = 2z (half-units of the finite
        coordinate); adding rho shifts the half-unit value by rho_q2.
        """
        hit = self._nhat_cache.get(level)
        if hit is not None:
            return hit
        k_mu = level + int(self.rho.k)
        q2 = np.arange(level + 1) + self.rho_q2
        total = np.zeros(level + 1)
        for sign, expo in self._exponents(k_mu, q2.astype(float)):
            total += sign * np.exp(expo)
        self._nhat_cache[level] = total
        return total

    def row(self, level: int, q):
        """(probabilities over next-level q' = 0..level+k_omega, cdf, defect)
        for the source state ``q``, or stacked per source state (one row per
        entry, defects as an array) when ``q`` is an int array."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.int64))
        k_om = int(self.omega.k)
        k_mu = level + int(self.rho.k)
        nxt = level + k_om
        q2_next = np.arange(nxt + 1)
        raw = np.zeros((qs.size, nxt + 1))
        zq2 = qs + self.rho_q2                 # half-units of lam0 + rho
        z = zq2 / 2.0
        prob = self.atoms.prob
        lo = self.atoms.lo[0]
        for sign, eps, r in self._weyl_terms(k_mu):
            bpart = -(eps * z * r * self.g11 + 0.5 * r * r * self.g11 * k_mu)
            fin = eps * z + k_mu * r
            expo = self.c * bpart + (fin - z) * self.g11 * self.pz
            e_w = np.array([sign * math.exp(x) for x in expo.tolist()])
            # source = bar(w(lam0+rho) - rho) in half-units, then the atom
            # offset zeta = omega - (beta - src) must be integral
            src_q2 = eps * zq2 + 2 * k_mu * r - self.rho_q2
            zeta2 = self.om_q2 - (q2_next[None, :] - src_q2[:, None])
            idx = zeta2 // 2 - lo
            hit = (zeta2 % 2 == 0) & (idx >= 0) & (idx < prob.size)
            vals = np.where(hit, prob[np.where(hit, idx, 0)], 0.0)
            raw += e_w[:, None] * vals
        probs = raw * self._nhat_grid(nxt) / self._nhat_grid(level)[qs][:, None]
        neg = probs.min(axis=1)
        np.clip(probs, 0.0, None, out=probs)
        defect = np.abs(1.0 - probs.sum(axis=1))
        for i in range(qs.size):
            if neg[i] < -1e-10:
                raise ChainDefectError(
                    f"fast row negative mass {neg[i]:.3e} at level={level} "
                    f"q={qs[i]}")
            if defect[i] > self.defect_threshold:
                raise ChainDefectError(
                    f"fast row defect {defect[i]:.3e} above threshold at "
                    f"level={level} q={qs[i]}")
        cdf = np.cumsum(probs, axis=1)
        if np.ndim(q) == 0:
            return probs[0], cdf[0], float(defect[0])
        return probs, cdf, defect

    def sample(self, start: Weight, steps: int, n_paths: int, seed: int,
               record_steps=()) -> dict[int, np.ndarray]:
        """Simulate the projected chain; returns the finite coordinate (in
        root units, float) of every path at the requested steps.

        Each step builds the rows of all occupied states in one batched
        call and draws one uniform per path, handed out in stable-sorted
        state order.
        """
        start = start.bar()
        if not classify_weight(self.alg, start).dominant:
            raise ValueError("start must be dominant integral")
        q0 = 2 * start.z[0]
        if q0.denominator != 1:
            raise ValueError("start state must have an integral coroot pairing")
        rng = np.random.Generator(np.random.Philox(seed))
        level = int(start.k)
        k_om = int(self.omega.k)
        cur = np.full(n_paths, int(q0), dtype=np.int64)
        recorded: dict[int, np.ndarray] = {}
        if 0 in record_steps:
            recorded[0] = cur / 2.0
        for k in range(1, steps + 1):
            order = np.argsort(cur, kind="stable")
            states, counts = np.unique(cur, return_counts=True)
            _, cdfs, _ = self.row(level, states)
            u = rng.random(n_paths)
            new = np.empty_like(cur)
            stop = np.cumsum(counts)
            for cdf, a, b in zip(cdfs, stop - counts, stop):
                new[order[a:b]] = np.searchsorted(cdf, u[a:b])
            if new.max() >= cdfs.shape[1]:
                raise ChainDefectError("draw landed in the defect mass")
            cur = new
            level += k_om
            if k in record_steps:
                recorded[k] = cur / 2.0
        return recorded


# -- discrete reflection principle --------------------------------------------------

# translation radius past which the reflected Weyl sum gives up
_REFLECTION_MAX_RADIUS = 400.0


def reflection_discrete_residual(alg: AffineAlgebra, omega: Weight,
                                 s: Specialization, n_steps: int,
                                 lam0: Weight, beta0: Weight,
                                 depth: int) -> float:
    """Relative gap between the two expressions for the n-step projected
    dominant-weight kernel:

    direct:    aggregate ``ch(beta) M(beta) / (ch(lam0) ch(omega)^n)`` over
               delta-shifts of ``beta0`` (branching route);
    reflected: ``(hhat(beta0)/hhat(lam0)) * sum_w det(w) e^{<w(lam0+rho)-(lam0+rho),h>}
               Pbar^n(bar(w(lam0+rho)-rho), beta0)`` (walk route),

    with ``hhat = ch * exp(-<.,h>)``.  Both sides use matching depth
    truncations; the Weyl sum is cut by a certified Gaussian shell bound,
    and :class:`ConvergenceError` is raised when the translation radius
    passes ``_REFLECTION_MAX_RADIUS`` before the tail is certified.
    """
    _require_positive_level(omega)
    lam0, beta0 = lam0.bar(), beta0.bar()
    for w_, nm in ((lam0, "lam0"), (beta0, "beta0")):
        if not classify_weight(alg, w_).dominant:
            raise ValueError(f"{nm} must be dominant integral")
    p = s.point
    c = float(delta_pairing(alg, s))
    rho = weyl_vector(alg)

    # direct side: compose exact single-step barred rows (the n-step kernel
    # is the n-fold composition; associativity of the tensor decomposition)
    row_cache: dict[Weight, dict[Weight, float]] = {}
    dist: dict[Weight, float] = {lam0: 1.0}
    for _ in range(n_steps):
        nxt: dict[Weight, float] = {}
        for st, pr in dist.items():
            row = row_cache.get(st)
            if row is None:
                row = barred_row(alg, st, omega, s, depth,
                                 defect_target=1e-11)
                row_cache[st] = row
            for nu, q in row.items():
                nxt[nu] = nxt.get(nu, 0.0) + pr * q
        dist = nxt
    direct = dist.get(beta0, 0.0)

    # reflected side
    mu = lam0 + rho
    kf = float(mu.k)
    a_coef = 0.5 * kf * c
    z_mu = math.sqrt(float(alg.finite_norm2(mu.z)))
    p_norm = math.sqrt(float(alg.finite_norm2(p.z)))
    bnorm = kf * p_norm + c * z_mu
    const = 2.0 * z_mu * p_norm
    group_n = len(finite_group(alg))
    from .weyl import lattice_basis
    step = max(math.sqrt(float(alg.finite_norm2([Fraction(x) for x in bb])))
               for bb in lattice_basis(alg))
    radius = max(2.0 * step, bnorm / max(a_coef, 1e-300) + 2.0)
    while True:
        total = 0.0
        for w in enumerate_bounded(alg, radius):
            img = apply(alg, w, mu)
            e_w = math.exp(float(inner_product(alg, img - mu, p)))
            src = (img - rho).bar()
            pb = pbar_power(alg, omega, s, n_steps, src, beta0, depth)
            total += w.sign * e_w * pb
        tail = group_n * math.exp(const) * gaussian_lattice_tail(
            alg, a_coef, bnorm, radius)
        if tail <= 1e-13 * max(abs(total), 1e-300):
            break
        if radius > _REFLECTION_MAX_RADIUS:
            raise ConvergenceError(
                "reflected Weyl sum tail not certified in radius cap")
        radius += step
    hhat_ratio = math.exp(
        (_log_ch(alg, beta0, s) - float(inner_product(alg, beta0, p)))
        - (_log_ch(alg, lam0, s) - float(inner_product(alg, lam0, p))))
    reflected = hhat_ratio * total

    if direct == 0.0 and reflected == 0.0:
        return 0.0
    return abs(direct - reflected) / abs(direct)
