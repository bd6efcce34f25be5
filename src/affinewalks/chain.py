"""Random walk on the integral weights, the tensor-product Markov kernel on
dominant weights, their projections modulo delta, and the discrete
reflection-principle verifier.

State keys for the projected (barred) kernels are weights with the delta
coordinate set to zero: modules whose highest weights differ by a multiple
of delta are isomorphic, so kernels only depend on the barred data.  The
unprojected kernel rows keep exact weights, delta coordinate included.

An exact row keeps every delta-layer it resolves, and its defect, the mass
beyond the last of them, is a fitted geometric envelope with a factor-two
safety margin (not a certified bound) estimated independently of the
row-sum identity being tested, so "mass + defect = 1" stays a genuine
check of the character-product decomposition.

:class:`FastBarredKernel` samples the projected chain on any untwisted
algebra, and :func:`reflection_discrete_residual` weighs the walk kernel by
alternant terms.  Both take the exact exponents the characters use
(:func:`affinewalks.characters._alternant_exponents`) and sum float64
terms; kernel rows where those sums cancel are refused.  Character values
come from :func:`affinewalks.characters.eval_character`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _linalg
from .algebra import (AffineAlgebra, Weight, classify_weight, inner_product,
                      pair_delta, weyl_vector)
from .characters import (EvalResult, _alternant_exponents, _alternant_terms,
                         eval_character)
from .highestweight import (_brancher, _SupportBall, character_series_oracle,
                            log_kac_product, tensor_power_table)

__all__ = [
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
class KernelRow:
    """Entries of one kernel row, and ``defect``, the mass the entries miss.
    For :func:`q_omega_row` that is the fitted geometric envelope
    (:func:`_geometric_tail`) on the mass beyond the last layer the row
    resolves: an estimate, not a certified bound.  For :func:`mu_omega` it
    is exactly ``max(0, 1 - mass)``."""

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
# certified relative error of the character values kernel rows read
_CH_EPS = 1e-12
# the largest row defect a sampler accepts
_ROW_DEFECT_MAX = 1e-4


@lru_cache(maxsize=_CH_CACHE_MAX)
def _ch_barred(alg: AffineAlgebra, canon: Weight, s: Weight) -> EvalResult:
    return eval_character(alg, canon, s, eps=_CH_EPS)


def _log_ch(alg: AffineAlgebra, w: Weight, s: Weight) -> float:
    """log character value; cached on the barred representative."""
    shift = float(w.b) * float(pair_delta(alg, s))
    return _ch_barred(alg, w.bar(), s).log_value + shift


def mu_omega(alg: AffineAlgebra, omega: Weight, s: Weight,
             depth: int) -> KernelRow:
    """Increment law of the weight walk, as the row from ``alg.zero()``:
    multiplicity times the exponential of the pairing, normalized by the
    character value, over the weights of ``V(omega)`` to ``depth``.  Its
    defect is ``max(0, 1 - mass)``, the mass of the deeper weights."""
    _require_positive_level(omega)
    table = character_series_oracle(alg, omega, depth)
    log_ch = _log_ch(alg, omega, s)
    entries = []
    for (d, m), mult in sorted(table.entries.items()):
        mu = table.weight_of(d, m)
        logp = math.log(mult) + float(inner_product(alg, mu, s)) - log_ch
        entries.append((mu, math.exp(logp)))
    mass = math.fsum(pr for _, pr in entries)
    return KernelRow(source=alg.zero(), entries=entries, defect=max(0.0, 1.0 - mass))


# -- dominant state enumeration ----------------------------------------------------


def _dominant_coords(alg: AffineAlgebra, level: int) -> tuple[np.ndarray, int]:
    """``(zq, den)``: the rows of ``zq``, sorted, are ``den`` times the root
    coordinates of the dominant integral barred weights of a level."""
    cinv, den = _linalg.int_scaled(alg._finite_cartan_inverse)
    comarks = np.array(alg.comarks[1:], dtype=np.int64)
    pairings = np.indices(level // comarks + 1).reshape(alg.rank, -1).T
    # node 0 has comark 1, so q_0 = level - sum_i comark_i q_i need only be >= 0
    zq = pairings[pairings @ comarks <= level] @ cinv.T
    return zq[np.lexsort(zq.T[::-1])], den


def dominant_states(alg: AffineAlgebra, level: int) -> list[Weight]:
    """All dominant integral barred weights of a given level (b = 0), sorted
    by their root coordinates."""
    zq, den = _dominant_coords(alg, level)
    return [Weight.make(level, [Fraction(x, den) for x in row], 0)
            for row in zq.tolist()]


# -- kernel rows -------------------------------------------------------------------


def _geometric_tail(layer_mass: dict[int, float], resolution: int) -> float:
    """Estimate, not a certified bound, of the mass beyond ``resolution``:
    factor-two safety margin on the worst trailing ratio of nonzero layer
    masses (gap-corrected)."""
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


def _row_candidates(alg: AffineAlgebra, lam: Weight, omega: Weight):
    """``candidates(d)``: the dominant candidates for components
    ``beta = lam + omega - d*delta - m`` of V(lam) (x) V(omega) at depth
    ``d``, as the integer offsets ``m`` stacked in increasing order.  They
    are the states of the level in the root-lattice coset of ``Lambda = lam
    + omega`` inside its orbit-hull ball
    (:class:`~affinewalks.highestweight._SupportBall`),
    ``|beta_z|^2 <= |Lambda_z|^2 + 2 k d``, which is ``|beta|^2 <=
    |Lambda|^2`` in the affine form: every component is a dominant
    ``beta <= Lambda``, and then ``|Lambda|^2 - |beta|^2 =
    (Lambda - beta | Lambda + beta) >= 0``.
    """
    top = lam + omega
    zq, den = _dominant_coords(alg, int(top.k))
    # zq is sorted, so m = top - beta increases
    ms = np.array([int(x * den) for x in top.z]) - zq[::-1]
    ms = ms[(ms % den == 0).all(axis=1)] // den     # top - beta on the root lattice
    ball = _SupportBall(alg, top)
    return lambda d: ms[ball.contains(d, ms)]


def q_omega_row(alg: AffineAlgebra, lam: Weight, omega: Weight,
                s: Weight, depth: int,
                defect_target: float = 1e-7) -> KernelRow:
    """One row of the tensor-product kernel on dominant weights.

    Entries are the dominant ``beta`` with nonzero branching multiplicity
    on every delta-layer the row resolves below ``lam + omega``; each
    probability is ``M(beta) ch(beta) / (ch(lam) ch(omega))``.  ``depth``
    is the least resolution: the row resolves further layers until the
    fitted geometric envelope on the mass beyond the last of them drops
    below ``defect_target``, and raises :class:`ChainDefectError` when a
    hard cap trips first.  The defect is that envelope, an estimate, not a
    certificate.
    """
    _require_positive_level(omega)
    for w_, nm in ((lam, "row source"), (omega, "omega")):
        if not classify_weight(alg, w_).dominant:
            raise ValueError(f"{nm} must be dominant integral")
    top = lam + omega
    log_norm = _log_ch(alg, lam, s) + _log_ch(alg, omega, s)
    entries: list[tuple[Weight, float]] = []
    layer_mass: dict[int, float] = {}

    resolution = depth
    hard_cap = max(depth, 40) + 1200

    candidates = _row_candidates(alg, lam, omega)
    branch = _brancher(alg, lam, omega, 1)

    def compute_layers(depths):
        for d in depths:
            ms = candidates(d)
            mults = branch(d, ms)
            for m, mlt in zip(ms.tolist(), mults):
                if mlt == 0:
                    continue
                beta = top - Weight.make(0, m, d)
                pr = math.exp(math.log(mlt) + _log_ch(alg, beta, s) - log_norm)
                layer_mass[d] = layer_mass.get(d, 0.0) + pr
                entries.append((beta, pr))

    compute_layers(range(resolution + 1))
    while True:
        tail = _geometric_tail(layer_mass, resolution)
        if tail <= defect_target:
            break
        if resolution >= hard_cap:
            raise ChainDefectError(
                f"row defect envelope not below {defect_target} at depth {resolution}")
        step = max(10, resolution // 2)
        compute_layers(range(resolution + 1, min(resolution + step, hard_cap) + 1))
        resolution = min(resolution + step, hard_cap)

    return KernelRow(source=lam, entries=entries, defect=tail)


# least-recently-used projected rows, shared by every beta0 and step count
# of the reflection residuals; full criterion 5 needs 6
_BARRED_ROWS_MAX = 32


@lru_cache(maxsize=_BARRED_ROWS_MAX)
def barred_row(alg: AffineAlgebra, lam0: Weight, omega: Weight,
               s: Weight, depth: int) -> tuple[tuple[Weight, float], ...]:
    """Row of the projected kernel from ``lam0``: the exact row of
    ``lam0.bar()`` (:func:`q_omega_row` with defect target 1e-11),
    aggregated over delta shifts into ``(beta0, prob)`` pairs.  A bounded
    memo keyed by ``(alg, lam0, omega, s, depth)``; the tuple keeps the
    cached row immutable."""
    row = q_omega_row(alg, lam0.bar(), omega, s, depth, defect_target=1e-11)
    out: dict[Weight, float] = {}
    for beta, pr in row.entries:
        key = beta.bar()
        out[key] = out.get(key, 0.0) + pr
    return tuple(out.items())


# -- projected n-step walk kernel --------------------------------------------------


def pbar_power(alg: AffineAlgebra, omega: Weight, s: Weight,
               n_steps: int, lam0: Weight, beta0: Weight, depth: int) -> float:
    """n-step transition of the projected weight walk:

    ``sum over delta-shifts`` of the tensor-power multiplicity at
    ``beta - lam0`` times the pairing exponential, over ``ch(omega)^n``,
    truncated at ``depth`` delta-shifts.
    """
    _require_positive_level(omega)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    lam0, beta0 = lam0.bar(), beta0.bar()
    if n_steps == 0:
        return 1.0 if (lam0 == beta0) else 0.0
    diff = beta0 - lam0
    if diff.k != n_steps * omega.k:
        raise ValueError("level gap must equal n_steps * level(omega)")
    zeta = [Fraction(n_steps) * omega.z[i] - diff.z[i] for i in range(alg.rank)]
    if any(x.denominator != 1 for x in zeta):
        return 0.0
    zeta = tuple(int(x) for x in zeta)
    table = tensor_power_table(alg, omega.bar(), n_steps, depth)
    c = float(pair_delta(alg, s))
    base = float(inner_product(alg, diff, s)) - n_steps * _log_ch(alg, omega.bar(), s)
    return math.fsum(mult * math.exp(base - d * c)
                     for d in range(depth + 1)
                     if (mult := table.entries.get((d, zeta), 0)))


# -- simulation --------------------------------------------------------------------


def simulate_chain(alg: AffineAlgebra, start: Weight, omega: Weight,
                   s: Weight, steps: int, seed: int,
                   depth: int = 40) -> list[Weight]:
    """Sample a trajectory of the dominant-weight chain.

    A step draws one uniform ``u`` and moves to the first entry of the
    current row whose cdf reaches it, the rule of
    :meth:`FastBarredKernel.sample`; rows and their cdfs are kept per barred
    state.  Rows are refused (not renormalized) when their defect exceeds
    ``_ROW_DEFECT_MAX``, and a uniform draw landing inside the defect mass
    raises: silent renormalization would bias the reflection-identity
    checks run against simulated data.  Until row defects are certified
    bounds, that refusal fires only on a NaN defect: the row's defect is
    the fitted tail envelope (``_geometric_tail``) that ``q_omega_row`` has
    already driven below its target, so the guard compares the envelope
    with itself.
    """
    if not classify_weight(alg, start).dominant:
        raise ValueError("start must be dominant integral")
    rng = np.random.Generator(np.random.Philox(seed))
    traj = [start]
    current = start
    rows: dict[Weight, tuple[list[Weight], np.ndarray]] = {}
    for _ in range(steps):
        key = current.bar()
        hit = rows.get(key)
        if hit is None:
            row = q_omega_row(alg, key, omega, s, depth, defect_target=1e-6)
            if not row.defect <= _ROW_DEFECT_MAX:
                raise ChainDefectError(
                    f"row defect {row.defect:.3e} above threshold at {key}")
            hit = rows[key] = ([beta for beta, _ in row.entries],
                               np.cumsum([pr for _, pr in row.entries]))
        targets, cdf = hit
        i = int(cdf.searchsorted(rng.random()))    # first i with cdf[i] >= u
        if i == len(cdf):
            raise ChainDefectError("draw landed in the defect mass")
        # re-attach the delta offset accumulated by the actual (unbarred) state
        chosen = targets[i] + Weight.make(0, (0,) * alg.rank, current.b - key.b)
        traj.append(chosen)
        current = chosen
    return traj


# -- fast projected kernel for near-critical specializations ------------------------

# bytes of row arrays per batched ``row`` call of ``FastBarredKernel.sample``;
# arrays this small are reused by the allocator rather than mapped afresh
# (and faulted in) for every block: 64 MiB took about 1.5 times as long
_ROW_BYTES = 8 << 20


class FastBarredKernel:
    """Single-step rows of the projected dominant-weight kernel, built from
    the reflected-walk representation:

        row(lam0)[beta0] = (Nhat(beta0+rho) / Nhat(lam0+rho)) *
            sum_w det(w) e^{<w(lam0+rho)-(lam0+rho), h>} *
            Abar(beta0 - bar(w(lam0+rho)-rho)),

    with ``Abar`` the delta-aggregated increment measure (Fourier atoms)
    and ``Nhat(mu) = sum_w det(w) e^{<w(mu)-mu, h>}`` the alternant.  The
    numerators' terms, offsets and exact exponents come from
    :func:`affinewalks.characters._alternant_exponents` for any rank, cut
    at the largest ``|lam0 + rho|`` of the level and formed for a row's
    sources alone, so a source's row does not depend on the sources that
    share its call; the sums are float64.  At ``h = rho/n`` (the point
    must be a positive multiple of rho) ``Nhat(mu)`` is the survival
    function ``h(mu/n)``, so ``log Nhat`` comes from Kac's product
    (:func:`affinewalks.highestweight.log_kac_product`), which does not
    cancel at low levels, and the rows take ``Nhat`` ratios as exponentials
    of its differences.

    A step keeps the root-lattice coset: ``beta0`` is reached from ``lam0``
    only when ``beta0 - lam0 - omega`` is on the root lattice, so a row is
    formed over the next states of its source's coset alone (one of
    det(Cartan) cosets; on A2~ a third of the level) and returns their
    indices with it.  The chain from a start stays in the coset of
    ``start + k omega`` at step ``k``, so a step's occupied states share
    one coset and ``sample`` never mixes them.  A row reads atoms only for
    its live (source state, Weyl term) pairs: those whose offsets over the
    coset's states span a box that meets the box of the nonzero atoms,
    fixed at construction, on every axis (:meth:`_offsets`).  Any other
    pair reads zero atoms only, and adding ``w * 0.0`` to a finite sum
    leaves it unchanged, so with the live pairs added in the same term
    order the rows and cdfs are bit-equal to gathering every pair over
    every next state, where the other cosets' columns stay exact zeros.
    Most pairs are not live: a term's offset moves far outside the atoms'
    support.

    States of a level are indexed in :func:`dominant_states` order (on A1~
    the index is the coroot pairing ``q``).  A row whose defect exceeds
    ``_ROW_DEFECT_MAX`` refuses to sample rather than renormalizing.
    ``sample`` calls ``row`` every step, for blocks of the occupied states
    that the byte budget ``_ROW_BYTES`` sizes by the coset's width.  Rows
    are not cached (the level grows every step); a level keeps its states,
    ``log Nhat`` and its term list, and only the current and the next
    level are kept.  On A2~ at rho/100, 5 000 paths from pairings
    (100, 100, 100) take about 2.6 s and 58 MB for two steps.
    """

    def __init__(self, alg: AffineAlgebra, omega: Weight, s: Weight):
        from .layerseries import increment_atoms
        _require_positive_level(omega)
        self.alg = alg
        self.omega = omega.bar()
        self.s = s
        self.atoms = increment_atoms(alg, self.omega, s)
        # the box of the nonzero atoms: its offsets and its atoms
        nz = np.nonzero(self.atoms.prob)
        lo, hi = (np.array([f(x) for x in nz]) for f in (np.min, np.max))
        self._support = (lo + self.atoms.lo, hi + self.atoms.lo)
        self._box = self.atoms.prob[tuple(map(slice, lo, hi + 1))]
        self.rho = weyl_vector(alg)
        t = s.k / self.rho.k
        if t <= 0 or s.z != self.rho.scale(t).z:
            raise ValueError("the fast kernel needs a point that is a "
                             "positive multiple of rho")
        self._den = _dominant_coords(alg, 0)[1]
        # (alpha_i|t mu) from den times the root coordinates of mu
        self._t = t
        self._pair = np.array([[float(t * g / self._den) for g in row]
                               for row in alg.finite_gram])
        self._rho_q = np.array([int(x * self._den) for x in self.rho.z])
        self._om_q = np.array([int(x * self._den) for x in self.omega.z])
        self._radix = self._den ** np.arange(alg.rank)   # a residue as one int
        self._levels: dict[int, tuple] = {}

    def _level(self, level: int) -> tuple:
        """States of a level (:func:`_dominant_coords`), ``log Nhat(mu)`` of
        ``mu = state + rho`` (Kac's ``log h(t mu)`` at ``h = t rho``), the
        alternant term list cut at the level's largest ``|mu|``, and each
        state's root-lattice coset as one int (:meth:`_coset`)."""
        hit = self._levels.get(level)
        if hit is None:
            zq, _ = _dominant_coords(self.alg, level)
            k = level + int(self.rho.k)
            mu = zq + self._rho_q
            log_nhat = log_kac_product(self.alg, float(self._t * k),
                                       mu @ self._pair.T)[0]
            terms = _alternant_terms(self.alg, k, mu, self._den, self.s, 1e-13)
            res = (zq % self._den) @ self._radix
            hit = self._levels[level] = (zq, log_nhat, terms, res)
        return hit

    def _terms(self, level: int, qs: np.ndarray) -> tuple:
        """Offsets and signed float weights of the alternant terms of
        ``mu = state + rho`` for the states ``qs`` of a level, from the
        level's term list: the rows of the whole level's arrays."""
        zq, _, terms, _ = self._level(level)
        k = level + int(self.rho.k)
        sign, m, expo, den, _ = _alternant_exponents(
            self.alg, k, zq[qs] + self._rho_q, self._den, self.s, 1e-13, terms)
        return m, sign * np.exp(expo / den)

    def _coset(self, level: int, qs: np.ndarray) -> np.ndarray:
        """Indices of the next level's states in the root-lattice coset of
        ``lam0 + omega`` for the sources ``qs`` of a level, the only next
        states they reach; ``ValueError`` when the sources do not share it.
        Weights share a coset when ``den`` times their root coordinates
        share their residues mod ``den``."""
        src = ((self._level(level)[0][qs] + self._om_q) % self._den) @ self._radix
        if (src != src[0]).any():
            raise ValueError(f"the sources at level {level} lie in more than "
                             "one root-lattice coset")
        return np.flatnonzero(self._level(level + int(self.omega.k))[3] == src[0])

    def _offsets(self, zq: np.ndarray, m: np.ndarray, zq_next: np.ndarray):
        """``(table, a, cols, live)`` for the source states ``zq`` (rows of
        ``den`` times root coordinates), their terms' offsets ``m`` and the
        next states ``zq_next`` of their coset.

        The offset ``lam0 - m + omega - beta0`` is then on the root lattice,
        and it is ``A - m - Z`` with ``A = (lam0 + omega) // den`` and ``Z =
        beta0 // den``.  ``table`` is the nonzero atoms' box padded by the
        span of the columns plus one, so every offset of a live pair falls
        inside it; pair ``(i, t)`` reads ``table[a[i, t] - cols]``, where
        ``cols`` is the flat ``Z`` of the next states."""
        z = zq_next // self._den
        zlo, zhi = z.min(axis=0), z.max(axis=0)
        x = ((zq + self._om_q) // self._den)[:, None, :] - m  # offsets at Z = 0
        lo, hi = self._support
        live = ((x - zhi <= hi) & (x - zlo >= lo)).all(axis=2)
        pad = zhi - zlo + 1
        table = np.pad(self._box, np.column_stack((pad, pad)))
        step = np.array(table.strides) // table.itemsize
        return table.ravel(), (x - lo + pad) @ step, z @ step, live

    def row(self, level: int, qs: np.ndarray):
        """``(states, probs, cdf, defect)`` for the source states of the int
        array of indices ``qs``, which must share a root-lattice coset
        (else ``ValueError``): the indices of the next level's states in
        that coset (:meth:`_coset`), and stacked per source, one row per
        entry of ``qs``, the probabilities over them, their cdf and the row
        defects.  Every other next state has probability exactly zero."""
        qs = np.asarray(qs, dtype=np.int64)
        nxt = level + int(self.omega.k)
        zq, log_nhat, _, _ = cur = self._level(level)
        zq_next, log_nhat_next, _, _ = new = self._level(nxt)
        self._levels = {level: cur, nxt: new}
        states = self._coset(level, qs)
        # the term w moves lam0 to bar(w(lam0+rho)-rho) = lam0 - m, so beta0
        # takes the atom at offset lam0 - m + omega - beta0
        m, wq = self._terms(level, qs)
        table, a, cols, live = self._offsets(zq[qs], m, zq_next[states])
        probs = np.zeros((qs.size, states.size))
        for t in np.flatnonzero(live.any(axis=0)).tolist():
            i = np.flatnonzero(live[:, t])
            # no name outlives the term: at most three row-sized arrays
            probs[i] += table.take(a[i, t, None] - cols) * wq[i, t, None]
        # Nhat(beta0+rho) / Nhat(lam0+rho), split at the next level's largest
        top = log_nhat_next.max()
        probs *= np.exp(log_nhat_next[states] - top)
        probs *= np.exp(top - log_nhat[qs])[:, None]
        neg = probs.min(axis=1)
        np.clip(probs, 0.0, None, out=probs)
        defect = np.abs(1.0 - probs.sum(axis=1))
        # NaN fails both comparisons; the first failing source is named
        bad = ~(neg >= -1e-10) | ~(defect <= _ROW_DEFECT_MAX)
        if bad.any():
            i = bad.argmax()
            if not neg[i] >= -1e-10:
                raise ChainDefectError(
                    f"fast row negative mass {neg[i]:.3e} at level={level} "
                    f"q={qs[i]}")
            raise ChainDefectError(
                f"fast row defect {defect[i]:.3e} above threshold at "
                f"level={level} q={qs[i]}")
        return states, probs, np.cumsum(probs, axis=1), defect

    def sample(self, start: Weight, steps: int, n_paths: int, seed: int,
               record_steps=()) -> dict[int, np.ndarray]:
        """Simulate the projected chain; returns the root coordinates (float,
        shape ``(n_paths, rank)``) of every path at the requested steps.

        Each step draws one uniform per path, handed out in stable-sorted
        state order: each state's draws fill its stretch of that order, and
        one scatter moves them back to the paths.  The occupied states of a
        step share the root-lattice coset of ``start + k omega``, so their
        rows are over the same next states; they are built by batched
        ``row`` calls over blocks of states, each block as many as
        ``_ROW_BYTES`` holds at that coset's width, so the draws do not
        depend on the blocks.  A draw's place in its cdf is mapped back
        through the row's states.  No paths give empty arrays; a negative
        ``n_paths`` raises ``ValueError``.
        """
        if n_paths < 0:
            raise ValueError(f"n_paths must be >= 0, got {n_paths}")
        start = start.bar()
        if not classify_weight(self.alg, start).dominant:
            raise ValueError("start must be dominant integral")
        if not n_paths:
            return {k: np.empty((0, self.alg.rank))
                    for k in range(steps + 1) if k in record_steps}
        rng = np.random.Generator(np.random.Philox(seed))
        level = int(start.k)
        k_om = int(self.omega.k)
        zq = self._level(level)[0]
        at = (zq == [int(x * self._den) for x in start.z]).all(axis=1)
        cur = np.full(n_paths, at.argmax())
        recorded: dict[int, np.ndarray] = {}
        if 0 in record_steps:
            recorded[0] = zq[cur] / self._den
        for k in range(1, steps + 1):
            # a 16-bit key sorts by radix, several times faster
            order = np.argsort(cur.astype(np.min_scalar_type(cur.max())),
                               kind="stable")
            counts = np.bincount(cur)
            states = np.flatnonzero(counts)
            u = rng.random(n_paths)
            ends = np.cumsum(counts[states]).tolist()
            starts = [0] + ends
            # a source's row arrays: four over the coset's next states, a
            # few over its terms' offsets
            width = self._coset(level, states).size
            n_terms = len(self._level(level)[2].sign)
            per = max(1, _ROW_BYTES // (8 * (4 * width + 8 * self.alg.rank * n_terms)))
            drawn = np.empty_like(cur)
            for i in range(0, states.size, per):
                targets, _, cdfs, _ = self.row(level, states[i:i + per])
                for cdf, a, b in zip(cdfs, starts[i:], ends[i:i + per]):
                    drawn[a:b] = cdf.searchsorted(u[a:b])
            if drawn.max() >= width:
                raise ChainDefectError("draw landed in the defect mass")
            cur[order] = targets[drawn]
            level += k_om
            if k in record_steps:
                recorded[k] = self._levels[level][0][cur] / self._den
        return recorded


# -- discrete reflection principle --------------------------------------------------

def reflection_discrete_residual(alg: AffineAlgebra, omega: Weight,
                                 s: Weight, n_steps: int,
                                 lam0: Weight, beta0: Weight,
                                 depth: int) -> float:
    """Relative gap between the two expressions for the n-step projected
    dominant-weight kernel:

    direct:    aggregate ``ch(beta) M(beta) / (ch(lam0) ch(omega)^n)`` over
               delta-shifts of ``beta0`` (branching route);
    reflected: ``(hhat(beta0)/hhat(lam0)) * sum_w det(w) e^{<w(lam0+rho)-(lam0+rho),h>}
               Pbar^n(bar(w(lam0+rho)-rho), beta0)`` (walk route),

    with ``hhat = ch * exp(-<.,h>)``.  The direct side composes the rows of
    the bounded memo :func:`barred_row`, so the targets of one source share
    them.  Both sides use matching depth truncations; the Weyl sum runs
    over the float alternant terms of
    :func:`affinewalks.characters._alternant_exponents`, cut by the
    certified Gaussian shell bound (which raises
    :class:`~affinewalks.weyl.ConvergenceError` at its radius cap).  A
    ``beta0`` the direct side does not reach is refused.
    """
    _require_positive_level(omega)
    lam0, beta0 = lam0.bar(), beta0.bar()
    for w_, nm in ((lam0, "lam0"), (beta0, "beta0")):
        if not classify_weight(alg, w_).dominant:
            raise ValueError(f"{nm} must be dominant integral")
    rho = weyl_vector(alg)

    # direct side: compose exact single-step barred rows (the n-step kernel
    # is the n-fold composition; associativity of the tensor decomposition)
    dist: dict[Weight, float] = {lam0: 1.0}
    for _ in range(n_steps):
        nxt: dict[Weight, float] = {}
        for st, pr in dist.items():
            for nu, q in barred_row(alg, st, omega, s, depth):
                nxt[nu] = nxt.get(nu, 0.0) + pr * q
        dist = nxt
    direct = dist.get(beta0, 0.0)

    if direct == 0.0:
        raise ValueError("beta0 is not reached from lam0 in n_steps steps")

    # reflected side: the alternant terms of mu = lam0 + rho, each weighted
    # by the walk kernel from bar(w(mu) - rho), whose finite part is
    # z - m - rho_z; truncated so that the tail moves the residual by 1e-13
    hhat_ratio = math.exp(
        (_log_ch(alg, beta0, s) - float(inner_product(alg, beta0, s)))
        - (_log_ch(alg, lam0, s) - float(inner_product(alg, lam0, s))))
    mu = lam0 + rho
    sign, m, expo, den, _ = _alternant_exponents(
        alg, int(mu.k), *_linalg.int_scaled([mu.z]), s, 1e-13 * direct / hhat_ratio)
    total = math.fsum(
        w * pbar_power(alg, omega, s, n_steps, Weight.make(
            mu.k - rho.k, [z - mi - r for z, mi, r in zip(mu.z, mt, rho.z)], 0),
            beta0, depth)
        for mt, w in zip(m[0].tolist(), (sign * np.exp(expo[0] / den)).tolist()))
    return abs(direct - hhat_ratio * total) / direct
