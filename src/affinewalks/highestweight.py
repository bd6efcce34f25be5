"""Depth-truncated weight multiplicities of irreducible highest-weight
modules, tensor-power multiplicities, and branching multiplicities.

Tables are graded by delta-depth: for a module with highest weight ``lam``,
the entry at ``(d, m)`` is the dimension of the weight space at
``lam - d*delta - sum_i m_i alpha_i``.  Depth is the only unbounded
direction; at fixed depth the support is finite and contained in an exact
ball derived from ``(mu|mu) <= (lam|lam)`` on the Weyl orbit hull.

Two independent constructions of the same table are kept side by side,
both in exact integers over the candidates of one integer support ball:

* ``freudenthal_table`` runs the classical multiplicity recursion over the
  positive roots, every pairing scaled to a Python int,
* ``character_series_oracle`` divides the alternating Weyl-orbit numerator
  by the alternating denominator as formal series, one dense layer of
  Python ints per delta-depth.

Their entrywise agreement is a core correctness gate for everything built
on top (tensor powers, branching, kernels).

``tensor_power_table`` keeps the powers of each ``V(omega)`` in a bounded
store of dense layers: per delta-depth, one array of exact Python ints over
a box of root offsets.  A deeper request computes only the missing layers:
the first power appends the series oracle's own layers, and layer ``d`` of
the n-th power is ``sum_j P_{n-1}[j] * P_1[d-j]``, one ``np.convolve`` per
pair.  ``decompose_product`` keeps its own sparse dict convolution, so the
branching sum and the product decomposition stay independent oracles.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _linalg
from .algebra import (_ALGEBRAS_MAX, AffineAlgebra, Weight, classify_weight,
                      pairing_coroot, weyl_vector)
from .weyl import (ConvergenceError, _lattice_gram, apply, enumerate_bounded,
                   finite_group, orbit_offsets, weyl_terms)

__all__ = [
    "MultiplicityTable",
    "finite_roots",
    "positive_roots",
    "log_kac_product",
    "freudenthal_table",
    "character_series_oracle",
    "tensor_power_table",
    "branching_mult",
    "BranchingCertificationError",
    "TruncationError",
]

Key = tuple[int, tuple[int, ...]]


class TruncationError(RuntimeError):
    """A truncated computation could not be certified complete."""


class BranchingCertificationError(TruncationError):
    """The alternating branching sum could not be certified finite/complete."""


@dataclass
class MultiplicityTable:
    """Sparse multiplicity table graded by (delta-depth, root offset)."""

    highest: Weight
    depth: int
    entries: Mapping[Key, int]
    kind: str = "irreducible"

    def mult(self, d: int, m: tuple[int, ...]) -> int:
        return self.entries.get((d, m), 0)

    def layer_total(self, d: int) -> int:
        return sum(v for (dd, _), v in self.entries.items() if dd == d)

    def weight_of(self, d: int, m: tuple[int, ...]) -> Weight:
        off = Weight.make(0, m, d)
        return self.highest - off

    def total(self) -> int:
        return sum(self.entries.values())

    def to_csv(self, path) -> None:
        l = len(self.highest.z)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["depth"] + [f"m{i+1}" for i in range(l)] + ["mult"])
            for (d, m), v in sorted(self.entries.items()):
                writer.writerow([d, *m, v])

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiplicityTable)
                and self.entries == other.entries
                and self.highest == other.highest)


# -- root system to a given depth ------------------------------------------------


@lru_cache(maxsize=_ALGEBRAS_MAX)
def finite_roots(alg: AffineAlgebra) -> tuple[tuple[int, ...], ...]:
    """All roots of the finite subsystem, as integer root coordinates."""
    roots: set[tuple[int, ...]] = set()
    for i in range(1, alg.rank + 1):
        simple = tuple(1 if j == i else 0 for j in range(1, alg.rank + 1))
        for w in finite_group(alg):
            roots.add(tuple(int(x) for x in w.act_z(simple)))
    return tuple(sorted(roots))


def _is_positive(vec) -> bool:
    return all(x >= 0 for x in vec) and any(x > 0 for x in vec)


# keyed by depth, each entry about (rank + |finite roots|) * depth roots
# (18 000 at the depth 6001 that rho/200 needs); the full test suite holds
# at most 22 depths at once, so nothing there evicts
_POSITIVE_ROOTS_MAX = 64


@lru_cache(maxsize=_POSITIVE_ROOTS_MAX)
def positive_roots(alg: AffineAlgebra, depth: int):
    """Positive roots with delta-depth <= depth, as ``(n, r, mult)`` triples.

    ``n`` is the delta coefficient and ``r`` the finite part in root
    coordinates; real roots carry multiplicity 1, the imaginary roots
    ``n*delta`` carry multiplicity rank (untwisted structure).
    """
    if alg.marks[0] != 1:
        raise NotImplementedError(
            "depth grading assumes mark a_0 = 1 (untwisted realization)")
    zero = tuple(0 for _ in range(alg.rank))
    out = []
    for r in finite_roots(alg):
        if _is_positive(r):
            out.append((0, r, 1))
    for n in range(1, depth + 1):
        for r in finite_roots(alg):
            out.append((n, r, 1))
        out.append((n, zero, alg.rank))
    return tuple(out)


def _denominator_bound(alg: AffineAlgebra, depth: int) -> list[int]:
    """``[t^d] prod_{beta>0} (1 + t^n)^mult`` for ``d <= depth``, ``n`` the
    delta-depth of ``beta``: at each ``d`` it bounds the sum of the absolute
    coefficients of every partial product of the denominator."""
    bound = [1] + [0] * depth
    for (n, _, mult) in positive_roots(alg, depth):
        for _ in range(mult):
            for d in range(depth, n - 1, -1):
                bound[d] += bound[d - n]
    return bound


def denominator_product_series(alg: AffineAlgebra, depth: int) -> dict[Key, int]:
    """Integer series of ``prod_{beta>0} (1 - e^{-beta})^{mult beta}`` up to depth.

    Each factor is multiplied into one int64 array per delta-depth ``d``,
    over the box that holds every partial product there: the depth-0
    factors add each positive finite root at most once, and at most ``d``
    factors with ``n >= 1`` add one finite root each.  Before any array is
    built, :func:`_denominator_bound`, which bounds every coefficient of
    every partial product, is checked below ``2**63`` (``OverflowError``
    otherwise).  Only the depth truncation is applied, so the result is the
    exact truncation of the formal product.
    """
    if max(_denominator_bound(alg, depth)) >= 2 ** 63:
        raise OverflowError(f"denominator coefficients at depth {depth} may "
                            "leave int64")
    factors = positive_roots(alg, depth)
    roots = np.array(finite_roots(alg))
    rmin = roots.min(axis=0)
    top = sum(np.array(r) for (n, r, _) in factors if n == 0)
    layers = [np.zeros(top + d * (roots.max(axis=0) - rmin) + 1, dtype=np.int64)
              for d in range(depth + 1)]
    layers[0][(0,) * alg.rank] = 1
    for (n, r, mult) in factors:
        off = (r - n * rmin).tolist()       # where index 0 of layer d - n lands
        for _ in range(mult):
            for d in range(depth, n - 1, -1):   # layer d - n still the old one
                src, dst = layers[d - n], layers[d]
                hi = [min(a, b - o) for a, b, o in zip(src.shape, dst.shape, off)]
                dst[tuple(slice(o, o + h) for o, h in zip(off, hi))] -= \
                    src[tuple(map(slice, hi))]
    return {(d, tuple((m + d * rmin).tolist())): int(layer[tuple(m)])
            for d, layer in enumerate(layers) for m in np.argwhere(layer)}


_U = 2.0 ** -53             # unit roundoff of float64
_KAC_TAIL = 2.0 ** -60      # truncation target of log h, absolute
_KAC_ORDER = 4              # order of the q-expansion past the kept depths
# delta-depths kept at most; (delta|x) = 1e-3 needs 7 000
_KAC_DEPTH_MAX = 1 << 14
# (depths + orders) x roots x rows that one block holds at most
_KAC_BLOCK = 1 << 18


@lru_cache(maxsize=_ALGEBRAS_MAX)
def _kac_roots(alg: AffineAlgebra):
    """Finite parts (float root coordinates) of the positive roots of every
    delta-depth ``n >= 1`` with multiplicity (the finite roots, and rank
    zeros); 0 where the root is positive at depth 0 too, else ``inf``; the
    largest coefficient per axis."""
    low = positive_roots(alg, 1)
    r = np.array([r for n, r, m in low if n == 1 for _ in range(m)], dtype=float)
    pos = {r for n, r, _ in low if n == 0}
    depth0 = np.array([[0.0 if tuple(map(int, x)) in pos else np.inf] for x in r])
    return r, depth0, np.abs(r).max(axis=0)


def log_kac_product(alg: AffineAlgebra, s, v: np.ndarray):
    """``(log h, d_s, d_v, err)`` per row at the points ``x`` with
    ``(delta|x) = s`` (one, or one per row) and ``(alpha_i|x) = v[:, i-1]``,
    where by Kac's denominator identity
    ``h(x) = sum_w det(w) e^{(x|w(rho) - rho)}
    = prod_{beta > 0} (1 - e^{-(beta|x)})^{mult beta}``.

    Inside the chamber every factor lies in (0, 1], so nothing cancels; on
    or outside a wall ``log h`` is ``-inf``.  The factors of delta-depth up
    to ``N`` are kept; past it, per finite part ``r``,
    ``sum_{m >= 0} log(1 - y e^{-ms}) = -sum_k y^k / (k (1 - e^{-ks}))``
    with ``y = e^{-(N+1)s - (r|x)}``, cut at order ``K = _KAC_ORDER`` with
    remainder at most ``2 y^{K+1} / ((K+1) (1 - e^{-s}))``.  ``N`` is the
    least depth that puts the remainder below ``_KAC_TAIL``; past
    ``_KAC_DEPTH_MAX`` :class:`~affinewalks.weyl.ConvergenceError` is
    raised.  Each kept term is concave in ``x`` and the gradient is exactly
    theirs.  ``err`` bounds the error of ``log h``: the remainder, and one
    unit roundoff per float operation, the exponents' rounding carried by
    the factors' slopes.
    """
    v = np.asarray(v, dtype=float)
    s = np.broadcast_to(np.asarray(s, dtype=float), len(v))
    if not (s > 0).all():
        raise ValueError("Kac's product needs (delta|x) > 0")
    r, depth0, rmax = _kac_roots(alg)
    w, k1, s_min = r @ v.T, _KAC_ORDER + 1, float(s.min())
    # every y is at most e^{a - (N+1) s}, a = max -(r|x)
    depth = max(1, math.ceil((float(-w.min()) + math.log(2 * len(r) / (
        k1 * _KAC_TAIL * -math.expm1(-s_min))) / k1) / s_min) - 1)
    if depth > _KAC_DEPTH_MAX:
        raise ConvergenceError(f"Kac's product needs delta-depth {depth}, "
                               f"past the cap {_KAC_DEPTH_MAX}")
    n, k = np.arange(depth + 1.0), np.arange(1.0, k1)[:, None]
    step = max(1, _KAC_BLOCK // ((depth + k1) * len(r)))
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):     # -inf on walls
        for i in range(0, len(v), step):
            sb, vb, wb = s[i:i + step], v[i:i + step], w[:, i:i + step]
            # the kept depths, over (depth, root, row)
            f = np.multiply.outer(-n, sb)[:, None, :] - wb    # -u
            f[0] -= depth0
            np.minimum(f, 0.0, out=f)
            np.expm1(f, out=f)
            np.negative(f, out=f)                   # 1 - e^{-u}, -0.0 on walls
            lh = np.log(f.prod(axis=1)).sum(axis=0)
            g = np.reciprocal(np.abs(f, out=f), out=f)
            g -= 1.0                                # d log f / du
            ds = n @ g.sum(axis=1)
            g_r = g.sum(axis=0)
            # the q-expansion, over (order, root, row)
            y = np.exp(-(depth + 1) * sb - wb)
            yk = np.empty((_KAC_ORDER,) + y.shape)
            yk[0] = y
            for j in range(1, _KAC_ORDER):
                np.multiply(yk[j - 1], y, out=yk[j])
            inv = 1.0 / -np.expm1(-k * sb)          # 1 / (1 - e^{-ks})
            pk = yk.sum(axis=1) * inv
            lh -= (1.0 / k[:, 0]) @ pk
            ds += ((depth + inv) * pk).sum(axis=0)
            g_r += (yk * inv[:, None, :]).sum(axis=0)
            # every exponent is within du of its exact value
            du = (alg.rank + 2) * _U * ((depth + 1) * sb + np.abs(vb) @ rmax)
            rem = 2 * (yk[-1] * y).sum(axis=0) / (k1 * -np.expm1(-sb))
            err = (du * g_r.sum(axis=0) + rem
                   + _U * (2 * g[:, :, 0].size + (depth + k1 + 3) * np.abs(lh)))
            out.append((lh, ds, (r.T @ g_r).T, err))
    return tuple(map(np.concatenate, zip(*out)))


# -- candidate enumeration --------------------------------------------------------


class _SupportBall:
    """The exact orbit-hull ball of the weights of ``V(lam)``: every weight
    ``lam - d*delta - m`` has
    ``||m - lam_finite||^2 <= ||lam_finite||^2 + 2*level*d``.  With ``q``
    clearing the denominators of ``lam_finite = z / q``, that is
    ``|q m - z|^2 <= r0 + r1 d`` in the integer Gram ``gn``, tested in
    integers."""

    def __init__(self, alg: AffineAlgebra, lam: Weight):
        gn, gd = alg.finite_gram_int
        (self.z,), self.q = _linalg.int_scaled([lam.z])
        self.gn, self.r0 = gn, int(self.z @ gn @ self.z)
        self.r1 = int(2 * lam.k * self.q * self.q * gd)
        # |v_i| <= sqrt(bound * reach_i) on the ball, per axis
        self.axes = list(zip(self.z.tolist(), np.diag(np.linalg.inv(gn)).tolist(),
                             alg.marks[1:]))

    def contains(self, d, m):
        """``m`` lies in the depth-d ball, elementwise over stacks, ``m``
        with one more axis than ``d``."""
        v = self.q * np.asarray(m) - self.z
        return ((v @ self.gn) * v).sum(axis=-1) <= self.r0 + self.r1 * np.asarray(d)

    def box(self, d: int):
        """``(lo, mask)``: the depth-d candidates of both oracles are the
        offsets ``lo + i`` with ``mask[i]``, the ball met with the cone
        ``m_i + d*a_i >= 0``; the box is their bounding box.  Ball and
        cone are convex, so a line that leaves the candidates stays out."""
        bound, q = self.r0 + self.r1 * d, self.q
        lo, hi = [], []
        for z, reach, mark in self.axes:
            e = math.isqrt(int(bound * reach)) + 1      # + 1 covers the float rounding
            lo.append(max((z - e) // q, -d * mark))
            hi.append((z + e) // q + 1)
        mask = self.contains(d, np.moveaxis(np.indices(np.subtract(hi, lo)), 0, -1) + lo)
        nz = np.argwhere(mask)
        a, b = nz.min(axis=0), nz.max(axis=0) + 1
        return tuple((lo + a).tolist()), mask[tuple(map(slice, a, b))]


# -- Freudenthal recursion --------------------------------------------------------


def freudenthal_table(alg: AffineAlgebra, lam: Weight, depth: int) -> MultiplicityTable:
    """Weight multiplicities of the irreducible module via the recursion

    ``(||lam+rho||^2 - ||mu+rho||^2) dim V_mu
        = 2 sum_{beta>0} mult(beta) sum_{j>=1} (mu + j beta | beta) dim V_{mu+j beta}``.

    Visits weights by increasing depth, then offsets in C order, which
    puts ``m - j*r`` before ``m`` for a positive finite root ``r >= 0``.
    Every pairing is carried times ``S = gd * q`` as a Python int, ``gd``
    the denominator of the finite Gram and ``q`` that of ``lam`` and
    ``lam+rho``.  The denominator is asserted positive at every visited
    weight and the division must be exact, so any bookkeeping error aborts
    loudly.  A string along a depth-0 root ends where it leaves the
    candidates of :meth:`_SupportBall.box`.
    """
    cls = classify_weight(alg, lam)
    if not cls.dominant:
        raise ValueError("highest weight must be dominant integral")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if lam.k == 0:
        return MultiplicityTable(lam, depth, {(0, (0,) * alg.rank): 1})

    rho = weyl_vector(alg)
    c = [a + b for a, b in zip(lam.z, rho.z)]          # finite part of lam+rho
    gn, gd = alg.finite_gram_int
    gn = gn.tolist()
    (lz, cq), q = _linalg.int_scaled([lam.z, c])
    lz, cq = lz.tolist(), cq.tolist()
    scale = gd * q
    k, lev = int(lam.k), int(lam.k + rho.k)             # levels of lam, lam+rho
    cg = [sum(x * y for x, y in zip(cq, row)) for row in gn]   # S (lam+rho|.)
    # per finite root r: S (lam|r), S (.|r) on offsets, S ||r||^2
    pair = {}
    for r in finite_roots(alg):
        g = [sum(a * b for a, b in zip(row, r)) for row in gn]
        pair[r] = (sum(a * b for a, b in zip(lz, g)), [q * x for x in g],
                   q * sum(a * b for a, b in zip(r, g)))
    strings0 = [(r, *pair[r]) for (n, r, _) in positive_roots(alg, 0)]
    real = [(n, r, *pair[r]) for (n, r, _) in positive_roots(alg, depth)
            if n and any(r)]

    ball = _SupportBall(alg, lam)
    layers: list[dict[tuple[int, ...], int]] = []
    for d in range(depth + 1):
        lo, mask = ball.box(d)
        ms = list(map(tuple, (np.argwhere(mask) + lo).tolist()))
        inside = set(ms)
        layer: dict[tuple[int, ...], int] = {}
        layers.append(layer)
        for m in ms:
            if d == 0 and not any(m):
                layer[m] = 1
                continue
            acc = 0
            for (r, lam_r, g, rr) in strings0:
                base = lam_r - sum(a * b for a, b in zip(m, g))
                mm, j = m, 1
                while True:
                    mm = tuple(a - b for a, b in zip(mm, r))
                    if mm not in inside:
                        break
                    e = layer.get(mm)
                    if e:
                        acc += (base + j * rr) * e
                    j += 1
            for (n, r, lam_r, g, rr) in real:
                if n > d:
                    break
                base = lam_r - sum(a * b for a, b in zip(m, g)) + n * k * scale
                mm = m
                for j in range(1, d // n + 1):
                    mm = tuple(a - b for a, b in zip(mm, r))
                    e = layers[d - j * n].get(mm)
                    if e:
                        acc += (base + j * rr) * e
            for n in range(1, d + 1):
                s = sum(layers[dd].get(m, 0) for dd in range(d - n, -1, -n))
                if s:
                    acc += alg.rank * n * k * scale * s
            if acc == 0:
                continue
            denom = (2 * d * lev * scale + 2 * sum(a * b for a, b in zip(cg, m))
                     - q * sum(m[i] * gn[i][j] * m[j] for i in range(alg.rank)
                               for j in range(alg.rank)))
            if denom <= 0:
                raise ArithmeticError(
                    f"nonpositive Freudenthal denominator at depth={d}, m={m}")
            val, rem = divmod(2 * acc, denom)
            if rem:
                raise ArithmeticError(f"non-integer multiplicity at depth={d}, "
                                      f"m={m}: {2 * acc}/{denom}")
            if val < 0:
                raise ArithmeticError(f"negative multiplicity at depth={d}, m={m}")
            if val:
                layer[m] = val
    return MultiplicityTable(lam, depth, {(d, m): v for d, layer in enumerate(layers)
                                          for m, v in layer.items()})


# -- alternating Weyl-orbit series ------------------------------------------------


def alternant_terms(alg: AffineAlgebra, mu: Weight, depth: int) -> dict[Key, int]:
    """Signed coefficients of ``sum_w det(w) e^{w(mu)-mu}`` up to delta-depth.

    ``mu`` must be strictly dominant (all coroot pairings positive), so
    every orbit point ``mu - w(mu)`` lies in the positive root cone and the
    translation radius needed for a given depth can be bounded a priori.
    """
    if any(pairing_coroot(alg, mu, i) <= 0 for i in range(alg.rank + 1)):
        raise ValueError("alternant point must be strictly dominant")
    k = float(mu.k)
    znorm = math.sqrt(float(alg.finite_norm2(mu.z)))
    radius = (znorm + math.sqrt(znorm * znorm + 2.0 * k * depth)) / k
    radius = radius * (1.0 + 1e-9) + 1e-9
    terms: dict[Key, int] = {}
    for w in enumerate_bounded(alg, radius):
        img = apply(alg, w, mu)
        off = mu - img
        d = off.b
        if d < 0 or d > depth:
            continue
        if d.denominator != 1 or any(x.denominator != 1 for x in off.z):
            raise AssertionError("orbit offset left the root lattice")
        if off.k != 0:
            raise AssertionError("orbit offset has a Lambda0 component")
        key = (int(d), tuple(int(x) for x in off.z))
        terms[key] = terms.get(key, 0) + w.sign
    return {kk: v for kk, v in terms.items() if v != 0}


@lru_cache(maxsize=_ALGEBRAS_MAX)
def _weyl_denominator_memo(alg: AffineAlgebra) -> list:
    """``[depth, terms]``: the deepest :func:`alternant_terms` of ``rho``
    computed so far for an algebra; one per algebra, so bounded with the
    algebras."""
    return [-1, {}]


def _weyl_denominator(alg: AffineAlgebra, depth: int) -> dict[Key, int]:
    """:func:`alternant_terms` of ``rho`` to ``depth``, the deepest one so
    far cut at ``depth``: the terms up to a depth do not depend on how deep
    the orbit was enumerated."""
    memo = _weyl_denominator_memo(alg)
    if depth > memo[0]:
        memo[:] = depth, alternant_terms(alg, weyl_vector(alg), depth)
    return {key: c for key, c in memo[1].items() if key[0] <= depth}


# A layer is ``(lo, arr)``: the multiplicity at root offset ``m`` of one
# delta-depth is ``arr[m - lo]``, zero outside the box; ``arr`` holds exact
# Python ints (object dtype), since entries pass 2^63 (A1~ 2 Lambda0, n = 3,
# reaches 8.8e19 at depth 100).
Layer = tuple[tuple[int, ...], np.ndarray]


def _quotient_terms(alg: AffineAlgebra, lam: Weight, depth: int):
    """Numerator ``A_{lam+rho}`` and the non-constant denominator terms
    ``(d, m, c)`` of ``A_rho`` (from a memo per algebra), the alternants
    the series oracle divides."""
    num = alternant_terms(alg, lam + weyl_vector(alg), depth)
    den = _weyl_denominator(alg, depth)
    if den.get((0, (0,) * alg.rank)) != 1:
        raise AssertionError("denominator constant term must be 1")
    return num, [(d, m, c) for (d, m), c in den.items() if (d or any(m))]


def _quotient_layer(ball: _SupportBall, num, den_rest, layers: list[Layer],
                    d: int) -> Layer:
    """Layer ``d`` of the quotient ``num / den`` of :func:`_quotient_terms`
    over the depth's box of ``ball``, the module's support ball, read from
    ``layers``, the quotient's layers below ``d``.

    The layer starts as the numerator's, and each denominator term of
    positive delta-depth subtracts one slice of an earlier layer.  The
    depth-0 terms, at the offsets ``rho - w(rho) >= 0`` of the finite Weyl
    group, are then solved point by point in C order, which visits
    ``m - (rho - w(rho))`` before ``m``, over the box padded below so that
    reads past its low edges find zeros.  A negative coefficient, or a
    nonzero one outside the ball and cone, raises ``ArithmeticError``.
    """
    lo, mask = ball.box(d)
    fin = [(mg, c) for (dg, mg, c) in den_rest if dg == 0]
    pad = [max(x) for x in zip((0,) * mask.ndim, *(mg for mg, _ in fin))]
    full = np.zeros([w + p for w, p in zip(mask.shape, pad)], dtype=object)  # Python 0
    inner = tuple(slice(p, None) for p in pad)
    out = full[inner]
    for (dn, m), c in num.items():
        idx = tuple(x - a for x, a in zip(m, lo))
        if dn == d and all(0 <= i < w for i, w in zip(idx, mask.shape)):
            out[idx] += c
    for (dg, mg, c) in den_rest:
        if 0 < dg <= d:
            plo, prev = layers[d - dg]
            at = [p + g - a for p, g, a in zip(plo, mg, lo)]   # where prev[0] lands
            dst = [slice(max(x, 0), min(x + n, w))
                   for x, n, w in zip(at, prev.shape, mask.shape)]
            if all(sl.start < sl.stop for sl in dst):
                out[tuple(dst)] -= c * prev[tuple(slice(sl.start - x, sl.stop - x)
                                                  for sl, x in zip(dst, at))]
    strides = np.array(full.strides) // full.itemsize
    offs = [(int(np.dot(mg, strides)), c) for mg, c in fin]
    flat = full.reshape(-1)
    v = flat.tolist()
    for i, ok in zip(np.arange(full.size).reshape(full.shape)[inner].ravel().tolist(),
                     mask.ravel().tolist()):
        x = v[i]
        for o, c in offs:
            x -= c * v[i - o]
        if x < 0 or x and not ok:
            m = tuple(int(j) - p + a
                      for j, p, a in zip(np.unravel_index(i, full.shape), pad, lo))
            raise ArithmeticError(f"series coefficient {x} at depth={d}, m={m} "
                                  "is negative or outside the support ball")
        v[i] = x
    flat[:] = v
    return lo, out


def character_series_oracle(alg: AffineAlgebra, lam: Weight, depth: int) -> MultiplicityTable:
    """Multiplicities by dividing the alternating numerator by the
    alternating denominator as formal series in the root-cone variables,
    one :func:`_quotient_layer` per delta-depth.

    Independent of the Freudenthal recursion: only the Weyl orbit and the
    strictly dominant points ``lam+rho`` and ``rho`` enter.
    """
    cls = classify_weight(alg, lam)
    if not cls.dominant:
        raise ValueError("highest weight must be dominant integral")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if lam.k == 0:
        return MultiplicityTable(lam, depth, {(0, (0,) * alg.rank): 1})
    num, den_rest = _quotient_terms(alg, lam, depth)
    ball, layers = _SupportBall(alg, lam), []
    for d in range(depth + 1):
        layers.append(_quotient_layer(ball, num, den_rest, layers, d))
    return MultiplicityTable(lam, depth, dict(_nonzero_items(layers)))


# -- tensor powers ----------------------------------------------------------------


def _convolve(alg: AffineAlgebra, a: dict[Key, int], b: dict[Key, int],
              depth: int) -> dict[Key, int]:
    out: dict[Key, int] = {}
    l = alg.rank
    for (d1, m1), v1 in a.items():
        if d1 > depth:
            continue
        for (d2, m2), v2 in b.items():
            d = d1 + d2
            if d > depth:
                continue
            key = (d, tuple(m1[i] + m2[i] for i in range(l)))
            out[key] = out.get(key, 0) + v1 * v2
    return out


def _convolve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution of two arrays of one rank by one ``np.convolve``:
    every axis but the first is zero-padded to the output width, so flat
    indices add without a carry between axes."""
    shape = [x + y - 1 for x, y in zip(a.shape, b.shape)]
    flat = []
    for x in (a, b):
        pad = np.zeros([x.shape[0], *shape[1:]], dtype=object)   # Python int 0
        pad[tuple(map(slice, x.shape))] = x
        flat.append(pad.ravel())
    return np.convolve(*flat)[:math.prod(shape)].reshape(shape)


def _product_layer(prev: list[Layer], base: list[Layer], d: int) -> Layer:
    """Layer ``d`` of a product of two graded tables, ``sum_j prev[j] * base[d-j]``."""
    parts = [(tuple(x + y for x, y in zip(prev[j][0], base[d - j][0])),
              _convolve_dense(prev[j][1], base[d - j][1]))
             for j in range(d + 1) if prev[j][1].size and base[d - j][1].size]
    lo = tuple(map(min, zip(*(p for p, _ in parts))))
    hi = tuple(map(max, zip(*(tuple(x + s for x, s in zip(p, arr.shape))
                              for p, arr in parts))))
    out = np.zeros([h - a for h, a in zip(hi, lo)], dtype=object)
    for p, arr in parts:
        out[tuple(slice(x - a, x - a + s) for x, a, s in zip(p, lo, arr.shape))] += arr
    return lo, out


def _nonzero_items(layers: list[Layer]):
    """``((d, m), mult)`` for every nonzero entry of the layers, by depth."""
    for d, (lo, arr) in enumerate(layers):
        idx = np.nonzero(arr)
        for m, v in zip((np.transpose(idx) + lo).tolist(), arr[idx].tolist()):
            yield (d, tuple(m)), v


class _LayerEntries(Mapping):
    """Read-only ``{(d, m): mult}`` view of the layers to a depth; zero
    multiplicities are absent, as in a sparse table."""

    def __init__(self, layers: list[Layer]):
        self._layers = layers

    def value(self, d: int, m) -> int:
        """The multiplicity at ``(d, m)``, zero included, for a depth ``d``
        within the layers."""
        lo, arr = self._layers[d]
        idx = tuple(x - a for x, a in zip(m, lo))
        return arr[idx] if all(0 <= i < s for i, s in zip(idx, arr.shape)) else 0

    def __getitem__(self, key):
        d, m = key
        if 0 <= d < len(self._layers) and (v := self.value(d, m)):
            return v
        raise KeyError(key)

    def __iter__(self):
        return (key for key, _ in _nonzero_items(self._layers))

    def __len__(self):
        return sum(int(np.count_nonzero(arr)) for _, arr in self._layers)


class _TensorPowers:
    """The tensor powers of one ``V(omega)``, grown layer by layer.

    ``powers[n-1][d]`` is layer ``d`` of the n-th power; a request for depth
    ``D`` computes only the layers missing below ``D``.  The first power
    appends :func:`_quotient_layer`s, on alternants computed with doubling
    headroom so one-layer extensions do not recompute them; power ``n`` is
    power ``n-1`` times the first, layer by layer.
    """

    def __init__(self, alg: AffineAlgebra, omega: Weight):
        self.alg, self.omega = alg, omega
        self.ball = _SupportBall(alg, omega)
        self.alternants = (-1, {}, [])     # (depth, num, den_rest)
        self.powers: list[list[Layer]] = [[]]

    def layers(self, n: int, depth: int) -> list[Layer]:
        base = self.powers[0]
        if len(base) <= depth:
            if self.alternants[0] < depth:
                got = max(depth, 2 * self.alternants[0])
                self.alternants = (got, *_quotient_terms(self.alg, self.omega, got))
            _, num, den_rest = self.alternants
            for d in range(len(base), depth + 1):
                base.append(_quotient_layer(self.ball, num, den_rest, base, d))
        while len(self.powers) < n:
            self.powers.append([])
        for prev, cur in zip(self.powers, self.powers[1:n]):
            for d in range(len(cur), depth + 1):
                cur.append(_product_layer(prev, base, d))
        return self.powers[n - 1][:depth + 1]


# least-recently-used stores of tensor powers, one per (algebra, omega); the
# full test suite holds at most 2 at once (deepest request 365), so nothing
# there evicts
_TENSOR_STORE_MAX = 16


@lru_cache(maxsize=_TENSOR_STORE_MAX)
def _tensor_store(alg: AffineAlgebra, omega: Weight) -> _TensorPowers:
    if not classify_weight(alg, omega).dominant:
        raise ValueError("highest weight must be dominant integral")
    return _TensorPowers(alg, omega)


def tensor_power_table(alg: AffineAlgebra, omega: Weight, n: int,
                       depth: int) -> MultiplicityTable:
    """Weight multiplicities of the n-th tensor power, exact to ``depth``.

    Depths add under convolution and are nonnegative, so layer ``d`` of the
    n-th power needs only the layers ``<= d`` of the (n-1)-th and the
    first.  The layers live in a bounded store per ``(alg, omega)`` and are
    computed only up to the deepest depth requested; the result's
    ``entries`` is a read-only mapping over them.  ``n = 0`` is the point
    mass at weight 0.
    """
    if n < 0:
        raise ValueError("tensor power must be nonnegative")
    if n == 0:
        return MultiplicityTable(alg.zero(), depth, {(0, (0,) * alg.rank): 1},
                                 kind="tensor-power(omega,0)")
    return MultiplicityTable(omega.scale(n), depth,
                             _LayerEntries(_tensor_store(alg, omega).layers(n, depth)),
                             kind=f"tensor-power(omega,{n})")


# -- branching via the alternating sum --------------------------------------------


def branching_mult(alg: AffineAlgebra, lam: Weight, omega: Weight, n: int,
                   beta: Weight) -> int:
    """Multiplicity of the highest-weight component ``beta`` inside
    ``V(lam) (x) V(omega)^n`` through the alternating Weyl sum

    ``M(beta) = sum_w det(w) m_n(w(beta+rho) - (lam+rho))``,

    where ``m_n`` is the tensor-power weight multiplicity; the sum is
    :func:`_brancher` on the one offset of ``beta``.
    """
    for w_, nm in ((lam, "lam"), (omega, "omega"), (beta, "beta")):
        if not classify_weight(alg, w_).dominant:
            raise ValueError(f"{nm} must be dominant integral")
    off = lam + omega.scale(n) - beta
    if (off.k != 0 or off.b < 0 or off.b.denominator != 1
            or any(x.denominator != 1 for x in off.z)):
        return 0
    if n == 0:
        return 1 if (off.b == 0 and not any(off.z)) else 0
    return _brancher(alg, lam, omega, n)(
        int(off.b), np.array([[int(x) for x in off.z]], dtype=np.int64))[0]


def _brancher(alg: AffineAlgebra, lam: Weight, omega: Weight, n: int):
    """``branch(d, ms)``: the branching multiplicities ``M(beta_i)``,
    ``n >= 1``, of the stacked components
    ``beta_i = lam + n*omega - d*delta - ms[i]``, all dominant integral
    (unchecked), summed over the integer orbit offsets of
    :func:`~affinewalks.weyl.orbit_offsets`.  The weights and norms that
    depend on ``lam``, ``omega`` and ``n`` alone are built once here, so a
    kernel row pays for them once over all its delta-depths.

    Each row's enumeration radius and the required table depth are
    certified from the exact orbit-hull support bound of the tensor power;
    if a Weyl image inside the support bound falls beyond its row's
    radius, the call fails rather than returning a silently truncated
    value.  The rows share the terms of the largest radius.
    """
    rho = weyl_vector(alg)
    om_n = omega.scale(n)
    lam_rho = lam + rho
    mu0 = lam_rho + om_n                # mu_i = beta_i + rho = mu0 - ms[i] - d delta
    k = float(mu0.k)
    k_om = float(omega.k)
    aq = k * (k - n * k_om)
    if aq <= 0:
        raise BranchingCertificationError("level bookkeeping error: k <= n*k_omega")
    # the norms on the integer Gram: int / int rounds once, as float(Fraction)
    gn, gd = alg.finite_gram_int
    zi, q = _linalg.int_scaled([mu0.z, lam_rho.z, omega.z])
    top, zi = zi[0], zi[1:]
    z_lam, c_om = np.sqrt(np.einsum("ni,ij,nj->n", zi, gn, zi) / (q * q * gd))
    # longest basis vector
    shell = math.sqrt(max(float(row[i]) for i, row in enumerate(_lattice_gram(alg))))
    ball = _SupportBall(alg, om_n)

    def branch(d: int, ms: np.ndarray) -> list[int]:
        zq = top - q * ms
        z_beta = np.sqrt(np.einsum("ni,ij,nj->n", zq, gn, zq) / (q * q * gd))
        c1 = z_beta + z_lam
        bq = 2 * k * c1 + 2 * n * k_om * z_beta
        cq = n * n * c_om * c_om + 2 * n * k_om * d - c1 * c1
        rstar = (bq + np.sqrt(bq * bq + 4 * aq * np.maximum(cq, 0.0))) / (2 * aq)
        radius = rstar * 1.02 + shell

        # the term w reads m_n at n*omega - (w(mu) - (lam+rho)): the offset
        # (top - beta) + (mu - w(mu)) from n*omega, integral because beta is;
        # it is needed when it lies in the tensor power's support ball
        terms = weyl_terms(alg, math.ceil(radius.max() + shell))
        m, dt = orbit_offsets(alg, terms, int(mu0.k), zq, q)
        m += ms[:, None, :]
        dt += d
        need = (dt >= 0) & ball.contains(dt, m)
        # boundary-shell certificate: the terms beyond the radius contribute nothing
        if (need & (terms.norm2 > (radius * radius)[:, None])).any():
            raise BranchingCertificationError(
                "enumeration radius certificate failed on the boundary shell")

        entries = tensor_power_table(alg, omega, n, int(dt[need].max(initial=0))).entries
        rows, cols = np.nonzero(need)
        totals = [0] * len(ms)
        for i, sign, dd, mm in zip(rows.tolist(), terms.sign[cols].tolist(),
                                   dt[need].tolist(), m[need].tolist()):
            totals[i] += sign * entries.value(dd, mm)
        if min(totals) < 0:
            raise ArithmeticError(f"negative branching multiplicity {min(totals)}: "
                                  "enumeration incomplete")
        return totals

    return branch


# -- independent decomposition of a character product ------------------------------


def decompose_product(alg: AffineAlgebra, lam: Weight, omega: Weight, n: int,
                      depth: int) -> dict[Key, int]:
    """Greedy highest-weight decomposition of ``ch(lam) * ch(omega)^n``.

    Multiplies truncated character series and repeatedly peels the maximal
    remaining term, which must be a dominant highest weight; returns the
    component multiplicities keyed by offset from ``lam + n*omega``.  This
    route never touches the alternating branching sum, so it serves as its
    independent oracle.
    """
    top = lam + omega.scale(n)
    prod = dict(character_series_oracle(alg, lam, depth).entries)
    base = character_series_oracle(alg, omega, depth).entries if n else {}
    for _ in range(n):
        prod = _convolve(alg, prod, base, depth)
    residual = prod
    components: dict[Key, int] = {}
    for (d, m) in sorted(residual, key=lambda k: (k[0], sum(k[1]), k[1])):
        val = residual.get((d, m), 0)
        if val == 0:
            continue
        if val < 0:
            raise ArithmeticError(
                f"negative residual {val} at {(d, m)}: peel order broken")
        beta = top - Weight.make(0, m, d)
        if not classify_weight(alg, beta).dominant:
            raise ArithmeticError(
                f"maximal residual term at {(d, m)} is not dominant")
        components[(d, m)] = val
        comp = character_series_oracle(alg, beta, depth - d).entries
        for (dd, mm), v in comp.items():
            key = (d + dd, tuple(m[i] + mm[i] for i in range(alg.rank)))
            residual[key] = residual.get(key, 0) - val * v
    if any(residual.values()):
        raise ArithmeticError("decomposition left a nonzero residual")
    return components
