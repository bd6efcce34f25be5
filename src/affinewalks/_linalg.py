"""Exact linear algebra over the rationals and the integers.

Everything here operates on tiny dense matrices (at most rank+1 square:
Cartan matrices and Gram blocks), so Gaussian elimination with
``Fraction`` entries is fast enough and keeps the algebraic layer free of
floating-point drift.  :func:`int_scaled` is the one passage from rational
rows to integer arrays.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def mat_vec(m: Mat, v) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def int_scaled(rows) -> tuple[np.ndarray, int]:
    """``(n, d)`` with the rational matrix ``rows == n / d``, ``n`` an int64
    array and ``d`` the least common denominator of the entries."""
    d = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return np.array([[int(x * d) for x in row] for row in rows], dtype=np.int64), d


def invert(m: Mat) -> Mat:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det(m: Mat) -> Fraction:
    """Determinant by fraction-exact elimination."""
    work = [[Fraction(x) for x in row] for row in m]
    n = len(work)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            out = -out
        out *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return out


def nullspace(m) -> list[Vec]:
    """Basis of the right null space of a rational matrix."""
    m = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = Fraction(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][fc]
        basis.append(tuple(v))
    return basis


def primitive_integer_vector(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (gcd 1).

    The sign is normalized so that the first nonzero entry is positive.
    """
    ints = int_scaled([v])[0][0].tolist()
    if not any(ints):
        raise ValueError("zero vector has no primitive form")
    g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
    return tuple(x // g for x in ints)
