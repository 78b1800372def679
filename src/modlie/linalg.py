"""Exact linear algebra over F_p and Q: ranks, kernels, incremental echelon forms.

The F_p routines work on int64 residues in 0..p-1.  A product of two residues
is below p^2, so a sum of n of them -- a matrix product over an axis of
length n -- stays exact only while p^2 * n < 2^63; `check_int64_sum` enforces
this wherever such a sum is taken, and every F_p routine checks n = 1, so a p
above about 3.04e9 is refused rather than silently wrapped.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, -1, p)


class Int64Overflow(ValueError):
    """p is too large for exact int64 arithmetic on residues."""


def check_int64_sum(p: int, n: int) -> None:
    """Raise Int64Overflow unless n products of residues mod p sum exactly in int64."""
    if p * p * n >= 2**63:
        raise Int64Overflow(f"p^2 * n = {p}^2 * {n} exceeds the int64 range")


def _echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of A over F_p by vectorized forward elimination.
    Returns the reduced copy and its pivot columns; pivot row i leads with a 1
    in column pivots[i], and the rows below the pivots are zero."""
    check_int64_sum(p, 1)
    M = np.array(A, dtype=np.int64, copy=True)
    M %= p
    nrows, ncols = M.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv], :] = M[[piv, r], :]
        M[r, c:] = (M[r, c:] * inv_mod(M[r, c], p)) % p
        rows = np.nonzero(M[r + 1 :, c])[0]
        if rows.size:
            idx = rows + r + 1
            M[idx, c:] = (M[idx, c:] - np.outer(M[idx, c], M[r, c:])) % p
        pivots.append(c)
    return M, pivots


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Exact rank over F_p."""
    return len(_echelon(A, p)[1])


def kernel_mod_p(A: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right kernel of A over F_p (list of int64 column vectors),
    one vector per free column fc: 1 at fc, 0 at the other free columns."""
    M, pivots = _echelon(A, p)
    ncols = M.shape[1]
    check_int64_sum(p, ncols)
    free = np.setdiff1d(np.arange(ncols), pivots)
    X = np.zeros((free.size, ncols), dtype=np.int64)
    X[np.arange(free.size), free] = 1
    for row in range(len(pivots) - 1, -1, -1):
        X[:, pivots[row]] = (-(X @ M[row])) % p
    return list(X)


class DenseEchelon:
    """Incremental reduced row echelon basis over F_p for dense integer vectors.

    Row i has a 1 in column pivots[i] and a 0 in every other pivot column, so
    a vector reduces in one product over the pivots it meets.  The rows live
    in one array whose capacity doubles as the rank grows."""

    def __init__(self, p: int):
        self.p = p
        self.rank = 0
        self._rows = np.zeros((0, 0), dtype=np.int64)
        self._pivots = np.zeros(0, dtype=np.int64)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self.rank]

    @property
    def pivots(self) -> np.ndarray:
        return self._pivots[: self.rank]

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        check_int64_sum(self.p, 1)
        v = np.array(vec, dtype=np.int64, copy=True) % self.p
        coef = v[self.pivots]
        hit = np.flatnonzero(coef)
        # each partial sum of coef @ rows adds at most `step` residue products
        step = (2**63 - 1) // (self.p * self.p)
        for s in range(0, hit.size, step):
            part = hit[s : s + step]
            v = (v - coef[part] @ self._rows[part]) % self.p
        return v

    def insert(self, vec: np.ndarray) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = (v * inv_mod(v[piv], self.p)) % self.p
        r = self.rank
        if r == len(self._pivots):
            pad = min(max(r, 8), v.size - r)  # double, up to the width
            # reshape gives the empty start array its width
            self._rows = np.vstack([self.rows.reshape(r, v.size), np.zeros((pad, v.size), np.int64)])
            self._pivots = np.concatenate([self.pivots, np.zeros(pad, np.int64)])
        rows = self.rows
        hit = np.flatnonzero(rows[:, piv])
        if hit.size:
            rows[hit] = (rows[hit] - np.outer(rows[hit, piv], v)) % self.p
        self._rows[r] = v
        self._pivots[r] = piv
        self.rank += 1
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))


class FractionEchelon:
    """Incremental echelon over Q for dense lists (characteristic-zero checks)."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, vec) -> bool:
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        pv = v[piv]
        v = [x / pv for x in v]
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))
