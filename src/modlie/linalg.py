"""Exact linear algebra over F_p and Q: ranks, kernels, incremental echelon forms.

The F_p routines work on int64 residues in 0..p-1.  A product of two residues
is below p^2, so a sum of n of them -- a matrix product over an axis of
length n -- stays exact only while p^2 * n < 2^63; `check_int64_sum` enforces
this wherever such a sum is taken, and every F_p routine checks n = 1, so a p
above about 3.04e9 is refused rather than silently wrapped.

`_echelon`, the one bulk eliminator, works on column panels of W =
min(PANEL, int64_terms(p)) columns with delayed reduction (Dumas, Giorgi &
Pernet, ACM TOMS 35(3), 2008), in int64 products and never in floating
point: greedy one-pivot elimination inside the panel, then one forward
substitution for the panel's pivot rows, one product for the rows below and
one reduction mod p for all the columns after it.  W falls to 1 near
p = 3.04e9, and a matrix narrower than 2 W columns is one panel.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, -1, p)


class Int64Overflow(ValueError):
    """p is too large for exact int64 arithmetic on residues."""


def int64_terms(p: int) -> int:
    """The most products of residues mod p whose sum is exact in int64."""
    return (2**63 - 1) // (p * p)


def check_int64_sum(p: int, n: int) -> None:
    """Raise Int64Overflow unless n products of residues mod p sum exactly in int64."""
    if n > int64_terms(p):
        raise Int64Overflow(f"p^2 * n = {p}^2 * {n} exceeds the int64 range")


PANEL = 64  # columns per panel of _echelon (the last takes the remainder); int64_terms(p) may narrow it


def _echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of A over F_p by forward elimination in column panels.
    Returns the reduced copy and its pivot columns; pivot row i leads with a 1
    in column pivots[i], and the rows below the pivots are zero.

    Each panel of W columns (the last one takes a remainder shorter than W) is
    eliminated one pivot at a time, taking the first row with a nonzero entry,
    so the pivots are the greedy column rank profile and the result is the
    one-pivot loop's.  A row's multiplier for a pivot stays in the pivot's
    column, so it moves with the row on a swap, until the columns after the
    panel are updated at once and the multipliers are cleared.  A sum of W
    residue products is exact in int64, so each update needs one % p."""
    check_int64_sum(p, 1)
    M = np.array(A, dtype=np.int64, copy=True)
    M %= p
    nrows, ncols = M.shape
    width = min(PANEL, int64_terms(p))
    pivots: list[int] = []
    c0 = 0
    while c0 < ncols and len(pivots) < nrows:
        c1 = c0 + width if ncols - c0 >= 2 * width else ncols
        r0 = len(pivots)
        scales = []
        for c in range(c0, c1):
            r = len(pivots)
            if r == nrows:
                break
            nz = np.nonzero(M[r:, c])[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                M[[r, piv], :] = M[[piv, r], :]
            scales.append(inv_mod(M[r, c], p))
            M[r, c:c1] = (M[r, c:c1] * scales[-1]) % p
            rows = np.nonzero(M[r + 1 :, c])[0]
            if rows.size:
                idx = rows + r + 1
                M[idx, c + 1 : c1] = (M[idx, c + 1 : c1] - np.outer(M[idx, c], M[r, c + 1 : c1])) % p
            pivots.append(c)
        cols = pivots[r0:]
        if cols and c1 < ncols:
            top = M[r0 : len(pivots), c1:]  # a view: the pivot rows, by forward substitution
            for j, s in enumerate(scales):
                top[j] = (top[j] - M[r0 + j, cols[:j]] @ top[:j]) % p * s % p
            rest = M[len(pivots) :, c1:]  # a view, updated in place; a row with no multiplier keeps its residues
            rest -= M[len(pivots) :, cols] @ top
            rest %= p
        for j, c in enumerate(cols):
            M[r0 + j + 1 :, c] = 0
        c0 = c1
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
        step = int64_terms(self.p)  # residue products per exact partial sum of coef @ rows
        for s in range(0, hit.size, step):
            part = hit[s : s + step]
            v = (v - coef[part] @ self._rows[part]) % self.p
        return v

    def insert(self, vec: np.ndarray) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        r = self.rank
        if r == len(self._pivots) < v.size:  # at full width, v reduces to zero
            pad = min(max(r, 8), v.size - r)  # double, up to the width
            # reshape gives the empty start array its width
            self._rows = np.vstack([self.rows.reshape(r, v.size), np.zeros((pad, v.size), np.int64)])
            self._pivots = np.concatenate([self.pivots, np.zeros(pad, np.int64)])
        if not _place(self._rows, self._pivots, r, v, self.p):
            return False
        self.rank += 1
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))


def _place(rows: np.ndarray, pivots: np.ndarray, r: int, v: np.ndarray, p: int) -> bool:
    """Store v, residues already reduced by the reduced rows rows[:r], as row
    r unless it is zero: scaled to a 1 at its first nonzero column, which is
    cleared from rows[:r] to keep them reduced."""
    nz = v.nonzero()[0]
    if nz.size == 0:
        return False
    piv = nz[0]
    v = v * inv_mod(v[piv], p) % p
    if r:
        col = rows[:r, piv]
        hit = col.nonzero()[0]
        if hit.size:
            rows[hit] = (rows[hit] - np.outer(col[hit], v)) % p
    rows[r] = v
    pivots[r] = piv
    return True


class BlockEchelon:
    """Reduced row echelon basis over F_p of a subspace of F_p^d that is the
    sum of its parts in the coordinate blocks blocks[b] (ascending index
    arrays that partition 0..d-1): one basis per block, each in block
    coordinates, in an array of sizes[b]^2 zeros made up front.  A vector of
    block b reduces in one product over the rows of that block whose pivots
    it meets, a sum of at most max(sizes) residue products, checked once here."""

    def __init__(self, p: int, blocks: list[np.ndarray]):
        self.p = p
        self.blocks = blocks
        self.sizes = [idx.size for idx in blocks]
        check_int64_sum(p, max(self.sizes))
        self.rank = 0
        self.ranks = [0] * len(blocks)
        self.block_rows = [np.zeros((n, n), dtype=np.int64) for n in self.sizes]
        self.block_pivots = [np.zeros(n, dtype=np.int64) for n in self.sizes]

    def insert(self, b: int, v: np.ndarray) -> bool:
        """Insert v, residues mod p in the coordinates of block b; True if it
        enlarged the span."""
        R, r = self.block_rows[b], self.ranks[b]
        coef = v[self.block_pivots[b][:r]]
        hit = coef.nonzero()[0]
        if hit.size:
            v = (v - coef[hit] @ R[hit]) % self.p
        if not _place(R, self.block_pivots[b], r, v, self.p):
            return False
        self.ranks[b] += 1
        self.rank += 1
        return True

    @property
    def rows(self) -> np.ndarray:
        """The basis as rank x d rows, by ascending pivot: the reduced row
        echelon form of the whole subspace, since each row is 0 outside its
        block and its block is ascending."""
        d = sum(self.sizes)
        out = np.zeros((self.rank, d), dtype=np.int64)
        pivots = np.zeros(self.rank, dtype=np.int64)
        k = 0
        for idx, R, P, r in zip(self.blocks, self.block_rows, self.block_pivots, self.ranks):
            out[k : k + r, idx] = R[:r]
            pivots[k : k + r] = idx[P[:r]]
            k += r
        row_of = np.full(d, -1)  # the row whose pivot each column is, if any
        row_of[pivots] = np.arange(self.rank)
        return out[row_of[row_of >= 0]]


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
