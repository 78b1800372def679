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

`BlockEchelon`, the one incremental echelon over F_p, keeps a reduced basis
one coordinate block at a time (Norton's graded spin; `check_subalgebra` uses
one block), so its kernel basis is read off its rows, not eliminated.
`FractionEchelon` is the incremental echelon over Q.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InputError


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, -1, p)


class Int64Overflow(InputError):
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


def null_vector(A: np.ndarray, p: int) -> tuple[np.ndarray | None, int]:
    """(kernel_mod_p(A, p)[0] or None when the kernel is 0, the nullity) from
    one elimination.  The first free column fc follows the pivots 0..fc-1,
    and the vector is 0 past fc, so only those pivot rows are back-substituted."""
    M, pivots = _echelon(A, p)
    ncols = M.shape[1]
    check_int64_sum(p, ncols)
    fc = next((c for c, piv in enumerate(pivots) if c != piv), len(pivots))
    if fc == ncols:
        return None, 0
    x = np.zeros(ncols, dtype=np.int64)
    x[fc] = 1
    for row in range(fc - 1, -1, -1):
        x[row] = -(M[row, row + 1 : fc + 1] @ x[row + 1 : fc + 1]) % p
    return x, ncols - len(pivots)


class BlockEchelon:
    """Reduced row echelon basis over F_p of a subspace of F_p^d that is the
    sum of its parts in the coordinate blocks blocks[b] (ascending index
    arrays that partition 0..d-1): one basis per block, each in block
    coordinates, in an array of sizes[b]^2 zeros made up front.  Row i of a
    block has a 1 at its pivot and a 0 at the block's other pivots, so a
    vector of the block reduces in one product over the rows whose pivots it
    meets, split so that each partial sum stays exact in int64.  One block,
    [np.arange(d)], is the plain incremental echelon of F_p^d."""

    def __init__(self, p: int, blocks: list[np.ndarray]):
        check_int64_sum(p, 1)
        self.p = p
        self.terms = int64_terms(p)  # residue products per exact partial sum
        self.blocks = blocks
        self.sizes = [idx.size for idx in blocks]
        self.rank = 0
        self.ranks = [0] * len(blocks)
        self.block_rows = [np.zeros((n, n), dtype=np.int64) for n in self.sizes]
        self.block_pivots = [np.zeros(n, dtype=np.int64) for n in self.sizes]

    def insert(self, b: int, v: np.ndarray) -> bool:
        """Insert v, int64 residues mod p in the coordinates of block b; True
        if it enlarged the span.  A new row is scaled to a 1 at its first
        nonzero column, which is cleared from the block's other rows."""
        p, R, P, r = self.p, self.block_rows[b], self.block_pivots[b], self.ranks[b]
        coef = v[P[:r]]
        hit = coef.nonzero()[0]
        for s in range(0, hit.size, self.terms):
            part = hit[s : s + self.terms]
            v = (v - coef[part] @ R[part]) % p
        nz = v.nonzero()[0]
        if nz.size == 0:
            return False
        piv = nz[0]
        v = v * inv_mod(v[piv], p) % p
        if r:
            col = R[:r, piv]
            hit = col.nonzero()[0]
            if hit.size:
                R[hit] = (R[hit] - np.outer(col[hit], v)) % p
        R[r] = v
        P[r] = piv
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

    def annihilator(self) -> list[np.ndarray]:
        """Basis of the x with rows @ x = 0, one vector per free column f: 1
        at f, 0 at the other free columns and -rows[i, f] at pivot i.  This
        is kernel_mod_p(rows)'s basis, with no elimination: _echelon leaves a
        reduced echelon matrix as it is."""
        W = self.rows
        pivots = (W != 0).argmax(axis=1)  # each row's leading 1
        free = np.setdiff1d(np.arange(W.shape[1]), pivots)
        X = np.zeros((free.size, W.shape[1]), dtype=np.int64)
        X[np.arange(free.size), free] = 1
        X[:, pivots] = -W[:, free].T % self.p
        return list(X)


class FractionEchelon:
    """Incremental echelon over Q for dense lists (characteristic-zero checks)."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = [Fraction(x) for x in vec]
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        pv = v[piv]
        v = [x / pv for x in v]
        self.rows.append(v)
        self.pivots.append(piv)
        return True
