"""Reduced enveloping algebras, baby Verma modules as sparse matrices over F_p,
and irreducibility/invertibility testing.

A baby Verma module is induced from the one-dimensional Borel module of
weight lambda: its basis is the set of restricted monomials in the m
negative root vectors applied to the highest-weight line v (p^m of them,
ordered lexicographically by exponent tuple).  A generator acts by
straightening its left multiplication on these module vectors, in code
separate from pbw's straightening in U(L), so evaluating PBW normal forms
on the matrices checks one against the other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .chevalley import LieAlgebra, MixedAlgebras
from .linalg import DenseEchelon, check_int64_sum, kernel_mod_p, rank_mod_p
from .pbw import Mono, UEElement


class NotModP(ValueError):
    """Operation requires a positive characteristic."""


class NonStandardCharacter(ValueError):
    """Baby Verma induction needs chi = 0 on the positive root vectors."""


class IncompatibleWeight(ValueError):
    """lambda(h)^p - lambda(h) != chi(h)^p on the named simple coroot."""

    def __init__(self, coroot: int):
        super().__init__(f"no compatible weight value at simple coroot {coroot}")
        self.coroot = coroot


# largest p^m that baby_verma builds: B2 at p = 13 (28561, 136 MB peak) and B3
# at p = 3 (19683, 175 MB) fit; B3 at p = 5 (5^9) or 7 (7^9) would exhaust memory
MAX_MODULE_DIM = 2**15

# largest module that is_irreducible tests: it holds d x d int64 arrays (the
# Krylov matrix, theta, theta - c and an elimination copy), 134 MB each at
# 2^12 and 1.7 GB at B2 p = 11 (d = 11^4)
MAX_DENSE_DIM = 2**12


class ModuleTooLarge(ValueError):
    """The module has more than MAX_MODULE_DIM dimensions (baby_verma) or
    more than MAX_DENSE_DIM (is_irreducible)."""


@dataclass
class Character:
    """Linear functional on L given by its values on the Chevalley basis."""

    algebra: LieAlgebra
    values: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.algebra.p:
            raise NotModP("characters require positive characteristic")
        self.values = self.algebra.normalize(self.values)

    def value(self, pos: int) -> int:
        return self.values.get(pos, 0)

    @property
    def is_standard(self) -> bool:
        """True iff chi vanishes on every positive root vector."""
        rs = self.algebra.rs
        for pos, v in self.values.items():
            b = self.algebra.basis[pos]
            if b.kind == "x" and rs.height(b.root) > 0 and v:
                return False
        return True


def compatible_lambdas(L: LieAlgebra, chi: Character) -> list[list[int]]:
    """Per-coroot solution sets of t^p - t = chi(h)^p in F_p (0 or p values each)."""
    p = L.p
    out = []
    for i in range(1, L.l + 1):
        rhs = pow(chi.value(L.hpos(i)), p, p)
        out.append([t for t in range(p) if (pow(t, p, p) - t) % p == rhs])
    return out


def reduce(u: UEElement, chi: Character) -> UEElement:
    """Eliminate every exponent >= p via x^p = x^[p] + chi(x)^p; idempotent."""
    L = u.uea.lie
    if not L.p:
        raise NotModP("reduce needs an element with mod-p coefficients")
    L.check_same(chi.algebra)
    p = L.p
    out: dict[Mono, int] = {}
    stack = list(u.terms.items())
    while stack:
        m, c = stack.pop()
        hit = next(((i, pos, e) for i, (pos, e) in enumerate(m) if e >= p), None)
        if hit is None:
            out[m] = out.get(m, 0) + c
            continue
        i, pos, e = hit

        def rebuilt(new_e: int) -> Mono:
            if new_e:
                return m[:i] + ((pos, new_e),) + m[i + 1 :]
            return m[:i] + m[i + 1 :]

        chi_p = pow(chi.value(pos), p, p)
        if L.basis[pos].kind == "x":
            # x^[p] = 0 for root vectors
            if chi_p:
                stack.append((rebuilt(e - p), c * chi_p))
        else:
            # h^[p] = h for coroots
            stack.append((rebuilt(e - p + 1), c))
            if chi_p:
                stack.append((rebuilt(e - p), c * chi_p))
    return UEElement(u.uea, out)


@dataclass
class MatrixRep:
    """Explicit sparse generator matrices on a p^m-dimensional baby Verma module."""

    algebra: LieAlgebra
    p: int
    dim: int
    neg_positions: tuple[int, ...]
    generators: dict[int, sp.csr_matrix]
    chi: Character
    lam: dict[int, int]

    def identity(self) -> sp.csr_matrix:
        return sp.identity(self.dim, dtype=np.int64, format="csr")

    def matmul(self, A: sp.csr_matrix, B: sp.csr_matrix) -> sp.csr_matrix:
        C = (A @ B).tocsr()
        C.data %= self.p
        C.eliminate_zeros()
        return C

    def is_zero_matrix(self, A: sp.csr_matrix) -> bool:
        return not (A.data % self.p).any()

    def mats_equal(self, A: sp.csr_matrix, B: sp.csr_matrix) -> bool:
        return self.is_zero_matrix((A - B).tocsr())


def baby_verma(L: LieAlgebra, chi: Character, lam: dict[int, int]) -> MatrixRep:
    """Induce from a one-dimensional Borel module of weight lam.

    lam maps simple-coroot indices (1..l) to F_p values and must satisfy
    lam(h)^p - lam(h) = chi(h)^p on every simple coroot.

    Column f^a v of rho(x_g), with f_i0^e0 the first factor of f^a, is
    straightened on module vectors and memoized per (g, column): x_g v is
    f_g v, lam(h) v or 0; x_g f^a v = f_g f^a v if g < i0; f_i0 raises e0,
    with f^p = chi(f)^p; otherwise x_g f_i0^e0 R v = f_i0 (x_g f_i0^(e0-1) R v)
    + [x_g, f_i0] f_i0^(e0-1) R v.  Filling the columns in increasing order
    keeps the recursion about 3 frames deep (B2 at p = 7 and 11, B3 at p = 3).
    """
    if not L.p:
        raise NotModP("baby Verma modules require positive characteristic")
    L.check_same(chi.algebra)
    if not chi.is_standard:
        raise NonStandardCharacter("chi must vanish on positive root vectors")
    p, m, n = L.p, L.m, L.n
    bad = [i for i in lam if i not in range(1, L.l + 1)]
    if bad:
        raise ValueError(f"lambda keys {bad} are outside 1..{L.l}")
    lam = {i: lam.get(i, 0) % p for i in range(1, L.l + 1)}
    for i in range(1, L.l + 1):
        if (pow(lam[i], p, p) - lam[i]) % p != pow(chi.value(L.hpos(i)), p, p):
            raise IncompatibleWeight(i)
    if p**m > MAX_MODULE_DIM:
        raise ModuleTooLarge(f"module dimension {p}^{m} exceeds the limit of {MAX_MODULE_DIM}")

    dim = p**m
    # the basis order puts the m negative root vectors first, so f_j is x_j;
    # column f^a v has index sum a_j w_j (lexicographic in the exponent tuple)
    w = [p ** (m - 1 - j) for j in range(m)]
    lead = [m]  # i0 of each column, so its first factor is f_i0^(col // w[i0]); v has none
    for j in reversed(range(m)):
        lead += [j] * ((p - 1) * w[j])
    chi_p = [pow(chi.value(j), p, p) for j in range(m)]
    lam_at = {L.hpos(i): lam[i] for i in range(1, L.l + 1) if lam[i]}
    memo: list[list[dict[int, int] | None]] = [[None] * dim for _ in range(n)]

    def act(g: int, col: int) -> dict[int, int]:
        res = memo[g][col]
        if res is not None:
            return res
        i0 = lead[col]
        if g < i0:
            res = {col + w[g]: 1}
        elif col == 0:  # a coroot or a positive root vector on v
            res = {0: lam_at[g]} if g in lam_at else {}
        elif g == i0 and col // w[g] < p - 1:
            res = {col + w[g]: 1}
        elif g == i0:  # f^p = chi(f)^p
            res = {col - (p - 1) * w[g]: chi_p[g]} if chi_p[g] else {}
        else:
            rest = col - w[i0]
            acc: dict[int, int] = {}
            for row, c in act(g, rest).items():
                for row2, c2 in act(i0, row).items():
                    acc[row2] = acc.get(row2, 0) + c * c2
            for k, bk in L.table_entry(g, i0).items():
                for row2, c2 in act(k, rest).items():
                    acc[row2] = acc.get(row2, 0) + bk * c2
            res = {row: c % p for row, c in acc.items() if c % p}
        memo[g][col] = res
        return res

    rows, cols, data = ([[] for _ in range(n)] for _ in range(3))
    for col in range(dim):
        for g in range(n):
            entries = act(g, col)
            rows[g] += entries
            cols[g] += [col] * len(entries)
            data[g] += entries.values()
    generators = {
        g: sp.csr_matrix((np.array(data[g], dtype=np.int64), (rows[g], cols[g])), shape=(dim, dim))
        for g in range(n)
    }
    memo.clear()  # act refers to itself, so it would hold the memo until gc
    return MatrixRep(
        algebra=L,
        p=p,
        dim=dim,
        neg_positions=tuple(range(m)),
        generators=generators,
        chi=chi,
        lam=lam,
    )


def export_text(rep: MatrixRep) -> str:
    """Sparse-matrix text export for external cross-checking.

    Header line ``dim <dim> p <p>``, then one line per nonzero entry:
    ``<generator label> <row> <col> <value>``, rows and columns 0-based,
    generators in basis order, entries in CSR order.
    """
    lines = [f"dim {rep.dim} p {rep.p}"]
    for b in rep.algebra.basis:
        M = rep.generators[b.position].tocoo()
        order = sorted(zip(M.row, M.col, M.data))
        for r, c, v in order:
            lines.append(f"{b.label} {int(r)} {int(c)} {int(v) % rep.p}")
    return "\n".join(lines) + "\n"


def apply(u: UEElement, rep: MatrixRep, X):
    """rho(u) X mod p for X a vector, a dense block or a sparse matrix.

    Each monomial of reduce(u, rep.chi) applies its generator factors to X
    from right to left, so no power of a generator is ever formed."""
    if u.uea.lie is not rep.algebra:
        raise MixedAlgebras("element and representation over different algebras")
    p = rep.p
    check_int64_sum(p, rep.dim)  # each product sums dim residue products

    def mod(Y):
        if sp.issparse(Y):
            Y = Y.tocsr()
            Y.data %= p
            Y.eliminate_zeros()
            return Y
        return Y % p

    total = mod(0 * X)
    for m, c in reduce(u, rep.chi).terms.items():
        Y = X
        for pos, e in reversed(m):
            for _ in range(e):
                Y = mod(rep.generators[pos] @ Y)
        total = mod(total + c * Y)
    return total


def evaluate(u: UEElement, rep: MatrixRep) -> sp.csr_matrix:
    """Image of u under the algebra homomorphism extending the generator
    matrices, as the sparse matrix apply(u, rep, I)."""
    return apply(u, rep, rep.identity())


def invertible_in_rep(u: UEElement, rep: MatrixRep) -> bool:
    """True iff u acts invertibly on the module.

    Ordering the strong components of rho(u)'s nonzero pattern topologically
    is a symmetric permutation that makes rho(u) block upper triangular (Tarjan
    1972), so rho(u) is invertible iff every diagonal block is: 1x1 blocks
    are read off the diagonal, larger ones get an exact rank."""
    # imported here, not at the top: csgraph adds about 11 MB of RSS to
    # every process that loads redenv, most of which never test invertibility
    from scipy.sparse.csgraph import connected_components

    A = evaluate(u, rep)
    ncomp, labels = connected_components(A, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=ncomp)
    singletons = sizes[labels] == 1
    if not np.all(A.diagonal()[singletons] % rep.p):
        return False
    for comp in np.nonzero(sizes > 1)[0]:
        idx = np.nonzero(labels == comp)[0]
        if rank_mod_p(A[idx][:, idx].toarray(), rep.p) != idx.size:
            return False
    return True


# -- representation invariants ------------------------------------------


def rep_check_brackets(rep: MatrixRep) -> bool:
    """rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) over all basis pairs."""
    L = rep.algebra
    for i in range(L.n):
        Mi = rep.generators[i]
        for j in range(i + 1, L.n):
            Mj = rep.generators[j]
            lhs = sp.csr_matrix((rep.dim, rep.dim), dtype=np.int64)
            for k, c in L.table_entry(i, j).items():
                lhs = lhs + c * rep.generators[k]
            rhs = rep.matmul(Mi, Mj) - rep.matmul(Mj, Mi)
            if not rep.mats_equal(lhs.tocsr(), rhs.tocsr()):
                return False
    return True


def rep_check_restrictedness(rep: MatrixRep) -> bool:
    """rho(x)^p = rho(x^[p]) + chi(x)^p * I over all basis elements."""
    L = rep.algebra
    p = rep.p
    for b in L.basis:
        # p products by hand: apply would rewrite x^p through reduce, which
        # is the identity under test
        lhs = rep.identity()
        for _ in range(p):
            lhs = rep.matmul(lhs, rep.generators[b.position])
        rhs = sp.csr_matrix((rep.dim, rep.dim), dtype=np.int64)
        for k, c in L.pmap[b.position].items():
            rhs = rhs + c * rep.generators[k]
        cp = pow(rep.chi.value(b.position), p, p)
        if cp:
            rhs = rhs + cp * rep.identity()
        if not rep.mats_equal(lhs, rhs.tocsr()):
            return False
    return True


# -- irreducibility ------------------------------------------------------


@dataclass
class IrreducibilityVerdict:
    status: str  # "irreducible" | "submodule" | "inconclusive"
    witness: list[np.ndarray] | None = None  # basis of an invariant subspace
    span_dim: int | None = None  # dimension of the image of U when proven
    certificate: dict | None = None  # the Norton trial behind the verdict

    @property
    def is_irreducible(self) -> bool:
        return self.status == "irreducible"


def _spin(v: np.ndarray, gens: sp.csr_matrix, p: int) -> DenseEchelon:
    """Echelon basis of the submodule that v generates; gens stacks the
    generator matrices vertically, so one product gives every image of a row."""
    ech = DenseEchelon(p)
    ech.insert(v)
    k = 0
    while k < ech.rank < v.size:
        for w in (gens @ ech.rows[k]).reshape(-1, v.size) % p:
            if ech.insert(w) and ech.rank == v.size:
                break
        k += 1
    return ech


def _eigenvalues(theta: sp.csr_matrix, v: np.ndarray, p: int) -> np.ndarray:
    """Roots in F_p of the minimal polynomial g of v under theta, hence
    eigenvalues of theta.  The Krylov vectors theta^k v, k = 0..d, are the
    columns of K; the first dependent one is column deg g, so the first
    kernel vector of K holds g's coefficients, with zeros past deg g."""
    d = v.size
    K = np.empty((d + 1, d), dtype=np.int64)
    K[0] = v
    for k in range(d):
        K[k + 1] = (theta @ K[k]) % p
    values = np.zeros(p, dtype=np.int64)
    for coef in kernel_mod_p(K.T, p)[0][::-1]:  # Horner at every point of F_p
        values = (values * np.arange(p) + coef) % p
    return np.nonzero(values == 0)[0]


def is_irreducible(rep: MatrixRep, seed: int = 0, trials: int = 50) -> IrreducibilityVerdict:
    """Norton's irreducibility test (Parker 1984; Holt & Rees 1994).

    Trial t < `trials` forms theta from three words of length 1-2 drawn from
    random.Random(t), numbered like the C MeatAxe's words so that the work is
    the same at every seed, and tries each root c of the minimal polynomial
    of a vector drawn from random.Random(seed).  One vector of
    N = ker(theta - c) is spun under the generators and one of
    ker((theta - c)^T) under their transposes; a proper spin, or the
    annihilator of a proper dual spin, is returned as a submodule.  If
    dim N = 1 and both spins are full, the module is irreducible --
    absolutely, so the image of U is all d x d matrices (Burnside) and
    span_dim = d^2.  When the trials run out the verdict is "inconclusive",
    never a silent "irreducible"; so trials=0 gives it at every dim > 1.
    Above MAX_DENSE_DIM it raises ModuleTooLarge before allocating."""
    p, d = rep.p, rep.dim
    if d == 1:
        return IrreducibilityVerdict("irreducible", span_dim=1)
    if d > MAX_DENSE_DIM:
        raise ModuleTooLarge(f"irreducibility test at dimension {d} exceeds the limit of {MAX_DENSE_DIM}")
    check_int64_sum(p, d)  # each product below sums d residue products
    positions = [b.position for b in rep.algebra.basis]
    gens = sp.vstack([rep.generators[q] for q in positions], format="csr")
    duals = sp.vstack([rep.generators[q].T for q in positions], format="csr")
    rng = random.Random(seed)
    for t in range(trials):
        w = random.Random(t)
        word = [[w.randrange(1, p), [w.choice(positions) for _ in range(w.randint(1, 2))]]
                for _ in range(3)]
        theta = sp.csr_matrix((d, d), dtype=np.int64)
        for coef, qs in word:
            M = rep.generators[qs[0]]
            for q in qs[1:]:
                M = rep.matmul(M, rep.generators[q])
            theta = theta + coef * M
        theta.data %= p
        v = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        roots = _eigenvalues(theta, v, p)
        theta = theta.toarray()
        for c in roots:
            A = (theta - c * np.eye(d, dtype=np.int64)) % p
            null = kernel_mod_p(A, p)
            for dual in (False, True):
                u, G = (kernel_mod_p(A.T, p)[0], duals) if dual else (null[0], gens)
                W = _spin(u, G, p).rows
                if len(W) < d:
                    witness = kernel_mod_p(W, p) if dual else list(W)
                    cert = {"method": "norton", "trial": t, "dual": dual, "witness_dim": len(witness)}
                    return IrreducibilityVerdict("submodule", witness=witness, certificate=cert)
            if len(null) == 1:
                cert = {"method": "norton", "trial": t, "word": word, "eigenvalue": int(c),
                        "nullity": 1, "spin_dims": [d, d]}
                return IrreducibilityVerdict("irreducible", span_dim=d * d, certificate=cert)
    return IrreducibilityVerdict("inconclusive")
