"""Chevalley bases of classical Lie algebras with exact structure constants.

Basis order: negative root vectors, then simple coroots, then positive root
vectors; each block in the canonical root order.  Structure constants are
computed once per root system over the integers and reduced mod p only when
elements are combined, so every build of the system, at any p, shares one
read-only table.

Sign convention.  For every positive root g that is a sum of positive roots,
its extraspecial pair (a1, b1) is the special pair (a1 < b1, a1 + b1 = g)
with a1 minimal in the canonical order; we set N[a1, b1] = q + 1 > 0 where q
is the number of times a1 can be subtracted from b1 staying inside Phi.  All
remaining constants are forced by the standard two identities

    a + b + c = 0       =>  N[a,b]/(c,c) = N[b,c]/(a,a) = N[c,a]/(b,b)
    a + b + c + d = 0   =>  N[a,b]N[c,d]/(a+b,a+b) + N[b,c]N[a,d]/(b+c,b+c)
        (no two opposite)   + N[c,a]N[b,d]/(c+a,c+a) = 0

together with N[a,b] = -N[b,a] and N[-a,-b] = -N[a,b].  Every derived value
is checked to be an integer of absolute value q+1; antisymmetry and the
Jacobi identity are verified exhaustively by the test suite.
"""

from __future__ import annotations

import functools
import types
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .linalg import BlockEchelon, FractionEchelon
from .roots import Root, RootSystem, RootNotInSystem, cartan_integer, root_string


class BadCharacteristic(InputError):
    """Characteristic outside the supported range (0 or a prime >= 7)."""


class SmallCharacteristic(BadCharacteristic):
    """A prime below 7 without the small-prime opt-in."""


class MixedAlgebras(ValueError):
    """Elements of different algebras were combined."""


class NotCartanElement(InputError):
    """Expected an element of the coroot span."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BasisIndex:
    kind: str  # "x" or "h"
    position: int
    root: Root | None = None  # for kind "x"
    coroot: int | None = None  # 1-based simple index, for kind "h"
    label: str = ""


@dataclass
class LieElement:
    """Sparse vector over the Chevalley basis; coefficients exact mod p (or in Z)."""

    algebra: "LieAlgebra"
    coeffs: dict[int, int]

    def __post_init__(self):
        self.coeffs = self.algebra.normalize(self.coeffs)

    def __add__(self, other: "LieElement") -> "LieElement":
        self.algebra.check_same(other.algebra)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return LieElement(self.algebra, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def __neg__(self) -> "LieElement":
        return LieElement(self.algebra, {k: -v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar: int) -> "LieElement":
        return LieElement(self.algebra, {k: scalar * v for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def dense(self) -> list[int]:
        v = [0] * self.algebra.n
        for k, c in self.coeffs.items():
            v[k] = c
        return v

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            lbl = self.algebra.basis[k].label
            parts.append(lbl if c == 1 else f"{c} {lbl}")
        return " + ".join(parts)


class LieAlgebra:
    """Classical Lie algebra over F_p (or Z when p = 0) in its Chevalley basis."""

    def __init__(self, rs: RootSystem, p: int, allow_small: bool = False):
        if p != 0:
            if not _is_prime(p):
                raise BadCharacteristic(f"p = {p} is not prime")
            if p < 7 and not allow_small:
                raise SmallCharacteristic(
                    f"p = {p} < 7; pass allow_small=True for small-prime experiments"
                )
            if p < 7:
                warnings.warn(f"running at small characteristic p = {p}", stacklevel=3)
        self.rs = rs
        self.p = p
        negatives = [r for r in rs.roots if rs.height(r) < 0]
        positives = [r for r in rs.roots if rs.height(r) > 0]
        self.m = len(positives)
        self.l = rs.rank
        self.n = 2 * self.m + self.l
        basis: list[BasisIndex] = []
        for r in negatives:
            basis.append(BasisIndex("x", len(basis), root=r, label=f"x({r.label})"))
        for i in range(1, self.l + 1):
            basis.append(
                BasisIndex("h", len(basis), coroot=i, label=f"h({rs.base[i - 1].plain_label})")
            )
        for r in positives:
            basis.append(BasisIndex("x", len(basis), root=r, label=f"x({r.label})"))
        self.basis: tuple[BasisIndex, ...] = tuple(basis)
        self._xpos = {b.root: b.position for b in basis if b.kind == "x"}
        self._hpos = {b.coroot: b.position for b in basis if b.kind == "h"}
        self.N = _structure_constants(rs)
        self.table: dict[tuple[int, int], dict[int, int]] = self._build_table()
        self.pmap: dict[int, dict[int, int]] = {
            b.position: ({} if b.kind == "x" else {b.position: 1}) for b in basis
        }
        self._uea = None

    # -- bookkeeping ---------------------------------------------------

    def normalize(self, coeffs: dict) -> dict:
        """The coefficient dict of an element of L or U(L), reduced mod p
        (when p > 0) and without zero coefficients."""
        if self.p:
            return {k: r for k, v in coeffs.items() if (r := v % self.p)}
        return {k: v for k, v in coeffs.items() if v}

    def check_same(self, other: "LieAlgebra"):
        if self is not other:
            raise MixedAlgebras("elements belong to different algebras")

    def zero(self) -> LieElement:
        return LieElement(self, {})

    def x(self, root: Root) -> LieElement:
        return LieElement(self, {self.xpos(root): 1})

    def h(self, i: int) -> LieElement:
        return LieElement(self, {self._hpos[i]: 1})

    def xpos(self, root: Root) -> int:
        if root not in self._xpos:
            raise RootNotInSystem(f"{root} is not a root of {self.rs.family}{self.rs.rank}")
        return self._xpos[root]

    def hpos(self, i: int) -> int:
        return self._hpos[i]

    def element(self, coeffs: dict[int, int]) -> LieElement:
        return LieElement(self, coeffs)

    def sl2_triple(self, alpha: Root) -> tuple[LieElement, LieElement, LieElement]:
        """(e, h, f) for the sl2 attached to a root."""
        return self.x(alpha), self.coroot_expand(alpha), self.x(-alpha)

    def enveloping(self):
        if self._uea is None:
            from .pbw import EnvelopingAlgebra

            self._uea = EnvelopingAlgebra(self)
        return self._uea

    # -- structure -----------------------------------------------------

    def coroot_expand(self, alpha: Root) -> LieElement:
        """h_alpha as the integer combination of simple coroots fixed by
        [x_alpha, x_{-alpha}] = h_alpha."""
        rs = self.rs
        if alpha not in rs:
            raise RootNotInSystem(f"{alpha} is not a root")
        ks = rs.expansion(alpha)
        aa = alpha.dot(alpha)
        coeffs = {}
        for i, k in enumerate(ks, start=1):
            if k == 0:
                continue
            num = k * rs.base[i - 1].dot(rs.base[i - 1])
            if num % aa:
                raise ArithmeticError("coroot expansion must be integral")
            coeffs[self._hpos[i]] = num // aa
        return LieElement(self, coeffs)

    def _build_table(self) -> dict[tuple[int, int], dict[int, int]]:
        rs = self.rs
        table: dict[tuple[int, int], dict[int, int]] = {}
        for bi in self.basis:
            for bj in self.basis:
                i, j = bi.position, bj.position
                if i == j:
                    continue
                if bi.kind == "h" and bj.kind == "h":
                    entry: dict[int, int] = {}
                elif bi.kind == "h":
                    k = cartan_integer(bj.root, rs.base[bi.coroot - 1])
                    entry = {j: k} if k else {}
                elif bj.kind == "h":
                    k = cartan_integer(bi.root, rs.base[bj.coroot - 1])
                    entry = {i: -k} if k else {}
                else:
                    a, b = bi.root, bj.root
                    s = a + b
                    if not any(s.coords):  # opposite roots
                        entry = dict(self.coroot_expand(a).coeffs)
                    elif s in rs:
                        entry = {self._xpos[s]: self.N[(a, b)]}
                    else:
                        entry = {}
                table[(i, j)] = self.normalize(entry)
        return table

    def table_entry(self, i: int, j: int) -> dict[int, int]:
        """[basis_i, basis_j] as a sparse coefficient dict (integer table values)."""
        if i == j:
            return {}
        return self.table[(i, j)]

    def ad_matrix(self, u: LieElement) -> np.ndarray:
        """Matrix of ad(u) on the algebra, columns indexed by the basis."""
        self.check_same(u.algebra)
        M = np.zeros((self.n, self.n), dtype=np.int64)
        for j in range(self.n):
            img = bracket(u, LieElement(self, {j: 1}))
            for k, c in img.coeffs.items():
                M[k, j] = c
        return M % self.p if self.p else M


def build_chevalley(rs: RootSystem, p: int, allow_small: bool = False) -> LieAlgebra:
    return LieAlgebra(rs, p, allow_small=allow_small)


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """Bilinear extension of the bracket table."""
    if u.algebra is not v.algebra:
        raise MixedAlgebras("bracket of elements over different algebras")
    alg = u.algebra
    out: dict[int, int] = {}
    for i, ci in u.coeffs.items():
        for j, cj in v.coeffs.items():
            if i == j:
                continue
            for k, c in alg.table_entry(i, j).items():
                out[k] = out.get(k, 0) + ci * cj * c
    return LieElement(alg, out)


# -- structure constants ----------------------------------------------


@functools.cache
def _structure_constants(rs: RootSystem) -> types.MappingProxyType:
    """N[a, b] for every root pair with a + b a root, resolved from the
    extraspecial pairs as described in the module docstring.  Computed once
    per root system (RootSystem is frozen, so equal systems share the entry)
    and returned read-only, since every algebra over the system shares it."""
    rset = set(rs.roots)
    pos = [r for r in rs.roots if rs.height(r) > 0]
    ordx = {r: i for i, r in enumerate(pos)}

    npos: dict[tuple[Root, Root], int] = {}

    def n_pos(a: Root, b: Root) -> Fraction:
        if ordx[a] < ordx[b]:
            return Fraction(npos[(a, b)])
        return Fraction(-npos[(b, a)])

    def n_any(a: Root, b: Root) -> Fraction:
        # caller guarantees a + b is a root
        apos = rs.height(a) > 0
        bpos = rs.height(b) > 0
        if apos and bpos:
            return n_pos(a, b)
        if not apos and not bpos:
            return -n_any(-a, -b)
        if apos and not bpos:
            xi, mu = a, -b
            delta = a + b
            if rs.height(delta) > 0:
                # (mu, delta) is a positive pair summing to xi
                return -Fraction(delta.dot(delta), xi.dot(xi)) * n_any(mu, delta)
            dp = -delta
            # (dp, xi) is a positive pair summing to mu
            return Fraction(dp.dot(dp), mu.dot(mu)) * n_any(dp, xi)
        return -n_any(b, a)

    for g in pos:
        pairs = []
        for a in pos:
            b = g - a
            if b in rset and rs.height(b) > 0 and ordx[a] < ordx[b]:
                pairs.append((a, b))
        if not pairs:
            continue
        pairs.sort(key=lambda ab: ordx[ab[0]])
        a1, b1 = pairs[0]
        npos[(a1, b1)] = root_string(b1, a1, rs)[0] + 1
        gg = Fraction(g.dot(g))
        for a, b in pairs[1:]:
            total = Fraction(0)
            d1 = b1 - a
            if d1 in rset:
                total += n_any(b1, -a) * n_any(a1, -b) / Fraction(d1.dot(d1))
            d2 = a1 - a
            if d2 in rset:
                total += n_any(-a, a1) * n_any(b1, -b) / Fraction(d2.dot(d2))
            val = gg * total / Fraction(npos[(a1, b1)])
            if val.denominator != 1:
                raise ArithmeticError(f"non-integral constant at {a}, {b}")
            v = int(val)
            if abs(v) != root_string(b, a, rs)[0] + 1:
                raise ArithmeticError(f"bad magnitude at {a}, {b}")
            npos[(a, b)] = v

    nall: dict[tuple[Root, Root], int] = {}
    for a in rs.roots:
        for b in rs.roots:
            s = a + b
            if s in rset and a != b:
                val = n_any(a, b)
                if val.denominator != 1:
                    raise ArithmeticError(f"non-integral constant at {a}, {b}")
                v = int(val)
                if abs(v) != root_string(b, a, rs)[0] + 1:
                    raise ArithmeticError(f"bad magnitude at {a}, {b}")
                nall[(a, b)] = v
    return types.MappingProxyType(nall)


# -- subalgebra checks -------------------------------------------------


@dataclass
class SubalgebraVerdict:
    closed: bool
    witness: tuple[int, int, LieElement] | None = None  # (i, j, bracket outside span)

    def __bool__(self) -> bool:
        return self.closed


def check_subalgebra(span: list[LieElement], ambient: LieAlgebra) -> SubalgebraVerdict:
    """Closed iff all pairwise brackets lie in the exact linear span (one
    block of BlockEchelon over F_p, FractionEchelon over Q); the first
    bracket that enlarges the span is the witness."""
    for u in span:
        ambient.check_same(u.algebra)
    if ambient.p:
        ech = BlockEchelon(ambient.p, [np.arange(ambient.n)])
        insert = lambda vec: ech.insert(0, np.array(vec, dtype=np.int64))
    else:
        insert = FractionEchelon(ambient.n).insert
    for u in span:
        insert(u.dense())
    for i, u in enumerate(span):
        for j, v in enumerate(span):
            if j < i:
                continue
            w = bracket(u, v)
            if w.is_zero:
                continue
            if insert(w.dense()):
                return SubalgebraVerdict(False, (i, j, w))
    return SubalgebraVerdict(True)


def extend_by_cartan(
    L_sub: list[LieElement], h_extra: LieElement, ambient: LieAlgebra
) -> tuple[list[LieElement], SubalgebraVerdict]:
    """Span of L_sub plus one Cartan element, with its closure verdict."""
    ambient.check_same(h_extra.algebra)
    if any(ambient.basis[k].kind != "h" for k in h_extra.coeffs):
        raise NotCartanElement("extension element must lie in the coroot span")
    span = list(L_sub) + [h_extra]
    return span, check_subalgebra(span, ambient)
