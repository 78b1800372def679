"""Exact sparse arithmetic in universal enveloping algebras with PBW normal forms.

A monomial is a tuple of (basis position, exponent) pairs with strictly
increasing positions; the positions follow the canonical basis order
(negative root vectors, coroots, positive root vectors), so normal forms
line up with baby Verma weight bases.  Products are straightened by
inserting one generator at a time:

    x_g * x_i^e * R  =  x_i * (x_g * x_i^(e-1) * R)  +  [x_g, x_i] * x_i^(e-1) * R

when g sits after i in the order.  The correction term strictly drops total
degree, and the recursion is memoized per algebra on (generator, monomial)
keys, which is what makes the repeated commutator checks cheap: nearby
verifications hit identical local rewrites.  Memo entries are never mutated
after being stored, so results are deterministic and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chevalley import LieAlgebra, LieElement, MixedAlgebras
from .expr import Add, HAtom, Mul, Num, Pow, XAtom, print_expr

Mono = tuple[tuple[int, int], ...]


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class EnvelopingAlgebra:
    """PBW arithmetic context for one Lie algebra; holds the rewrite memo."""

    def __init__(self, lie: LieAlgebra):
        self.lie = lie
        self.p = lie.p
        self._memo: dict[tuple[int, Mono], dict[Mono, int]] = {}

    # -- constructors ----------------------------------------------------

    def zero(self) -> "UEElement":
        return UEElement(self, {})

    def one(self) -> "UEElement":
        return UEElement(self, {(): 1})

    def scalar(self, c: int) -> "UEElement":
        return UEElement(self, {(): c})

    def gen(self, pos: int) -> "UEElement":
        return UEElement(self, {((pos, 1),): 1})

    def from_lie(self, u: LieElement) -> "UEElement":
        self.lie.check_same(u.algebra)
        return UEElement(self, {((k, 1),): c for k, c in u.coeffs.items()})

    def monomial(self, exps: dict[int, int]) -> "UEElement":
        mono = tuple(sorted((k, e) for k, e in exps.items() if e))
        return UEElement(self, {mono: 1})

    # -- straightening core ----------------------------------------------

    def gen_into_mono(self, g: int, m: Mono) -> dict[Mono, int]:
        """Normal form of x_g * m as a monomial->coefficient dict (memoized)."""
        key = (g, m)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not m:
            res = {((g, 1),): 1}
        else:
            i0, e0 = m[0]
            if g < i0:
                res = {((g, 1),) + m: 1}
            elif g == i0:
                res = {((i0, e0 + 1),) + m[1:]: 1}
            else:
                rest = m[1:] if e0 == 1 else ((i0, e0 - 1),) + m[1:]
                acc: dict[Mono, int] = {}
                for w, c in self.gen_into_mono(g, rest).items():
                    for w2, c2 in self.gen_into_mono(i0, w).items():
                        acc[w2] = acc.get(w2, 0) + c * c2
                for k, bk in self.lie.table_entry(g, i0).items():
                    for w2, c2 in self.gen_into_mono(k, rest).items():
                        acc[w2] = acc.get(w2, 0) + bk * c2
                res = self.lie.normalize(acc)
        self._memo[key] = res
        return res

    def _gen_into_terms(self, g: int, terms: dict[Mono, int]) -> dict[Mono, int]:
        out: dict[Mono, int] = {}
        for m, c in terms.items():
            for w, c2 in self.gen_into_mono(g, m).items():
                out[w] = out.get(w, 0) + c * c2
        return self.lie.normalize(out)


@dataclass
class UEElement:
    """Sparse map from PBW monomials to exact coefficients."""

    uea: EnvelopingAlgebra
    terms: dict[Mono, int]

    def __post_init__(self):
        self.terms = self.uea.lie.normalize(self.terms)

    # -- ring operations --------------------------------------------------

    def _same(self, other: "UEElement"):
        if self.uea is not other.uea:
            raise MixedAlgebras("elements belong to different enveloping algebras")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.uea.scalar(other)
        self._same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return UEElement(self.uea, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.uea.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return UEElement(self.uea, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return UEElement(self.uea, {m: other * c for m, c in self.terms.items()})
        return multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return UEElement(self.uea, {m: other * c for m, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in U(L)")
        if n == 0:
            return self.uea.one()
        half = self ** (n // 2)  # square-and-multiply
        return multiply(half, multiply(half, self)) if n % 2 else multiply(half, half)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.uea.scalar(other)
        return isinstance(other, UEElement) and self.uea is other.uea and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"UE[{to_string(self)}]"


def multiply(u: UEElement, v: UEElement) -> UEElement:
    """PBW normal form of the product: the factors of each monomial of u are
    inserted into all of v at once, rightmost first."""
    u._same(v)
    uea = u.uea
    out: dict[Mono, int] = {}
    for m1, c1 in u.terms.items():
        cur = v.terms
        for idx, e in reversed(m1):
            for _ in range(e):
                cur = uea._gen_into_terms(idx, cur)
        for w, c in cur.items():
            out[w] = out.get(w, 0) + c1 * c
    return UEElement(uea, out)


def commutator(u: UEElement, v: UEElement) -> UEElement:
    return multiply(u, v) - multiply(v, u)


def is_central(u: UEElement, generators: list[UEElement] | None = None) -> bool:
    """True iff u commutes with every generator (defaults to the whole basis
    of L, which generates U(L); pass a subalgebra's generators to test
    centrality in the corresponding subalgebra of U(L))."""
    uea = u.uea
    if generators is None:
        generators = [uea.gen(pos) for pos in range(uea.lie.n)]
    return all(commutator(g, u).is_zero for g in generators)


def weight(u: UEElement) -> tuple[int, ...] | None:
    """Common root-lattice weight of all monomials, or None if mixed.

    Coroot factors are weight zero; the zero element reports the zero weight.
    """
    lie = u.uea.lie
    dim = lie.rs.dim
    found: tuple[int, ...] | None = None
    for m in u.terms:
        w = [0] * dim
        for pos, e in m:
            b = lie.basis[pos]
            if b.kind == "x":
                for i, c in enumerate(b.root.coords):
                    w[i] += e * c
        wt = tuple(w)
        if found is None:
            found = wt
        elif found != wt:
            return None
    return found if found is not None else tuple([0] * dim)


def to_string(u: UEElement) -> str:
    """Deterministic normal-form text, printed by `expr.print_expr`: monomials
    sorted, unit coefficients and exponents suppressed, e.g. ``x(-e1) x(+e1) + h(e1)``."""
    lie = u.uea.lie
    terms = []
    for m in sorted(u.terms):
        c = u.terms[m]
        factors = [Num(abs(c))] if abs(c) != 1 or not m else []
        for pos, e in m:
            b = lie.basis[pos]
            atom = XAtom(b.root.coords) if b.kind == "x" else HAtom(coords=lie.rs.base[b.coroot - 1].coords)
            factors.append(Pow(atom, e) if e > 1 else atom)
        term = factors[0] if len(factors) == 1 else Mul(tuple(factors))
        terms.append(Mul((Num(-1), term)) if c < 0 else term)
    return print_expr(Add(tuple(terms))) if terms else "0"
