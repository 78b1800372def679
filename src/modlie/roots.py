"""Classical root systems (families A, B, C, D) in exact integer coordinates.

Roots are integer vectors in the standard orthonormal basis e1, e2, ...
All arithmetic is exact.  The canonical ordering of roots -- by height
(sum of the coefficients over the base), ties broken lexicographically by
coordinates -- fixes every downstream convention: basis indexing,
structure-constant signs, PBW monomial order, report layouts.  Do not
change it silently.

Realizations:
  A1       {+-e1} in one coordinate (self-paired with the sl2 inside B_l).
  A_l, l>1 {e_i - e_j, i != j} in l+1 coordinates.
  B_l      {+-e_i} u {+-e_i +- e_j, i != j} in l coordinates, l >= 2.
  C_l      {+-2e_i} u {+-e_i +- e_j, i != j} in l coordinates, l >= 2.
  D_l      {+-e_i +- e_j, i != j} in l coordinates, l >= 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InputError


class UnsupportedRank(InputError):
    """Requested rank is outside the family's supported range."""


class RootNotInSystem(KeyError):
    """A root argument does not belong to the root system at hand."""


@dataclass(frozen=True, order=True)
class Root:
    """Integer coordinate vector in the e-basis; squared length is the dot square."""

    coords: tuple[int, ...]

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coords))

    def __add__(self, other: Root) -> Root:
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: Root) -> Root:
        return Root(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def dot(self, other: Root) -> int:
        return sum(a * b for a, b in zip(self.coords, other.coords, strict=True))

    @property
    def sq_length(self) -> int:
        return self.dot(self)

    @property
    def label(self) -> str:
        """Signed token form, e.g. ``+e1-e2``, ``-e2``, ``+2e1``."""
        parts = []
        for i, c in enumerate(self.coords, start=1):
            if c == 0:
                continue
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}e{i}")
        return "".join(parts) if parts else "0"

    @property
    def plain_label(self) -> str:
        """Label without a leading ``+`` (used for coroot display)."""
        s = self.label
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:
        return f"Root({self.label})"


def _unit(i: int, dim: int) -> Root:
    c = [0] * dim
    c[i - 1] = 1
    return Root(tuple(c))


# family -> (least rank, roots beside the +-e_i +- e_j that B, C and D share,
# last simple root), over the units e of the ambient space; every base starts
# with e_i - e_(i+1), i < l (Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IV)
_TABLE = {
    "A": (1, lambda e: [a - b for a, b in itertools.permutations(e, 2)], lambda e: e[-2] - e[-1]),
    "B": (2, lambda e: [r for x in e for r in (x, -x)], lambda e: e[-1]),
    "C": (2, lambda e: [r for x in e for r in (x + x, -x - x)], lambda e: e[-1] + e[-1]),
    "D": (3, lambda e: [], lambda e: e[-2] + e[-1]),
}
FAMILIES = tuple(_TABLE)


def _family_roots(family: str, rank: int) -> tuple[int, list[Root], list[Root]]:
    """Return (ambient dim, all roots, base) for the requested family and rank."""
    least, extra, last = _TABLE[family]
    if rank < least:
        raise UnsupportedRank(f"family {family} needs rank >= {least}")
    if family == "A" and rank == 1:
        e1 = _unit(1, 1)
        return 1, [e1, -e1], [e1]
    dim = rank + 1 if family == "A" else rank
    e = [_unit(i, dim) for i in range(1, dim + 1)]
    roots = extra(e)
    if family != "A":
        roots += [r for a, b in itertools.combinations(e, 2) for r in (a + b, a - b, b - a, -a - b)]
    return dim, roots, [e[i] - e[i + 1] for i in range(rank - 1)] + [last(e)]


def _climb(base: list[Root], roots: list[Root]) -> dict[Root, tuple[int, ...]]:
    """Coefficients over the base of every root.  Each positive root is a
    simple root plus a positive root, so climbing from the base by simple
    roots reaches them all; the negative roots are their negatives."""
    rset = set(roots)
    units = [tuple(int(i == j) for j in range(len(base))) for i in range(len(base))]
    expansions = dict(zip(base, units))
    frontier = list(base)
    while frontier:
        nxt = []
        for r in frontier:
            for a, unit in zip(base, units):
                if r + a in rset and r + a not in expansions:
                    expansions[r + a] = tuple(k + u for k, u in zip(expansions[r], unit))
                    nxt.append(r + a)
        frontier = nxt
    return expansions | {-r: tuple(-k for k in ks) for r, ks in expansions.items()}


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    dim: int
    roots: tuple[Root, ...]  # canonical order: by height, then lex by coords
    base: tuple[Root, ...]
    expansions: dict = field(repr=False, compare=False, default_factory=dict)
    _set: frozenset = field(repr=False, compare=False, default_factory=frozenset)

    def __contains__(self, r: Root) -> bool:
        return r in self._set

    def expansion(self, r: Root) -> tuple[int, ...]:
        """Coefficients of r over the base (all >= 0 or all <= 0)."""
        try:
            return self.expansions[r]
        except KeyError:
            raise RootNotInSystem(f"{r} not in {self.family}{self.rank}") from None

    def height(self, r: Root) -> int:
        return sum(self.expansion(r))

    def unit(self, i: int) -> Root | None:
        """e_i as a Root of this system's ambient space, or None if i > dim."""
        if not 1 <= i <= self.dim:
            return None
        return _unit(i, self.dim)


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the full root set and standard base, in canonical order."""
    if family not in FAMILIES:
        raise UnsupportedRank(f"family must be one of {FAMILIES}, got {family!r}")
    dim, roots, base = _family_roots(family, rank)
    expansions = _climb(base, roots)
    heights = {r: sum(expansions[r]) for r in roots}
    ordered = tuple(sorted(roots, key=lambda r: (heights[r], r.coords)))
    return RootSystem(
        family=family,
        rank=rank,
        dim=dim,
        roots=ordered,
        base=tuple(base),
        expansions=expansions,
        _set=frozenset(ordered),
    )


def cartan_integer(beta: Root, alpha: Root) -> int:
    """<beta, alpha-check> = 2(beta,alpha)/(alpha,alpha); integral for root pairs."""
    den = alpha.dot(alpha)
    if den == 0:
        raise ValueError("alpha must be nonzero")
    num = 2 * beta.dot(alpha)
    if num % den != 0:
        raise ValueError(f"non-integral Cartan pairing for {beta}, {alpha}")
    return num // den


def reflect(beta: Root, alpha: Root) -> Root:
    """Reflection of beta in the hyperplane orthogonal to alpha."""
    k = cartan_integer(beta, alpha)
    return Root(tuple(b - k * a for b, a in zip(beta.coords, alpha.coords)))


def weyl_orbit(beta: Root, rs: RootSystem) -> frozenset[Root]:
    """Closure of {beta} under the simple reflections.

    For the supported (irreducible) systems this equals the set of all roots
    of the same squared length, which is checked.
    """
    if beta not in rs:
        raise RootNotInSystem(f"{beta} not in {rs.family}{rs.rank}")
    seen = {beta}
    frontier = [beta]
    while frontier:
        nxt = []
        for r in frontier:
            for a in rs.base:
                s = reflect(r, a)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    same_length = {r for r in rs.roots if r.sq_length == beta.sq_length}
    if seen != same_length:
        raise RuntimeError("orbit does not match the same-length root set")
    return frozenset(seen)


def root_string(beta: Root, alpha: Root, rs: RootSystem) -> tuple[int, int]:
    """(q_down, q_up): how far the alpha-string through beta extends in Phi."""
    if beta in (alpha, -alpha):
        raise ValueError("root_string requires beta != +-alpha")
    if beta not in rs or alpha not in rs:
        raise RootNotInSystem("both arguments must be roots of the system")
    q_down = 0
    cur = beta - alpha
    while cur in rs:
        q_down += 1
        cur = cur - alpha
    q_up = 0
    cur = beta + alpha
    while cur in rs:
        q_up += 1
        cur = cur + alpha
    return q_down, q_up
