"""Commuting-element families and product-basis candidates for type B.

For a chosen root alpha (case I: the short root e1; case II: the long root
e1-e2) this module builds, per target root beta, a template element A_beta
of U(L) carrying a formal central constant c and up to three unresolved
sign slots.  `solve_signs` expands every slot assignment and keeps the ones
whose commutator with x_alpha vanishes identically in U(L); failures are
returned with their nonzero commutator normal forms, so a formula that
admits no commuting sign choice is itself a reportable finding rather than
an error.

Both cases come from one template table, transcribed from the printed
banks with their odd spots: apart from x_alpha and its shifted Casimir, each
body is a pair sum c + x(g0) x(-g0) +- x(g1) x(-g1) +- ... under a
prefactor.  The case-I family for targets -e1 +- e_j additionally carries
nearby prefactor variants (sign/index repairs) whose verdicts are reported
alongside the original.  Templates that reference e3 at rank 2 are emitted
as impossible_for_rank markers instead of being silently dropped.

Candidates pair each solved A_i with a Cartan element B_i (coefficient
vectors on the moment curve, every min(l, count)-subset independent, and
alpha(B_i) != 0), and products (B_1+A_1)^{i_1} ... (B_k+A_k)^{i_k} with
exponents below p feed the truncated-independence rank checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, redenv
from .chevalley import LieAlgebra, LieElement
from .errors import InputError
from .expr import Add, Const, Expr, Mul, Num, Pow, SignSlot, XAtom, HAtom, print_expr, to_ue
from .pbw import UEElement, commutator, multiply, to_string, weight
from .redenv import Character, ModuleTooLarge, baby_verma, is_irreducible, singular_constants
from .roots import Root, cartan_integer


class ExhaustedField(InputError):
    """No admissible coefficient family exists at this characteristic."""


class ArityMismatch(ValueError):
    pass


class UnsolvedSpec(ValueError):
    """A candidate pair was assembled from a non-commuting template."""


# -- template specs ------------------------------------------------------


@dataclass
class ABSpec:
    case: str  # "I" or "II"
    slot: int  # 1-based position in the candidate ordering
    target: Root
    origin: str  # "direct" | "casimir" | "bank" | "square" | "cube"
    status: str  # "ok" | "impossible_for_rank" | "uncovered"
    prefactor: Expr | None = None
    body: Expr | None = None
    sign_slots: int = 0
    reason: str | None = None
    variants: tuple["TemplateVariant", ...] = ()

    @property
    def display(self) -> str:
        if self.status != "ok":
            return f"<{self.status}: {self.reason}>"
        return print_expr(self.expression())

    def expression(self) -> Expr:
        if self.prefactor is None:
            return self.body
        return Mul((self.prefactor, self.body))


@dataclass(frozen=True)
class TemplateVariant:
    label: str
    prefactor: Expr
    body: Expr
    sign_slots: int

    def expression(self) -> Expr:
        return Mul((self.prefactor, self.body))


class _RankUnavailable(Exception):
    """A template references a coordinate beyond the rank."""


class _Entry(NamedTuple):
    """One template of a bank; `reason` says why it is impossible at this rank."""

    origin: str
    prefactor: Expr | None = None
    body: Expr | None = None
    variants: tuple[TemplateVariant, ...] = ()
    reason: str | None = None


def _X(r: Root) -> XAtom:
    return XAtom(r.coords)


def _free(*exprs: Expr | None) -> set:
    """The sign-slot indices, and "c" if a Const occurs, in the expressions."""
    found = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if isinstance(node, SignSlot):
            found.add(node.index)
        elif isinstance(node, Const):
            found.add("c")
        elif isinstance(node, Add):
            stack += node.items
        elif isinstance(node, Mul):
            stack += node.factors
        elif isinstance(node, Pow):
            stack.append(node.base)
    return found


def _nslots(*exprs: Expr | None) -> int:
    return len(_free(*exprs) - {"c"})


def _pairs(*gammas: Root) -> Add:
    """c + x(g0) x(-g0) + s1 x(g1) x(-g1) + ...: the k-th pair after the
    first carries SignSlot(k)."""
    prods = [Mul((_X(g), _X(-g))) for g in gammas]
    return Add((Const("c"), prods[0], *(Mul((SignSlot(k), m)) for k, m in enumerate(prods[1:], 1))))


def _casimir(alpha: Root) -> Add:
    """c + (h_alpha + 1)^2 + 4 x(-alpha) x(alpha): the shifted Casimir of the
    sl2 of alpha."""
    h = Add((HAtom(coords=alpha.coords), Num(1)))
    return Add((Const("c"), Pow(h, 2), Mul((Num(4), _X(-alpha), _X(alpha)))))


def _slot_order(L: LieAlgebra, case: str) -> list[Root]:
    """(e1, -e1 in case I,) e_i - e_{i+1} and its negative for i < l, +-e_l,
    then the remaining roots in canonical order."""
    e, l = L.rs.unit, L.rs.rank
    order = [e(1), -e(1)] if case == "I" else []
    for i in range(1, l):
        order += [e(i) - e(i + 1), e(i + 1) - e(i)]
    order += [e(l), -e(l)]
    return order + [r for r in L.rs.roots if r not in order]


def _bank(L: LieAlgebra, case: str) -> dict[Root, list[_Entry]]:
    """target -> printed templates, in printed order, for the root alpha of
    the case.  Both +-e2 targets of case I pair e2, and the case-I target
    -e1 + f (f = +-e_j, j >= 3) keeps its printed prefactor x(-e2 + f) beside
    three repair variants."""
    l = L.rs.rank
    bank: dict[Root, list[_Entry]] = {}

    def e(i: int) -> Root:
        if i > l:
            raise _RankUnavailable(f"references e{i} at rank {l}")
        return L.rs.unit(i)

    def put(target: Root, origin: str, template) -> None:
        """template() -> (prefactor, body[, variants])."""
        try:
            entry = _Entry(origin, *template())
        except _RankUnavailable as ex:
            entry = _Entry(origin, reason=str(ex))
        bank.setdefault(target, []).append(entry)

    if case == "I":
        put(e(1), "direct", lambda: (None, _X(e(1))))
        put(-e(1), "casimir", lambda: (None, _casimir(e(1))))
        for j in range(2, l + 1):
            for f in (e(j), -e(j)):
                # target -e1 + f: prefactor x(e1 + f) for j = 2, else the
                # printed x(-e2 + f) and its repairs
                body = _pairs(f - e(1), f, e(1) + f)
                if j == 2:
                    pre, repairs = e(1) + f, ()
                else:
                    pre = f - e(2)
                    repairs = tuple(
                        TemplateVariant(f"prefactor x({r.label})", _X(r), body, _nslots(body))
                        for r in (e(2) + f, e(1) + f, -e(2) - f)
                    )
                put(f - e(1), "bank", lambda: (_X(pre), body, repairs))
                # target f: prefactor x(e3 + f)^2 for j = 2, whose body pairs
                # e2 for both signs, else x(e2 + f)
                g = e(2) if j == 2 else f
                body = _pairs(g, e(1) + g, g - e(1))
                put(f, "bank", lambda: (Pow(_X(e(3) + f), 2) if j == 2 else _X(e(2) + f), body))
    else:
        alpha = e(1) - e(2)
        put(alpha, "direct", lambda: (None, _X(alpha)))
        put(-alpha, "casimir", lambda: (None, _casimir(alpha)))
        for k in range(3, l + 1):
            for f in (e(k), -e(k)):
                # targets e2 + f and -(e1 + f) share a body under opposite prefactors
                pre = f if k == 3 else e(3) + f
                body = _pairs(e(2) + f, e(1) + f)
                put(e(2) + f, "bank", lambda: (_X(pre), body))
                put(-(e(1) + f), "bank", lambda: (_X(-pre), body))
        put(e(2), "bank", lambda: (_X(e(1)), _pairs(e(2), e(1))))
        put(-e(1), "bank", lambda: (_X(-e(2)), _pairs(-e(1), -e(2))))
        put(e(l), "square", lambda: (None, Pow(_X(e(l)), 2)))
        put(-e(l), "square", lambda: (None, Pow(_X(-e(l)), 2)))
    return bank


def _fallback(L: LieAlgebra, alpha: Root, beta: Root) -> _Entry | None:
    """x_beta^2 or ^3 when it commutes with x_alpha.  Off the bank, alpha +
    beta is not a root, so the square commutes, except for +-e2 at rank 2 in
    case I; there the cube commutes only at p = 3, and otherwise the target is
    impossible_for_rank, as is the opposite one."""
    uea = L.enveloping()
    xa = uea.from_lie(L.x(alpha))
    for k, origin in ((2, "square"), (3, "cube")):
        if commutator(xa, to_ue(Pow(_X(beta), k), uea)).is_zero:
            return _Entry(origin, None, Pow(_X(beta), k))
    return None


def _build_case(L: LieAlgebra, case: str) -> list[ABSpec]:
    if L.rs.family != "B":
        raise InputError(f"template banks are defined for family B, got {L.rs.family!r}")
    alpha = case_alpha(L, case)
    bank = _bank(L, case)
    specs: list[ABSpec] = []
    for slot, target in enumerate(_slot_order(L, case), start=1):
        entries = bank.get(target, [])
        entry = next((x for x in entries if x.reason is None), None) or _fallback(L, alpha, target)
        status = "ok"
        if entry is None:
            status = "impossible_for_rank" if entries else "uncovered"
            entry = entries[-1] if entries else _Entry("none", reason="no template or commuting fallback applies")
        sign_slots = _nslots(entry.prefactor, entry.body)
        specs.append(ABSpec(case, slot, target, status=status, sign_slots=sign_slots, **entry._asdict()))
    return specs


def build_case_I(L: LieAlgebra) -> list[ABSpec]:
    """Templates for the short-root choice alpha = e1, in candidate order."""
    return _build_case(L, "I")


def build_case_II(L: LieAlgebra) -> list[ABSpec]:
    """Templates for the long-root choice alpha = e1 - e2, in candidate order."""
    return _build_case(L, "II")


def case_alpha(L: LieAlgebra, case: str) -> Root:
    return L.rs.unit(1) if case == "I" else L.rs.unit(1) - L.rs.unit(2)


def sl2_pair_specs(L: LieAlgebra, alpha: Root) -> list[ABSpec]:
    """The two-slot candidate attached to the sl2 of a single root: x_alpha
    and its shifted Casimir.  Usable in any family (rank-1 cross checks)."""
    return [
        ABSpec(case="sl2", slot=1, target=alpha, origin="direct", status="ok", body=_X(alpha)),
        ABSpec(case="sl2", slot=2, target=-alpha, origin="casimir", status="ok", body=_casimir(alpha)),
    ]


# -- sign solving --------------------------------------------------------


@dataclass
class Assignment:
    signs: tuple[int, ...]
    commutes: bool
    residue: UEElement | None  # nonzero commutator normal form when not commuting
    element: UEElement  # the template expanded with these signs

    @property
    def diagonal(self) -> bool:
        return len(set(self.signs)) <= 1


@dataclass(frozen=True)
class _Summands:
    """A template as sum_k coef_k * piece_k with coef_k 1, c or a sign: each
    piece expanded once under the prefactor, beside its commutator with
    x_alpha, so every assignment is an exact linear combination of them."""

    parts: tuple[tuple[int | str | None, UEElement, UEElement], ...]  # (coef, piece, [x_alpha, piece])
    sign_slots: int

    def combine(self, signs: tuple[int, ...], c_value: int) -> tuple[UEElement, UEElement]:
        """(element, [x_alpha, element]) with these signs and c = c_value."""
        coef = {None: 1, "c": c_value, **dict(enumerate(signs, 1))}
        element: dict = {}
        comm: dict = {}
        for key, piece, piece_comm in self.parts:
            k = coef[key]
            for out, u in ((element, piece), (comm, piece_comm)):
                for m, c in u.terms.items():
                    out[m] = out.get(m, 0) + k * c
        uea = self.parts[0][1].uea
        return UEElement(uea, element), UEElement(uea, comm)

    def solutions(self, c_value: int) -> list[Assignment]:
        out = []
        for signs in itertools.product((1, -1), repeat=self.sign_slots):
            u, comm = self.combine(signs, c_value)
            out.append(Assignment(signs=signs, commutes=comm.is_zero, residue=None if comm.is_zero else comm, element=u))
        return out


def _summands(template, L: LieAlgebra, xa: UEElement) -> _Summands:
    """Split the template's body into the summands free of signs and c, the
    one with the factor c and one per sign slot, and expand each once."""
    pieces: dict = {}
    for item in template.body.items if isinstance(template.body, Add) else (template.body,):
        factors = item.factors if isinstance(item, Mul) else (item,)
        keys = [f.index if isinstance(f, SignSlot) else "c" for f in factors if isinstance(f, (SignSlot, Const))]
        rest = tuple(f for f in factors if not isinstance(f, (SignSlot, Const)))
        if len(keys) > 1 or _free(*rest, template.prefactor):
            raise ValueError(f"template {print_expr(template.expression())} is not linear in its signs and c")
        pieces.setdefault(keys[0] if keys else None, []).append(rest[0] if len(rest) == 1 else Mul(rest))
    uea = L.enveloping()
    parts = []
    for key, items in pieces.items():
        body = items[0] if len(items) == 1 else Add(tuple(items))
        u = to_ue(body if template.prefactor is None else Mul((template.prefactor, body)), uea)
        parts.append((key, u, commutator(xa, u)))
    return _Summands(tuple(parts), template.sign_slots)


@dataclass
class SolveResult:
    spec: ABSpec
    alpha: Root
    assignments: list[Assignment] = field(default_factory=list)
    status: str = "impossible"  # "solved" | "nosolution" | "impossible"
    variant_solutions: dict = field(default_factory=dict)
    # the expanded template and its variants, for solving at another c
    summands: _Summands | None = field(default=None, repr=False)
    variant_summands: dict = field(default_factory=dict, repr=False)

    @property
    def solved(self) -> list[tuple[int, ...]]:
        return [a.signs for a in self.assignments if a.commutes]

    @property
    def diagonal_solutions(self) -> list[tuple[int, ...]]:
        return [a.signs for a in self.assignments if a.commutes and a.diagonal]

    def element(self, L: LieAlgebra, signs: tuple[int, ...] | None = None, c_value: int = 0) -> UEElement:
        if signs is None:
            if not self.solved:
                raise UnsolvedSpec(f"no commuting signs for target {self.spec.target.label}")
            signs = self.solved[0]
        return expand_spec(self.spec, L, signs, c_value)

    def at_c(self, c_value: int) -> "SolveResult":
        """The same template solved with c = c_value, from the kept summands
        (no expansion in U(L))."""
        res = SolveResult(self.spec, self.alpha, summands=self.summands, variant_summands=self.variant_summands)
        if self.summands is None:
            return res
        res.assignments = self.summands.solutions(c_value)
        res.status = "solved" if res.solved else "nosolution"
        res.variant_solutions = {
            label: [a.signs for a in v.solutions(c_value) if a.commutes] for label, v in self.variant_summands.items()
        }
        return res


def expand_spec(spec, L: LieAlgebra, signs: tuple[int, ...] = (), c_value: int = 0) -> UEElement:
    """The element of U(L) of a template (an ABSpec or a TemplateVariant)
    with its sign slots set to `signs` and c to `c_value`."""
    return to_ue(spec.expression(), L.enveloping(), signs=dict(enumerate(signs, 1)), c_value=c_value)


def solve_signs(spec: ABSpec, L: LieAlgebra, c_value: int = 0) -> SolveResult:
    """Enumerate all sign assignments of a template and keep the commuting
    ones; c is set to `c_value` (a central scalar, so the verdict must not
    depend on it -- `at_c` re-solves at another value to confirm).  The
    template is linear in its signs and in c, so each summand is expanded
    and commuted with x_alpha once, and every assignment, variant and value
    of c is a linear combination of those pieces."""
    if spec.case in ("I", "II"):
        alpha = case_alpha(L, spec.case)
    else:  # sl2 pair: commute against the positive root of the pair
        alpha = spec.target if L.rs.height(spec.target) > 0 else -spec.target
    res = SolveResult(spec=spec, alpha=alpha)
    if spec.status != "ok":
        return res
    xa = L.enveloping().from_lie(L.x(alpha))
    res.summands = _summands(spec, L, xa)
    res.variant_summands = {v.label: _summands(v, L, xa) for v in spec.variants}
    return res.at_c(c_value)


# -- Cartan coefficient families ------------------------------------------


@dataclass
class BiFamily:
    algebra: LieAlgebra
    alpha: Root
    vectors: tuple[tuple[int, ...], ...]
    params: tuple[int, ...] | None = None  # moment-curve parameters when used

    @property
    def elements(self) -> list[LieElement]:
        L = self.algebra
        return [
            L.element({L.hpos(i + 1): c for i, c in enumerate(v) if c}) for v in self.vectors
        ]


def _alpha_pairing(L: LieAlgebra, alpha: Root, vec: tuple[int, ...]) -> int:
    p = L.p
    total = sum(c * cartan_integer(alpha, L.rs.base[i]) for i, c in enumerate(vec))
    return total % p if p else total


def _subsets_independent(vectors, l, p) -> bool:
    k = min(l, len(vectors))
    for subset in itertools.combinations(range(len(vectors)), k):
        M = np.array([vectors[i] for i in subset], dtype=np.int64)
        if linalg.rank_mod_p(M, p) != k:
            return False
    return True


def gen_Bi(L: LieAlgebra, alpha: Root, seed: int = 0, count: int | None = None) -> BiFamily:
    """Coefficient vectors b_i with every min(l, count)-subset of the family
    linearly independent over F_p and alpha(B_i) != 0: the first `count`
    vectors with nonzero pairing on the moment curve t -> (1, t, ..., t^(l-1)),
    t in F_p, then its point at infinity (0, ..., 0, 1); `params` holds the
    t's when the family lies on the affine curve, else None.  At l = 2 the
    list is every direction, so a longer family is refused; otherwise a
    family the list cannot give (l >= 3, or l = 1 past p + 1 vectors) comes
    from a seeded random search with exhaustive verification."""
    p = L.p
    if not p:
        raise InputError("coefficient families live over F_p")
    l = L.l
    count = 2 * L.m if count is None else count
    curve = [(t, tuple(pow(t, k, p) for k in range(l))) for t in range(p)]
    curve.append((None, (0,) * (l - 1) + (1,)))
    admissible = [(t, v) for t, v in curve if _alpha_pairing(L, alpha, v) != 0]
    if len(admissible) >= count:
        params = tuple(t for t, _ in admissible[:count])
        vectors = tuple(v for _, v in admissible[:count])
        if _subsets_independent(vectors, l, p):
            return BiFamily(L, alpha, vectors, params=None if None in params else params)
    elif l == 2:
        raise ExhaustedField(
            f"need {count} pairwise-independent vectors with nonzero pairing,"
            f" only {len(admissible)} directions exist at p = {p}"
        )
    # MDS bound for prime fields (Ball, JEMS 2012; Segre's bound on arcs for
    # l = 3): for 3 <= l <= p at most p + 1 vectors of F_p^l have every
    # l-subset a basis, so a larger family is not searched for
    rounds = 0 if 3 <= l <= p and count > p + 1 else 500
    rng = random.Random(seed)
    for _ in range(rounds):
        pick = []
        tries = 0
        while len(pick) < count and tries < 200 * count:
            tries += 1
            v = tuple(rng.randrange(p) for _ in range(l))
            if not any(v) or _alpha_pairing(L, alpha, v) == 0:
                continue
            pick.append(v)
        if len(pick) == count and _subsets_independent(pick, l, p):
            return BiFamily(L, alpha, tuple(pick), params=None)
    raise ExhaustedField(f"no admissible family of {count} vectors found at p = {p}")


# -- candidates ------------------------------------------------------------


@dataclass
class LeeCandidate:
    algebra: LieAlgebra
    case: str
    pairs: list[tuple[LieElement, UEElement]]  # (B_i, A_i) in slot order
    targets: list[Root]
    partial: bool

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def total_tuples(self) -> int:
        """Number of admissible exponent tuples (each exponent below p)."""
        return self.p ** self.size

    def factor_element(self, j: int) -> UEElement:
        B, A = self.pairs[j]
        return self.algebra.enveloping().from_lie(B) + A

    def check_exponents(self, exponents: tuple[int, ...]) -> None:
        if len(exponents) != self.size:
            raise ArityMismatch(f"expected {self.size} exponents, got {len(exponents)}")
        if any(not 0 <= e <= self.p - 1 for e in exponents):
            raise ValueError("exponents must lie in 0..p-1")

    def element(self, exponents: tuple[int, ...]) -> UEElement:
        self.check_exponents(exponents)
        out = self.algebra.enveloping().one()
        for j, e in enumerate(exponents):
            if e:
                out = multiply(out, self.factor_element(j) ** e)
        return out

    def tuple_count(self, bound: int) -> int:
        """len(tuples_with_bound(bound)), by inclusion-exclusion over the
        exponents forced above p - 1."""
        k = self.size
        return sum((-1) ** j * math.comb(k, j) * math.comb(bound - j * self.p + k, k)
                   for j in range(k + 1) if j * self.p <= bound)

    def tuples_with_bound(self, bound: int) -> list[tuple[int, ...]]:
        """The exponent tuples with sum <= bound, in ascending order."""

        def tails(k: int, left: int):
            if k == 0:
                yield ()
                return
            for e in range(min(left, self.p - 1) + 1):
                yield from ((e,) + t for t in tails(k - 1, left - e))

        return list(tails(self.size, bound))


def assemble(
    specs: list[ABSpec],
    bi: BiFamily,
    signs: list[tuple[int, ...]],
    c_value: int = 0,
) -> LeeCandidate:
    """Pair solved templates with Cartan elements in slot order.

    Each template is re-expanded with its signs at c = c_value and verified
    to commute with x_alpha; a non-commuting entry raises UnsolvedSpec.  The
    candidate is partial when fewer than 2m slots are usable.
    """
    L = bi.algebra
    if len(specs) != len(bi.vectors) or len(specs) != len(signs):
        raise ArityMismatch(
            f"{len(specs)} specs, {len(bi.vectors)} vectors, {len(signs)} sign tuples"
        )
    alpha = bi.alpha
    xa = L.enveloping().from_lie(L.x(alpha))
    pairs = []
    targets = []
    for spec, sgn, B in zip(specs, signs, bi.elements):
        if spec.status != "ok":
            raise UnsolvedSpec(f"slot {spec.slot} target {spec.target.label}: {spec.status}")
        A = expand_spec(spec, L, sgn, c_value)
        if not commutator(xa, A).is_zero:
            raise UnsolvedSpec(
                f"slot {spec.slot} target {spec.target.label}: signs {sgn} do not commute"
            )
        pairs.append((B, A))
        targets.append(spec.target)
    case = specs[0].case if specs else "?"
    return LeeCandidate(L, case, pairs, targets, partial=len(pairs) < 2 * L.m)


def solved_candidate(L: LieAlgebra, case: str, seed: int = 0, c_value: int = 0) -> LeeCandidate:
    """The case's candidate at c = c_value: its slots that solve there, each
    with its first commuting signs, paired with gen_Bi's family for their
    count."""
    results = [solve_signs(s, L, c_value=c_value) for s in _build_case(L, case)]
    solved = [r for r in results if r.status == "solved"]
    bi = gen_Bi(L, case_alpha(L, case), seed=seed, count=len(solved))
    return assemble([r.spec for r in solved], bi, [r.solved[0] for r in solved], c_value)


# -- verification reports ---------------------------------------------------


@dataclass
class IndependenceReport:
    count: int
    rank: int
    tuples: list[tuple[int, ...]]
    witnesses: list[dict]  # dependency combinations (exponent tuple -> coeff)

    @property
    def full_rank(self) -> bool:
        return self.rank == self.count


def verify_independence_truncated(cand: LeeCandidate, rep, bound: int, order=None) -> IndependenceReport:
    """Exact rank over F_p of the candidate elements with exponent sum <=
    bound, evaluated in the representation.

    rho is a homomorphism, so each element's matrix is a product of the
    factor matrices F_j = evaluate(B_j + A_j); no PBW product is formed.
    Full rank is first tried by projection: a dependency among the matrices
    is also one among their images of a fixed random vector, so images of
    full rank prove the matrices independent (Wiedemann 1986).  Each image
    is the probe with the F_j applied one exponent at a time, rightmost
    factor first, so no product matrix is formed either.  Otherwise the
    same chain applied to I gives the matrices, which are vectorized and
    eliminated exactly, and any dependency comes back as an explicit
    coefficient combination: the tuple that first falls into the span of the
    earlier ones with coefficient 1, plus those earlier independent tuples.
    An order that repeats a tuple raises ValueError; a stack of more than
    MAX_DENSE_DIM^2 entries raises ModuleTooLarge once the matrices formed fill that many.
    With no order, more tuples than dimensions cannot have images of full
    rank, and the stack starts with I, so they raise before being listed
    when the tuples times the dimension exceed that limit."""
    p = cand.p

    def check_stack(n: int, cells: int) -> None:
        if n * cells > redenv.MAX_DENSE_DIM**2:
            raise ModuleTooLarge(
                f"independence stack of {n} tuples x {cells} cells exceeds the limit of"
                f" {redenv.MAX_DENSE_DIM}^2 entries"
            )

    if order is None and (n := cand.tuple_count(bound)) > rep.dim:
        check_stack(n, rep.dim)
    tuples = cand.tuples_with_bound(bound) if order is None else list(order)
    for tup in tuples:
        cand.check_exponents(tup)
    if len(set(tuples)) < len(tuples):
        raise ValueError("order repeats an exponent tuple")
    F = [redenv.evaluate(cand.factor_element(j), rep) for j in range(cand.size)]

    def image(tup, X, act):
        """X under F_1^e_1 ... F_k^e_k: act(F_j, X) once per exponent, rightmost first."""
        for j in reversed(range(len(tup))):
            for _ in range(tup[j]):
                X = act(F[j], X)
        return X

    if tuples:
        probe = np.random.default_rng(0).integers(0, p, size=rep.dim)
        images = [image(tup, probe, lambda A, v: A @ v % p) for tup in tuples]
        if linalg.rank_mod_p(np.array(images), p) == len(tuples):
            return IndependenceReport(
                count=len(tuples), rank=len(tuples), tuples=tuples, witnesses=[]
            )
    mats, cells = [], np.zeros(0, dtype=np.int64)
    for tup in tuples:  # the filled cells are counted as each matrix is formed
        M = image(tup, rep.identity(), rep.matmul).tocoo()
        mats.append((M, M.row.astype(np.int64) * rep.dim + M.col))
        cells = np.union1d(cells, mats[-1][1])
        check_stack(len(tuples), cells.size)
    S = np.zeros((len(tuples), cells.size), dtype=np.int64)
    for i, (M, f) in enumerate(mats):
        S[i, np.searchsorted(cells, f)] = M.data
    # pivot columns of S.T are the greedily independent tuples; each free
    # column's kernel vector is the unique dependency of that tuple on them
    kernel = linalg.kernel_mod_p(S.T, p)
    witnesses = [{tuples[j]: int(v[j]) for j in np.nonzero(v)[0][::-1]} for v in kernel]  # dependent tuple first
    return IndependenceReport(
        count=len(tuples), rank=len(tuples) - len(kernel), tuples=tuples, witnesses=witnesses
    )


def pairwise_distinct_normal_forms(cand: LeeCandidate, bound: int) -> bool:
    """Symbolic check that distinct exponent tuples yield distinct PBW
    normal forms up to the degree bound."""
    seen = {}
    for tup in cand.tuples_with_bound(bound):
        u = cand.element(tup)
        key = tuple(sorted(u.terms.items()))
        if key in seen:
            return False
        seen[key] = tup
    return True


@dataclass
class LeeConditionsReport:
    rep_dim: int
    expected_dim: int
    dim_ok: bool
    irreducibility: object
    independence: IndependenceReport
    invertibility: dict  # label -> {"singular": [...], "invertible_choices": int}

    @property
    def conditions_established(self) -> bool:
        return (
            self.dim_ok
            and getattr(self.irreducibility, "status", "") == "irreducible"
            and self.independence.full_rank
            and all(v["invertible_choices"] > 0 for v in self.invertibility.values())
        )


def check_lee_conditions(
    cand: LeeCandidate,
    rep,
    solve_results: list[SolveResult] | None = None,
    bound: int = 2,
) -> LeeConditionsReport:
    """Dimension, irreducibility, truncated independence, and the c-scan of
    every parenthesis subexpression (singular_constants of its body at c = 0)."""
    L = cand.algebra
    p = cand.p
    expected = p**L.m
    verdict = is_irreducible(rep)
    indep = verify_independence_truncated(cand, rep, bound)
    scans = {}
    if solve_results is not None:
        for res in solve_results:
            spec = res.spec
            if spec.status != "ok" or spec.body is None or not isinstance(spec.body, Add):
                continue
            signs = res.solved[0] if res.solved else tuple([1] * spec.sign_slots)
            base = to_ue(spec.body, L.enveloping(), signs=dict(enumerate(signs, 1)), c_value=0)
            singular = singular_constants(base, rep)
            scans[f"body[{spec.target.label}]"] = {
                "singular": singular,
                "invertible_choices": p - len(singular),
            }
    return LeeConditionsReport(
        rep_dim=rep.dim,
        expected_dim=expected,
        dim_ok=rep.dim == expected,
        irreducibility=verdict,
        independence=indep,
        invertibility=scans,
    )


# -- full report pipeline ----------------------------------------------------

# largest baby Verma module that verification_report builds for its matrix cross-check
REP_DIM_LIMIT = 4000


def verification_report(
    L: LieAlgebra,
    case: str,
    seed: int = 0,
) -> dict:
    """Machine-readable ledger over all targets of one case: template display,
    sign verdicts, stability as c goes from 0 to 1, coefficient-family
    status, and the matrix cross-check on the baby Verma module when it has
    at most REP_DIM_LIMIT dimensions."""
    alpha = case_alpha(L, case)
    specs = _build_case(L, case)
    results = [solve_signs(s, L) for s in specs]
    stability = []
    for r in results:
        r2 = r.at_c(1)
        stability.append(r.solved == r2.solved and r.status == r2.status)

    rep = Xa = None
    if L.p and L.p ** L.m <= REP_DIM_LIMIT:
        rep = baby_verma(L, Character(L, {L.xpos(-alpha): 1}), {i: 0 for i in range(1, L.l + 1)})
        Xa = redenv.evaluate(L.enveloping().from_lie(L.x(alpha)), rep)
    spec_entries = []
    consistent = True
    for s, r, stable in zip(specs, results, stability):
        entry = {
            "slot": s.slot,
            "target": s.target.label,
            "origin": s.origin,
            "status": s.status,
            "template": s.display,
            "prefactor": None if s.prefactor is None else print_expr(s.prefactor),
            "body": None if s.body is None else print_expr(s.body),
            "sign_slots": s.sign_slots,
            "c_stable": stable,
        }
        if s.status == "ok":
            entry["verdict"] = r.status
            entry["solved"] = [_sgnstr(a) for a in r.solved]
            entry["diagonal_solutions"] = [_sgnstr(a) for a in r.diagonal_solutions]
            assigns = []
            for a in r.assignments:
                item = {"signs": _sgnstr(a.signs), "commutes": a.commutes}
                if a.residue is not None:
                    item["residue"] = to_string(a.residue)
                    wt = weight(a.residue)
                    item["residue_weight"] = (
                        Root(wt).label if wt is not None else "non-homogeneous"
                    )
                assigns.append(item)
            entry["assignments"] = assigns
            if r.variant_solutions:
                entry["variants"] = {
                    k: [_sgnstr(x) for x in v] for k, v in r.variant_solutions.items()
                }
            if rep is not None:
                entry["rep_check"] = _rep_cross_check(r, Xa, rep)
                if not entry["rep_check"]["consistent"]:
                    consistent = False
        spec_entries.append(entry)

    solved_count = sum(1 for r in results if r.status == "solved")
    bi_entry: dict = {"requested": solved_count}
    try:
        fam = gen_Bi(L, alpha, seed=seed, count=solved_count)
        bi_entry["status"] = "ok"
        bi_entry["vectors"] = [list(v) for v in fam.vectors]
        bi_entry["moment_parameters"] = list(fam.params) if fam.params else None
    except ExhaustedField as ex:
        bi_entry["status"] = "exhausted_field"
        bi_entry["detail"] = str(ex)

    return {
        "schema": 1,
        "kind": "verify-lee",
        "family": L.rs.family,
        "rank": L.rs.rank,
        "p": L.p,
        "case": case,
        "alpha": alpha.label,
        "seed": seed,
        "general_position": (
            "every min(rank, count)-subset of the coefficient vectors is checked"
            " independent over F_p; vectors realized on the moment curve"
        ),
        "sign_interpretation": (
            "slots enumerated independently; diagonal assignments listed separately"
            " cover the correlated reading"
        ),
        "summary": {
            "slots": len(specs),
            "solved": solved_count,
            "nosolution": sum(1 for r in results if r.status == "nosolution"),
            "impossible_for_rank": sum(1 for s in specs if s.status == "impossible_for_rank"),
            "uncovered": sum(1 for s in specs if s.status == "uncovered"),
            "rep_oracle": "matrix" if rep is not None else "weight-certificates",
            "oracle_consistent": consistent,
        },
        "bi_family": bi_entry,
        "specs": spec_entries,
    }


def _sgnstr(signs: tuple[int, ...]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs) or "(none)"


def _rep_cross_check(result, Xa, rep) -> dict:
    """Independent matrix-side commutator per assignment, with Xa the matrix
    of x_alpha: rho(element) is evaluated on the module, and the symbolic
    commutator is the residue that solve_signs kept (zero when commuting),
    evaluated too.  The two sides must agree; solved assignments must give
    the zero matrix, and nonzero residues must either evaluate nonzero or
    carry a nonzero homogeneous weight."""
    checked = []
    ok = True
    for a in result.assignments:
        A = redenv.evaluate(a.element, rep)
        mat_comm = (rep.matmul(Xa, A) - rep.matmul(A, Xa)).tocsr()
        zero = rep.is_zero_matrix(mat_comm)
        agree = zero if a.residue is None else rep.mats_equal(mat_comm, redenv.evaluate(a.residue, rep))
        entry = {"signs": _sgnstr(a.signs), "homomorphism": agree}
        if a.commutes:
            entry["matrix_zero"] = zero
            ok = ok and agree and zero
        else:
            nonzero = not zero
            wt = weight(a.residue)
            cert = wt is not None and any(wt)
            entry["matrix_nonzero"] = nonzero
            entry["weight_certificate"] = cert
            ok = ok and agree and (nonzero or cert)
        checked.append(entry)
    return {"consistent": ok, "assignments": checked}
