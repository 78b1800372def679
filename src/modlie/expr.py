"""Expression AST, parser and printer for Lie / enveloping-algebra terms.

Grammar (whitespace separates tokens; juxtaposition multiplies):

    element := '-'? term (('+' | '-') term)*
    term    := factor ('*'? factor)*
    factor  := atom ('^' nat)?
    atom    := 'x(' roots ')' | 'h(' roots ')' | 'h(' nat ')' | int
             | '[' element ',' element ']' | '(' element ')'
    roots   := sterm (('+' | '-') sterm)*     # first sign optional
    sterm   := nat? 'e' nat                   # optional integer multiplier

``h(i)`` with a bare integer denotes the i-th simple coroot, 1 <= i <= rank;
``h(<roots>)`` denotes the coroot attached to that root.  A nat is one or more
ASCII digits 0-9.  Parse errors carry line/column.

Template-only nodes (Const, SignSlot) are printable and evaluable but not
parseable; they appear in generated verification templates, where a sign
slot prints as ``±``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chevalley import LieElement
from .errors import InputError
from .roots import Root, RootSystem


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class UnknownRoot(InputError):
    """The root expression is not a root of the configured system."""


class NotLieElement(InputError):
    """The expression's value in U(L) does not lie in L."""


# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Const:
    """Formal central constant (the per-target c in verification templates)."""

    name: str


@dataclass(frozen=True)
class SignSlot:
    """Unresolved sign choice; resolves to +1 or -1."""

    index: int


@dataclass(frozen=True)
class XAtom:
    coords: tuple[int, ...]


@dataclass(frozen=True)
class HAtom:
    coords: tuple[int, ...] | None = None  # coroot of a root ...
    simple: int | None = None  # ... or a simple-coroot index


@dataclass(frozen=True)
class Add:
    items: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Brk:
    lhs: object
    rhs: object


Expr = object


# -- parser -------------------------------------------------------------


def is_digits(text: str) -> bool:
    """True when text is one or more ASCII digits: str.isdigit alone also
    accepts characters such as '²', which int() refuses."""
    return text.isascii() and text.isdigit()


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def loc(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        last = self.text.rfind("\n", 0, pos)
        return line, pos - last

    def error(self, msg: str, pos: int | None = None):
        line, col = self.loc(pos)
        raise ParseError(msg, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while is_digits(self.text[self.pos : self.pos + 1]):
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start : self.pos])


def _parse_roots(s: _Scanner) -> dict[int, int]:
    """The net coefficient of each index e<i> read, i >= 1."""
    coefs: dict[int, int] = {}
    first = True
    while True:
        sign = 1
        ch = s.peek()
        if ch in "+-":
            sign = 1 if ch == "+" else -1
            s.pos += 1
        elif not first:
            break
        mult = 1
        if is_digits(s.peek()):
            mult = s.nat()
        if s.peek() != "e":
            if first:
                s.error("expected 'e<index>'")
            s.error("expected 'e<index>' after sign")
        s.pos += 1
        s.skip_ws()
        at = s.pos
        idx = s.nat()
        if idx < 1:
            s.error("expected an index >= 1", at)
        coefs[idx] = coefs.get(idx, 0) + sign * mult
        first = False
        if s.peek() not in "+-":
            break
    return coefs


class _Parser:
    def __init__(self, text: str, rs: RootSystem):
        self.s = _Scanner(text)
        self.rs = rs

    def run(self) -> Expr:
        e = self.element()
        self.s.skip_ws()
        if self.s.pos != len(self.s.text):
            self.s.error("unexpected trailing input")
        return e

    def element(self) -> Expr:
        items = []
        sign = "-" if self.s.peek() == "-" else ""  # only '-' may lead
        while True:
            if sign:
                self.s.pos += 1
            t = self.term()
            if sign == "-":
                t = Num(-t.value) if isinstance(t, Num) else Mul((Num(-1), t))
            items.append(t)
            sign = self.s.peek()
            if sign not in ("+", "-"):
                break
        return items[0] if len(items) == 1 else Add(tuple(items))

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            ch = self.s.peek()
            if ch == "*":
                self.s.pos += 1
                factors.append(self.factor())
            elif ch and (is_digits(ch) or ch in "xh[("):
                factors.append(self.factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self) -> Expr:
        a = self.atom()
        if self.s.peek() == "^":
            self.s.pos += 1
            n = self.s.nat()
            return Pow(a, n)
        return a

    def _unknown(self, what: str, start: int):
        line, col = self.s.loc(start)
        raise UnknownRoot(f"{what} of {self.rs.family}{self.rs.rank} at line {line}, column {col}")

    def _root_coords(self, what: str) -> tuple[int, ...]:
        """Coordinates of the roots read, as many as the system's dimension.
        An index above the dimension with a nonzero net coefficient names no
        root, and is refused before any coordinates are built."""
        start = self.s.pos
        coefs = _parse_roots(self.s)
        dim = self.rs.dim
        if any(c and i > dim for i, c in coefs.items()):
            self._unknown(f"{what} names no root", start)
        coords = tuple(coefs.get(i, 0) for i in range(1, dim + 1))
        if Root(coords) not in self.rs:
            self._unknown(f"{what} names no root", start)
        return coords

    def atom(self) -> Expr:
        ch = self.s.peek()
        if ch == "x":
            self.s.pos += 1
            self.s.take("(")
            coords = self._root_coords("x(...)")
            self.s.take(")")
            return XAtom(coords)
        if ch == "h":
            self.s.pos += 1
            self.s.take("(")
            self.s.skip_ws()
            # bare integer means a simple-coroot index
            save = self.s.pos
            if is_digits(self.s.peek()):
                n = self.s.nat()
                if self.s.peek() == ")":
                    if not 1 <= n <= self.rs.rank:
                        self._unknown(f"h({n}) names no simple coroot", save)
                    self.s.take(")")
                    return HAtom(simple=n)
                self.s.pos = save
            coords = self._root_coords("h(...)")
            self.s.take(")")
            return HAtom(coords=coords)
        if ch == "[":
            self.s.take("[")
            lhs = self.element()
            self.s.take(",")
            rhs = self.element()
            self.s.take("]")
            return Brk(lhs, rhs)
        if ch == "(":
            self.s.take("(")
            e = self.element()
            self.s.take(")")
            return e
        if is_digits(ch):
            return Num(self.s.nat())
        self.s.error("expected an atom")


def parse(text: str, rs: RootSystem) -> Expr:
    """Parse an expression whose root atoms are roots of rs."""
    return _Parser(text, rs).run()


# -- printer ------------------------------------------------------------


def print_expr(e: Expr) -> str:
    """Canonical text; parse(print_expr(e)) == e for parseable nodes."""
    return _print(e, 0)


def _print(e: Expr, prec: int) -> str:
    # precedence: 0 sum, 1 product, 2 power/atom
    if isinstance(e, Num):
        s = str(e.value)
        return f"({s})" if e.value < 0 and prec >= 1 else s
    if isinstance(e, Const):
        return e.name
    if isinstance(e, SignSlot):
        return "±"
    if isinstance(e, XAtom):
        return f"x({Root(e.coords).label})"
    if isinstance(e, HAtom):
        if e.simple is not None:
            return f"h({e.simple})"
        return f"h({Root(e.coords).plain_label})"
    if isinstance(e, Add):
        body = []
        for k, item in enumerate(e.items):
            neg, inner = _strip_neg(item)
            txt = _print(inner, 1)
            if k == 0:
                body.append(f"-{txt}" if neg else txt)
            else:
                body.append(f"- {txt}" if neg else f"+ {txt}")
        s = " ".join(body)
        return f"({s})" if prec >= 1 else s
    if isinstance(e, Mul):
        s = " ".join(_print(f, 1) for f in e.factors)
        return f"({s})" if prec >= 2 else s
    if isinstance(e, Pow):
        s = f"{_print(e.base, 3)}^{e.exp}"
        return f"({s})" if prec >= 3 else s
    if isinstance(e, Brk):
        return f"[{_print(e.lhs, 0)}, {_print(e.rhs, 0)}]"
    raise TypeError(f"unknown node {e!r}")


def _strip_neg(e: Expr) -> tuple[bool, Expr]:
    if isinstance(e, Mul) and e.factors and e.factors[0] == Num(-1):
        rest = e.factors[1:]
        return True, (rest[0] if len(rest) == 1 else Mul(rest))
    if isinstance(e, Num) and e.value < 0:
        return True, Num(-e.value)
    return False, e


# -- evaluation ---------------------------------------------------------


def to_ue(e: Expr, uea, signs: dict[int, int] | None = None, c_value: int = 0):
    """Evaluate an AST to a UEElement of the given enveloping algebra.

    Sign slots take values from `signs` (+1/-1); every Const evaluates to
    `c_value`.  Multiplication preserves the written factor order.
    """
    lie = uea.lie

    def ev(node):
        if isinstance(node, Num):
            return uea.scalar(node.value)
        if isinstance(node, Const):
            return uea.scalar(c_value)
        if isinstance(node, SignSlot):
            if signs is None or node.index not in signs:
                raise ValueError(f"unresolved sign slot {node.index}")
            return uea.scalar(signs[node.index])
        if isinstance(node, XAtom):
            return uea.gen(lie.xpos(Root(node.coords)))
        if isinstance(node, HAtom):
            if node.simple is not None:
                return uea.gen(lie.hpos(node.simple))
            return uea.from_lie(lie.coroot_expand(Root(node.coords)))
        if isinstance(node, Add):
            out = uea.zero()
            for item in node.items:
                out = out + ev(item)
            return out
        if isinstance(node, Mul):
            out = uea.one()
            for f in node.factors:
                out = out * ev(f)
            return out
        if isinstance(node, Pow):
            return ev(node.base) ** node.exp
        if isinstance(node, Brk):
            a, b = ev(node.lhs), ev(node.rhs)
            return a * b - b * a
        raise TypeError(f"unknown node {node!r}")

    return ev(e)


def to_lie(e: Expr, lie) -> LieElement:
    """Evaluate an expression whose value lies in L to a LieElement.

    The value is computed in U(L) by `to_ue` and accepted when every PBW
    monomial is one basis element to the first power; brackets need no
    separate rule, since xy - yx straightens to [x, y].
    """
    coeffs = {}
    for mono, c in to_ue(e, lie.enveloping()).terms.items():
        if len(mono) != 1 or mono[0][1] != 1:
            raise NotLieElement(
                f"{print_expr(e)} is not an element of {lie.rs.family}{lie.rs.rank}"
            )
        coeffs[mono[0][0]] = c
    return LieElement(lie, coeffs)
