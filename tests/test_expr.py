import functools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlie.expr import (
    Add,
    Brk,
    HAtom,
    Mul,
    NotLieElement,
    Num,
    ParseError,
    Pow,
    UnknownRoot,
    XAtom,
    parse,
    print_expr,
    to_lie,
    to_ue,
)
from modlie.chevalley import build_chevalley
from modlie.pbw import to_string
from modlie.roots import Root, build_root_system


def test_parse_atoms(a1_rs):
    assert parse("x(+e1)", a1_rs) == XAtom((1,))
    assert parse("x(e1)", a1_rs) == XAtom((1,))
    assert parse("x(-e1)", a1_rs) == XAtom((-1,))
    assert parse("h(1)", a1_rs) == HAtom(simple=1)
    assert parse("h(e1)", a1_rs) == HAtom(coords=(1,))
    assert parse("42", a1_rs) == Num(42)


def test_parse_casimir_commutator(a1_rs):
    e = parse("[x(+e1), (h(e1)+1)^2 + 4 x(-e1) x(+e1)]", a1_rs)
    assert isinstance(e, Brk)
    assert e.lhs == XAtom((1,))
    assert isinstance(e.rhs, Add)


def test_parse_juxtaposition_and_star(b2_rs):
    a = parse("x(+e1) x(-e1)", b2_rs)
    b = parse("x(+e1) * x(-e1)", b2_rs)
    assert a == b == Mul((XAtom((1, 0)), XAtom((-1, 0))))


def test_parse_subtraction(b2_rs):
    e = parse("h(1) - 2 x(+e2)", b2_rs)
    assert isinstance(e, Add)
    assert e.items[0] == HAtom(simple=1)


def test_parse_error_position(a1_rs):
    with pytest.raises(ParseError) as exc:
        parse("x(+e1", a1_rs)
    assert exc.value.line == 1
    assert exc.value.col >= 5


def test_parse_error_unclosed_bracket(b2_rs):
    with pytest.raises(ParseError):
        parse("[x(+e1), x(+e2)", b2_rs)


def test_unknown_root(a1_rs):
    with pytest.raises(UnknownRoot):
        parse("x(+e1+e2)", a1_rs)
    with pytest.raises(UnknownRoot):
        parse("x(+3e1)", a1_rs)


def test_root_index_zero_is_a_parse_error(b2_rs):
    for text, col in (("x(e0)", 4), ("x(-e0+e1)", 5), ("h(e1+e0)", 7)):
        with pytest.raises(ParseError, match="index >= 1") as exc:
            parse(text, b2_rs)
        assert (exc.value.line, exc.value.col) == (1, col)


def test_a_huge_root_index_is_refused_without_its_coordinates(b2_rs):
    # the coefficients are summed per index, so an index far above the
    # system's dimension costs no memory before it is refused
    tracemalloc.start()
    try:
        with pytest.raises(UnknownRoot, match="names no root of B2 at line 1, column 3"):
            parse("x(e5000000)", b2_rs)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    # an index above the dimension whose net coefficient is zero names nothing
    assert parse("x(e1 + e9 - e9)", b2_rs) == XAtom((1, 0))


def test_leading_minus_matches_an_inner_one(b2_rs):
    x1 = XAtom((1, 0))
    assert parse("-3", b2_rs) == Num(-3)
    assert parse("-x(+e1) - 3", b2_rs) == Add((Mul((Num(-1), x1)), Num(-3)))
    assert parse("0 - x(+e1)", b2_rs).items[1] == parse("-x(+e1)", b2_rs)
    assert parse("[-x(+e1), x(+e1)]", b2_rs) == Brk(Mul((Num(-1), x1)), x1)
    with pytest.raises(ParseError):
        parse("+x(+e1)", b2_rs)


def test_c_family_coefficient_roots():
    rs = build_root_system("C", 2)
    assert parse("x(2e1)", rs) == XAtom((2, 0))
    assert parse("x(-2e2)", rs) == XAtom((0, -2))
    assert print_expr(parse("x(2e1)", rs)) == "x(+2e1)"


def test_to_ue_respects_order(b2_p7):
    U = b2_p7.enveloping()
    rs = b2_p7.rs
    ab = to_ue(parse("x(+e1) x(-e1)", rs), U)
    ba = to_ue(parse("x(-e1) x(+e1)", rs), U)
    assert ab != ba
    assert to_string(ab) == "x(-e1) x(+e1) + 2 h(e1-e2) + h(e2)"


def test_to_lie_span_parsing(b2_p7):
    rs = b2_p7.rs
    u = to_lie(parse("x(+e1) + 2 h(1)", rs), b2_p7)
    assert u == b2_p7.x(Root((1, 0))) + 2 * b2_p7.h(1)
    with pytest.raises(ValueError):
        to_lie(parse("x(+e1) x(-e1)", rs), b2_p7)
    h1 = b2_p7.coroot_expand(Root((1, 0)))
    assert to_lie(parse("[x(+e1), x(-e1)]", rs), b2_p7) == h1
    assert to_lie(parse("x(+e1) x(-e1) - x(-e1) x(+e1)", rs), b2_p7) == h1
    assert to_lie(parse("x(+e1)^1", rs), b2_p7) == b2_p7.x(Root((1, 0)))
    assert to_lie(parse("0", rs), b2_p7) == b2_p7.zero()
    for text in ("3", "x(+e1)^2"):
        with pytest.raises(NotLieElement):
            to_lie(parse(text, rs), b2_p7)


# -- round-trip corpus -----------------------------------------------------


def _atoms(rs):
    xs = [XAtom(r.coords) for r in rs.roots]
    hs = [HAtom(simple=i) for i in range(1, rs.rank + 1)]
    hs += [HAtom(coords=r.coords) for r in rs.base]
    return xs + hs


def expr_strategy(rs):
    atoms = st.one_of(
        st.sampled_from(_atoms(rs)),
        st.integers(min_value=0, max_value=40).map(Num),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, st.integers(min_value=2, max_value=4)).map(
                lambda t: Pow(t[0], t[1])
            ),
            st.lists(children, min_size=2, max_size=3).map(lambda xs: Add(tuple(xs))),
            st.lists(children, min_size=2, max_size=3).map(lambda xs: Mul(tuple(xs))),
            st.tuples(children, children).map(lambda t: Brk(t[0], t[1])),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_roundtrip_corpus(data):
    rs = build_root_system("B", 2)
    e = data.draw(expr_strategy(rs))
    text = print_expr(e)
    again = parse(text, rs)
    assert print_expr(again) == text


def test_roundtrip_on_fixed_corpus(b2_rs):
    corpus = [
        "x(+e1)",
        "h(1)",
        "h(e1-e2)",
        "x(+e1) x(-e1) x(+e1+e2)^3",
        "(h(e2) + 1)^2 + 4 x(-e1) x(+e1)",
        "[x(+e1), [x(-e1), h(2)]]",
        "3 - x(+e2) 2 h(1)^3 + 7",
    ]
    for text in corpus:
        e = parse(text, b2_rs)
        assert parse(print_expr(e), b2_rs) == e


@functools.cache
def _algebra(family, rank, p):
    return build_chevalley(build_root_system(family, rank), p)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_printed_normal_form_reparses_to_the_element(data):
    """to_string(u) parses back to u, negative leading coefficients at p = 0 included."""
    family, rank = data.draw(st.sampled_from([("A", 2), ("B", 2)]))
    L = _algebra(family, rank, data.draw(st.sampled_from([0, 7])))
    U = L.enveloping()
    u = U.zero()
    for _ in range(data.draw(st.integers(1, 4))):
        term = U.scalar(data.draw(st.sampled_from([-3, -2, -1, 1, 2, 5])))
        for pos in data.draw(st.lists(st.integers(0, L.n - 1), max_size=3)):
            term = term * U.gen(pos)
        u = u + term
    text = to_string(u)
    assert to_ue(parse(text, L.rs), U) == u, text
