import random

import pytest

from modlie.chevalley import MixedAlgebras, build_chevalley
from modlie.pbw import (
    UEElement,
    commutator,
    is_central,
    mono_degree,
    multiply,
    to_string,
    weight,
)
from modlie.roots import Root, build_root_system


def triple(L, alpha):
    U = L.enveloping()
    e, h, f = L.sl2_triple(alpha)
    return U.from_lie(e), U.from_lie(h), U.from_lie(f)


def rand_element(U, rng, max_terms=2, max_degree=4):
    n = U.lie.n
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = {}
        for _ in range(rng.randrange(1, max_degree + 1)):
            pos = rng.randrange(n)
            exps[pos] = exps.get(pos, 0) + 1
        mono = tuple(sorted(exps.items()))
        terms[mono] = rng.randrange(1, max(U.p, 5))
    return UEElement(U, terms)


def test_single_straightening_step(b2_p7):
    L = b2_p7
    e1 = Root((1, 0))
    U = L.enveloping()
    x, xm = U.from_lie(L.x(e1)), U.from_lie(L.x(-e1))
    lhs = multiply(x, xm)
    rhs = multiply(xm, x) + U.from_lie(L.coroot_expand(e1))
    assert lhs == rhs


def test_normalform_string_a1(a1_p7):
    U = a1_p7.enveloping()
    e1 = Root((1,))
    out = multiply(U.from_lie(a1_p7.x(e1)), U.from_lie(a1_p7.x(-e1)))
    assert to_string(out) == "x(-e1) x(+e1) + h(e1)"
    # at p = 0 a coefficient keeps its sign, and the first term may be negative
    L0 = build_chevalley(a1_p7.rs, 0)
    U0 = L0.enveloping()
    out0 = multiply(U0.from_lie(L0.x(e1)), U0.from_lie(L0.x(-e1))) * -1
    assert to_string(out0) == "-x(-e1) x(+e1) - h(e1)"


def test_unit_law(b2_p7):
    U = b2_p7.enveloping()
    rng = random.Random(3)
    for _ in range(10):
        u = rand_element(U, rng)
        assert multiply(U.one(), u) == u
        assert multiply(u, U.one()) == u


def test_root_vector_past_coroot(b2_p7):
    # x_a * h = h * x_a - a(h) x_a for a positive root vector and a coroot
    L = b2_p7
    U = L.enveloping()
    a = Root((0, 1))
    x, h = U.from_lie(L.x(a)), U.from_lie(L.h(1))
    from modlie.roots import cartan_integer

    ah = cartan_integer(a, L.rs.base[0])
    assert multiply(x, h) == multiply(h, x) - ah * x


def test_commutator_alternating(b2_p7):
    U = b2_p7.enveloping()
    rng = random.Random(5)
    for _ in range(10):
        u = rand_element(U, rng)
        assert commutator(u, u).is_zero


def test_associativity_seeded(b2_p7):
    U = b2_p7.enveloping()
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (rand_element(U, rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_straightening_association_independence(b2_p7):
    # straightening is confluent: any association tree over the same factor
    # sequence reaches the same normal form
    U = b2_p7.enveloping()
    rng = random.Random(23)
    n = b2_p7.n

    def product_random_tree(word):
        if len(word) == 1:
            return U.gen(word[0])
        cut = rng.randrange(1, len(word))
        return multiply(product_random_tree(word[:cut]), product_random_tree(word[cut:]))

    for _ in range(40):
        word = [rng.randrange(n) for _ in range(6)]
        base = U.one()
        for g in word:
            base = multiply(base, U.gen(g))
        for _ in range(3):
            assert product_random_tree(word) == base


def test_degree_bound(b2_p7):
    U = b2_p7.enveloping()
    rng = random.Random(31)
    for _ in range(50):
        u, v = rand_element(U, rng), rand_element(U, rng)
        uv = multiply(u, v)
        assert uv.degree <= u.degree + v.degree


def test_weight_examples(b2_p7):
    L = b2_p7
    U = L.enveloping()
    e1, e2 = Root((1, 0)), Root((0, 1))
    assert weight(U.from_lie(L.x(e1))) == (1, 0)
    assert weight(multiply(U.from_lie(L.x(-e1)), U.from_lie(L.x(e1)))) == (0, 0)
    assert weight(U.from_lie(L.x(e1)) + U.from_lie(L.x(e2))) is None
    assert weight(U.zero()) == (0, 0)
    assert weight(U.from_lie(L.h(1))) == (0, 0)


def test_weight_additivity(b2_p7):
    # independent oracle: sum the coordinate contributions of each factor
    L = b2_p7
    U = L.enveloping()
    rng = random.Random(41)
    for _ in range(40):
        m1 = {rng.randrange(L.n): rng.randrange(1, 3)}
        m2 = {rng.randrange(L.n): rng.randrange(1, 3)}
        u, v = U.monomial(m1), U.monomial(m2)
        wu, wv = weight(u), weight(v)
        expected = tuple(a + b for a, b in zip(wu, wv))
        got = weight(multiply(u, v))
        if got is not None:  # product of homogeneous elements stays homogeneous
            assert got == expected
        else:
            pytest.fail("product of homogeneous monomials must be homogeneous")


def test_casimir_central_a1(a1_p7):
    e, h, f = triple(a1_p7, Root((1,)))
    w = (h + 1) ** 2 + 4 * f * e
    assert is_central(w)


def test_casimir_central_in_sl2_of_b2(b2_p7):
    e, h, f = triple(b2_p7, Root((1, 0)))
    w = (h + 1) ** 2 + 4 * f * e
    assert is_central(w, [e, h, f])
    assert not is_central(w)  # not central in the full algebra


def test_root_vector_not_central(a1_p7):
    U = a1_p7.enveloping()
    x = U.from_lie(a1_p7.x(Root((1,))))
    assert not is_central(x)


def test_pth_power_central(a1_p5):
    U = a1_p5.enveloping()
    x = U.from_lie(a1_p5.x(Root((1,))))
    assert is_central(x**5)


def test_mixed_enveloping_rejected(a1_p7):
    rs = build_root_system("A", 1)
    other = build_chevalley(rs, 7)
    with pytest.raises(MixedAlgebras):
        multiply(a1_p7.enveloping().one(), other.enveloping().one())


def test_memoized_results_stable(b2_p7):
    U = b2_p7.enveloping()
    rng = random.Random(53)
    u, v = rand_element(U, rng), rand_element(U, rng)
    first = multiply(u, v)
    second = multiply(u, v)
    assert first == second
    assert mono_degree(max(first.terms, key=mono_degree, default=())) <= 8


@pytest.mark.parametrize("p", [0, 7])
def test_power_equals_repeated_multiplication(b2_rs, p):
    L = build_chevalley(b2_rs, p)
    U = L.enveloping()
    rng = random.Random(11)
    for _ in range(4):
        u = rand_element(U, rng, max_terms=3, max_degree=2)
        expected = U.one()
        for n in range(6):
            assert u**n == expected
            expected = multiply(expected, u)


def test_power_of_a_single_root_vector_stays_one_monomial(a1_rs):
    L = build_chevalley(a1_rs, 0)
    U = L.enveloping()
    f = U.gen(L.xpos(-Root((1,))))
    assert (f**3000).terms == {((L.xpos(-Root((1,))), 3000),): 1}
