import itertools

import numpy as np
import pytest

from modlie.chevalley import (
    BadCharacteristic,
    LieElement,
    MixedAlgebras,
    NotCartanElement,
    bracket,
    build_chevalley,
    check_subalgebra,
    extend_by_cartan,
)
from modlie.linalg import FractionEchelon, rank_mod_p
from modlie.roots import Root, build_root_system, cartan_integer, root_string


def basis_elements(L):
    return [LieElement(L, {i: 1}) for i in range(L.n)]


def assert_jacobi(L):
    es = basis_elements(L)
    for a, b, c in itertools.product(es, repeat=3):
        t = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)
        assert t.is_zero


def assert_antisymmetry(L):
    es = basis_elements(L)
    for i in range(L.n):
        for j in range(L.n):
            assert bracket(es[i], es[j]) == -bracket(es[j], es[i])


SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 2)]


@pytest.mark.parametrize("family,rank", SYSTEMS)
@pytest.mark.parametrize("p", [0, 7])
def test_antisymmetry_and_jacobi(family, rank, p):
    L = build_chevalley(build_root_system(family, rank), p)
    assert_antisymmetry(L)
    assert_jacobi(L)


def test_dimensions():
    assert build_chevalley(build_root_system("B", 2), 7).n == 10
    assert build_chevalley(build_root_system("B", 3), 7).n == 21
    L = build_chevalley(build_root_system("A", 1), 5, allow_small=True)
    assert L.n == 3


def test_sl2_relations():
    L = build_chevalley(build_root_system("A", 1), 5, allow_small=True)
    a = Root((1,))
    e, h, f = L.x(a), L.coroot_expand(a), L.x(-a)
    assert bracket(e, f) == h
    assert bracket(h, e) == 2 * e
    assert bracket(h, f) == -2 * f


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 2)])
def test_opposite_brackets_give_coroots(family, rank):
    L = build_chevalley(build_root_system(family, rank), 0)
    for r in L.rs.roots:
        assert bracket(L.x(r), L.x(-r)) == L.coroot_expand(r)
        assert L.coroot_expand(-r) == -L.coroot_expand(r)


def test_coroot_of_simple_is_unit():
    L = build_chevalley(build_root_system("B", 2), 0)
    for i, a in enumerate(L.rs.base, start=1):
        assert L.coroot_expand(a) == L.h(i)


def test_coroot_pairing_property():
    # [h_alpha, x_beta] = <beta, alpha-check> x_beta, verified by independent
    # inner-product arithmetic for every root pair
    L = build_chevalley(build_root_system("B", 2), 0)
    for a in L.rs.roots:
        ha = L.coroot_expand(a)
        for b in L.rs.roots:
            assert bracket(ha, L.x(b)) == cartan_integer(b, a) * L.x(b)


def test_cartan_action_example():
    # [h(e1-e2), x(+e1-e2)] = 2 x(+e1-e2) in B2
    L = build_chevalley(build_root_system("B", 2), 7)
    a = Root((1, -1))
    assert bracket(L.h(1), L.x(a)) == 2 * L.x(a)


def test_bracket_alternating():
    L = build_chevalley(build_root_system("B", 2), 7)
    u = L.x(Root((1, 0))) + 3 * L.h(2) + L.x(Root((-1, 1)))
    assert bracket(u, u).is_zero


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3)])
def test_structure_constant_magnitudes(family, rank):
    L = build_chevalley(build_root_system(family, rank), 0)
    rs = L.rs
    for (a, b), v in L.N.items():
        q, _ = root_string(b, a, rs)
        assert abs(v) == q + 1
        assert abs(v) in (1, 2)


def test_structure_constants_shared_per_root_system():
    from modlie.chevalley import _structure_constants

    # equal root systems built apart share one table at every p
    algebras = [build_chevalley(build_root_system("B", 3), p) for p in (0, 7, 11)]
    assert all(L.N is algebras[0].N for L in algebras)
    assert dict(algebras[0].N) == _structure_constants.__wrapped__(algebras[0].rs)
    with pytest.raises(TypeError):
        algebras[0].N[next(iter(algebras[0].N))] = 0


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3)])
def test_ad_nilpotency_degree_four(family, rank):
    L = build_chevalley(build_root_system(family, rank), 7)
    for r in L.rs.roots:
        M = L.ad_matrix(L.x(r))
        M4 = np.linalg.matrix_power(M, 4) % 7
        assert not M4.any()


@pytest.mark.parametrize("p", [5, 7, 11])
def test_restrictedness_a1(p):
    L = build_chevalley(build_root_system("A", 1), p, allow_small=True)
    for pos in range(L.n):
        x = LieElement(L, {pos: 1})
        lhs = np.linalg.matrix_power(L.ad_matrix(x), p) % p
        rhs = L.ad_matrix(LieElement(L, L.pmap[pos])) % p
        assert np.array_equal(lhs, rhs)


def test_restrictedness_b2_p7():
    L = build_chevalley(build_root_system("B", 2), 7)
    for pos in range(L.n):
        x = LieElement(L, {pos: 1})
        lhs = np.linalg.matrix_power(L.ad_matrix(x), 7) % 7
        rhs = L.ad_matrix(LieElement(L, L.pmap[pos])) % 7
        assert np.array_equal(lhs, rhs)


def test_bad_characteristic():
    rs = build_root_system("A", 1)
    with pytest.raises(BadCharacteristic):
        build_chevalley(rs, 6)
    with pytest.raises(BadCharacteristic):
        build_chevalley(rs, 5)
    with pytest.warns(UserWarning):
        build_chevalley(rs, 5, allow_small=True)


def test_mixed_algebras_rejected():
    rs = build_root_system("A", 1)
    L1 = build_chevalley(rs, 7)
    L2 = build_chevalley(rs, 7)
    with pytest.raises(MixedAlgebras):
        bracket(L1.x(Root((1,))), L2.x(Root((1,))))


# -- subalgebra closure --------------------------------------------------


def closure_dimension(span, L):
    """Independent oracle: iterate bracket-closure to a fixpoint and report
    the dimension of the resulting subalgebra."""
    current = list(span)
    dim = span_dimension(current, L)
    changed = True
    while changed:
        changed = False
        fresh = []
        for u in current:
            for v in current:
                w = bracket(u, v)
                if not w.is_zero and span_dimension(current + fresh + [w], L) > dim:
                    fresh.append(w)
                    dim += 1
                    changed = True
        current.extend(fresh)
    return dim


def span_dimension(span, L):
    """Rank of the span: rank_mod_p over F_p, so that the oracle does not
    use the incremental echelon that check_subalgebra uses."""
    if L.p:
        return rank_mod_p(np.array([u.dense() for u in span], dtype=np.int64).reshape(-1, L.n), L.p)
    ech = FractionEchelon(L.n)
    for u in span:
        ech.insert(u.dense())
    return ech.rank


def test_full_basis_closed(b2_p7):
    L = b2_p7
    verdict = check_subalgebra(basis_elements(L), L)
    assert verdict.closed


def test_single_root_vector_closed(b2_p7):
    L = b2_p7
    verdict = check_subalgebra([L.x(Root((1, 0)))], L)
    assert verdict.closed


def test_long_root_plus_cartan_span(b2_p7):
    L = b2_p7
    longs = [r for r in L.rs.roots if r.sq_length == 2]
    span = [L.x(r) for r in longs] + [L.h(1), L.h(2)]
    verdict = check_subalgebra(span, L)
    # cross-check against the fixpoint oracle
    assert verdict.closed == (closure_dimension(span, L) == span_dimension(span, L))
    assert verdict.closed


def test_not_closed_with_witness(b2_p7):
    L = b2_p7
    e1, e2 = Root((1, 0)), Root((0, 1))
    span = [L.x(e1), L.x(e2)]
    verdict = check_subalgebra(span, L)
    assert not verdict.closed
    i, j, w = verdict.witness
    assert w == bracket(span[i], span[j])
    assert closure_dimension(span, L) > span_dimension(span, L)


def test_subalgebra_verdicts_at_the_largest_exact_prime():
    # p = 3037000493 has p^2 < 2^63 < 2 p^2: the negative coefficients become
    # residues near p, and the verdicts and witness pair are those at p = 7
    rs = build_root_system("A", 2)
    a, b = Root((1, -1, 0)), Root((0, 1, -1))
    verdicts = []
    for p in (7, 3037000493):
        L = build_chevalley(rs, p)
        closed = [3 * L.x(a), -2 * L.x(-a), -5 * L.coroot_expand(a) + 6 * L.coroot_expand(b), -L.coroot_expand(b)]
        not_closed = [-L.x(a), 2 * L.coroot_expand(a), -3 * L.x(b)]
        v1, v2 = check_subalgebra(closed, L), check_subalgebra(not_closed, L)
        assert v1.closed == (closure_dimension(closed, L) == span_dimension(closed, L))
        assert closure_dimension(not_closed, L) > span_dimension(not_closed, L)
        i, j, w = v2.witness
        assert w == bracket(not_closed[i], not_closed[j])
        verdicts.append((v1.closed, v1.witness, v2.closed, i, j, sorted(w.coeffs)))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][:5] == (True, None, False, 0, 2)


def test_extend_by_cartan_noop_when_contained(b2_p7):
    L = b2_p7
    span0 = [L.x(Root((1, 0))), L.x(Root((-1, 0))), L.coroot_expand(Root((1, 0)))]
    span, verdict = extend_by_cartan(span0, L.coroot_expand(Root((1, 0))), L)
    assert verdict.closed == check_subalgebra(span0, L).closed


def test_extend_by_cartan_sl2_plus_coroot(b2_p7):
    L = b2_p7
    e1 = Root((1, 0))
    span0 = [L.x(e1), L.x(-e1), L.coroot_expand(e1)]
    span, verdict = extend_by_cartan(span0, L.h(2), L)
    assert verdict.closed == (closure_dimension(span, L) == span_dimension(span, L))
    assert verdict.closed


def test_extend_by_cartan_full_algebra(b2_p7):
    L = b2_p7
    span, verdict = extend_by_cartan(basis_elements(L), L.h(1), L)
    assert verdict.closed


def test_extend_by_cartan_rejects_root_vector(b2_p7):
    L = b2_p7
    with pytest.raises(NotCartanElement):
        extend_by_cartan([L.h(1)], L.x(Root((1, 0))), L)
