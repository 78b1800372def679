import dataclasses
import inspect
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from modlie.chevalley import build_chevalley
from modlie.expr import Add, to_ue
from modlie.leebasis import build_case_I, build_case_II, case_alpha, solve_signs
from modlie.linalg import rank_mod_p
from modlie.pbw import UEElement, mono_degree, multiply, weight
from modlie.redenv import (
    Character,
    MatrixRep,
    _components,
    _eigenvalues,
    _grading,
    _spin,
    _transposed,
    _trim,
    IncompatibleWeight,
    NonStandardCharacter,
    NotModP,
    baby_verma,
    compatible_lambdas,
    evaluate,
    invertible_in_rep,
    is_irreducible,
    reduce,
    rep_check_brackets,
    rep_check_restrictedness,
    singular_constants,
)
from modlie.roots import Root, build_root_system, cartan_integer


E1 = Root((1,))


def sl2_ue(L):
    U = L.enveloping()
    e, h, f = L.sl2_triple(E1)
    return U, U.from_lie(e), U.from_lie(h), U.from_lie(f)


# -- reduce ---------------------------------------------------------------


def test_reduce_root_vector_power(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 3})
    # f^5 -> chi(f)^5 = 3 (Fermat)
    assert reduce(f**5, chi) == U.scalar(pow(3, 5, 5))
    assert reduce(f**7, chi) == 3 * f**2


def test_reduce_coroot_power(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {})
    assert reduce(h**5, chi) == h
    chi2 = Character(L, {L.hpos(1): 2})
    assert reduce(h**5, chi2) == h + U.scalar(2)


def test_reduce_identity_below_p(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 1})
    u = f**4 + 2 * h**2 + e
    assert reduce(u, chi) == u


def test_reduce_idempotent_and_multiplicative(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 1})
    rng = random.Random(2)
    for _ in range(25):
        terms = {}
        for _ in range(2):
            exps = {}
            for _ in range(rng.randrange(1, 4)):
                pos = rng.randrange(L.n)
                exps[pos] = exps.get(pos, 0) + rng.randrange(1, 7)
            terms[tuple(sorted(exps.items()))] = rng.randrange(1, 5)
        u = UEElement(U, terms)
        v = UEElement(U, dict(reversed(list(terms.items()))))
        assert reduce(reduce(u, chi), chi) == reduce(u, chi)
        assert reduce(multiply(u, v), chi) == reduce(
            multiply(reduce(u, chi), reduce(v, chi)), chi
        )


def test_reduce_requires_mod_p(b2_p0):
    with pytest.raises(NotModP):
        Character(b2_p0, {})


# -- baby Verma -----------------------------------------------------------


def closed_form_sl2_rep(p, chi_f, lam):
    """Independent construction of the rank-one baby Verma action:
    f shifts the ladder (with chi(f)^p wraparound), h is diagonal with
    weights lam - 2a, and e acts by a(lam - a + 1) on f^a."""
    F = np.zeros((p, p), dtype=np.int64)
    H = np.zeros((p, p), dtype=np.int64)
    E = np.zeros((p, p), dtype=np.int64)
    for a in range(p):
        if a + 1 < p:
            F[a + 1, a] = 1
        else:
            F[0, a] = pow(chi_f, p, p)
        H[a, a] = (lam - 2 * a) % p
        if a > 0:
            E[a - 1, a] = (a * (lam - a + 1)) % p
    return E, H, F


@pytest.mark.parametrize("p,chi_f,lam", [(5, 1, 0), (5, 2, 3), (7, 1, 0), (7, 3, 6)])
def test_baby_verma_matches_closed_form(p, chi_f, lam):
    L = build_chevalley(build_root_system("A", 1), p, allow_small=True)
    chi = Character(L, {L.xpos(-E1): chi_f})
    rep = baby_verma(L, chi, {1: lam})
    assert rep.dim == p
    E, H, F = closed_form_sl2_rep(p, chi_f, lam)
    assert np.array_equal(rep.generators[L.xpos(E1)].toarray(), E)
    assert np.array_equal(rep.generators[L.hpos(1)].toarray(), H)
    assert np.array_equal(rep.generators[L.xpos(-E1)].toarray(), F)


def test_baby_verma_f_pth_power_is_identity(a1_p5):
    L = a1_p5
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 0})
    F = rep.generators[L.xpos(-E1)].toarray()
    assert np.array_equal(np.linalg.matrix_power(F, 5) % 5, np.eye(5, dtype=np.int64))


def test_baby_verma_trivial_character_nilpotent(a1_p5):
    L = a1_p5
    rep = baby_verma(L, Character(L, {}), {1: 0})
    assert rep.dim == 5
    for r in (E1, -E1):
        M = rep.generators[L.xpos(r)].toarray()
        assert not (np.linalg.matrix_power(M, 5) % 5).any()


def test_baby_verma_invariants(a1_p5):
    L = a1_p5
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 2})
    assert rep_check_brackets(rep)
    assert rep_check_restrictedness(rep)


def test_baby_verma_rejects_nonstandard(a1_p5):
    L = a1_p5
    chi = Character(L, {L.xpos(E1): 1})
    with pytest.raises(NonStandardCharacter):
        baby_verma(L, chi, {1: 0})


def test_baby_verma_rejects_incompatible_weight(a1_p5):
    L = a1_p5
    chi = Character(L, {L.hpos(1): 1})
    with pytest.raises(IncompatibleWeight) as exc:
        baby_verma(L, chi, {1: 0})
    assert exc.value.coroot == 1


def test_baby_verma_rejects_lambda_keys_outside_rank(a1_p5):
    L = a1_p5
    with pytest.raises(ValueError, match=r"\[3\] are outside 1\.\.1"):
        baby_verma(L, Character(L, {}), {3: 1})
    with pytest.raises(ValueError, match=r"\[0, -1\] are outside 1\.\.1"):
        baby_verma(L, Character(L, {}), {0: 1, -1: 2})


def test_compatible_lambdas(a1_p5):
    L = a1_p5
    assert compatible_lambdas(L, Character(L, {L.xpos(-E1): 1})) == [[0, 1, 2, 3, 4]]
    assert compatible_lambdas(L, Character(L, {L.hpos(1): 2})) == [[]]


@pytest.mark.parametrize("family, rank", [("A", 1), ("B", 2)])
@pytest.mark.parametrize("p", [5, 7])
def test_weight_compatibility_matches_brute_force(family, rank, p, monkeypatch):
    # t^p - t = chi(h)^p solved by trying every t in F_p, on every value of
    # chi on the coroots; MAX_MODULE_DIM = 0 stops baby_verma right after
    # its weight check
    import modlie.redenv as redenv

    L = build_chevalley(build_root_system(family, rank), p, allow_small=True)
    monkeypatch.setattr(redenv, "MAX_MODULE_DIM", 0)

    def solves(t, v):
        return (pow(t, p, p) - t) % p == pow(v, p, p)

    for values in itertools.product(range(p), repeat=L.l):
        chi = Character(L, {L.hpos(i): v for i, v in enumerate(values, 1)})
        assert compatible_lambdas(L, chi) == [[t for t in range(p) if solves(t, v)] for v in values]
        for lam in itertools.product(range(p), repeat=L.l):
            bad = [i for i, (t, v) in enumerate(zip(lam, values), 1) if not solves(t, v)]
            with pytest.raises(IncompatibleWeight if bad else redenv.ModuleTooLarge) as exc:
                baby_verma(L, chi, dict(enumerate(lam, 1)))
            assert not bad or exc.value.coroot == bad[0]


def test_b2_small_prime_rep_invariants():
    L = build_chevalley(build_root_system("B", 2), 5, allow_small=True)
    chi = Character(L, {L.xpos(Root((-1, 0))): 1})
    rep = baby_verma(L, chi, {1: 0, 2: 0})
    assert rep.dim == 5**4
    assert rep_check_brackets(rep)
    assert rep_check_restrictedness(rep)


# -- evaluate / invertibility ----------------------------------------------


def test_evaluate_identity_and_monomials(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 0})
    assert rep.mats_equal(evaluate(U.one(), rep), rep.identity())
    lhs = evaluate(multiply(f, e), rep)
    rhs = rep.matmul(evaluate(f, rep), evaluate(e, rep))
    assert rep.mats_equal(lhs, rhs)


def test_evaluate_homomorphism_random(a1_p7):
    L = a1_p7
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 0})
    rng = random.Random(9)
    for _ in range(60):
        terms_u = {tuple(sorted({rng.randrange(3): rng.randrange(1, 4)}.items())): rng.randrange(1, 7)}
        terms_v = {tuple(sorted({rng.randrange(3): rng.randrange(1, 4)}.items())): rng.randrange(1, 7)}
        u, v = UEElement(U, terms_u), UEElement(U, terms_v)
        assert rep.mats_equal(
            evaluate(multiply(u, v), rep),
            rep.matmul(evaluate(u, rep), evaluate(v, rep)),
        )


def test_central_element_acts_as_scalar(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 0})
    W = evaluate((h + 1) ** 2 + 4 * f * e, rep).toarray()
    assert np.array_equal(W, (W[0, 0] * np.eye(5, dtype=np.int64)) % 5)


def test_invertibility(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {})
    rep = baby_verma(L, chi, {1: 0})
    assert invertible_in_rep(U.one(), rep)
    assert not invertible_in_rep(e, rep)  # nilpotent action


def test_invertibility_scan_at_most_two_singular(a1_p5):
    L = a1_p5
    U, e, h, f = sl2_ue(L)
    chi = Character(L, {L.xpos(-E1): 1})
    for lam in compatible_lambdas(L, chi)[0]:
        rep = baby_verma(L, chi, {1: lam})
        w = (h + 1) ** 2 + 4 * f * e
        singular = [c for c in range(5) if not invertible_in_rep(w + c, rep)]
        assert len(singular) <= 2
        # scalar action pins the singular value exactly
        assert singular == [(-((lam + 1) ** 2)) % 5]


def random_products_element(U, rng, p):
    """A constant plus 1-3 scaled products of up to 3 generators."""
    u = U.scalar(rng.randrange(p))
    for _ in range(rng.randint(1, 3)):
        term = U.scalar(rng.randrange(1, p))
        for _ in range(rng.randint(1, 3)):
            term = term * U.gen(rng.randrange(U.lie.n))
        u = u + term
    return u


@pytest.mark.parametrize(
    "family, rank, p",
    [("A", 1, 7), ("A", 2, 5), ("B", 2, 5), ("C", 2, 5)],
)
def test_invertibility_matches_dense_rank(family, rank, p):
    L = build_chevalley(build_root_system(family, rank), p, allow_small=True)
    U = L.enveloping()
    neg = next(b.position for b in L.basis if b.kind == "x" and L.rs.height(b.root) < 0)
    rng = random.Random(f"{family}{rank}-{p}")
    blocked = singular = 0
    for chi in (Character(L, {}), Character(L, {neg: 1})):
        lam = {i: rng.randrange(p) for i in range(1, L.l + 1)}
        rep = baby_verma(L, chi, lam)
        for _ in range(24):
            u = random_products_element(U, rng, p)
            A = evaluate(u, rep)
            expected = rank_mod_p(A.toarray(), p) == rep.dim
            assert invertible_in_rep(u, rep) == expected
            _, labels = connected_components(A, directed=True, connection="strong")
            blocked += np.bincount(labels).max() > 1
            singular += not expected
    # both block paths and both answers are exercised
    assert blocked >= 8 and 8 <= singular <= 40


def partition(labels):
    return sorted(np.flatnonzero(labels == c).tolist() for c in np.unique(labels))


@st.composite
def sparse_patterns(draw, shape):
    """Edge list of a graph on n vertices of the named shape, its vertices
    numbered in a random order."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    forward = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
    if shape == "self_loops":
        return n, [(v, v) for v in draw(st.sets(st.integers(0, n - 1)))]
    if shape == "long_cycle":
        return n, list(zip(order, order[1:] + order[:1]))
    if shape == "dag":  # edges only run forward along order
        return n, [(order[a], order[b]) for a, b in draw(st.lists(forward, max_size=3 * n)) if a < b]
    if shape == "short_cycles":  # cycles of 1-4 consecutive vertices of order, joined by forward edges
        edges, start = [], 0
        while start < n:
            cycle = order[start : start + draw(st.integers(1, 4))]
            edges += zip(cycle, cycle[1:] + cycle[:1])
            start += len(cycle)
        return n, edges + [(order[a], order[b]) for a, b in draw(st.lists(forward, max_size=n))]
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    if shape == "empty_rows":
        empty = draw(st.sets(st.integers(0, n - 1), min_size=1))
        edges = [(i, j) for i, j in edges if i not in empty]
    return n, edges


def full_trim(A):
    """The core's vertices and its edges (src, dst) after _trim of A's
    off-diagonal pattern run to the end: every vertex has diagonal value 0
    and only the value 1 is watched, so no deletion stops the trim."""
    C = A.tocoo()
    off = C.row != C.col
    src, dst = (side[off].astype(np.intp) for side in (C.row, C.col))
    src, dst = _trim(src, dst, np.zeros(A.shape[0], dtype=np.intp), np.array([False, True]))
    return np.unique(src), src, dst


@pytest.mark.parametrize("shape", ["random", "self_loops", "empty_rows", "long_cycle", "short_cycles", "dag"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_trim_then_components_matches_csgraph(shape, data, a1_p5):
    n, edges = data.draw(sparse_patterns(shape))
    rows, cols = (np.array(side, dtype=np.int64) for side in zip(*edges)) if edges else ([], [])
    A = sp.csr_matrix((np.ones(len(edges), dtype=np.int64), (rows, cols)), shape=(n, n))
    # the blocks as invertible_in_rep finds them: each trimmed vertex alone,
    # then the components of the core, each labelled by its least vertex
    core, src, dst = full_trim(A)
    C = A[core][:, core]
    labels, expected = n + np.arange(n), n + np.arange(n)
    labels[core] = _components(src, dst, n)[core]
    expected[core] = connected_components(C, directed=True, connection="weak")[1]
    assert partition(labels) == partition(expected)
    assert (labels[labels[core]] == labels[core]).all() and (labels[core] <= core).all()
    # every strong component lies in one block, so the blocks are exact
    _, strong = connected_components(A, directed=True, connection="strong")
    assert all(np.unique(labels[strong == c]).size == 1 for c in np.unique(strong))
    # and their ranks decide invertibility: a module whose one generator has
    # this pattern, entries drawn from F_5, plus a diagonal drawn from F_5
    L = a1_p5
    vals = data.draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    diag = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    M = sp.csr_matrix((np.array(vals, dtype=np.int64), (rows, cols)), shape=(n, n)) + sp.diags(diag, dtype=np.int64)
    rep = MatrixRep(L, 5, n, (), {0: M}, Character(L, {}), {})
    assert invertible_in_rep(L.enveloping().gen(0), rep) == (rank_mod_p(M.toarray() % 5, 5) == n)
    eye = np.eye(n, dtype=np.int64)
    assert singular_constants(L.enveloping().gen(0), rep) == [
        c for c in range(5) if rank_mod_p((M.toarray() + c * eye) % 5, 5) < n
    ]


def power_terms_element(U, rng, p):
    """A constant plus two scaled products of generator powers, one exponent
    in each product at least p, so that reduce has to rewrite it."""
    u = U.scalar(rng.randrange(p))
    for _ in range(2):
        term = U.scalar(rng.randrange(1, p)) * U.gen(rng.randrange(U.lie.n)) ** rng.randint(p, p + 2)
        for _ in range(rng.randint(0, 1)):
            term = term * U.gen(rng.randrange(U.lie.n)) ** rng.randint(1, 2)
        u = u + term
    return u


def chain_matrix(u, rep):
    """rho(u) from the generator matrices alone: every unreduced monomial as
    a left-to-right chain of sparse products, with no call to reduce."""
    p = rep.p
    total = np.zeros((rep.dim, rep.dim), dtype=np.int64)
    for m, c in u.terms.items():
        M = rep.identity()
        for pos, e in m:
            for _ in range(e):
                M = (M @ rep.generators[pos]).tocsr()
                M.data %= p
        total = (total + c * M.toarray()) % p
    return total


@pytest.fixture(scope="module", params=["A1-p7", "B2-p5"])
def chain_case(request):
    if request.param == "A1-p7":
        L = build_chevalley(build_root_system("A", 1), 7)
        chi = Character(L, {L.xpos(-E1): 1})
        return baby_verma(L, chi, {1: 0}), 5
    L = build_chevalley(build_root_system("B", 2), 5, allow_small=True)
    chi = Character(L, {L.xpos(Root((-1, 0))): 1})
    return baby_verma(L, chi, {1: 0, 2: 0}), 2


def test_evaluate_matches_generator_chain(chain_case):
    rep, count = chain_case
    U = rep.algebra.enveloping()
    rng = random.Random(f"chain-{rep.p}")
    for _ in range(count):
        u = power_terms_element(U, rng, rep.p)
        assert np.array_equal(evaluate(u, rep).toarray(), chain_matrix(u, rep))


# -- irreducibility ---------------------------------------------------------


def test_irreducible_nonzero_character(a1_p5):
    L = a1_p5
    chi = Character(L, {L.xpos(-E1): 1})
    for lam in range(5):
        rep = baby_verma(L, chi, {1: lam})
        verdict = is_irreducible(rep)
        assert verdict.status == "irreducible"
        assert verdict.span_dim == 25


def test_submodule_for_trivial_character(a1_p5):
    L = a1_p5
    rep = baby_verma(L, Character(L, {}), {1: 0})
    verdict = is_irreducible(rep)
    assert verdict.status == "submodule"
    W = np.array(verdict.witness) % 5
    assert 0 < len(W) < 5
    # independently verify invariance of the witness
    for b in L.basis:
        G = rep.generators[b.position].toarray()
        for v in W:
            img = (G @ v) % 5
            assert rank_mod_p(np.vstack([W, img]), 5) == rank_mod_p(W, 5)


def test_dim_one_rep_irreducible(a1_p5):
    L = a1_p5
    rep = baby_verma(L, Character(L, {}), {1: 0})
    tiny = type(rep)(
        algebra=L,
        p=5,
        dim=1,
        neg_positions=(),
        generators={b.position: sp.csr_matrix((1, 1), dtype=np.int64) for b in L.basis},
        chi=rep.chi,
        lam={},
    )
    assert is_irreducible(tiny).status == "irreducible"


def all_subspaces_mod3(dim):
    """Every nonzero proper subspace of F_3^dim as a tuple of basis rows."""
    vectors = [v for v in itertools.product(range(3), repeat=dim) if any(v)]
    subspaces = set()
    for k in range(1, dim):
        for combo in itertools.combinations(vectors, k):
            M = np.array(combo)
            if rank_mod_p(M, 3) != k:
                continue
            span = frozenset(
                tuple(int(x) % 3 for x in (np.array(cs) @ M))
                for cs in itertools.product(range(3), repeat=k)
            )
            subspaces.add(span)
    return subspaces


def brute_force_reducible(rep):
    spaces = all_subspaces_mod3(rep.dim)
    gens = [rep.generators[b.position].toarray() for b in rep.algebra.basis]
    for span in spaces:
        vecs = [np.array(v) for v in span]
        members = set(span)
        if all(tuple(int(x) for x in (G @ v) % 3) in members for G in gens for v in vecs):
            return True
    return False


def test_burnside_agrees_with_subspace_enumeration():
    L = build_chevalley(build_root_system("A", 1), 3, allow_small=True)
    chi = Character(L, {})
    for lam in range(3):
        rep = baby_verma(L, chi, {1: lam})
        verdict = is_irreducible(rep)
        reducible = brute_force_reducible(rep)
        if reducible:
            assert verdict.status == "submodule"
        else:
            assert verdict.status == "irreducible"


def test_large_dim_inconclusive_budget_zero(b2_rep7):
    verdict = is_irreducible(b2_rep7, trials=0)
    assert verdict.status == "inconclusive"


def test_irreducible_at_p_eleven():
    L = build_chevalley(build_root_system("A", 1), 11)
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 0})
    assert rep.dim == 11
    verdict = is_irreducible(rep)
    assert verdict.status == "irreducible" and verdict.span_dim == 121


def rref_p(rows, p):
    """Reduced row echelon form over F_p and its pivot columns, by plain
    Gauss-Jordan elimination, independent of modlie.linalg."""
    M = np.array(rows, dtype=np.int64) % p
    pivots = []
    for c in range(M.shape[1]):
        r = len(pivots)
        if r == M.shape[0]:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        others = np.arange(len(M)) != r
        M[others] = (M[others] - np.outer(M[others, c], M[r])) % p
        pivots.append(c)
    return M, pivots


def null_vector(B, p):
    """A nonzero right kernel vector of B over F_p: its first free column set to 1."""
    M, pivots = rref_p(B, p)
    free = next(c for c in range(B.shape[1]) if c not in pivots)
    u = np.zeros(B.shape[1], dtype=np.int64)
    u[free] = 1
    u[pivots] = -M[: len(pivots), free] % p
    return u


def spin_dim(v, mats, p):
    """Dimension of the span of v and all its images under the dense mats."""
    pivots, rows = [], []

    def add(w):
        for piv, row in zip(pivots, rows):
            w = (w - w[piv] * row) % p
        nz = np.flatnonzero(w)
        if nz.size:
            pivots.append(nz[0])
            rows.append(w * pow(int(w[nz[0]]), -1, p) % p)

    add(np.asarray(v) % p)
    k = 0
    while k < len(rows) < len(v):
        for G in mats:
            add(G @ rows[k] % p)
        k += 1
    return len(rows)


def assert_invariant_witness(rep, witness):
    p, d = rep.p, rep.dim
    W = np.array(witness, dtype=np.int64) % p
    k = len(rref_p(W, p)[1])
    assert 0 < k < d
    images = [(G @ W.T).T % p for G in rep.generators.values()]
    assert len(rref_p(np.vstack([W, *images]), p)[1]) == k


def certified_operator(rep, verdict):
    """theta - c rebuilt from an irreducible verdict's certificate, checked to
    have nullity 1."""
    cert = verdict.certificate
    p, d = rep.p, rep.dim
    assert cert["method"] == "norton" and cert["nullity"] == 1
    assert cert["spin_dims"] == [d, d] and verdict.span_dim == d * d
    theta = np.zeros((d, d), dtype=np.int64)
    for coef, positions in cert["word"]:
        assert 1 <= coef < p and 1 <= len(positions) <= 2
        M = np.eye(d, dtype=np.int64)
        for pos in positions:
            M = M @ rep.generators[pos].toarray() % p
        theta = (theta + coef * M) % p
    A = (theta - cert["eigenvalue"] * np.eye(d, dtype=np.int64)) % p
    assert rank_mod_p(A, p) == d - 1
    return A


def assert_certificate_replays(rep, verdict):
    """Norton's criterion from the certificate: theta - c has nullity 1, and a
    null vector of it and one of its transpose spin to the whole module under
    the generators and their transposes."""
    p, d = rep.p, rep.dim
    A = certified_operator(rep, verdict)
    dense = [G.toarray() % p for G in rep.generators.values()]
    for B, mats in ((A, dense), (A.T, [G.T for G in dense])):
        u = null_vector(B, p)
        assert not np.any(B @ u % p)
        assert spin_dim(u, mats, p) == d


def a1_module(p, regular):
    L = build_chevalley(build_root_system("A", 1), p, allow_small=p < 7)
    chi = Character(L, {L.xpos(-E1): 1} if regular else {})
    return baby_verma(L, chi, {1: 0})


def test_trials_bound_every_dimension():
    rep = a1_module(5, True)
    assert is_irreducible(rep, trials=0).status == "inconclusive"
    assert is_irreducible(rep).status == "irreducible"


@pytest.mark.parametrize("p", [67, 101])
def test_norton_certifies_large_a1(p):
    rep = a1_module(p, True)
    verdict = is_irreducible(rep)
    assert verdict.status == "irreducible"
    assert_certificate_replays(rep, verdict)


def test_b2_p3_regular_character_irreducible():
    L = build_chevalley(build_root_system("B", 2), 3, allow_small=True)
    chi = Character(L, {L.xpos(-b): 1 for b in L.rs.base})
    rep = baby_verma(L, chi, {})
    verdict = is_irreducible(rep)
    assert verdict.status == "irreducible"
    assert_certificate_replays(rep, verdict)


def assert_invariant_by_projection(rep, witness):
    """assert_invariant_witness for witnesses too large to re-eliminate.  The
    witness W restricts to the identity on some k columns (true of a kernel
    basis and of reduced echelon rows), which proves rank W = k; an image x
    then lies in the span of W iff x = x[cols] @ W.  That product runs in
    float64, exact while p^2 * k < 2^53."""
    p = rep.p
    W = np.array(witness, dtype=np.int64) % p
    k, d = W.shape
    assert 0 < k < d and p * p * k < 2**53
    unit = np.flatnonzero((np.count_nonzero(W, axis=0) == 1) & (W.max(axis=0) == 1))
    owner, first = np.unique(np.argmax(W[:, unit], axis=0), return_index=True)
    assert owner.tolist() == list(range(k))  # W[:, cols] is the identity
    cols = unit[first]
    for G in rep.generators.values():
        X = (G @ W.T).T % p
        assert not ((X - (X[:, cols].astype(np.float64) @ W).astype(np.int64)) % p).any()


@pytest.mark.parametrize("chi_roots, witness_dim", [((), 624), ((Root((1, -1)),), 525)])
def test_b2_p5_dual_witness(chi_roots, witness_dim):
    L = build_chevalley(build_root_system("B", 2), 5, allow_small=True)
    rep = baby_verma(L, Character(L, {L.xpos(-r): 1 for r in chi_roots}), {})
    verdict = is_irreducible(rep)
    assert verdict.status == "submodule"
    assert verdict.certificate == {"method": "norton", "trial": 0, "dual": True, "witness_dim": witness_dim}
    assert len(verdict.witness) == witness_dim
    assert_invariant_by_projection(rep, verdict.witness)


def test_eigenvalues_of_a_proper_factor():
    # theta = (t^2 - 3) + Jordan block of 5 + (6) over F_7; t^2 - 3 has no
    # root mod 7, so v's minimal polynomial decides which roots come back
    p = 7
    theta = sp.csr_matrix(np.array([
        [0, 1, 0, 0, 0],
        [3, 0, 0, 0, 0],
        [0, 0, 5, 1, 0],
        [0, 0, 0, 5, 0],
        [0, 0, 0, 0, 6],
    ], dtype=np.int64))
    cases = [
        ([1, 2, 0, 0, 0], []),  # t^2 - 3
        ([1, 0, 0, 1, 0], [5]),  # (t^2 - 3)(t - 5)^2
        ([0, 0, 1, 0, 0], [5]),  # t - 5
        ([0, 0, 0, 1, 3], [5, 6]),  # (t - 5)^2 (t - 6)
    ]
    for v, roots in cases:
        assert _eigenvalues(theta, np.array(v, dtype=np.int64), p).tolist() == roots


def test_a1_verdicts_agree_over_seeds():
    for p in (31, 67):
        for regular in (True, False):
            rep = a1_module(p, regular)
            for seed in range(50):
                verdict = is_irreducible(rep, seed=seed)
                if regular:
                    assert verdict.status == "irreducible"
                    certified_operator(rep, verdict)
                else:
                    assert verdict.status == "submodule" and verdict.span_dim is None
                    assert verdict.certificate["witness_dim"] == len(verdict.witness)
                    assert_invariant_witness(rep, verdict.witness)


def test_norton_words_do_not_depend_on_seed():
    # the seed picks only the Krylov vector, so every seed tries the same theta
    for regular in (True, False):
        rep = a1_module(31, regular)
        certs = [is_irreducible(rep, seed=seed).certificate for seed in range(5)]
        assert all(cert == certs[0] for cert in certs)


# -- weight blocks and the graded spin ---------------------------------------


def coroot_labels(rep):
    """Each basis vector's tuple of coroot diagonals, one row per vector."""
    L = rep.algebra
    return np.array([rep.generators[L.hpos(i)].diagonal() % rep.p for i in range(1, L.l + 1)]).T


@pytest.mark.parametrize("family, rank, p, chi", [
    ("B", 2, 5, {(-1, 0): 1}),
    ("B", 2, 7, {(-1, 0): 1}),
    ("A", 2, 5, {(-1, 1, 0): 1}),
])
def test_generators_map_each_weight_block_into_the_block_their_weight_predicts(family, rank, p, chi):
    L, character = pinned_module(family, rank, p, chi)
    rep = baby_verma(L, character, {})
    labels = coroot_labels(rep)
    blocks, maps = _grading(rep)
    # p^l blocks of p^(m - l) vectors, each the vectors of one label
    assert len(blocks) == p**L.l and {idx.size for idx in blocks} == {rep.dim // p**L.l}
    assert len({tuple(labels[idx[0]]) for idx in blocks}) == len(blocks)
    assert all((labels[idx] == labels[idx[0]]).all() for idx in blocks)
    U = L.enveloping()
    expected = [[] for _ in blocks]
    block_of = {tuple(labels[idx[0]]): t for t, idx in enumerate(blocks)}
    for b in L.basis:
        G = rep.generators[b.position].tocsr()
        wt = Root(weight(U.gen(b.position)))
        shift = np.array([cartan_integer(wt, a) if any(wt.coords) else 0 for a in L.rs.base])
        if b.kind == "h":
            assert not shift.any()  # a coroot maps each block to itself
        rows, cols = G.nonzero()
        assert (labels[rows] == (labels[cols] + shift) % p).all()
        for s, idx in enumerate(blocks):
            t = block_of[tuple((labels[idx[0]] + shift) % p)]
            M = G[blocks[t]][:, idx].toarray() % p
            if M.any():
                expected[s].append((t, M))
    for pairs, want in zip(maps, expected):
        assert [t for t, _ in pairs] == [t for t, _ in want]
        assert all(np.array_equal(M, N) for (_, M), (_, N) in zip(pairs, want))


def trivial_grading(rep):
    return [np.arange(rep.dim)], [[(0, rep.generators[b.position]) for b in rep.algebra.basis]]


GRADED_SPIN_MODULES = [
    *[(("A", 1, p), {(-1,): 1} if regular else {}) for p in (5, 7, 31) for regular in (True, False)],
    (("B", 2, 3), {(-1, 1): 1, (0, -1): 1}),
    (("B", 2, 5), {(-1, 1): 1}),
]


@pytest.mark.parametrize("algebra, chi", GRADED_SPIN_MODULES)
def test_graded_spin_gives_the_trivial_gradings_rows(algebra, chi):
    L, character = pinned_module(*algebra, chi)
    rep = baby_verma(L, character, {})
    p, d = rep.p, rep.dim
    blocks, maps = _grading(rep)
    assert len(blocks) > 1
    whole, gens = trivial_grading(rep)
    rng = np.random.default_rng(d)
    vectors = [np.eye(d, dtype=np.int64)[k] for k in (0, 1, d // 2, d - 1)] + [rng.integers(0, p, d)]
    ranks = []
    for u in vectors:
        for graded, trivial in ((maps, gens), (_transposed(maps), _transposed(gens))):
            ech = _spin(u, blocks, graded, p)
            rows = ech.rows
            # reduced echelon rows by ascending pivot: the leading columns hold the identity
            pivots = np.argmax(rows != 0, axis=1)
            assert (np.diff(pivots) > 0).all() and np.array_equal(rows[:, pivots], np.eye(ech.rank))
            assert np.array_equal(rows, _spin(u, whole, trivial, p).rows)
            ranks.append(ech.rank)
    if not chi or algebra[0] == "B" and algebra[2] == 5:
        assert min(ranks) < d  # these modules are reducible, and some spin is proper


def test_grading_falls_back_when_a_coroot_is_not_diagonal():
    L, character = pinned_module("B", 2, 3, {(-1, 1): 1, (0, -1): 1})
    rep = baby_verma(L, character, {})
    p, d = rep.p, rep.dim
    # rho'(x) = P rho(x) P^-1 with P = I + E_01: an isomorphic module on
    # which the coroots of basis vectors 0 and 1 (different weights) mix
    E01 = sp.csr_matrix(([1], ([0], [1])), shape=(d, d), dtype=np.int64)
    P, P_inv = rep.identity() + E01, rep.identity() + (p - 1) * E01
    conj = dataclasses.replace(rep, generators={
        q: rep.matmul(rep.matmul(P, G), P_inv) for q, G in rep.generators.items()})
    assert rep_check_brackets(conj)
    assert any(conj.generators[L.hpos(i)][0, 1] % p for i in (1, 2))  # a coroot is not diagonal
    blocks, maps = _grading(conj)
    assert len(blocks) == 1 and np.array_equal(blocks[0], np.arange(d))
    assert [t for t, _ in maps[0]] == [0] * L.n
    assert all(M is conj.generators[b.position] for (_, M), b in zip(maps[0], L.basis))
    assert is_irreducible(conj).status == "irreducible"


def test_grading_falls_back_before_splitting_a_submodule_across_blocks():
    # M + M for the 5-dimensional A1 module M, in the basis e_k + e'_(k+1),
    # e_k - e'_(k+1) (e' the second copy, k mod 5): every generator maps
    # each pair into one pair, and the coroot's diagonal labels the pairs,
    # but rho(h) is not diagonal.  Weight blocks read off those labels would
    # split the diagonal submodule {(x, x)} across two pairs, so the spin of
    # (e_0, e'_0) must stay 5-dimensional
    rep = a1_module(5, True)
    p, d = 5, 10
    P = np.zeros((d, d), dtype=np.int64)
    for k in range(5):
        P[[k, 5 + (k + 1) % 5], 2 * k] = 1, 1
        P[[k, 5 + (k + 1) % 5], 2 * k + 1] = 1, p - 1
    P_inv = P.T * pow(2, -1, p) % p
    assert not (P_inv @ P % p - np.eye(d, dtype=np.int64)).any()
    twice = dataclasses.replace(rep, dim=d, generators={
        q: sp.csr_matrix(P_inv @ sp.block_diag([G, G]).toarray() @ P % p)
        for q, G in rep.generators.items()})
    assert rep_check_brackets(twice)
    labels = coroot_labels(twice)[:, 0]
    assert len(set(labels.tolist())) == 5  # one label per pair
    for G in twice.generators.values():
        rows, cols = G.nonzero()
        moves = set(zip(labels[cols].tolist(), labels[rows].tolist()))
        assert len(moves) == len({source for source, _ in moves})  # one target per label
    assert twice.generators[twice.algebra.hpos(1)].count_nonzero() > d
    blocks, maps = _grading(twice)
    assert len(blocks) == 1
    u = P_inv @ np.r_[1, 0, 0, 0, 0, 1, 0, 0, 0, 0] % p
    assert _spin(u, blocks, maps, p).rank == 5


@pytest.mark.parametrize("chi", [{(-1,): 1}, {}])  # irreducible, and a dual witness
def test_grading_is_built_once_per_module(monkeypatch, chi):
    import modlie.redenv as redenv

    L, character = pinned_module("A", 1, 67, chi)
    rep = baby_verma(L, character, {})
    built = []
    monkeypatch.setattr(redenv, "_grading", lambda rep: built.append(rep) or _grading(rep))
    first, second = is_irreducible(rep), is_irreducible(rep)
    assert len(built) == 1
    assert (first.status, first.certificate) == (second.status, second.certificate)
    assert first.status == ("irreducible" if chi else "submodule")
    assert np.array_equal(np.array(first.witness), np.array(second.witness))


def test_restricted_monomial_count_a1():
    # the reduced algebra's monomial basis has p^(dim L) elements, and reduce
    # lands inside it: spot-check by enumeration at rank one, p = 3
    L = build_chevalley(build_root_system("A", 1), 3, allow_small=True)
    p, n = 3, L.n
    monos = list(itertools.product(range(p), repeat=n))
    assert len(monos) == p**n == 27
    U = L.enveloping()
    chi = Character(L, {L.xpos(-E1): 1})
    rng = random.Random(4)
    for _ in range(20):
        exps = {i: rng.randrange(0, 2 * p) for i in range(n)}
        u = U.monomial(exps)
        r = reduce(u, chi)
        for mono in r.terms:
            assert all(e < p for _, e in mono)


def test_export_text_format(a1_p5):
    from modlie.redenv import export_text

    L = a1_p5
    chi = Character(L, {L.xpos(-E1): 1})
    rep = baby_verma(L, chi, {1: 0})
    text = export_text(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "dim 5 p 5"
    # every line reconstructs a generator entry
    seen = {}
    for line in lines[1:]:
        label, r, c, v = line.rsplit(" ", 3)
        seen.setdefault(label, []).append((int(r), int(c), int(v)))
    for b in L.basis:
        M = rep.generators[b.position].toarray() % 5
        rebuilt = np.zeros_like(M)
        for r, c, v in seen.get(b.label, []):
            rebuilt[r, c] = v
        assert np.array_equal(M, rebuilt)


# -- module straightening ---------------------------------------------------

# export_text SHA-256 of modules built by the U(L) straightening that the
# module recursion replaced; the new build must give the same bytes
PINNED_MODULES = [
    (("A", 1, 7), {(-1,): 2}, {1: 3}, "bbdaefbb9df986b267bbb4f6c0a2a2d45d99fda3409979429d6e70464ab71a65"),
    (("A", 2, 5), {(-1, 1, 0): 1}, {1: 2, 2: 0}, "a22f34450929dc6971b3fccb95cef38a028182bfcc37dc527629a76ae27cc62c"),
    (("A", 2, 5), {}, {1: 1, 2: 3}, "a4944e07d4b0d927ce9b350a76781fcd77736da743bd4bc0d829899d0d4c3977"),
    (("B", 2, 5), {(-1, 0): 1}, {1: 0, 2: 0}, "41cf306a3af6f365a43c5c561fd3ec76064d94a66414edb9155a03b61bfd9182"),
    (("B", 2, 7), {(-1, 0): 1}, {1: 0, 2: 0}, "65dbe9902a3f9ca68d530754705024c655a0f6c24a28095e17282e037a8ef930"),
    (("B", 2, 7), {(-1, 1): 1}, {1: 0, 2: 0}, "8e21c94e3dbaf21684d027fe50dd092659af741fee4160693570ab56f2781a8a"),
    (("C", 2, 5), {(0, -2): 1}, {1: 1, 2: 0}, "d9cb529a265bae9628131c9414247331be235cf140234c15f35eae7558b43387"),
    # 14641 columns, built under the default recursion limit
    (("B", 2, 11), {(-1, 0): 1}, {}, "053e8041ffef2d8634cfda484fed0c5407949a89d6f0f5ebbfebecbe54a203ec"),
]


def pinned_module(family, rank, p, chi):
    L = build_chevalley(build_root_system(family, rank), p, allow_small=True)
    return L, Character(L, {L.xpos(Root(r)): v for r, v in chi.items()})


@pytest.mark.parametrize("algebra, chi, lam, digest", PINNED_MODULES)
def test_baby_verma_bytes_pinned(algebra, chi, lam, digest):
    import hashlib

    from modlie.redenv import export_text

    L, character = pinned_module(*algebra, chi)
    rep = baby_verma(L, character, lam)
    assert hashlib.sha256(export_text(rep).encode()).hexdigest() == digest
    assert rep_check_brackets(rep)
    assert rep_check_restrictedness(rep)


def test_baby_verma_does_not_straighten_in_enveloping_algebra(monkeypatch):
    from modlie.pbw import EnvelopingAlgebra

    def forbidden(self, g, m):
        raise AssertionError("baby_verma straightened in U(L)")

    monkeypatch.setattr(EnvelopingAlgebra, "gen_into_mono", forbidden)
    L, character = pinned_module("B", 2, 5, {(-1, 0): 1})
    assert baby_verma(L, character, {}).dim == 625


def test_baby_verma_recursion_stays_shallow():
    import sys

    # the largest modules build with only 50 frames to spare above the caller
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        for family, rank, p in (("B", 2, 11), ("B", 3, 3)):
            L, character = pinned_module(family, rank, p, {})
            assert baby_verma(L, character, {}).dim == p**L.m
    finally:
        sys.setrecursionlimit(old)


# export_text SHA-256 of the largest modules that the block sweep replaced
# the module recursion on, recorded with the recursion
LARGE_MODULES = [
    (("B", 3, 3), {(-1, 0, 0): 1}, {}, "2f0f765afb1f60dcfe41f4faa237f8a5927e35c4d0c54f9367d0318ee6b75225"),
    (("B", 3, 3), {}, {1: 1, 2: 2}, "f67e1c13f9d1ce9116cda94eb32d6f90a053da630964b8bab39596639b85505c"),
    (("B", 2, 13), {(-1, 0): 1}, {}, "440377da8dadc2c0aab4fc9546b7a36ac69e724acdc62947d6edb766559bb82c"),
]


@pytest.mark.parametrize("algebra, chi, lam, digest", LARGE_MODULES)
def test_large_baby_verma_bytes_pinned(algebra, chi, lam, digest):
    import hashlib

    from modlie.redenv import export_text

    rep = baby_verma(*pinned_module(*algebra, chi), lam)
    assert hashlib.sha256(export_text(rep).encode()).hexdigest() == digest


def test_baby_verma_size_limit(monkeypatch):
    import modlie.redenv as redenv

    # the limit admits the largest modules the scripts and the benchmark build
    assert 3**9 <= redenv.MAX_MODULE_DIM and 11**4 <= redenv.MAX_MODULE_DIM < 7**9
    L, character = pinned_module("A", 2, 5, {(-1, 1, 0): 1})
    monkeypatch.setattr(redenv, "MAX_MODULE_DIM", 124)
    with pytest.raises(redenv.ModuleTooLarge, match=r"5\^3 exceeds the limit of 124") as exc:
        baby_verma(L, character, {})
    assert isinstance(exc.value, ValueError)
    monkeypatch.setattr(redenv, "MAX_MODULE_DIM", 125)
    assert baby_verma(L, character, {}).dim == 125


def test_baby_verma_size_limit_before_building():
    from modlie.redenv import ModuleTooLarge

    L = build_chevalley(build_root_system("B", 3), 7)
    with pytest.raises(ModuleTooLarge, match=r"7\^9"):
        baby_verma(L, Character(L, {}), {})


def test_irreducible_size_limit_before_allocating(monkeypatch):
    import modlie.redenv as redenv

    # the limit admits the 2401-dimensional B2 module at p = 7 that the suite
    # decides, and refuses B2 at p = 11, whose dense d x d arrays take 1.7 GB each
    assert 7**4 <= redenv.MAX_DENSE_DIM < 11**4
    L, character = pinned_module("A", 2, 5, {(-1, 1, 0): 1})
    rep = baby_verma(L, character, {})

    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be allocated above the limit")

    monkeypatch.setattr(redenv, "MAX_DENSE_DIM", 124)
    monkeypatch.setattr(redenv, "check_int64_sum", forbidden)
    monkeypatch.setattr(redenv.sp, "vstack", forbidden)
    with pytest.raises(redenv.ModuleTooLarge, match=r"dimension 125 exceeds the limit of 124"):
        redenv.is_irreducible(rep)
    monkeypatch.undo()
    monkeypatch.setattr(redenv, "MAX_DENSE_DIM", 125)
    assert redenv.is_irreducible(rep).status == "submodule"


# -- evaluate by shared suffix products ----------------------------------------


def suffix_sharing_element(U, rng, p):
    """A constant plus products of generator powers in basis order, each with
    its tail (the product without its first factor) beside it, so that
    reduced monomials share suffixes; an exponent of p or p + 1 makes reduce
    rewrite a factor."""
    u = U.scalar(rng.randrange(p))
    for _ in range(3):
        factors = [U.gen(g) ** rng.choice([1, 2, 3, p, p + 1]) for g in sorted(rng.sample(range(U.lie.n), 3))]
        tail = factors[1] * factors[2]
        u = u + rng.randrange(1, p) * (factors[0] * tail) + rng.randrange(1, p) * tail
    return u


def suffixes_of(mono):
    """mono and every shorter suffix of it, down to a single factor; a
    suffix drops one from the exponent of the first factor."""
    while mono:
        yield mono
        (pos, e), rest = mono[0], mono[1:]
        mono = ((pos, e - 1),) + rest if e > 1 else rest


def counting_matmul(monkeypatch, products):
    """Patch MatrixRep.matmul to record each product, asserting that neither
    factor is the identity."""
    matmul = MatrixRep.matmul

    def count(self, A, B):
        identity = self.identity()
        assert all(M.shape != identity.shape or (M != identity).nnz for M in (A, B))
        products.append((A, B))
        return matmul(self, A, B)

    monkeypatch.setattr(MatrixRep, "matmul", count)


@pytest.mark.parametrize("family, rank, p", [("A", 1, 7), ("A", 2, 5), ("B", 2, 7)])
def test_evaluate_forms_each_suffix_once_per_module(monkeypatch, family, rank, p):
    # the same canonical CSR arrays, with each suffix of a reduced monomial
    # formed once per module as a generator times a shorter suffix, never with I
    L = build_chevalley(build_root_system(family, rank), p, allow_small=True)
    rep = baby_verma(L, Character(L, {L.xpos(-L.rs.base[0]): 1}), {i: 0 for i in range(1, L.l + 1)})
    U = L.enveloping()
    rng = random.Random(f"suffix-{family}{rank}-{p}")
    products = []
    formed = set()  # suffixes already formed on rep
    shared = 0
    for u in [U.zero(), U.one()] + [suffix_sharing_element(U, rng, p) for _ in range(4)]:
        expected = sp.csr_matrix(chain_matrix(u, rep))
        counting_matmul(monkeypatch, products)
        products.clear()
        got = evaluate(u, rep)
        monkeypatch.undo()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_sorted_indices and got.shape == (rep.dim, rep.dim)
        new, chains = set(), 0
        for mono in reduce(u, rep.chi).terms:
            chains += mono_degree(mono) - 1 if mono else 0
            new.update(s for s in suffixes_of(mono) if s not in formed)
        assert len(products) == sum(1 for mono in new if mono_degree(mono) > 1)
        formed |= new
        shared += chains - len(products)
    assert shared > 0  # some monomials reused a suffix formed for another


def test_casimir_scan_forms_each_suffix_once_per_module(monkeypatch, b2_p7):
    # the shifted-Casimir scan over c in F_7 for both case roots reads every
    # monomial's matrix from the module, so c changes only the identity term
    # and a second scan forms nothing
    L = b2_p7
    rep = baby_verma(L, Character(L, {L.xpos(Root((-1, 0))): 1}), {1: 0, 2: 0})
    U = L.enveloping()
    casimirs = []
    for alpha in (Root((1, 0)), Root((1, -1))):
        e, h, f = (U.from_lie(x) for x in L.sl2_triple(alpha))
        casimirs.append((h + 1) ** 2 + 4 * f * e)
    suffixes = {s for w in casimirs for c in range(7) for mono in reduce(w + c, rep.chi).terms
                for s in suffixes_of(mono) if mono_degree(s) > 1}
    products = []
    counting_matmul(monkeypatch, products)
    for expected in (len(suffixes), 0):
        products.clear()
        singular = [[c for c in range(7) if not invertible_in_rep(w + c, rep)] for w in casimirs]
        assert singular == [[0, 3, 5, 6]] * 2
        assert len(products) == expected
    # singular_constants sums each Casimir once (_split), from the warm memo
    import modlie.redenv as redenv

    split, summed = redenv._split, []
    monkeypatch.setattr(redenv, "_split", lambda u, rep: summed.append(u) or split(u, rep))
    products.clear()
    assert [singular_constants(w, rep) for w in casimirs] == [[0, 3, 5, 6]] * 2
    assert len(products) == 0 and summed == casimirs


def test_repeat_irreducibility_test_forms_no_product(monkeypatch):
    # theta is the matrix of its word's element of U(L) from evaluate, so
    # trial 0's products go into the module's memo and a second test on the
    # same module forms none
    rep = a1_module(7, True)
    products = []
    counting_matmul(monkeypatch, products)
    first = is_irreducible(rep)
    assert first.certificate["trial"] == 0
    assert first.certificate["word"] == [[4, [0, 1]], [5, [1, 1]], [4, [2, 0]]]
    products.clear()
    second = is_irreducible(rep)
    assert len(products) == 0
    assert second.certificate == first.certificate


def test_invertible_in_rep_refuses_a_large_component_before_densifying(monkeypatch):
    import modlie.redenv as redenv

    # chi(f) = 1 makes rho(f) on the 7-dimensional A1 module one 7-cycle: a
    # core of one component, invertible as a permutation matrix
    L = build_chevalley(build_root_system("A", 1), 7)
    rep = baby_verma(L, Character(L, {L.xpos(-E1): 1}), {1: 0})
    f = L.enveloping().gen(L.xpos(-E1))
    assert connected_components(evaluate(f, rep), directed=True, connection="strong")[0] == 1

    def forbidden(*args, **kwargs):
        raise AssertionError("no block may be made dense above the limit")

    monkeypatch.setattr(redenv, "MAX_DENSE_DIM", 6)
    monkeypatch.setattr(redenv, "rank_mod_p", forbidden)
    monkeypatch.setattr(sp.csr_matrix, "toarray", forbidden)
    with pytest.raises(redenv.ModuleTooLarge, match=r"dimension 7 exceeds the limit of 6"):
        invertible_in_rep(f, rep)
    # no c is singular on a trimmed vertex, so the scan ranks the same block
    with pytest.raises(redenv.ModuleTooLarge, match=r"dimension 7 exceeds the limit of 6"):
        singular_constants(f, rep)
    monkeypatch.undo()
    monkeypatch.setattr(redenv, "MAX_DENSE_DIM", 7)
    assert invertible_in_rep(f, rep)
    # rho(f)^7 = chi(f)^7 = 1, so rho(f) + c is singular only at -c = 1
    assert singular_constants(f, rep) == [c for c in range(7) if not invertible_in_rep(f + c, rep)] == [6]


def test_invertibility_of_a_long_cycle_needs_no_recursion(monkeypatch):
    import modlie.redenv as redenv

    # chi(f) = 1 makes rho(f) on the 1009-dimensional A1 module one 1009-cycle:
    # trimming deletes no vertex, and the core is one component
    L = build_chevalley(build_root_system("A", 1), 1009)
    rep = baby_verma(L, Character(L, {L.xpos(-E1): 1}), {1: 0})
    f = L.enveloping().gen(L.xpos(-E1))

    def forbidden(*args, **kwargs):
        raise AssertionError("no block may be made dense above the limit")

    monkeypatch.setattr(redenv, "MAX_DENSE_DIM", 1008)
    monkeypatch.setattr(redenv, "rank_mod_p", forbidden)
    monkeypatch.setattr(sp.csr_matrix, "toarray", forbidden)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        with pytest.raises(redenv.ModuleTooLarge, match=r"dimension 1009 exceeds the limit of 1008"):
            invertible_in_rep(f, rep)
    finally:
        sys.setrecursionlimit(limit)


def test_case_i_body_cores_split_into_weight_blocks(b2_rep7):
    # the case-I -e1+e2 and -e1-e2 bodies, signs (+, +) as check_lee_conditions
    # picks them, have weight zero: each trimmed core splits into components
    # inside weight blocks of at most p^(m - l) = 49 vertices
    rep = b2_rep7
    L = rep.algebra
    bodies = {spec.target.label: spec.body for spec in build_case_I(L)}
    weights = np.stack([rep.generators[L.hpos(i)].diagonal() for i in (1, 2)])
    for label in ("-e1+e2", "-e1-e2"):
        A = evaluate(to_ue(bodies[label], L.enveloping(), signs={1: 1, 2: 1}, c_value=0), rep)
        core, src, dst = full_trim(A)
        labels = _components(src, dst, rep.dim)[core]
        sizes = np.bincount(labels)
        assert (core.size, np.count_nonzero(sizes), sizes.max()) == (2305, 117, 37)
        # each vertex has the weights of its component's least vertex
        assert np.array_equal(weights[:, core], weights[:, labels])


def test_trimmed_vertices_decide_the_scan_without_a_rank(monkeypatch, b2_rep7):
    # the case-I -e1+e2 body, signs (+, +), keeps a core of 2305 vertices,
    # but its trimmed vertices already make every c in F_7 singular, and the
    # case-I shifted Casimir has a trimmed vertex with a zero diagonal entry:
    # both scans stop in the trim, so no block is made dense or ranked
    import modlie.redenv as redenv

    rep = b2_rep7
    L = rep.algebra
    U = L.enveloping()
    body = next(spec.body for spec in build_case_I(L) if spec.target.label == "-e1+e2")
    e, h, f = (U.from_lie(x) for x in L.sl2_triple(case_alpha(L, "I")))

    def forbidden(*args, **kwargs):
        raise AssertionError("the trimmed vertices decide every c of the scan")

    monkeypatch.setattr(redenv, "_dense_blocks", forbidden)
    monkeypatch.setattr(redenv, "rank_mod_p", forbidden)
    assert singular_constants(to_ue(body, U, signs={1: 1, 2: 1}, c_value=0), rep) == list(range(7))
    assert not invertible_in_rep((h + 1) ** 2 + 4 * f * e, rep)


@pytest.mark.parametrize("p, expected", [(7, [0, 3, 5, 6]), (11, [0, 2, 6, 7, 8, 10])])
def test_singular_constants_match_the_per_c_loop_on_b2(p, expected, b2_rs):
    # both shifted Casimirs and every Add body of cases I and II, signs as
    # check_lee_conditions picks them, on the module with chi(x(-e1)) = 1 and
    # lambda = 0: case-I -e1 and case-II -e1+e2 share the Casimirs' set, and
    # every other body is singular at every c on a trimmed vertex
    L = build_chevalley(b2_rs, p)
    rep = baby_verma(L, Character(L, {L.xpos(Root((-1, 0))): 1}), {1: 0, 2: 0})
    U = L.enveloping()
    elements = {}
    for case, build in (("I", build_case_I), ("II", build_case_II)):
        e, h, f = (U.from_lie(x) for x in L.sl2_triple(case_alpha(L, case)))
        elements[f"Casimir {case}"] = (h + 1) ** 2 + 4 * f * e
        for spec in build(L):
            if spec.status == "ok" and isinstance(spec.body, Add):
                res = solve_signs(spec, L)
                signs = res.solved[0] if res.solved else (1,) * spec.sign_slots
                elements[f"{case} {spec.target.label}"] = to_ue(spec.body, U, signs=dict(enumerate(signs, 1)), c_value=0)
    got = {name: singular_constants(w, rep) for name, w in elements.items()}
    assert got == {name: [c for c in range(p) if not invertible_in_rep(w + c, rep)] for name, w in elements.items()}
    shared = ("Casimir I", "Casimir II", "I -e1", "II -e1+e2")
    assert got == {name: expected if name in shared else list(range(p)) for name in elements}
    assert len(elements) == 8


def test_b2_casimir_scan_loads_neither_csgraph_nor_scipy_linalg():
    # trimming alone decides every shifted Casimir of the 2401-dimensional
    # module; scipy.sparse.csgraph (which loads scipy.linalg) costs about 11 MB
    script = textwrap.dedent(
        """
        import json, sys
        import modlie
        from modlie.chevalley import build_chevalley
        from modlie.leebasis import case_alpha
        from modlie.redenv import Character, baby_verma, invertible_in_rep, singular_constants
        from modlie.roots import build_root_system

        L = build_chevalley(build_root_system("B", 2), 7)
        rep = baby_verma(L, Character(L, {L.xpos(-case_alpha(L, "I")): 1}), {1: 0, 2: 0})
        U = L.enveloping()
        singular = {}
        for case in ("I", "II"):
            e, h, f = (U.from_lie(x) for x in L.sl2_triple(case_alpha(L, case)))
            w = (h + 1) ** 2 + 4 * f * e
            singular[case] = [c for c in range(7) if not invertible_in_rep(w + c, rep)]
            singular["scan " + case] = singular_constants(w, rep)
        loaded = [name for name in ("scipy.sparse.csgraph", "scipy.linalg") if name in sys.modules]
        print(json.dumps({"singular": singular, "loaded": loaded}))
        """
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["singular"] == {name: [0, 3, 5, 6] for name in ("I", "II", "scan I", "scan II")}
    assert out["loaded"] == []


def sparse_sum_reference(u, rep):
    """rho(u) as one sparse addition of c rho(m) per reduced monomial m, each
    rho(m) a chain of sparse generator products: no diagonal split, no memo."""
    total = sp.csr_matrix((rep.dim, rep.dim), dtype=np.int64)
    for mono, c in reduce(u, rep.chi).terms.items():
        M = rep.identity()
        for pos, e in mono:
            for _ in range(e):
                M = (M @ rep.generators[pos]).tocsr()
                M.data %= rep.p
        total = total + c * M
    total.data %= rep.p
    total.eliminate_zeros()
    total.sum_duplicates()
    return total


def split_elements(U, rng, p):
    """Pure-coroot, constant-only, zero and mixed elements of U(L)."""
    L = U.lie
    hs = [U.gen(L.hpos(i)) for i in range(1, L.l + 1)]
    gens = [U.gen(g) for g in range(L.n)]
    coroots = U.zero()
    for _ in range(3):
        coroots = coroots + rng.randrange(1, p) * rng.choice(hs) ** rng.randrange(1, p + 2) * rng.choice(hs)
    e, h, f = (U.from_lie(x) for x in L.sl2_triple(L.rs.base[0]))
    mixed = (h + 1) ** 2 + 4 * f * e + rng.randrange(p) + rng.randrange(1, p) * hs[-1]
    for _ in range(3):
        a, b = sorted(rng.sample(range(L.n), 2))
        mixed = mixed + rng.randrange(1, p) * gens[a] ** rng.choice([1, 2, p]) * gens[b]
    return [coroots, coroots + rng.randrange(1, p), U.scalar(rng.randrange(1, p)), U.zero(), mixed]


@pytest.mark.parametrize("family, rank, p", [("A", 1, 7), ("A", 2, 5), ("B", 2, 5), ("C", 2, 5)])
def test_evaluate_sums_diagonal_terms_as_one_vector(family, rank, p):
    L = build_chevalley(build_root_system(family, rank), p, allow_small=True)
    rep = baby_verma(L, Character(L, {L.xpos(-L.rs.base[0]): 1}), {i: 0 for i in range(1, L.l + 1)})
    # a hand-made module whose rho(h_1) is not diagonal: rho(h_1) + rho(x(alpha_1)),
    # so no term may be taken as diagonal for being a coroot monomial
    h1 = L.hpos(1)
    bent = rep.generators[h1] + rep.generators[L.xpos(L.rs.base[0])]
    bent.data %= p
    hand_made = dataclasses.replace(rep, generators={**rep.generators, h1: bent})
    U = L.enveloping()
    rng = random.Random(f"split-{family}{rank}-{p}")
    for module in (rep, hand_made):
        for u in split_elements(U, rng, p) + split_elements(U, rng, p):
            got, expected = evaluate(u, module), sparse_sum_reference(u, module)
            assert type(got) is type(expected) and got.shape == expected.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.data.dtype == np.int64 and got.has_sorted_indices
            assert ((got.data > 0) & (got.data < p)).all()


def test_diagonal_is_decided_once_per_memo_entry(monkeypatch, b2_p7):
    # a memo entry records its matrix's diagonal when it is made, so the
    # shifted-Casimir scans look at no matrix's diagonal twice, and a second
    # pair of scans at none
    import modlie.redenv as redenv

    L = b2_p7
    rep = baby_verma(L, Character(L, {L.xpos(Root((-1, 0))): 1}), {1: 0, 2: 0})
    U = L.enveloping()
    casimirs = []
    for alpha in (Root((1, 0)), Root((1, -1))):
        e, h, f = (U.from_lie(x) for x in L.sl2_triple(alpha))
        casimirs.append((h + 1) ** 2 + 4 * f * e)
    calls = []
    diagonal = redenv._diagonal
    monkeypatch.setattr(redenv, "_diagonal", lambda M: calls.append(M) or diagonal(M))
    for first in (True, False):
        calls.clear()
        entries = len(rep._memo)
        singular = [[c for c in range(7) if not invertible_in_rep(w + c, rep)] for w in casimirs]
        assert singular == [[0, 3, 5, 6]] * 2
        made = len(rep._memo) - entries
        if first:
            assert 0 < made and len(calls) <= made
        else:
            assert made == 0 and calls == []


@pytest.mark.parametrize("family, rank, p", [("A", 1, 7), ("A", 2, 5), ("B", 2, 5), ("C", 2, 5)])
def test_scans_without_diagonal_terms_match_dense_rank(monkeypatch, family, rank, p):
    # the module and the hand-made one of
    # test_evaluate_sums_diagonal_terms_as_one_vector, whose rho(h_1) is not
    # diagonal, and the elements drawn there: on the module the coroot,
    # constant and zero elements leave S empty; on the hand-made one coroot
    # terms land in S, and the core's blocks are built from S and the diagonal
    import modlie.redenv as redenv

    L = build_chevalley(build_root_system(family, rank), p, allow_small=True)
    rep = baby_verma(L, Character(L, {L.xpos(-L.rs.base[0]): 1}), {i: 0 for i in range(1, L.l + 1)})
    h1 = L.hpos(1)
    bent = rep.generators[h1] + rep.generators[L.xpos(L.rs.base[0])]
    bent.data %= p
    hand_made = dataclasses.replace(rep, generators={**rep.generators, h1: bent})
    ranked = []
    monkeypatch.setattr(redenv, "rank_mod_p", lambda B, p: ranked.append(len(B)) or rank_mod_p(B, p))
    U = L.enveloping()
    rng = random.Random(f"split-{family}{rank}-{p}")
    eye = np.eye(rep.dim, dtype=np.int64)
    for u in [u for _ in range(4) for u in split_elements(U, rng, p)]:
        for module in (rep, hand_made):
            A = evaluate(u, module).toarray()
            expected = [c for c in range(p) if rank_mod_p((A + c * eye) % p, p) < module.dim]
            assert [c for c in range(p) if not invertible_in_rep(u + c, module)] == expected
            assert singular_constants(u, module) == expected
    assert ranked  # some trim left a non-empty core
