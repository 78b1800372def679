import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest
import scipy.sparse as sp

from modlie.chevalley import bracket, build_chevalley
from modlie.expr import Add, Const, Mul, SignSlot, XAtom
from modlie.leebasis import (
    ArityMismatch,
    ExhaustedField,
    UnsolvedSpec,
    assemble,
    build_case_I,
    build_case_II,
    case_alpha,
    expand_spec,
    gen_Bi,
    pairwise_distinct_normal_forms,
    sl2_pair_specs,
    solve_signs,
    solved_candidate,
    verification_report,
    verify_independence_truncated,
)
from modlie.linalg import kernel_mod_p, rank_mod_p
from modlie.pbw import commutator, multiply, weight
from modlie.redenv import Character, MatrixRep, ModuleTooLarge, baby_verma, evaluate
from modlie.roots import Root, build_root_system, cartan_integer


E1B2, E2B2 = Root((1, 0)), Root((0, 1))


@pytest.fixture(scope="module")
def case1_b2(b2_p7):
    specs = build_case_I(b2_p7)
    return specs, [solve_signs(s, b2_p7) for s in specs]


@pytest.fixture(scope="module")
def case2_b2(b2_p7):
    specs = build_case_II(b2_p7)
    return specs, [solve_signs(s, b2_p7) for s in specs]


def test_case1_b2_slot_layout(case1_b2):
    specs, _ = case1_b2
    assert [s.target.label for s in specs] == [
        "+e1", "-e1", "+e1-e2", "-e1+e2", "+e2", "-e2", "-e1-e2", "+e1+e2",
    ]
    status = {s.target.label: s.status for s in specs}
    assert status["+e2"] == "impossible_for_rank"
    assert status["-e2"] == "impossible_for_rank"
    assert sum(1 for s in specs if s.status == "ok") == 6


def test_case1_b2_verdicts(case1_b2):
    specs, results = case1_b2
    verdicts = {s.target.label: r.status for s, r in zip(specs, results)}
    assert verdicts["+e1"] == "solved"
    assert verdicts["-e1"] == "solved"  # shifted Casimir commutes identically
    assert verdicts["+e1-e2"] == "solved"
    assert verdicts["+e1+e2"] == "solved"
    # the printed two-slot formulas pair a unit constant against a two, so no
    # +-1 assignment can cancel; the engine must report this, not hide it
    assert verdicts["-e1+e2"] == "nosolution"
    assert verdicts["-e1-e2"] == "nosolution"


def test_case2_b2_all_solved(case2_b2):
    specs, results = case2_b2
    assert all(s.status == "ok" for s in specs)
    assert all(r.status == "solved" for r in results)
    assert [s.target.label for s in specs] == [
        "+e1-e2", "-e1+e2", "+e2", "-e2", "-e1-e2", "-e1", "+e1", "+e1+e2",
    ]


def test_case2_b2_solved_signs_match_structure_constants(b2_p7, case2_b2):
    # for A(e2) = x(e1)(c + x(e2)x(-e2) + s x(e1)x(-e1)) the commutator
    # collapses to (N1 + s N2) x(e1)^2 x(-e2), so the solving sign must be
    # s = -N1/N2 with N1 = N[alpha, e2], N2 = N[alpha, -e1]
    L = b2_p7
    specs, results = case2_b2
    alpha = case_alpha(L, "II")
    n1 = L.N[(alpha, E2B2)]
    n2 = L.N[(alpha, -E1B2)]
    expected = 1 if (n1 + n2) % L.p == 0 else -1
    spec = next(s for s in specs if s.target == E2B2)
    res = next(r for r in results if r.spec is spec)
    assert res.solved == [(expected,)]


def test_case1_b3_full_coverage(b3_p7):
    specs = build_case_I(b3_p7)
    assert len(specs) == 18
    assert all(s.status == "ok" for s in specs)
    solved = [s.target.label for s in specs if solve_signs(s, b3_p7).status == "solved"]
    assert len(solved) == 10


def test_case2_b3_all_solved(b3_p7):
    specs = build_case_II(b3_p7)
    assert len(specs) == 18
    results = [solve_signs(s, b3_p7) for s in specs]
    assert all(r.status == "solved" for r in results)


def test_case1_b3_variant_bank_reported(b3_p7):
    specs = build_case_I(b3_p7)
    with_variants = [s for s in specs if s.variants]
    assert {s.target.label for s in with_variants} == {"-e1+e3", "-e1-e3"}
    for s in with_variants:
        res = solve_signs(s, b3_p7)
        assert set(res.variant_solutions) == {v.label for v in s.variants}


def test_solve_signs_c_stability(b2_p7, case1_b2, case2_b2):
    for specs, results in (case1_b2, case2_b2):
        for s, r in zip(specs, results):
            r2 = solve_signs(s, b2_p7, c_value=1)
            assert r.status == r2.status
            assert r.solved == r2.solved


def test_expanded_elements_weight_homogeneous(b2_p7, case2_b2):
    # every expanded A is weight homogeneous; a nonzero commutator has weight
    # alpha + weight(A)
    L = b2_p7
    alpha = case_alpha(L, "II")
    specs, results = case2_b2
    for s, r in zip(specs, results):
        for a in r.assignments:
            u = expand_spec(s, L, a.signs, 0)
            wu = weight(u - L.enveloping().scalar(0))
            assert wu is not None
            if a.residue is not None:
                wr = weight(a.residue)
                assert wr == tuple(x + y for x, y in zip(alpha.coords, wu))


def test_nosolution_residues_nonzero_in_rep(b2_p7, b2_rep7, case1_b2):
    specs, results = case1_b2
    checked = 0
    for s, r in zip(specs, results):
        if r.status != "nosolution":
            continue
        for a in r.assignments:
            assert a.residue is not None
            M = evaluate(a.residue, b2_rep7)
            assert not b2_rep7.is_zero_matrix(M)
            checked += 1
    assert checked > 0


def test_solved_assignments_vanish_in_rep(b2_p7, b2_rep7, case2_b2):
    L = b2_p7
    alpha = case_alpha(L, "II")
    xa = L.enveloping().from_lie(L.x(alpha))
    Xa = evaluate(xa, b2_rep7)
    specs, results = case2_b2
    for s, r in zip(specs, results):
        u = r.element(L)
        A = evaluate(u, b2_rep7)
        comm = b2_rep7.matmul(Xa, A) - b2_rep7.matmul(A, Xa)
        assert b2_rep7.is_zero_matrix(comm.tocsr())


def test_sl2_pair_specs(a1_p5):
    specs = sl2_pair_specs(a1_p5, Root((1,)))
    results = [solve_signs(s, a1_p5) for s in specs]
    assert [r.status for r in results] == ["solved", "solved"]


# -- coefficient families ----------------------------------------------------


def test_gen_bi_b2_p11(b2_p11):
    L = b2_p11
    for alpha in (E1B2, E1B2 - E2B2):
        fam = gen_Bi(L, alpha, seed=0)
        assert len(fam.vectors) == 8
        import itertools as it

        import numpy as np

        from modlie.linalg import rank_mod_p

        for i, j in it.combinations(range(8), 2):
            M = np.array([fam.vectors[i], fam.vectors[j]], dtype=np.int64)
            assert rank_mod_p(M, 11) == 2
        for B in fam.elements:
            xa = L.x(alpha)
            lhs = bracket(xa, B)
            pairing = sum(
                c * cartan_integer(alpha, L.rs.base[L.basis[k].coroot - 1])
                for k, c in B.coeffs.items()
            )
            assert lhs == (-pairing) * xa
            assert pairing % 11 != 0


def test_gen_bi_rank_one(a1_p5):
    fam = gen_Bi(a1_p5, Root((1,)), count=2)
    assert len(fam.vectors) == 2
    assert all(v != (0,) for v in fam.vectors)


def test_gen_bi_exhausted_at_small_p(b2_p7):
    with pytest.raises(ExhaustedField):
        gen_Bi(b2_p7, E1B2, count=8)


def test_gen_bi_random_fallback():
    # six moment-curve vectors pair nonzero with e1 - e2 at p = 7, and the
    # point at infinity (0, 1) is the seventh direction: the family is read
    # off that list, without the seeded random search
    import itertools as it

    import numpy as np

    from modlie.linalg import rank_mod_p

    L = build_chevalley(build_root_system("B", 2), 7)
    fam = gen_Bi(L, E1B2 - E2B2, seed=3, count=7)
    assert len(fam.vectors) == 7
    assert fam.params is None
    for i, j in it.combinations(range(7), 2):
        M = np.array([fam.vectors[i], fam.vectors[j]], dtype=np.int64)
        assert rank_mod_p(M, 7) == 2


# -- assembly and independence ------------------------------------------------


@pytest.fixture(scope="module")
def partial_candidate(b2_p7, case1_b2):
    specs, results = case1_b2
    solved = [(s, r) for s, r in zip(specs, results) if r.status == "solved"]
    bi = gen_Bi(b2_p7, E1B2, seed=0, count=len(solved))
    return assemble([s for s, _ in solved], bi, [r.solved[0] for _, r in solved])


def test_solved_candidate_holds_each_slot_at_its_c(b2_p7, case1_b2):
    # the independence command's candidate at --c 3
    specs, results = case1_b2
    solved = [(s, r.solved[0]) for s, r in zip(specs, (r.at_c(3) for r in results)) if r.status == "solved"]
    cand, at_zero = solved_candidate(b2_p7, "I", c_value=3), solved_candidate(b2_p7, "I")
    assert cand.targets == [s.target for s, _ in solved]
    assert [A for _, A in cand.pairs] == [expand_spec(s, b2_p7, signs, c_value=3) for s, signs in solved]
    assert [A for _, A in cand.pairs] != [A for _, A in at_zero.pairs]
    assert [B for B, _ in cand.pairs] == [B for B, _ in at_zero.pairs]


def test_tuples_with_bound_are_the_ascending_tuples_of_small_sum(partial_candidate):
    p, k = partial_candidate.p, partial_candidate.size
    every = list(itertools.product(range(p), repeat=k))
    for bound in range(-1, k * (p - 1) + 2):
        want = [tup for tup in every if sum(tup) <= bound]
        assert partial_candidate.tuples_with_bound(bound) == want
        assert partial_candidate.tuple_count(bound) == len(want)


def test_assemble_partial_candidate(partial_candidate):
    cand = partial_candidate
    assert cand.size == 4
    assert cand.partial
    assert cand.total_tuples == 7**4


def test_assemble_identity_element(partial_candidate):
    cand = partial_candidate
    one = cand.element((0,) * cand.size)
    assert one == cand.algebra.enveloping().one()


def test_assemble_single_factor(b2_p7, partial_candidate):
    cand = partial_candidate
    got = cand.element((1,) + (0,) * (cand.size - 1))
    B, A = cand.pairs[0]
    assert got == b2_p7.enveloping().from_lie(B) + A


def test_assemble_arity_mismatch(b2_p7, case1_b2):
    specs, results = case1_b2
    solved = [(s, r) for s, r in zip(specs, results) if r.status == "solved"]
    bi = gen_Bi(b2_p7, E1B2, seed=0, count=2)
    with pytest.raises(ArityMismatch):
        assemble([s for s, _ in solved], bi, [r.solved[0] for _, r in solved])


def test_assemble_rejects_noncommuting_signs(b2_p7, case1_b2):
    specs, results = case1_b2
    bad = next(s for s, r in zip(specs, results) if r.status == "nosolution")
    bi = gen_Bi(b2_p7, E1B2, seed=0, count=1)
    with pytest.raises(UnsolvedSpec):
        assemble([bad], bi, [(1, 1)])


def test_distinct_normal_forms(partial_candidate):
    assert pairwise_distinct_normal_forms(partial_candidate, 2)


def test_independence_bound_zero(partial_candidate, b2_rep7):
    rpt = verify_independence_truncated(partial_candidate, b2_rep7, 0)
    assert (rpt.count, rpt.rank) == (1, 1)


def test_independence_bound_one_permutation_invariant(partial_candidate, b2_rep7):
    rpt = verify_independence_truncated(partial_candidate, b2_rep7, 1)
    assert rpt.count == 1 + partial_candidate.size
    tuples = list(reversed(rpt.tuples))
    rpt2 = verify_independence_truncated(partial_candidate, b2_rep7, 1, order=tuples)
    assert rpt.rank == rpt2.rank


def test_independence_bound_two_full_rank(partial_candidate, b2_rep7):
    rpt = verify_independence_truncated(partial_candidate, b2_rep7, 2)
    assert rpt.count == 15  # 1 + 4 + (4 squares + 6 mixed)
    assert rpt.rank == 15
    assert not rpt.witnesses


def test_dependencies_get_witnesses(partial_candidate, b2_rep7):
    # a repeated tuple would depend on its earlier copy with the empty witness
    # {}, which names nothing, so an order that repeats one is refused; the
    # witnesses of real dependencies are pinned on the zero module below
    tuples = partial_candidate.tuples_with_bound(1)
    with pytest.raises(ValueError, match="repeats an exponent tuple"):
        verify_independence_truncated(partial_candidate, b2_rep7, 1, order=tuples + [tuples[-1]])


@pytest.fixture
def zero_rep(b2_p7):
    """B2 at p = 7 on a 1-dim space where every generator acts by 0, with a
    fresh product memo for each test."""
    return MatrixRep(
        algebra=b2_p7,
        p=7,
        dim=1,
        neg_positions=(),
        generators={b.position: sp.csr_matrix((1, 1), dtype=np.int64) for b in b2_p7.basis},
        chi=Character(b2_p7, {}),
        lam={},
    )


def test_zero_rep_dependencies_pinned(zero_rep, partial_candidate):
    # every generator acts by 0 on a 1-dim space, so each element evaluates
    # to its constant term: the identity spans, and 14 of 15 tuples depend
    rpt = verify_independence_truncated(partial_candidate, zero_rep, 2)
    assert (rpt.count, rpt.rank) == (15, 1)
    assert rpt.witnesses == [
        {(0, 0, 0, 1): 1},
        {(0, 0, 0, 2): 1},
        {(0, 0, 1, 0): 1},
        {(0, 0, 1, 1): 1},
        {(0, 0, 2, 0): 1},
        {(0, 1, 0, 0): 1, (0, 0, 0, 0): 6},
        {(0, 1, 0, 1): 1},
        {(0, 1, 1, 0): 1},
        {(0, 2, 0, 0): 1, (0, 0, 0, 0): 6},
        {(1, 0, 0, 0): 1},
        {(1, 0, 0, 1): 1},
        {(1, 0, 1, 0): 1},
        {(1, 1, 0, 0): 1},
        {(2, 0, 0, 0): 1},
    ]
    for combo in rpt.witnesses:
        total = sum(c * evaluate(partial_candidate.element(t), zero_rep) for t, c in combo.items())
        assert not (total.toarray() % 7).any()


def exact_independence(cand, rep, tuples):
    """Rank and dependencies of the evaluated tuples by exact elimination of
    their flattened matrices, restricted to the cells any of them fills."""
    S = sp.vstack([evaluate(cand.element(t), rep).reshape(1, -1) for t in tuples]).tocsc()
    S = S[:, np.unique(S.tocoo().col)].toarray()
    kernel = kernel_mod_p(S.T, cand.p)
    return len(tuples) - len(kernel), kernel


@pytest.mark.parametrize("bound, shuffled", [(1, False), (2, False), (2, True)])
def test_independence_matches_exact_reference(partial_candidate, b2_rep7, bound, shuffled):
    tuples = partial_candidate.tuples_with_bound(bound)
    if shuffled:
        random.Random(bound).shuffle(tuples)
    rank, kernel = exact_independence(partial_candidate, b2_rep7, tuples)
    assert rank == len(tuples) and kernel == []
    rpt = verify_independence_truncated(partial_candidate, b2_rep7, bound, order=tuples)
    assert (rpt.count, rpt.rank, rpt.tuples, rpt.witnesses) == (len(tuples), rank, tuples, [])


def recording_evaluate(monkeypatch):
    """Patch redenv.evaluate to record the elements it is called with."""
    import modlie.redenv

    calls = []
    original = modlie.redenv.evaluate

    def recording(u, rep):
        calls.append(u)
        return original(u, rep)

    monkeypatch.setattr("modlie.redenv.evaluate", recording)
    return calls


def test_full_rank_projection_forms_no_product_or_matrix(monkeypatch, partial_candidate, b2_rep7):
    def forbidden(*args, **kwargs):
        raise AssertionError("the full-rank path must not form a product or a matrix")

    monkeypatch.setattr("modlie.leebasis.LeeCandidate.element", forbidden)
    evaluated = recording_evaluate(monkeypatch)
    rpt = verify_independence_truncated(partial_candidate, b2_rep7, 2)
    assert (rpt.count, rpt.rank, rpt.witnesses) == (15, 15, [])
    assert evaluated == [partial_candidate.factor_element(j) for j in range(partial_candidate.size)]


def test_projection_images_are_the_element_images(monkeypatch, partial_candidate, b2_rep7):
    import modlie.linalg

    ranked = []
    original = modlie.linalg.rank_mod_p

    def recording(A, p):
        ranked.append(np.array(A))
        return original(A, p)

    monkeypatch.setattr("modlie.linalg.rank_mod_p", recording)
    tuples = partial_candidate.tuples_with_bound(2)
    verify_independence_truncated(partial_candidate, b2_rep7, 2)
    probe = np.random.default_rng(0).integers(0, 7, size=b2_rep7.dim)
    expected = [(evaluate(partial_candidate.element(t), b2_rep7) @ probe) % 7 for t in tuples]
    assert len(ranked) == 1
    assert np.array_equal(ranked[0], np.array(expected))


def test_independence_empty_order(partial_candidate, b2_rep7):
    rpt = verify_independence_truncated(partial_candidate, b2_rep7, 2, order=[])
    assert (rpt.count, rpt.rank, rpt.tuples, rpt.witnesses) == (0, 0, [], [])


# -- a1-scale full conditions --------------------------------------------------


def test_check_lee_conditions_a1(a1_p5):
    from modlie.leebasis import check_lee_conditions

    L = a1_p5
    alpha = Root((1,))
    specs = sl2_pair_specs(L, alpha)
    results = [solve_signs(s, L) for s in specs]
    bi = gen_Bi(L, alpha, seed=0, count=2)
    cand = assemble(specs, bi, [r.solved[0] for r in results])
    chi = Character(L, {L.xpos(-alpha): 1})
    rep = baby_verma(L, chi, {1: 0})
    rpt = check_lee_conditions(cand, rep, solve_results=results, bound=2)
    assert rpt.rep_dim == 5 == rpt.expected_dim  # p^m with m = 1
    assert rpt.dim_ok
    assert rpt.irreducibility.status == "irreducible"
    assert rpt.independence.full_rank
    # the Casimir body scan: exactly one singular c, so choices remain
    scans = rpt.invertibility
    assert scans
    for v in scans.values():
        assert len(v["singular"]) <= 2
        assert v["invertible_choices"] >= L.p - 2
    assert rpt.conditions_established


# -- reports -------------------------------------------------------------------


def test_verification_report_b2(b2_p7):
    doc = verification_report(b2_p7, "I", seed=0)
    assert doc["schema"] == 1
    assert doc["summary"]["oracle_consistent"]
    assert doc["summary"]["solved"] == 4
    assert doc["summary"]["rep_oracle"] == "matrix"
    labels = [s["target"] for s in doc["specs"]]
    assert labels == sorted(labels, key=lambda t: labels.index(t))  # stable order
    doc2 = verification_report(b2_p7, "II", seed=0)
    assert doc2["summary"]["solved"] == 8
    assert doc2["bi_family"]["status"] == "exhausted_field"


def test_verification_report_b3_weight_certificates(b3_p7):
    doc = verification_report(b3_p7, "I", seed=0)
    assert doc["summary"]["rep_oracle"] == "weight-certificates"
    for spec in doc["specs"]:
        for a in spec.get("assignments", []):
            if not a["commutes"]:
                assert a["residue_weight"] not in ("0", "non-homogeneous")


def test_gen_bi_ends_with_the_point_at_infinity(b2_p11):
    # ten moment-curve vectors pair nonzero with e1 - e2 at p = 11, and (0, 1)
    # is the eleventh direction: the family is read off that one list
    import itertools as it

    import numpy as np

    from modlie.linalg import rank_mod_p

    alpha = E1B2 - E2B2
    fam = gen_Bi(b2_p11, alpha, seed=0, count=11)
    assert len(fam.vectors) == 11
    assert fam.vectors[-1] == (0, 1)
    assert fam.params is None
    for i, j in it.combinations(range(11), 2):
        M = np.array([fam.vectors[i], fam.vectors[j]], dtype=np.int64)
        assert rank_mod_p(M, 11) == 2
    for v in fam.vectors:
        pairing = sum(c * cartan_integer(alpha, b2_p11.rs.base[i]) for i, c in enumerate(v))
        assert pairing % 11 != 0


def test_gen_bi_seeded_random_search_b3_p5():
    # only four vectors of the moment curve and its point at infinity pair
    # nonzero with e1 - e2 at B3, p = 5, so a family of five comes from the
    # seeded random search
    L = build_chevalley(build_root_system("B", 3), 5, allow_small=True)
    alpha = case_alpha(L, "II")
    fam = gen_Bi(L, alpha, seed=0, count=5)
    assert len(fam.vectors) == 5
    assert fam.params is None
    for trio in itertools.combinations(fam.vectors, 3):
        assert rank_mod_p(np.array(trio, dtype=np.int64), 5) == 3
    for v in fam.vectors:
        assert sum(c * cartan_integer(alpha, L.rs.base[i]) for i, c in enumerate(v)) % 5 != 0
    assert gen_Bi(L, alpha, seed=0, count=5).vectors == fam.vectors


def test_gen_bi_refuses_families_beyond_the_mds_bound(monkeypatch, b3_p7):
    # at l = 3 <= p = 7 no 10 vectors have every 3-subset a basis (at most
    # p + 1 = 8 do), so the answer comes without testing a single family
    def forbidden(*args):
        raise AssertionError("an infeasible family must not be searched for")

    monkeypatch.setattr("modlie.leebasis._subsets_independent", forbidden)
    with pytest.raises(ExhaustedField) as info:
        gen_Bi(b3_p7, case_alpha(b3_p7, "I"), count=10)
    assert str(info.value) == "no admissible family of 10 vectors found at p = 7"


def test_deficient_rank_forms_no_product_or_evaluation(monkeypatch, zero_rep, partial_candidate):
    # the fallback builds each matrix from the factor elements applied to the
    # identity; the witnesses are those pinned in test_zero_rep_dependencies_pinned
    expected = verify_independence_truncated(partial_candidate, zero_rep, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the independence check must not form a product or evaluate one")

    monkeypatch.setattr("modlie.leebasis.LeeCandidate.element", forbidden)
    evaluated = recording_evaluate(monkeypatch)
    rpt = verify_independence_truncated(partial_candidate, zero_rep, 2)
    assert (rpt.count, rpt.rank) == (15, 1)
    assert rpt.witnesses == expected.witnesses
    assert len(rpt.witnesses) == 14
    assert evaluated == [partial_candidate.factor_element(j) for j in range(partial_candidate.size)]


@pytest.mark.parametrize("limit", [3, 4])
def test_independence_stack_limit(monkeypatch, zero_rep, partial_candidate, limit):
    # on the 1-dim zero rep the stack is 15 tuples x 1 cell: above 3^2
    # entries it is refused before np.zeros allocates it, within 4^2 it is
    # eliminated and gives the witnesses pinned in test_zero_rep_dependencies_pinned
    import modlie.redenv

    expected = verify_independence_truncated(partial_candidate, zero_rep, 2).witnesses
    shapes = []
    zeros = np.zeros

    def recording(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(modlie.redenv, "MAX_DENSE_DIM", limit)
    monkeypatch.setattr(np, "zeros", recording)
    if limit == 3:
        with pytest.raises(ModuleTooLarge, match="15 tuples x 1 cells exceeds the limit of 3"):
            verify_independence_truncated(partial_candidate, zero_rep, 2)
        assert (15, 1) not in shapes
    else:
        assert verify_independence_truncated(partial_candidate, zero_rep, 2).witnesses == expected
        assert (15, 1) in shapes


def test_independence_stack_limit_raises_before_every_matrix_is_formed(monkeypatch, zero_rep, partial_candidate):
    # on the 1-dim zero rep only the factor B_2 + A_2 acts by 1, so the
    # matrix of (0, 2, 0, 0) fills the one cell; formed first, it already
    # makes the stack 15 tuples x 1 cell > 3^2, and the check raises before it
    # forms the other 14 matrices
    import modlie.redenv

    first = (0, 2, 0, 0)
    order = [first] + [tup for tup in partial_candidate.tuples_with_bound(2) if tup != first]
    calls = []
    matmul = MatrixRep.matmul
    monkeypatch.setattr(MatrixRep, "matmul", lambda self, A, B: calls.append(1) or matmul(self, A, B))
    assert verify_independence_truncated(partial_candidate, zero_rep, 2, order=order).rank == 1
    every = len(calls)
    calls.clear()
    monkeypatch.setattr(modlie.redenv, "MAX_DENSE_DIM", 3)
    with pytest.raises(ModuleTooLarge, match="15 tuples x 1 cells exceeds the limit of 3"):
        verify_independence_truncated(partial_candidate, zero_rep, 2, order=order)
    # the factor matrices come from the module's warm memo, so every product
    # formed is one of the first matrix; unlimited, the fallback formed all 24
    assert len(calls) == sum(first) == 2 and every >= sum(map(sum, order)) == 24


def test_independence_refuses_more_tuples_than_the_stack_admits_before_listing_them(
    monkeypatch, zero_rep, partial_candidate
):
    # 15 tuples on the 1-dim zero rep: images of full rank are impossible,
    # and the stack starts with I, so the stack guard's refusal comes first
    import modlie.redenv

    def forbidden(self, bound):
        raise AssertionError("tuples listed")

    monkeypatch.setattr(modlie.redenv, "MAX_DENSE_DIM", 3)
    monkeypatch.setattr(type(partial_candidate), "tuples_with_bound", forbidden)
    with pytest.raises(ModuleTooLarge, match="15 tuples x 1 cells exceeds the limit of 3"):
        verify_independence_truncated(partial_candidate, zero_rep, 2)


def test_rep_cross_check_reuses_the_solve(monkeypatch, b2_p7):
    # the cross-check evaluates rho(element) and rho(residue) of each
    # assignment as solve_signs left them; it expands and commutes nothing
    import modlie.leebasis as leebasis

    L = b2_p7
    doc = verification_report(L, "I", seed=0)
    specs = build_case_I(L)
    results = [solve_signs(s, L) for s in specs]
    rep = baby_verma(L, Character(L, {L.xpos(-E1B2): 1}), {1: 0, 2: 0})
    Xa = evaluate(L.enveloping().from_lie(L.x(E1B2)), rep)

    def forbidden(*args, **kwargs):
        raise AssertionError("the cross-check must not expand or commute again")

    monkeypatch.setattr(leebasis, "expand_spec", forbidden)
    monkeypatch.setattr(leebasis, "commutator", forbidden)
    checks = [leebasis._rep_cross_check(r, Xa, rep) for s, r in zip(specs, results) if s.status == "ok"]
    assert checks == [e["rep_check"] for e in doc["specs"] if e["status"] == "ok"]
    assert all(c["consistent"] for c in checks)
    assert any("matrix_nonzero" in a for c in checks for a in c["assignments"])


def test_fallback_is_a_square_or_a_cube():
    # off the bank the square of x_beta commutes with x_alpha except for
    # +-e2 at rank 2 in case I: the cube commutes there only at p = 3, and
    # otherwise no template of the opposite target is usable either
    from modlie.leebasis import _bank

    cubes, impossible = set(), set()
    for rank in range(2, 8):
        rs = build_root_system("B", rank)
        for p in (0, 2, 3, 5, 7, 11, 13):
            L = build_chevalley(rs, p, allow_small=True)
            for case, build in (("I", build_case_I), ("II", build_case_II)):
                for spec in build(L):
                    key = (rank, case, p, spec.target.label)
                    if spec.origin == "cube":
                        cubes.add(key)
                    if spec.status != "ok":
                        impossible.add(key)
                        assert spec.status == "impossible_for_rank"
                        assert all(e.reason for e in _bank(L, case)[-spec.target])
    assert cubes == {(2, "I", 3, "+e2"), (2, "I", 3, "-e2")}
    assert impossible == {(2, "I", p, t) for p in (0, 5, 7, 11, 13) for t in ("+e2", "-e2")}


def _clean_and_corrupted(L, corrupt):
    doc = verification_report(L, "I", seed=0)
    assert doc["summary"]["oracle_consistent"]
    corrupt()
    bad = verification_report(L, "I", seed=0)
    pairs = [
        (a, b)
        for s, t in zip(doc["specs"], bad["specs"])
        if "rep_check" in s
        for a, b in zip(s["rep_check"]["assignments"], t["rep_check"]["assignments"])
    ]
    return bad, pairs


def test_rep_oracle_fails_on_a_corrupted_residue(monkeypatch, b2_p7):
    # doubling one residue whose matrix is nonzero breaks that assignment's
    # homomorphism check, and only that one
    import modlie.leebasis as leebasis

    solve = leebasis.solve_signs

    def corrupt():
        def doubled(spec, L, c_value=0):
            res = solve(spec, L, c_value)
            if spec.target == E2B2 - E1B2 and c_value == 0:
                res.assignments[0].residue = 2 * res.assignments[0].residue
            return res

        monkeypatch.setattr(leebasis, "solve_signs", doubled)

    bad, pairs = _clean_and_corrupted(b2_p7, corrupt)
    assert not bad["summary"]["oracle_consistent"]
    changed = [(a, b) for a, b in pairs if a != b]
    assert len(changed) == 1
    (a, b), = changed
    assert a["homomorphism"] and a["matrix_nonzero"] and not b["homomorphism"]


def test_rep_oracle_fails_on_a_corrupted_matrix(monkeypatch, b2_p7):
    # one wrong entry of rho(x_alpha) breaks the homomorphism check
    import modlie.redenv as redenv

    evaluate = redenv.evaluate

    def corrupt():
        def corrupted(u, rep):
            M = evaluate(u, rep).tolil()
            M[0, 1] = (M[0, 1] + 1) % rep.p
            return M.tocsr()

        monkeypatch.setattr(redenv, "evaluate", corrupted)

    bad, pairs = _clean_and_corrupted(b2_p7, corrupt)
    assert not bad["summary"]["oracle_consistent"]
    assert all(a["homomorphism"] for a, _ in pairs)
    assert not all(b["homomorphism"] for _, b in pairs)


def test_rep_cross_check_forms_each_monomial_once(monkeypatch, b2_p7):
    # a report shares one memo, its module's: every reduced monomial, and
    # every suffix of one, is one product of a generator and a shorter
    # suffix, never with I
    import modlie.redenv as redenv

    requested, memos, products = [], set(), []
    monomial_matrix, matmul = redenv._monomial_matrix, MatrixRep.matmul

    def record(mono, rep):
        requested.append(mono)
        memos.add(id(rep._memo))
        return monomial_matrix(mono, rep)

    def count(self, A, B):
        identity = self.identity()
        assert all(M.shape != identity.shape or (M != identity).nnz for M in (A, B))
        products.append((A, B))
        return matmul(self, A, B)

    monkeypatch.setattr(redenv, "_monomial_matrix", record)
    monkeypatch.setattr(MatrixRep, "matmul", count)
    doc = verification_report(b2_p7, "I", seed=0)
    suffixes = set()
    for mono in requested:
        while mono and mono not in suffixes:
            suffixes.add(mono)
            (pos, e), rest = mono[0], mono[1:]
            mono = ((pos, e - 1),) + rest if e > 1 else rest
    assignments = sum(len(s["rep_check"]["assignments"]) for s in doc["specs"] if "rep_check" in s)
    assert len(memos) == 1 and len(requested) > len(set(requested))
    # plus Xa rho(element) and rho(element) Xa per assignment
    formed = sum(1 for mono in suffixes if sum(e for _, e in mono) > 1)
    assert len(products) == formed + 2 * assignments


# -- sign solving by linearity ----------------------------------------------------


@functools.cache
def _algebra_b(rank, p):
    return build_chevalley(build_root_system("B", rank), p)


@pytest.mark.parametrize("c_value", [0, 1])
@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_solve_signs_matches_brute_force_expansion(rank, case, p, c_value):
    # every assignment expanded and commuted with x_alpha on its own, as
    # before the solve combined expanded summands; at_c(c) from a c = 0 solve
    # is the same result
    L = _algebra_b(rank, p)
    xa = L.enveloping().from_lie(L.x(case_alpha(L, case)))

    def brute(template):
        for signs in itertools.product((1, -1), repeat=template.sign_slots):
            u = expand_spec(template, L, signs, c_value)
            yield signs, u, commutator(xa, u)

    for spec in (build_case_I if case == "I" else build_case_II)(L):
        res = solve_signs(spec, L, c_value=c_value)
        again = solve_signs(spec, L).at_c(c_value)
        for r in (res, again):
            if spec.status != "ok":
                assert (r.status, r.assignments, r.variant_solutions) == ("impossible", [], {})
                continue
            expected = list(brute(spec))
            assert [a.signs for a in r.assignments] == [signs for signs, _, _ in expected]
            for a, (signs, u, comm) in zip(r.assignments, expected):
                assert a.commutes == comm.is_zero
                assert a.element.terms == u.terms
                assert (a.residue is None) if comm.is_zero else (a.residue.terms == comm.terms)
            assert r.status == ("solved" if any(comm.is_zero for _, _, comm in expected) else "nosolution")
            assert r.variant_solutions == {
                v.label: [signs for signs, _, comm in brute(v) if comm.is_zero] for v in spec.variants
            }


def test_solve_signs_expands_each_summand_once(monkeypatch, b3_p7):
    # one expansion and one commutator per summand kind (free of signs and
    # c, the c summand, one per sign slot) of the template and each variant,
    # however many assignments they have; nothing is expanded whole
    import modlie.leebasis as leebasis

    expanded, commuted = [], []
    to_ue, commutator_ = leebasis.to_ue, leebasis.commutator

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_signs must not expand a whole template")

    monkeypatch.setattr(leebasis, "expand_spec", forbidden)
    monkeypatch.setattr(leebasis, "to_ue", lambda *a, **k: expanded.append(a[0]) or to_ue(*a, **k))
    monkeypatch.setattr(leebasis, "commutator", lambda *a: commuted.append(a) or commutator_(*a))
    for spec in build_case_I(b3_p7):
        expanded.clear()
        commuted.clear()
        res = solve_signs(spec, b3_p7)
        templates = [spec, *spec.variants]
        kinds = sum(t.sign_slots + 2 if isinstance(t.body, Add) else 1 for t in templates)
        assert len(expanded) == len(commuted) == kinds
        assert len(res.assignments) == 2**spec.sign_slots


def test_solve_signs_refuses_a_template_not_linear_in_its_signs(b2_p7):
    specs = build_case_II(b2_p7)
    spec = next(s for s in specs if s.sign_slots == 1)
    squared = dataclasses.replace(spec, body=Add((Const("c"), Mul((SignSlot(1), SignSlot(1), XAtom((1, 0)))))))
    with pytest.raises(ValueError, match="not linear in its signs and c"):
        solve_signs(squared, b2_p7)
