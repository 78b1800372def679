"""Acceptance suite: one test per verification-contract criterion.

Each test prints a single pass line (run with ``pytest -v -s``) and enforces
the stated time budget where one is given.  Shared heavy objects (the
2401-dimensional type-B rank-2 module at p = 7) come from session fixtures,
so they are built once per run.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from modlie.chevalley import LieElement, bracket, build_chevalley, check_subalgebra, extend_by_cartan
from modlie.expr import parse, print_expr
from modlie.leebasis import (
    assemble,
    build_case_I,
    build_case_II,
    case_alpha,
    gen_Bi,
    pairwise_distinct_normal_forms,
    sl2_pair_specs,
    solve_signs,
    verification_report,
    verify_independence_truncated,
)
from modlie.linalg import rank_mod_p
from modlie.pbw import UEElement, is_central, multiply
from modlie.redenv import (
    Character,
    baby_verma,
    compatible_lambdas,
    evaluate,
    invertible_in_rep,
    is_irreducible,
    rep_check_brackets,
    rep_check_restrictedness,
)
from modlie.roots import Root, build_root_system, weyl_orbit


def report(num, dt, detail):
    print(f"[criterion {num:2d}] PASS ({dt:6.2f}s) {detail}")


def test_criterion_01_root_data():
    t0 = time.perf_counter()
    for l, count in ((2, 8), (3, 18), (4, 32)):
        rs = build_root_system("B", l)
        assert len(rs.roots) == 2 * l * l == count
        e = rs.unit
        expected_base = tuple(e(i) - e(i + 1) for i in range(1, l)) + (e(l),)
        assert rs.base == expected_base
        orbits = set()
        for r in rs.roots:
            orbits.add(weyl_orbit(r, rs))
        assert len(orbits) == 2
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(1, dt, "B2/B3/B4 counts 8/18/32, bases, short/long orbit split")


def test_criterion_02_chevalley_integrity():
    t0 = time.perf_counter()
    for family, rank in (("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 2)):
        rs = build_root_system(family, rank)
        for p in (0, 7):
            L = build_chevalley(rs, p)
            es = [LieElement(L, {i: 1}) for i in range(L.n)]
            for i in range(L.n):
                for j in range(L.n):
                    assert bracket(es[i], es[j]) == -bracket(es[j], es[i])
            for a, b, c in itertools.product(es, repeat=3):
                t = (
                    bracket(bracket(a, b), c)
                    + bracket(bracket(b, c), a)
                    + bracket(bracket(c, a), b)
                )
                assert t.is_zero
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(2, dt, "antisymmetry + Jacobi exhaustive on A1 A2 B2 B3 C2, char 0 and mod 7")


def test_criterion_03_casimir_centrality(a1_p7, b2_p7):
    t0 = time.perf_counter()
    for L, alpha, gens_only in ((a1_p7, Root((1,)), False), (b2_p7, Root((1, 0)), True)):
        U = L.enveloping()
        e, h, f = (U.from_lie(x) for x in L.sl2_triple(alpha))
        w = (h + 1) ** 2 + 4 * f * e
        if gens_only:
            assert is_central(w, [e, h, f])
        else:
            assert is_central(w)
    dt = time.perf_counter() - t0
    report(3, dt, "shifted Casimir central in U(sl2) and in the e1-sl2 of B2, symbolically")


def test_criterion_04_rank_one_dimension_p():
    t0 = time.perf_counter()
    a = Root((1,))
    for p in (5, 7):
        L = build_chevalley(build_root_system("A", 1), p, allow_small=True)
        chi = Character(L, {L.xpos(-a): 1})
        lams = compatible_lambdas(L, chi)[0]
        assert lams == list(range(p))
        for lam in lams:
            rep = baby_verma(L, chi, {1: lam})
            assert rep.dim == p
            verdict = is_irreducible(rep)
            assert verdict.status == "irreducible"
        rep0 = baby_verma(L, Character(L, {}), {1: 0})
        verdict0 = is_irreducible(rep0)
        assert verdict0.status == "submodule"
        W = np.array(verdict0.witness) % p
        for pos in range(L.n):
            G = rep0.generators[pos].toarray()
            for v in W:
                assert rank_mod_p(np.vstack([W, (G @ v) % p]), p) == rank_mod_p(W, p)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(4, dt, "nonzero character: every compatible weight gives an irreducible "
                  "p-dim module; zero character is reducible with a verified witness")


def test_criterion_05_b2_dimension_claim(b2_p7, b2_rep7):
    t0 = time.perf_counter()
    L, rep = b2_p7, b2_rep7
    n, l = L.n, L.l
    assert (n, l) == (10, 2)
    assert rep.dim == 7 ** ((n - l) // 2) == 2401
    assert rep_check_brackets(rep)
    assert rep_check_restrictedness(rep)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    report(5, dt, "B2 baby Verma at p=7 has dim 7^4 = 2401; bracket and "
                  "restrictedness identities exhaustive over generators")


def _oracle_entries(doc):
    out = []
    for spec in doc["specs"]:
        if "rep_check" in spec:
            out.append(spec["rep_check"]["consistent"])
    return out


def test_criterion_06_sign_ledger_consistency(b2_p7, b3_p7, b2_p11):
    t0 = time.perf_counter()
    # matrix oracle at p = 7 on B2 for both cases
    for case in ("I", "II"):
        doc_a = verification_report(b2_p7, case, seed=0)
        doc_b = verification_report(b2_p7, case, seed=0)
        assert doc_a["summary"]["rep_oracle"] == "matrix"
        assert doc_a["summary"]["oracle_consistent"]
        assert all(_oracle_entries(doc_a))
        blob_a = json.dumps(doc_a, sort_keys=True)
        blob_b = json.dumps(doc_b, sort_keys=True)
        assert blob_a == blob_b  # report determinism
    # weight-certificate oracle on B3 (module too large for matrices)
    for case in ("I", "II"):
        doc = verification_report(b3_p7, case, seed=0)
        assert doc["summary"]["rep_oracle"] == "weight-certificates"
        for spec in doc["specs"]:
            for a in spec.get("assignments", []):
                if not a["commutes"]:
                    assert a["residue_weight"] not in ("0", "non-homogeneous")
    # coefficient families generated at p = 11 on B2 for both case roots
    for case in ("I", "II"):
        fam = gen_Bi(b2_p11, case_alpha(b2_p11, case), seed=0, count=8)
        assert len(fam.vectors) == 8
    dt = time.perf_counter() - t0
    assert dt < 600.0
    report(6, dt, "solve verdicts consistent with the matrix oracle on B2 (p=7), "
                  "weight certificates on B3; reports deterministic; B_i at p=11")


def _case1_candidate(L, seed):
    specs = build_case_I(L)
    results = [solve_signs(s, L) for s in specs]
    solved = [(s, r) for s, r in zip(specs, results) if r.status == "solved"]
    bi = gen_Bi(L, case_alpha(L, "I"), seed=seed, count=len(solved))
    return assemble([s for s, _ in solved], bi, [r.solved[0] for _, r in solved])


def _independence_blob(cand, rep, bound):
    rpt = verify_independence_truncated(cand, rep, bound)
    return rpt, json.dumps(
        {
            "count": rpt.count,
            "rank": rpt.rank,
            "tuples": [list(t) for t in rpt.tuples],
            "witnesses": [sorted((str(k), v) for k, v in w.items()) for w in rpt.witnesses],
        },
        sort_keys=True,
    )


def test_criterion_07_truncated_independence(b2_p7, b2_rep7, b3_rs):
    t0 = time.perf_counter()
    cand = _case1_candidate(b2_p7, seed=0)
    assert cand.partial and cand.size == 4  # the rank-2 solvable subset
    assert pairwise_distinct_normal_forms(cand, 2)
    rpt, blob = _independence_blob(cand, b2_rep7, 2)
    assert rpt.count == 15
    assert rpt.rank == 15  # full rank: the consistent outcome
    # rank is invariant under element permutation
    rng = random.Random(0)
    perm = list(rpt.tuples)
    rng.shuffle(perm)
    rpt_perm = verify_independence_truncated(cand, b2_rep7, 2, order=perm)
    assert rpt_perm.rank == rpt.rank
    # byte-identical reproduction under the same seed
    cand2 = _case1_candidate(b2_p7, seed=0)
    _, blob2 = _independence_blob(cand2, b2_rep7, 2)
    assert blob == blob2
    # rank-3 version symbolically: ten solvable slots, distinct normal forms
    L3 = build_chevalley(b3_rs, 11)
    specs3 = build_case_I(L3)
    res3 = [solve_signs(s, L3) for s in specs3]
    solved3 = [(s, r) for s, r in zip(specs3, res3) if r.status == "solved"]
    bi3 = gen_Bi(L3, case_alpha(L3, "I"), seed=0, count=len(solved3))
    cand3 = assemble([s for s, _ in solved3], bi3, [r.solved[0] for _, r in solved3])
    assert cand3.size == 10
    assert pairwise_distinct_normal_forms(cand3, 2)
    dt = time.perf_counter() - t0
    assert dt < 600.0
    report(7, dt, "15 candidate elements at bound 2: distinct normal forms, exact "
                  "rank 15 in the 2401-dim module, permutation-invariant, "
                  "byte-identical reruns; B3 checked symbolically (66 elements)")


def _random_element(U, rng, max_terms=2, max_degree=4):
    n = U.lie.n
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = {}
        for _ in range(rng.randrange(1, max_degree + 1)):
            pos = rng.randrange(n)
            exps[pos] = exps.get(pos, 0) + 1
        terms[tuple(sorted(exps.items()))] = rng.randrange(1, 7)
    return UEElement(U, terms)


def test_criterion_08_pbw_engine_properties(b2_p7, a1_p7):
    t0 = time.perf_counter()
    U = b2_p7.enveloping()
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (_random_element(U, rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    # representation homomorphism on 200 seeded pairs
    L = a1_p7
    chi = Character(L, {L.xpos(Root((-1,))): 1})
    rep = baby_verma(L, chi, {1: 0})
    U1 = L.enveloping()
    rng = random.Random(77)
    for _ in range(200):
        u, v = _random_element(U1, rng), _random_element(U1, rng)
        assert rep.mats_equal(
            evaluate(multiply(u, v), rep),
            rep.matmul(evaluate(u, rep), evaluate(v, rep)),
        )
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(8, dt, "associativity on 1000 seeded degree<=4 triples in U(B2) mod 7; "
                  "evaluate is multiplicative on 200 seeded pairs")


def test_criterion_09_bi_conditions(b2_p11):
    t0 = time.perf_counter()
    L = b2_p11
    for alpha in (Root((1, 0)), Root((1, -1))):
        fam = gen_Bi(L, alpha, seed=0, count=8)
        assert len(fam.vectors) == 8
        for i, j in itertools.combinations(range(8), 2):
            M = np.array([fam.vectors[i], fam.vectors[j]], dtype=np.int64)
            assert rank_mod_p(M, 11) == 2
        for B in fam.elements:
            xa = L.x(alpha)
            assert not bracket(xa, B).is_zero
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(9, dt, "all C(8,2) subset-independence and nonzero-pairing checks at "
                  "p=11 for both case roots")


def test_criterion_10_invertibility_scan(b2_p7, b2_rep7):
    t0 = time.perf_counter()
    # scalar-spectrum scans in the rank-one modules: at most two singular c
    a = Root((1,))
    for p in (5, 7):
        L = build_chevalley(build_root_system("A", 1), p, allow_small=True)
        U = L.enveloping()
        e, h, f = (U.from_lie(x) for x in L.sl2_triple(a))
        w = (h + 1) ** 2 + 4 * f * e
        chi = Character(L, {L.xpos(-a): 1})
        for lam in (0, 1):
            rep = baby_verma(L, chi, {1: lam})
            singular = [c for c in range(p) if not invertible_in_rep(w + c, rep)]
            assert len(singular) <= 2
            assert singular == [(-((lam + 1) ** 2)) % p]
    # 2401-dimensional scans: enumerate the singular set exactly; the module
    # mixes several sl2 blocks, so the spectrum is the image of the shifted
    # square map rather than a single scalar -- invertible choices must remain
    U2 = b2_p7.enveloping()
    b2_scans = {}
    for case in ("I", "II"):
        alpha = case_alpha(b2_p7, case)
        e, h, f = (U2.from_lie(x) for x in b2_p7.sl2_triple(alpha))
        w = (h + 1) ** 2 + 4 * f * e
        singular = [c for c in range(7) if not invertible_in_rep(w + c, b2_rep7)]
        b2_scans[case] = singular
        assert len(singular) < 7  # invertible choices of c exist
        expected = sorted({(-((m + 1) ** 2)) % 7 for m in range(7)})
        assert singular == expected
    dt = time.perf_counter() - t0
    report(10, dt, f"rank-one scans have <=2 singular c (exact scalar value); "
                   f"2401-dim scans enumerated: {b2_scans} (choices remain)")


def test_criterion_11_subalgebra_predicate(b3_p7):
    t0 = time.perf_counter()
    L = b3_p7
    # rank-2 subsystem on coordinates {2, 3} inside rank 3
    sub_roots = [r for r in L.rs.roots if r.coords[0] == 0]
    assert len(sub_roots) == 8
    span = [L.x(r) for r in sub_roots]
    span += [L.coroot_expand(Root((0, 1, -1))), L.coroot_expand(Root((0, 0, 1)))]
    verdict = check_subalgebra(span, L)
    assert verdict.closed
    # adjoin Cartan elements outside the subsystem's toral part
    for extra in (L.coroot_expand(Root((1, -1, 0))), L.h(1), L.coroot_expand(Root((1, 0, 0)))):
        bigger, verdict2 = extend_by_cartan(span, extra, L)
        assert verdict2.closed
        # independent fixpoint-closure oracle, ranked by rank_mod_p
        def rank(elems):
            return rank_mod_p(np.array([u.dense() for u in elems]), 7)

        dim = base_rank = rank(bigger)
        current = list(bigger)
        changed = True
        while changed:
            changed = False
            fresh = []
            for u in current:
                for v in current:
                    w = bracket(u, v)
                    if not w.is_zero and rank(current + fresh + [w]) > dim:
                        fresh.append(w)
                        dim += 1
                        changed = True
            current.extend(fresh)
        assert dim == base_rank
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(11, dt, "rank-2 subsystem span inside B3 stays closed under every "
                   "Cartan extension; fixpoint closure agrees")


def _corpus(rng, rs, size):
    from modlie.expr import Add, Brk, HAtom, Mul, Num, Pow, XAtom

    atoms = [XAtom(r.coords) for r in rs.roots]
    atoms += [HAtom(simple=i) for i in range(1, rs.rank + 1)]
    atoms += [HAtom(coords=r.coords) for r in rs.base]
    atoms += [Num(k) for k in range(6)]

    def gen(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(atoms)
        kind = rng.randrange(4)
        if kind == 0:
            return Pow(gen(0), rng.randrange(2, 5))
        if kind == 1:
            return Add(tuple(gen(depth - 1) for _ in range(rng.randrange(2, 4))))
        if kind == 2:
            return Mul(tuple(gen(depth - 1) for _ in range(rng.randrange(2, 4))))
        return Brk(gen(depth - 1), gen(depth - 1))

    return [gen(3) for _ in range(size)]


def test_criterion_12_cli(tmp_path, capsys):
    from modlie.cli import main

    t0 = time.perf_counter()
    rs = build_root_system("B", 2)
    rng = random.Random(99)
    for e in _corpus(rng, rs, 120):
        text = print_expr(e)
        assert print_expr(parse(text, rs)) == text
    # byte-identical verify-lee reports under one seed
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code = main(
            ["verify-lee", "--family", "B", "--rank", "2", "--p", "7",
             "--case", "I", "--seed", "9", "--out", str(path)]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    # exit-code fixtures: pass / counterexample / config error / inconclusive
    assert main(["central", "(h(e1)+1)^2 + 4 x(-e1) x(+e1)",
                 "--family", "A", "--rank", "1", "--p", "7"]) == 0
    assert main(["central", "x(+e1)", "--family", "A", "--rank", "1", "--p", "7"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    assert main(["roots", "--config", str(bad)]) == 2
    assert main(["irreducible", "--family", "B", "--rank", "2", "--p", "3",
                 "--allow-small", "--trials", "0"]) == 3
    capsys.readouterr()  # swallow CLI prints
    dt = time.perf_counter() - t0
    report(12, dt, "120-expression round-trip corpus; byte-identical reports; "
                   "exit codes 0/1/2/3 on crafted fixtures")
