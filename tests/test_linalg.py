import random

import numpy as np
import pytest

from modlie.linalg import (
    DenseEchelon,
    Int64Overflow,
    FractionEchelon,
    check_int64_sum,
    kernel_mod_p,
    rank_mod_p,
)


def fraction_rank(rows) -> int:
    ech = FractionEchelon(len(rows[0]))
    for row in rows:
        ech.insert(row)
    return ech.rank


def test_rank_mod_p_small():
    A = np.array([[1, 2], [2, 4]])
    assert rank_mod_p(A, 5) == 1
    assert rank_mod_p(np.eye(3, dtype=int), 7) == 3
    # rank depends on the prime
    B = np.array([[1, 1], [1, 8]])
    assert rank_mod_p(B, 7) == 1
    assert rank_mod_p(B, 5) == 2


def test_rank_mod_p_random_vs_kernel():
    rng = np.random.default_rng(0)
    full = [rng.integers(0, 7, size=(6, 9)) for _ in range(20)]
    # products of thin factors: rank <= k < 6, so pivot columns get skipped
    thin = [
        rng.integers(0, 7, size=(6, k)) @ rng.integers(0, 7, size=(k, 9))
        for k in (0, 1, 2, 3, 4)
        for _ in range(4)
    ]
    for A in full + thin:
        r = rank_mod_p(A, 7)
        K = kernel_mod_p(A, 7)
        assert r + len(K) == 9
        for v in K:
            assert not ((A @ v) % 7).any()
        if K:
            assert rank_mod_p(np.array(K), 7) == len(K)  # a basis, not just kernel vectors


def test_kernel_refuses_int64_overflow():
    p = 2**31 - 1  # prime; (p - 1)^2 * 3 > 2^63 - 1
    check_int64_sum(p, 2)
    with pytest.raises(ValueError, match="int64"):
        check_int64_sum(p, 3)
    assert len(kernel_mod_p(np.array([[1, p - 1]]), p)) == 1
    with pytest.raises(ValueError, match="int64"):
        kernel_mod_p(np.array([[1, p - 1, p - 1]]), p)


def test_dense_echelon_membership():
    ech = DenseEchelon(7)
    assert ech.insert(np.array([1, 2, 3]))
    assert ech.insert(np.array([0, 1, 1]))
    assert not ech.insert(np.array([1, 3, 4]))  # sum of the first two
    assert ech.contains(np.array([2, 4, 6]))
    assert not ech.contains(np.array([0, 0, 1]))
    assert ech.rank == 2


@pytest.mark.parametrize("p", [7, 3037000493])
def test_dense_echelon_rows_stay_reduced(p):
    rng = random.Random(p)
    base = [[rng.randrange(p) for _ in range(9)] for _ in range(6)]
    inserted = []
    ech = DenseEchelon(p)
    for _ in range(12):
        # combinations of the six base rows, some sparse: rank 6 in width 9
        coeffs = [rng.choice([0, 0, 1, rng.randrange(p)]) for _ in base]
        row = [sum(a * r[c] for a, r in zip(coeffs, base)) % p for c in range(9)]
        before = ech.rank
        grew = ech.insert(np.array(row))
        inserted.append(row)
        assert ech.rank == before + grew == python_rank_mod_p(inserted, p) == len(ech.rows) == len(ech.pivots)
        assert ech.rows[:, ech.pivots].tolist() == np.eye(ech.rank, dtype=np.int64).tolist()
        assert all(ech.contains(np.array(r)) for r in inserted)


def test_kernel_dependency_witness():
    vecs = {"a": {0: 1, 3: 2}, "b": {3: 1}, "c": {0: 2, 3: 4}}
    tags = list(vecs)
    # one column per tagged vector: the kernel holds their dependencies
    cols = np.array([[vecs[t].get(k, 0) for t in tags] for k in range(4)])
    (v,) = kernel_mod_p(cols, 5)
    combo = {t: int(c) for t, c in zip(tags, v) if c}
    # combo is a dependency certificate: sum coeff * vec(tag) = 0 mod 5
    acc = {}
    for tag, coef in combo.items():
        for k, v in vecs[tag].items():
            acc[k] = (acc.get(k, 0) + coef * v) % 5
    assert not any(acc.values())
    assert combo.get("c") not in (None, 0)


def test_fraction_rank_and_echelon():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert fraction_rank(rows) == 2
    ech = FractionEchelon(3)
    assert ech.insert([1, 2, 3])
    assert not ech.insert([2, 4, 6])
    assert ech.contains([3, 6, 9])


def test_rank_mod_p_matches_fraction_rank_generic():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.integers(-3, 4, size=(5, 5))
        rq = fraction_rank(A.tolist())
        # over a large prime the mod-p rank agrees with the rational rank
        assert rank_mod_p(A, 10007) == rq


def test_elimination_refuses_residue_products_beyond_int64():
    # 4294967311 is prime and p^2 >= 2^63: one product of two residues
    # already wraps, so rank and membership would be silently wrong
    p = 4294967311
    A = np.array([[1, p - 1], [p - 2, 5]])
    with pytest.raises(Int64Overflow, match="int64"):
        rank_mod_p(A, p)
    with pytest.raises(Int64Overflow, match="int64"):
        kernel_mod_p(A, p)
    ech = DenseEchelon(p)
    with pytest.raises(Int64Overflow, match="int64"):
        ech.insert(A[0])
    with pytest.raises(Int64Overflow, match="int64"):
        ech.contains(A[1])


def python_rank_mod_p(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_elimination_exact_just_below_the_int64_bound():
    p = 3037000493  # the largest prime with p^2 < 2^63
    check_int64_sum(p, 1)
    rng = random.Random(3)
    for k in (1, 2, 3, 4):
        # k random rows and two combinations of them: rank k
        base = [[rng.randrange(p) for _ in range(5)] for _ in range(k)]
        coeffs = [[rng.randrange(p) for _ in base] for _ in range(2)]
        combos = [[sum(a * r[c] for a, r in zip(cs, base)) % p for c in range(5)] for cs in coeffs]
        rows = base + combos
        assert rank_mod_p(np.array(rows), p) == python_rank_mod_p(rows, p) == k
        ech = DenseEchelon(p)
        assert all(ech.insert(np.array(row)) for row in base)
        assert all(ech.contains(np.array(row)) for row in combos)
