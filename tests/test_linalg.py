import numpy as np
import pytest

from modlie.linalg import (
    DenseEchelon,
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
