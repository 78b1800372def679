import random

import numpy as np
import pytest

from modlie.linalg import (
    PANEL,
    BlockEchelon,
    Int64Overflow,
    FractionEchelon,
    _echelon,
    check_int64_sum,
    int64_terms,
    kernel_mod_p,
    null_vector,
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


def test_one_block_echelon_membership():
    ech = BlockEchelon(7, [np.arange(3)])
    assert ech.insert(0, np.array([1, 2, 3]))
    assert ech.insert(0, np.array([0, 1, 1]))
    assert not ech.insert(0, np.array([1, 3, 4]))  # sum of the first two
    assert not ech.insert(0, np.array([2, 4, 6]))
    assert ech.rank == 2
    assert ech.insert(0, np.array([0, 0, 1]))
    assert ech.rank == 3


@pytest.mark.parametrize("p", [7, 3037000493])
def test_one_block_echelon_rows_stay_reduced(p):
    rng = random.Random(p)
    base = [[rng.randrange(p) for _ in range(9)] for _ in range(6)]
    inserted = []
    ech = BlockEchelon(p, [np.arange(9)])
    for _ in range(12):
        # combinations of the six base rows, some sparse: rank 6 in width 9
        coeffs = [rng.choice([0, 0, 1, rng.randrange(p)]) for _ in base]
        row = [sum(a * r[c] for a, r in zip(coeffs, base)) % p for c in range(9)]
        before = ech.rank
        grew = ech.insert(0, np.array(row))
        inserted.append(row)
        assert ech.rank == before + grew == python_rank_mod_p(inserted, p) == len(ech.rows)
        assert ech.rows.tolist() == gauss_jordan_mod_p(inserted, p)
        assert not any(ech.insert(0, np.array(r)) for r in inserted)


def random_graded_echelon(rng, p, nvecs):
    """A BlockEchelon over four blocks of sizes 1..5 that partition F_p^12,
    with nvecs random vectors inserted block by block, and those vectors in
    full coordinates."""
    order = list(range(12))
    rng.shuffle(order)
    blocks = [np.array(sorted(order[a:b])) for a, b in ((0, 1), (1, 4), (4, 7), (7, 12))]
    ech, inserted = BlockEchelon(p, blocks), []
    for _ in range(nvecs):
        b = rng.randrange(len(blocks))
        v = np.array([rng.choice([0, 1, rng.randrange(p)]) for _ in blocks[b]], dtype=np.int64)
        full = np.zeros(12, dtype=np.int64)
        full[blocks[b]] = v
        before = python_rank_mod_p(inserted, p) if inserted else 0
        inserted.append(full.tolist())
        assert ech.insert(b, v) == (python_rank_mod_p(inserted, p) > before)
    return ech, inserted


@pytest.mark.parametrize("p", [2, 7, 65537])
def test_block_echelon_is_the_dense_echelon_of_its_blocks(p):
    # a graded subspace of F_p^12, its vectors inserted block by block: the
    # rows are the reduced echelon form of the dense vectors, by ascending
    # pivot, and each block's rank is that of its part
    ech, inserted = random_graded_echelon(random.Random(p), p, 30)
    want = gauss_jordan_mod_p(inserted, p)
    assert ech.rank == sum(ech.ranks) == len(want)
    assert ech.rows.tolist() == want
    assert ech.ranks == [np.count_nonzero(np.array(want)[:, idx].any(axis=1)) for idx in ech.blocks]


@pytest.mark.parametrize("p", [2, 7, 65537])
def test_annihilator_is_kernel_mod_p_of_the_rows(p):
    # read off the reduced rows, the annihilator is kernel_mod_p's basis byte
    # for byte, from the empty subspace to a full-rank one (an empty basis)
    rng = random.Random(p)
    spaces = [random_graded_echelon(rng, p, n)[0] for n in (0, 1, 3, 8, 15, 30)]
    full = BlockEchelon(p, [np.arange(12)])
    for v in np.eye(12, dtype=np.int64)[::-1]:
        full.insert(0, v)
    for ech in spaces + [full]:
        got, want = ech.annihilator(), kernel_mod_p(ech.rows, p)
        assert len(got) == len(want) == 12 - ech.rank
        assert all(a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert full.annihilator() == []


def test_block_echelon_reduces_a_two_coordinate_block_exactly_at_the_int64_bound():
    p = 3037000493  # p^2 < 2^63 < 2 p^2: each reduction sums one residue product at a time
    ech = BlockEchelon(p, [np.array([0]), np.array([1])])
    assert ech.insert(1, np.array([p - 1])) and ech.rows.tolist() == [[0, 1]]
    ech = BlockEchelon(p, [np.array([0, 1])])
    rows = [[p - 1, p - 2], [p - 3, 5], [(2 * (p - 1) + 3 * (p - 3)) % p, (2 * (p - 2) + 15) % p]]
    assert ech.insert(0, np.array(rows[0]))
    assert ech.rows.tolist() == gauss_jordan_mod_p(rows[:1], p) == [[1, 2]]
    assert ech.insert(0, np.array(rows[1]))
    assert not ech.insert(0, np.array(rows[2]))  # 2 rows[0] + 3 rows[1]
    assert ech.rows.tolist() == [[1, 0], [0, 1]]


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
    assert not ech.insert([3, 6, 9])
    assert ech.rank == 1


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
    with pytest.raises(Int64Overflow, match="int64"):
        BlockEchelon(p, [np.arange(2)])


def gauss_jordan_mod_p(rows, p):
    """Reference reduced row echelon form over F_p in Python integers: the
    nonzero rows, each with a 1 at its pivot and 0 at the other pivots."""
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
    return rows[:rank]


def python_rank_mod_p(rows, p):
    return len(gauss_jordan_mod_p(rows, p))


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
        ech = BlockEchelon(p, [np.arange(5)])
        assert all(ech.insert(0, np.array(row)) for row in base)
        assert not any(ech.insert(0, np.array(row)) for row in combos)


def one_pivot_echelon(A, p):
    """Reference for _echelon: one pivot at a time, each rewriting every
    column after it in the rows below with an outer product and a % p."""
    M = np.array(A, dtype=np.int64, copy=True) % p
    nrows, ncols = M.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv], :] = M[[piv, r], :]
        M[r, c:] = (M[r, c:] * pow(int(M[r, c]), -1, p)) % p
        idx = np.nonzero(M[r + 1 :, c])[0] + r + 1
        M[idx, c:] = (M[idx, c:] - np.outer(M[idx, c], M[r, c:])) % p
        pivots.append(c)
    return M, pivots


def echelon_cases(p):
    """Matrices over F_p around _echelon's panel width W: every width from
    W - 1 to 2 W + 1, cycling through wide, square, tall, rank-deficient and
    zero-column shapes, then a 15 x 2401 one like the independence check's
    and larger tall, rank-deficient and zero-column ones."""
    rng = np.random.default_rng(p % 2**32)
    W = min(PANEL, int64_terms(p))

    def low_rank(nrows, ncols, k):
        # 0/1 left factor: each entry sums at most k residues, exact in int64
        return (rng.integers(0, 2, size=(nrows, k)) @ rng.integers(0, p, size=(k, ncols))) % p

    def zero_columns(nrows, ncols):
        A = rng.integers(0, p, size=(nrows, ncols))
        A[:, ::3] = 0
        return A

    kinds = [
        lambda n: rng.integers(0, p, size=(8, n)),
        lambda n: rng.integers(0, p, size=(n, n)),
        lambda n: rng.integers(0, p, size=(n + 40, n)),
        lambda n: low_rank(n + 5, n, max(n // 2, 1)),
        lambda n: zero_columns(n, n),
    ]
    for i, ncols in enumerate(range(max(W - 1, 1), 2 * W + 2)):
        yield kinds[i % len(kinds)](ncols)
    yield rng.integers(0, p, size=(15, 2401))
    yield rng.integers(0, p, size=(200, 150))
    yield low_rank(150, 200, 40)
    yield zero_columns(70, 140)
    yield np.zeros((5, 130), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 65537, 3037000493])
def test_blocked_echelon_matches_the_one_pivot_loop(p):
    for A in echelon_cases(p):
        M, pivots = _echelon(A, p)
        ref, ref_pivots = one_pivot_echelon(A, p)
        assert pivots == ref_pivots
        assert M.dtype == ref.dtype and M.shape == ref.shape and M.tobytes() == ref.tobytes()
        assert rank_mod_p(A, p) == len(ref_pivots)
        ncols = A.shape[1]
        if ncols > int64_terms(p):
            continue  # kernel_mod_p refuses: its back substitution sums ncols products
        K = np.array(kernel_mod_p(A, p)).reshape(-1, ncols)
        free = np.setdiff1d(np.arange(ncols), ref_pivots)
        # the one kernel basis with a 1 at its own free column and 0 at the others
        assert K[:, free].tolist() == np.eye(free.size, dtype=np.int64).tolist()
        assert not ((A % p) @ K.T % p).any()


@pytest.mark.parametrize("p", [2, 7, 65537, 3037000493])
def test_null_vector_is_the_first_kernel_vector(p):
    rng = np.random.default_rng(p % 1000)
    mats = [rng.integers(0, p, size=shape) for shape in ((3, 7), (7, 7), (9, 4), (40, 30), (5, 1))]
    mats += [rng.integers(0, 3, size=(8, k)) @ rng.integers(0, 3, size=(k, 9)) for k in (1, 4)]  # rank <= k
    mats += [np.eye(4, dtype=np.int64), np.zeros((2, 1), dtype=np.int64), np.zeros((3, 5), dtype=np.int64)]
    seen = set()
    for A in mats:
        if A.shape[1] > int64_terms(p):  # both refuse: the back substitution sums ncols products
            with pytest.raises(Int64Overflow):
                kernel_mod_p(A, p)
            with pytest.raises(Int64Overflow):
                null_vector(A, p)
            continue
        K = kernel_mod_p(A, p)
        v, nullity = null_vector(A, p)
        assert nullity == len(K)
        assert v is None if not K else (v.dtype == K[0].dtype and v.tobytes() == K[0].tobytes())
        seen.add(nullity > 0)
    assert seen == {False, True}  # full column rank and a kernel, at every p


@pytest.mark.parametrize("p", [2, 7, 65537])
def test_blocked_echelon_matches_the_one_pivot_loop_when_some_rows_below_are_untouched(p):
    # rows that are zero on a panel's pivot columns get a zero update from
    # it, which must leave their residues in the columns after it as they are
    rng = np.random.default_rng(p)
    W = min(PANEL, int64_terms(p))
    for nrows, ncols in [(3 * W, 3 * W), (2 * W + 7, 4 * W + 3)]:
        A = rng.integers(0, p, size=(nrows, ncols))
        untouched = rng.random(nrows) < 0.5
        untouched[:W] = False  # the first panel's pivots come from full rows
        A[untouched, :W] = 0
        A[untouched & (rng.random(nrows) < 0.5), W : 2 * W] = 0
        M, pivots = _echelon(A, p)
        ref, ref_pivots = one_pivot_echelon(A, p)
        assert pivots == ref_pivots
        assert M.dtype == ref.dtype and M.shape == ref.shape and M.tobytes() == ref.tobytes()
