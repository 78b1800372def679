import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlie.roots import (
    Root,
    RootNotInSystem,
    UnsupportedRank,
    build_root_system,
    cartan_integer,
    reflect,
    root_string,
    weyl_orbit,
)


def brute_force_b_roots(l):
    """Independent enumeration of {+-e_i} u {+-e_i +- e_j}."""
    out = set()
    for i in range(l):
        for s in (1, -1):
            c = [0] * l
            c[i] = s
            out.add(tuple(c))
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            for si, sj in itertools.product((1, -1), repeat=2):
                c = [0] * l
                c[i], c[j] = si, sj
                out.add(tuple(c))
    return out


@pytest.mark.parametrize("l,count", [(2, 8), (3, 18), (4, 32)])
def test_b_family_counts(l, count):
    rs = build_root_system("B", l)
    assert len(rs.roots) == 2 * l * l == count
    assert {r.coords for r in rs.roots} == brute_force_b_roots(l)


def test_b2_base():
    rs = build_root_system("B", 2)
    assert [r.coords for r in rs.base] == [(1, -1), (0, 1)]


def test_b3_base():
    rs = build_root_system("B", 3)
    assert [r.coords for r in rs.base] == [(1, -1, 0), (0, 1, -1), (0, 0, 1)]


def test_a1_two_roots():
    rs = build_root_system("A", 1)
    assert {r.coords for r in rs.roots} == {(1,), (-1,)}
    assert rs.base == (Root((1,)),)


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 2, 6), ("A", 3, 12), ("C", 2, 8), ("C", 3, 18), ("D", 3, 12), ("D", 4, 24)],
)
def test_other_family_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == count
    assert len(rs.base) == rank


@pytest.mark.parametrize("family,rank", [("B", 1), ("D", 2), ("A", 0), ("C", 1)])
def test_unsupported_ranks(family, rank):
    with pytest.raises(UnsupportedRank):
        build_root_system(family, rank)


def test_cartan_integer_values():
    e1, e2 = Root((1, 0)), Root((0, 1))
    assert cartan_integer(e1, e1) == 2
    assert cartan_integer(e1 - e2, e2) == -2
    assert cartan_integer(e2, e1 - e2) == -1


def test_reflect_examples():
    e1, e2 = Root((1, 0)), Root((0, 1))
    a = e1 - e2
    assert reflect(a, a) == -a
    assert reflect(e1 - e2, e2) == e1 + e2
    assert reflect(e1, e1 - e2) == e2


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("A", 2)])
def test_reflect_involution_and_length(family, rank):
    rs = build_root_system(family, rank)
    for b in rs.roots:
        for a in rs.roots:
            r = reflect(b, a)
            assert r in rs
            assert r.sq_length == b.sq_length
            assert reflect(r, a) == b


def test_weyl_orbit_b2():
    rs = build_root_system("B", 2)
    e1, e2 = Root((1, 0)), Root((0, 1))
    shorts = weyl_orbit(e1, rs)
    assert shorts == {e1, -e1, e2, -e2}
    longs = weyl_orbit(e1 - e2, rs)
    assert longs == {e1 + e2, e1 - e2, -e1 - e2, e2 - e1}


def orbit_partition(rs):
    seen = set()
    orbits = []
    for r in rs.roots:
        if r in seen:
            continue
        orb = weyl_orbit(r, rs)
        seen |= orb
        orbits.append(orb)
    return orbits


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_b_two_orbits(rank):
    rs = build_root_system("B", rank)
    assert len(orbit_partition(rs)) == 2


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 3)])
def test_single_orbit_families(family, rank):
    rs = build_root_system(family, rank)
    assert len(orbit_partition(rs)) == 1


def test_orbit_matches_full_reflection_closure():
    # independent oracle: close under reflections by every root, not only simple
    rs = build_root_system("B", 3)
    beta = Root((1, 0, 0))
    seen = {beta}
    frontier = [beta]
    while frontier:
        nxt = []
        for r in frontier:
            for a in rs.roots:
                s = reflect(r, a)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    assert weyl_orbit(beta, rs) == seen


def test_weyl_orbit_rejects_foreign_root():
    rs = build_root_system("B", 2)
    with pytest.raises(RootNotInSystem):
        weyl_orbit(Root((2, 0)), rs)


def test_root_string_examples():
    rs = build_root_system("B", 2)
    e1, e2 = Root((1, 0)), Root((0, 1))
    assert root_string(e2, e1 - e2, rs) == (0, 1)
    assert root_string(e1 - e2, e2, rs) == (0, 2)
    assert root_string(e1, e2, rs) == (1, 1)


def test_root_string_trivial_case():
    # orthogonal pair in B3: the e3-string through e1-e2 is empty both ways
    rs3 = build_root_system("B", 3)
    assert root_string(Root((1, -1, 0)), Root((0, 0, 1)), rs3) == (0, 0)


def test_root_string_rejects_proportional():
    rs = build_root_system("B", 2)
    e1 = Root((1, 0))
    with pytest.raises(ValueError):
        root_string(e1, e1, rs)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_expansion_sign_uniformity(rank):
    rs = build_root_system("B", rank)
    for r in rs.roots:
        ks = rs.expansion(r)
        assert all(k >= 0 for k in ks) or all(k <= 0 for k in ks)
        # expansion actually reconstructs the root
        acc = [0] * rs.dim
        for k, b in zip(ks, rs.base):
            for i, c in enumerate(b.coords):
                acc[i] += k * c
        assert tuple(acc) == r.coords


def test_canonical_order_is_by_height_then_lex():
    rs = build_root_system("B", 2)
    keys = [(rs.height(r), r.coords) for r in rs.roots]
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reflect_preserves_membership_hypothesis(data):
    rs = build_root_system("B", 3)
    b = data.draw(st.sampled_from(rs.roots))
    a = data.draw(st.sampled_from(rs.roots))
    assert reflect(b, a) in rs


# SHA-256 of json.dumps([[dim, roots, base, expansions in root order], ...])
# over the ranks below: a change to any dimension, root, base, canonical order
# or expansion of these systems changes it
ROOT_SYSTEM_SHA256 = {
    "A": (range(1, 9), "3910ab855261bf978b054ca6f6e2fb1a33066fa612a71c52f20140f9de9bcfa3"),
    "B": (range(2, 9), "ae71bd45662271cd0c8eb30fe63820173cfe77c5ce9ab7366cc452172d2919e2"),
    "C": (range(2, 9), "a3e167d59a90e96654ad9a1c9d01774625ab09d17533cca9760a815aedeba3f6"),
    "D": (range(3, 9), "813c946d5b8cca375ea67082edc42570edd5129d8878dbb996324b378b3abe92"),
}


@pytest.mark.parametrize("family", sorted(ROOT_SYSTEM_SHA256))
def test_root_systems_are_pinned(family):
    import hashlib
    import json

    ranks, want = ROOT_SYSTEM_SHA256[family]
    blob = []
    for l in ranks:
        rs = build_root_system(family, l)
        blob.append([rs.dim, [r.coords for r in rs.roots], [r.coords for r in rs.base],
                     [rs.expansions[r] for r in rs.roots]])
    assert hashlib.sha256(json.dumps(blob).encode()).hexdigest() == want


@pytest.mark.parametrize(
    "family, rank, message",
    [
        ("A", 0, "family A needs rank >= 1"),
        ("B", 1, "family B needs rank >= 2"),
        ("C", 1, "family C needs rank >= 2"),
        ("D", 2, "family D needs rank >= 3"),
        ("E", 2, "family must be one of ('A', 'B', 'C', 'D'), got 'E'"),
    ],
)
def test_unsupported_rank_messages(family, rank, message):
    with pytest.raises(UnsupportedRank) as exc:
        build_root_system(family, rank)
    assert str(exc.value) == message
