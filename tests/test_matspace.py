import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringforge import (
    GF,
    bilinear_class_reps,
    classify_subspaces,
    congruence_twist,
    enumerate_subspaces,
    gaussian_binomial,
    orbit_of,
    subspace_key,
    subspace_rows,
    symmetric_reps,
    tuple_compatible,
)
from ringforge import classify as classify_module
from ringforge import linalg as la
from ringforge.gl import enumerate_gl

from oracles import product_subspace_rows, raw_congruence_orbit, raw_gl


# -- the group action ------------------------------------------------------

def test_twist_matches_raw_congruence():
    F = GF(3)
    A = la.mat(F, [[1, 2], [0, 1]])
    got = {tuple(congruence_twist(F, C, A).ravel()) for C in enumerate_gl(F, 2)}
    assert got == raw_congruence_orbit(3, A)


def test_twist_composition():
    # twist(C1, twist(C2, A, e2), e1) = twist(C2^(p^e1) C1, A, e1+e2)
    F = GF(2, 2)
    rng = np.random.default_rng(0)
    G = enumerate_gl(F, 2)
    for seed in range(10):
        A = rng.integers(0, 4, size=(2, 2), dtype=np.int64)
        C1, C2 = G[rng.integers(len(G))], G[rng.integers(len(G))]
        e1, e2 = rng.integers(2), rng.integers(2)
        lhs = congruence_twist(F, C1, congruence_twist(F, C2, A, int(e2)), int(e1))
        rhs = congruence_twist(F, la.mat_mul(F, F.frobenius(C2, int(e1)), C1), A,
                               int(e1 + e2))
        assert np.array_equal(lhs, rhs)


def test_twist_preserves_rank_and_symmetry():
    F = GF(3)
    G = enumerate_gl(F, 2)
    for entries in itertools.product(range(3), repeat=4):
        A = np.array(entries, dtype=np.int64).reshape(2, 2)
        r, sym = la.rank(F, A), np.array_equal(A, A.T)
        for C in G:
            B = congruence_twist(F, C, A)
            assert la.rank(F, B) == r
            assert np.array_equal(B, B.T) == sym


def test_twist_rejects_singular():
    F = GF(2)
    with pytest.raises(ValueError, match="singular"):
        congruence_twist(F, np.array([[1, 1], [1, 1]]), la.identity(2))


# -- subspace keys ---------------------------------------------------------

def test_key_invariant_under_recombination_gf2():
    F = GF(2)
    mats = np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                    dtype=np.int64)
    base = subspace_key(F, mats)
    for B in raw_gl(2, 3):
        mixed = la.linmap_apply(F, B, la.lower(F, mats.reshape(3, 4))).reshape(3, 2, 2)
        assert subspace_key(F, mixed) == base


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_invariant_under_recombination_gf3(data):
    F = GF(3)
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    while True:
        mats = rng.integers(0, 3, size=(2, 2, 2), dtype=np.int64)
        if la.rank(F, mats.reshape(2, 4)) == 2:
            break
    while True:
        B = rng.integers(0, 3, size=(2, 2), dtype=np.int64)
        if la.rank(F, B) == 2:
            break
    mixed = la.linmap_apply(F, B, la.lower(F, mats.reshape(2, 4))).reshape(2, 2, 2)
    assert subspace_key(F, mixed) == subspace_key(F, mats)


def test_key_separates_distinct_spans():
    F = GF(2)
    a = subspace_key(F, np.array([[[1, 0], [0, 0]]]))
    b = subspace_key(F, np.array([[[0, 1], [0, 0]]]))
    assert a != b
    assert (a < b) != (b < a)


def test_key_round_trip():
    F = GF(3)
    mats = np.array([[[1, 2], [0, 1]], [[0, 0], [1, 1]]], dtype=np.int64)
    key = subspace_key(F, mats)
    assert key.rank == 2
    back = key.matrices()
    assert subspace_key(F, back) == key
    assert len(key.flat) == 2 * 4


# -- enumeration -----------------------------------------------------------

@pytest.mark.parametrize("q,s,t", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1),
                                   (3, 2, 2), (2, 3, 1), (5, 2, 1)])
def test_enumerate_counts(q, s, t):
    F = GF(q)
    rows = la.decode_codes(subspace_rows(F, s, t), q, t * s * s)
    assert len(rows) == gaussian_binomial(s * s, t, q)
    # all distinct, all rank t, all in reduced form
    seen = set()
    for row in rows:
        key = tuple(row.ravel())
        assert key not in seen
        seen.add(key)
        assert la.rank(F, row.reshape(t, s * s)) == t


# (3, 7) keys are 63 bits wide, so they are python ints
@pytest.mark.parametrize("q,r,s,t", [
    *[(q, r, 2, t) for q, r in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))
      for t in (1, 2, 3, 4)],
    (2, 1, 3, 2),
    (2, 4, 2, 1), (2, 4, 2, 3), (2, 1, 1, 1), (7, 1, 1, 1),
    (2, 1, 3, 1), (3, 1, 3, 1), (2, 1, 3, 7),
])
def test_subspace_rows_match_product_oracle(q, r, s, t):
    F = GF(q, r)
    codes = subspace_rows(F, s, t)
    want = la.encode_rows(product_subspace_rows(F.q, s, t), F.q)
    assert codes.dtype == want.dtype == (np.int64 if t * s * s * np.log2(F.q) <= 62 else object)
    assert np.array_equal(codes, want)


def test_subspace_rows_peak_is_about_twice_the_codes():
    # the blocks and their concatenation, sorted in place: no digit rows
    F = GF(2)
    subspace_rows(F, 3, 2)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        codes = subspace_rows(F, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(codes) == 788035
    assert peak <= 2.5 * codes.nbytes


# the dense BFS reads its blocks decoded in the narrowest dtype that holds q - 1
@pytest.mark.parametrize("p,r,dtype", [(251, 1, np.uint8), (2, 8, np.uint8),
                                       (257, 1, np.uint16), (2, 16, np.uint16)])
def test_subspace_rows_dtype_follows_q(p, r, dtype, monkeypatch):
    F = GF(p, r)
    blocks = []

    def keep_first_block(N, load, *args):
        blocks.append(load(0, N))
        return bfs_orbits(N, load, *args)

    bfs_orbits = classify_module._bfs_orbits
    monkeypatch.setattr(classify_module, "_bfs_orbits", keep_first_block)
    assert classify_subspaces(F, 1, 1).class_count == 1
    (block,) = blocks
    assert block.dtype == dtype and block.tolist() == [[[1]]]


def test_enumerate_subspaces_iterates_keys():
    F = GF(2)
    keys = list(enumerate_subspaces(F, 2, 2))
    assert len(keys) == gaussian_binomial(4, 2, 2)
    assert all(k.rank == 2 for k in keys)


def test_enumerate_rejects_bad_dims():
    F = GF(2)
    with pytest.raises(ValueError, match="t must lie"):
        subspace_rows(F, 2, 5)
    with pytest.raises(ValueError, match="s must be"):
        subspace_rows(F, 0, 1)


# -- compatibility ---------------------------------------------------------

def test_compatible_examples():
    F = GF(2)
    # row 2 and column 2 vanish: index 2 is dead
    rep = tuple_compatible(F, np.array([[[1, 0], [0, 0]]]))
    assert rep.independent and rep.dead_indices == (2,) and not rep.verdict
    rep = tuple_compatible(F, np.array([[[1, 1], [1, 1]]]))
    assert rep.independent and rep.dead_indices == () and rep.verdict
    # dependent pair
    rep = tuple_compatible(F, np.array([[[1, 0], [0, 0]], [[1, 0], [0, 0]]]))
    assert not rep.independent and not rep.verdict


def test_dead_index_needs_row_and_column():
    F = GF(3)
    # column 2 is zero but row 2 is not
    rep = tuple_compatible(F, np.array([[[1, 0], [2, 0]]]))
    assert rep.dead_indices == ()
    assert rep.verdict


def test_compatible_member_inside_class():
    # the class of diag(1, 0) over GF(2) contains the all-ones matrix,
    # which has no dead index
    F = GF(2)
    res = orbit_of(F, np.array([[1, 0], [0, 0]]), include_members=True)
    target = la.encode_rows(np.array([[1, 1, 1, 1]]), 2)[0]
    assert target in set(int(m) for m in res.members)


# -- representative lists --------------------------------------------------

@pytest.mark.parametrize("q,expected", [(2, 6), (3, 10), (5, 12), (7, 14)])
def test_rep_list_sizes_s2(q, expected):
    F = GF(q)
    reps = bilinear_class_reps(F, 2)
    assert len(reps) == expected
    assert any((np.asarray(M) == 0).all() for M in reps)


@pytest.mark.parametrize("q,expected", [(2, 12), (3, 25), (5, 31)])
def test_rep_list_sizes_s3(q, expected):
    F = GF(q)
    reps = bilinear_class_reps(F, 3)
    assert len(reps) == expected


def test_rep_list_gf4_sizes():
    F = GF(2, 2)
    assert len(bilinear_class_reps(F, 2)) == 8
    assert len(bilinear_class_reps(F, 3)) == 16


def test_rep_list_unsupported_size():
    with pytest.raises(ValueError, match="s = 2 and s = 3"):
        bilinear_class_reps(GF(2), 4)


@pytest.mark.parametrize("q,s,expected", [(2, 2, 3), (2, 3, 4), (3, 2, 4), (3, 3, 6)])
def test_symmetric_rep_counts(q, s, expected):
    F = GF(q)
    reps = symmetric_reps(F, s)
    assert len(reps) == expected
    for M in reps:
        M = np.asarray(M)
        assert np.array_equal(M, M.T)
        assert la.rank(F, M) >= 1


def test_symmetric_reps_odd_ranks():
    # odd characteristic: two classes per rank
    F = GF(3)
    ranks = sorted(la.rank(F, np.asarray(M)) for M in symmetric_reps(F, 3))
    assert ranks == [1, 1, 2, 2, 3, 3]


def test_symmetric_reps_char2_ranks():
    # characteristic 2: one class per odd rank, two per even rank
    F = GF(2)
    ranks = sorted(la.rank(F, np.asarray(M)) for M in symmetric_reps(F, 3))
    assert ranks == [1, 2, 2, 3]
