import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringforge import (
    GF,
    BudgetExceededError,
    classify_congruence,
    classify_subspaces,
    congruence_class_count,
    congruence_twist,
    gaussian_binomial,
    orbit_of,
    subspace_key,
    subspace_rows,
    tuple_compatible,
)
from ringforge import classify as classify_module
from ringforge import gl as gl_module
from ringforge import linalg as la
from ringforge.classify import _bfs_orbits, _canon_rows, _orbit_roots
from ringforge.gl import enumerate_gl, gl_order
from ringforge.matspace import dead_indices
from ringforge.rings import RingSpec, equivalent_spec, iso_test

from oracles import (congruence_sweep, raw_congruence_orbit,
                     raw_congruence_partition, raw_line_class_count,
                     table_components)


# -- congruence classes ----------------------------------------------------

CONGRUENCE_CELLS = [
    (2, 1, 2, 6), (3, 1, 2, 10), (5, 1, 2, 12), (7, 1, 2, 14), (2, 2, 2, 8),
    (2, 1, 3, 12), (3, 1, 3, 25), (2, 2, 3, 16),
]


@pytest.mark.parametrize("p,r,s,expected", CONGRUENCE_CELLS)
def test_congruence_counts(p, r, s, expected, classified):
    rep, _ = classified("congruence", p, r, s)
    q = p ** r
    assert rep.class_count == expected
    # the orbit partition and the generating function are independent routes
    assert expected == congruence_class_count(q, s)
    assert rep.total_objects == q ** (s * s)
    assert sum(c.orbit_size for c in rep.classes) == rep.total_objects
    for c in rep.classes:
        assert gl_order(q, s) % c.orbit_size == 0


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 3)])
def test_congruence_matches_raw_partition(p, s, classified):
    rep, _ = classified("congruence", p, 1, s)
    raw = raw_congruence_partition(p, s)
    assert rep.class_count == len(raw)
    got = {tuple(np.asarray(c.rep_matrices()[0]).ravel()) for c in rep.classes}
    want = {min(orbit) for orbit in raw}
    assert got == want
    assert sorted(c.orbit_size for c in rep.classes) == sorted(map(len, raw))


def test_congruence_flags_mark_symmetric_classes(classified):
    rep, _ = classified("congruence", 3, 1, 2)
    for c in rep.classes:
        M = np.asarray(c.rep_matrices()[0])
        assert c.commutative_capable == bool(np.array_equal(M, M.T))
    assert sum(c.commutative_capable for c in rep.classes) == 5


def test_congruence_symmetric_only(classified):
    rep, _ = classified("congruence", 3, 1, 2, symmetric_only=True)
    assert rep.class_count == 5
    assert rep.total_objects == 27
    assert sum(c.orbit_size for c in rep.classes) == 27
    raw = raw_congruence_partition(3, 2, symmetric_only=True)
    assert sorted(c.orbit_size for c in rep.classes) == sorted(map(len, raw))


def test_congruence_symmetric_only_gf2(classified):
    rep, _ = classified("congruence", 2, 1, 2, symmetric_only=True)
    assert rep.class_count == 4
    assert sum(c.orbit_size for c in rep.classes) == 8


@pytest.mark.parametrize("symmetric_only", [False, True])
@pytest.mark.parametrize("p,r,s", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                                   (2, 1, 3), (3, 1, 3), (2, 2, 3)])
def test_congruence_matches_sweep_oracle(p, r, s, symmetric_only, classified):
    rep, _ = classified("congruence", p, r, s, symmetric_only=symmetric_only)
    got = rep.to_dict()
    assert got.pop("strategy") == "bfs"
    assert got == congruence_sweep(GF(p, r), s, symmetric_only)


def test_symmetric_ground_is_built_as_keys_alone(monkeypatch):
    # the ground is its int64 keys, built ascending as digit sums: the
    # last step holds them and a q-th as many before them; decoding and
    # re-encoding every matrix peaked at 14 MB here
    grounds = []
    monkeypatch.setattr(classify_module, "_bfs_orbits",
                        lambda N, load, actions, ground: grounds.append(ground) or [])
    classify_congruence(GF(3), 4, symmetric_only=True)  # first-call caches stay out
    tracemalloc.start()
    try:
        classify_congruence(GF(3), 4, symmetric_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = 3 ** 10
    assert len(grounds[-1]) == N and (np.diff(grounds[-1]) > 0).all()
    assert peak <= 2 * 8 * N


def test_congruence_gf5_s3_within_the_byte_limit():
    # 5^9 matrices and 2 actions: a 31 MB image table
    rep = classify_congruence(GF(5), 3)
    assert rep.class_count == 31 == congruence_class_count(5, 3)
    assert rep.total_objects == 5 ** 9


def test_congruence_s1():
    rep = classify_congruence(GF(5), 1)
    assert rep.class_count == 3  # zero, squares, non-squares
    assert rep.total_objects == 5


def test_congruence_compatible_flag(classified):
    # diag(1, 0) has a dead index but its class holds the all-ones matrix
    rep, _ = classified("congruence", 2, 1, 2)
    by_rep = {tuple(np.asarray(c.rep_matrices()[0]).ravel()): c for c in rep.classes}
    cls = by_rep[(0, 0, 0, 1)]  # canonical form of the rank-1 symmetric class
    assert cls.contains_compatible


# -- subspace classes ------------------------------------------------------

SUBSPACE_CELLS = [
    # p, s, t, classes, commutative-capable
    (2, 2, 1, 5, 3), (3, 2, 1, 7, 3), (5, 2, 1, 9, 3),
    (2, 2, 2, 10, 3), (3, 2, 2, 14, 3), (5, 2, 2, 20, 3), (7, 2, 2, 26, 3),
    (2, 2, 3, 5, 1), (3, 2, 3, 7, 1), (5, 2, 3, 9, 1),
    (2, 3, 1, 11, 4), (3, 3, 1, 15, 4), (5, 3, 1, 19, 4),
    (2, 3, 2, 322, 15),
]


@pytest.mark.parametrize("p,s,t,classes,capable", SUBSPACE_CELLS)
def test_subspace_counts(p, s, t, classes, capable, classified):
    rep, _ = classified("subspaces", p, 1, s, t)
    assert rep.class_count == classes
    assert sum(1 for c in rep.classes if c.commutative_capable) == capable
    assert rep.total_objects == gaussian_binomial(s * s, t, p)
    assert sum(c.orbit_size for c in rep.classes) == rep.total_objects
    for c in rep.classes:
        assert gl_order(p, s) % c.orbit_size == 0


def test_line_classes_match_raw_scan():
    for p, expected in ((2, 5), (3, 7), (5, 9)):
        assert raw_line_class_count(p, 2) == expected
    assert raw_line_class_count(2, 3) == 11


def test_triple_space_orbit_sizes(classified):
    rep, _ = classified("subspaces", 2, 1, 2, 3)
    assert sorted(c.orbit_size for c in rep.classes) == [1, 2, 3, 3, 6]


# -- every class of nonzero spaces holds a compatible member --

def _member_has_no_dead_index(F, c):
    """Whether some member of the orbit of c, listed by ``orbit_of``
    (Frobenius included for spaces), has no dead index: the scan the
    classify module's proof makes needless."""
    res = orbit_of(F, c.rep, include_members=True)
    t, s = c.rep_matrices().shape[:2]
    mats = la.decode_codes(np.array(res.members), F.q, t * s * s)
    return bool((~dead_indices(mats.reshape(-1, t, s, s)).any(axis=1)).any())


@pytest.mark.parametrize("kind,p,r,s,t", [
    ("subspace", 2, 1, 2, 1), ("subspace", 2, 1, 2, 2), ("subspace", 2, 1, 3, 1),
    ("subspace", 2, 1, 3, 2), ("subspace", 3, 1, 2, 2), ("subspace", 2, 2, 2, 1),
    ("congruence", 2, 1, 2, None), ("congruence", 3, 1, 2, None),
])
def test_compatible_flag_matches_member_scan(kind, p, r, s, t, classified):
    F = GF(p, r)
    if kind == "subspace":
        rep, _ = classified("subspaces", p, r, s, t)
    else:
        rep, _ = classified("congruence", p, r, s)
    for c in rep.classes:
        assert c.contains_compatible == _member_has_no_dead_index(F, c)
    if kind == "subspace" and (p, r, s, t) == (2, 1, 2, 1):
        # the line of E_22 is its class's rep and has a dead index, so a
        # flag read off the rep would be wrong
        (c,) = [c for c in rep.classes if c.rep.flat == (0, 0, 0, 1)]
        assert dead_indices(c.rep_matrices()[None]).any() and c.contains_compatible
    if kind == "congruence":
        assert [c.rep_flat() for c in rep.classes if not c.contains_compatible] == [
            (0,) * (s * s)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), q=st.sampled_from([2, 3, 4, 5]),
       s=st.integers(1, 3), t=st.integers(1, 3), e=st.integers(0, 1))
def test_proof_congruence_leaves_no_dead_index(seed, q, s, t, e):
    # the classify module's C: with k a live index of a nonzero tuple S,
    # C = I + sum of E_kj over the dead indices j, and C^T phi^e(S) C has
    # no dead index
    F = GF(2, 2) if q == 4 else GF(q)
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, q, size=(t, s, s), dtype=np.int64)
    mats[rng.random(mats.shape) < 0.7] = 0
    if not mats.any():
        mats[0, 0, 0] = 1
    dead = dead_indices(mats[None])[0]
    C = la.identity(s)
    C[np.flatnonzero(~dead)[0], dead] = 1
    twisted = np.stack([congruence_twist(F, C, A, e) for A in mats])
    before, after = tuple_compatible(F, mats), tuple_compatible(F, twisted)
    assert after.dead_indices == ()
    assert after.independent == before.independent
    assert after.verdict == before.independent


def test_reps_are_canonical_and_sorted(classified):
    rep, _ = classified("subspaces", 3, 1, 2, 2)
    keys = [c.rep.flat for c in rep.classes]
    assert keys == sorted(keys)
    for c in rep.classes[:4]:
        res = orbit_of(GF(3), c.rep)
        assert res.canonical_rep.flat == c.rep.flat
        assert res.orbit_size == c.orbit_size


def test_commutative_capable_means_symmetric_basis(classified):
    rep, _ = classified("subspaces", 2, 1, 2, 2)
    for c in rep.classes:
        mats = c.rep_matrices()
        all_sym = all(np.array_equal(M, M.T) for M in mats)
        assert c.commutative_capable == all_sym


# -- duality: W -> W^perp under <A, B> = sum A_ij B_ij --
# <C^T A C, B> = <A, C B C^T>, so W^perp maps the orbit of W onto the orbit
# of W^perp under C -> (C^T)^-1, and the entrywise Frobenius keeps W^perp;
# t-spaces and (s^2 - t)-spaces have the same class count and orbit sizes

@pytest.mark.parametrize("p,r,s,t,use_frobenius", [
    (2, 1, 2, 1, True), (3, 1, 2, 1, True), (5, 1, 2, 1, True), (7, 1, 2, 1, True),
    (2, 2, 2, 1, True), (2, 2, 2, 1, False), (3, 2, 2, 1, True), (3, 2, 2, 1, False),
    (2, 1, 3, 1, True), (3, 1, 3, 1, True),
])
def test_complement_duality_keeps_counts_and_orbit_sizes(p, r, s, t, use_frobenius,
                                                         classified):
    small, _ = classified("subspaces", p, r, s, t, use_frobenius=use_frobenius)
    large, _ = classified("subspaces", p, r, s, s * s - t, use_frobenius=use_frobenius)
    assert small.class_count == large.class_count
    assert (sorted(c.orbit_size for c in small.classes)
            == sorted(c.orbit_size for c in large.classes))


# -- strategies --------------------------------------------------------

# (2, 3, 2) backs the verify row and the counting note that cite the
# sweep and the generator BFS for its 15 all-symmetric classes
@pytest.mark.parametrize("p,s,t", [(3, 2, 1), (2, 2, 2), (3, 2, 2), (2, 2, 3),
                                   (3, 3, 1), (2, 3, 2)])
def test_sweep_and_bfs_agree(p, s, t):
    F = GF(p)
    a = classify_subspaces(F, s, t, strategy="sweep")
    b = classify_subspaces(F, s, t, strategy="bfs")
    a_d, b_d = a.to_dict(), b.to_dict()
    a_d["strategy"] = b_d["strategy"] = "-"
    assert json.dumps(a_d, sort_keys=True) == json.dumps(b_d, sort_keys=True)


# the sweep images each orbit by all of GL(s, q) and every Frobenius power,
# so it does not depend on the generators; the BFS acts at s = 3 by x D'
# and "Frobenius, then Z" only, at s = 2 by x, "Frobenius, then Z" and D
@pytest.mark.parametrize("p,r,s,t", [(2, 2, 3, 1), (2, 2, 2, 2), (3, 2, 2, 2),
                                     (2, 4, 2, 1)])
def test_sweep_and_bfs_agree_with_frobenius(p, r, s, t):
    F = GF(p, r)
    a = classify_subspaces(F, s, t, strategy="sweep")
    b = classify_subspaces(F, s, t, strategy="bfs")
    a_d, b_d = a.to_dict(), b.to_dict()
    a_d["strategy"] = b_d["strategy"] = "-"
    assert json.dumps(a_d, sort_keys=True) == json.dumps(b_d, sort_keys=True)


@pytest.mark.parametrize("p,r,s,use_frobenius,shape", [
    (2, 2, 3, True, [False, True]),
    (2, 3, 3, True, [False, True]),
    (2, 2, 2, True, [False, True, False]),
    (2, 2, 1, True, [False, None]),                  # no shift at s = 1
    (2, 2, 3, False, [False, False]),
    (5, 1, 3, True, [False, False]),                 # r = 1: nothing to twist
    # s given as sigma: the fold lands on the Z of the second block
    (2, 2, (0, 1, 1), True, [False, False, True, False]),
])
def test_group_actions_fold_the_frobenius_into_the_shift(p, r, s, use_frobenius, shape):
    # shape: per action, whether the Frobenius comes first, None for the
    # Frobenius alone, whose generator is the identity and whose map is
    # kron(I, Phi), Phi the matrix of phi on the digits of one entry
    F = GF(p, r)
    sigma = (0,) * s if isinstance(s, int) else s
    n = len(sigma)
    gens, acts = classify_module._group_actions(F, sigma, use_frobenius)
    alone = [twist and np.array_equal(g, la.identity(n)) for g, (_, twist) in zip(gens, acts)]
    assert [None if a else twist for a, (_, twist) in zip(alone, acts)] == shape
    assert len(gens) == len(acts)
    Phi = np.array([F.element_digits(F.frobenius(p ** i)) for i in range(r)])
    frob_map = np.kron(np.eye(n * n, dtype=np.int64), Phi)
    for a, (L, _) in zip(alone, acts):
        assert L.dtype == la._lowered_dtype(F, n * n)
        assert not a or np.array_equal(L, frob_map)
    if not any(sigma):
        maps = la.kron_batch(F, gens, gens)
        assert all(np.array_equal(L, frob_map @ M % p if twist else M)
                   for (L, twist), M in zip(acts, maps))
    # action i is A -> sum_x g_i^T P_x phi(A) Frob_x(g_i), phi only when
    # twisted, P_x keeping the rows i with sigma_i = x
    rng = np.random.default_rng(p + r + n)
    A = rng.integers(0, F.q, size=(5, 1, n * n))
    rows_of = {x: (np.asarray(sigma) == x)[:, None] for x in set(sigma)}
    for g, (L, twist) in zip(gens, acts):
        img = la.linmap_apply(F, A, L)
        want = []
        for M in A.reshape(5, n, n):
            M = F.frobenius(M) if twist else M
            acc = np.zeros((n, n), dtype=np.int64)
            for x, rows in rows_of.items():
                term = la.mat_mul(F, g.T, np.where(rows, M, 0))
                acc = F._add_raw(acc, la.mat_mul(F, term, F._frob_raw(g, x)))
            want.append(acc)
        assert np.array_equal(img.reshape(5, n, n), np.array(want))


@pytest.mark.parametrize("p,r,sigma", [
    (2, 2, (0, 1, 0)), (2, 2, (0, 1)), (2, 2, (1, 1)), (2, 2, (0, 0, 0)),
    (3, 2, (1, 0, 1)), (3, 2, (0,)), (2, 3, (0, 0, 2)), (2, 3, (0, 1, 2)),
])
def test_group_actions_generate_the_stabilizer_and_the_frobenius(p, r, sigma):
    """Closing (I, 0) under the actions, a twisted one taking (C, e) to
    (Frob(C) g, e + 1) and any other to (C g, e), reaches every element
    of prod_x GL(s_x, q) x| <phi>: r times the product of the |GL(s_x, q)|."""
    F = GF(p, r)
    n = len(sigma)
    gens, acts = classify_module._group_actions(F, sigma, use_frobenius=True)

    def keys(C, e):
        return la.encode_rows(C.reshape(len(C), n * n), F.q) * r + e

    C, e = la.identity(n)[None], np.zeros(1, dtype=np.int64)
    seen = keys(C, e)
    while len(C):
        C = np.concatenate([la.mat_mul(F, F._frob_raw(C, 1) if twist else C, g)
                            for g, (_, twist) in zip(gens, acts)])
        e = np.concatenate([(e + twist) % r for _, twist in acts])
        k, first = np.unique(keys(C, e), return_index=True)
        fresh = ~np.isin(k, seen)
        seen = np.concatenate([seen, k[fresh]])
        C, e = C[first[fresh]], e[first[fresh]]
    want = r
    for x in set(sigma):
        want *= gl_order(F.q, sigma.count(x))
    assert len(seen) == want


def test_auto_strategy_matches_explicit():
    F = GF(2)
    auto = classify_subspaces(F, 2, 2, strategy="auto")
    sweep = classify_subspaces(F, 2, 2, strategy="sweep")
    assert auto.class_count == sweep.class_count
    assert [c.rep.flat for c in auto.classes] == [c.rep.flat for c in sweep.classes]


# scalars fix every subspace, so a sweep computes at least N (q - 1)
# images; BFS computes N per action, 3 per object at s = 2
@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (11, 1), (13, 1)])
def test_auto_picks_bfs_when_scalars_outweigh_generators(p, r):
    assert classify_subspaces(GF(p, r), 2, 2).strategy == "bfs"


def test_auto_runs_bfs_and_checks_budget_first(classified, monkeypatch):
    rep, _ = classified("subspaces", 2, 1, 3, 2)
    assert rep.strategy == "bfs"

    def no_ground_set(*args, **kwargs):
        raise AssertionError("ground set built before the byte check")

    # the byte check runs before the 788k-row ground set is built
    monkeypatch.setattr(classify_module, "subspace_rows", no_ground_set)
    monkeypatch.setattr(classify_module, "_GROUND_BYTES", 0)
    with pytest.raises(BudgetExceededError, match="ground set of 788035 subspaces"):
        classify_subspaces(GF(2), 3, 3)


def _orbit_record(res):
    rep = res.canonical_rep
    rep = rep.rows if res.kind == "subspace" else rep.tolist()
    return res.kind, rep, res.orbit_size, res.members


def _iso_record(a, d):
    w = iso_test(a, d)
    return w.sigma, w.C.tolist(), w.B.tolist(), w.v_perm


# an r > 1 pair whose witness needs the Frobenius
ISO_GF8 = RingSpec(GF(2, 3), 2, 2, 0, np.array([[[6, 2], [0, 2]], [[3, 6], [3, 0]]]),
                   (1, 1), (2, 2))


# blocks of 7 objects put block edges inside orbits and leave a ragged
# last block; the orbit closures' frontiers reach 135 to 1425 keys
@pytest.mark.parametrize("call", [
    lambda: classify_subspaces(GF(3), 2, 2).to_dict(),
    lambda: classify_subspaces(GF(2), 3, 2).to_dict(),
    lambda: classify_subspaces(GF(2, 2), 2, 1).to_dict(),
    lambda: classify_congruence(GF(3), 2).to_dict(),
    lambda: classify_congruence(GF(2, 2), 2, symmetric_only=True).to_dict(),
    lambda: _orbit_record(orbit_of(
        GF(2, 2), subspace_key(GF(2, 2), [[[1, 2, 0], [0, 1, 3], [3, 0, 1]]]),
        include_members=True)),
    lambda: _orbit_record(orbit_of(GF(3), [[1, 2, 0], [0, 1, 1], [2, 0, 1]],
                                   include_members=True)),
    lambda: _iso_record(ISO_GF8, equivalent_spec(ISO_GF8, [[2, 4], [6, 5]], sigma_e=2,
                                                 B=[[1, 7], [0, 4]])),
])
def test_bfs_block_size_does_not_change_reports(call, monkeypatch):
    whole = call()
    monkeypatch.setattr(classify_module, "_BFS_CHUNK", 7)
    assert call() == whole


# -- the packed GF(2) engine against the dense one --

# over GF(2) use_frobenius changes nothing, so both settings must agree
@pytest.mark.parametrize("s,t,use_frobenius", [
    (2, 1, False), (2, 2, False), (2, 3, False), (2, 4, False),
    (3, 1, False), (3, 2, False), (3, 2, True),
])
def test_packed_and_dense_engines_give_identical_reports(s, t, use_frobenius,
                                                         monkeypatch):
    packed_runs = []
    real_packed = classify_module._packed_bfs_subspaces

    def packed(*args):
        packed_runs.append(args[1:3])
        return real_packed(*args)

    monkeypatch.setattr(classify_module, "_packed_bfs_subspaces", packed)
    F = GF(2)
    got = json.dumps(classify_subspaces(F, s, t, use_frobenius=use_frobenius)
                     .to_dict(), sort_keys=True)
    assert packed_runs == [(s, t)]
    monkeypatch.setattr(classify_module, "_packed_bfs_subspaces",
                        classify_module._dense_bfs_subspaces)
    want = json.dumps(classify_subspaces(F, s, t, use_frobenius=use_frobenius)
                      .to_dict(), sort_keys=True)
    assert got == want


def test_gf2_keys_wider_than_int64_keep_the_dense_path(monkeypatch):
    def no_packed(*args):
        raise AssertionError("72-bit keys entered the packed engine")

    monkeypatch.setattr(classify_module, "_packed_bfs_subspaces", no_packed)
    rep = classify_subspaces(GF(2), 3, 8)
    assert rep.class_count == 11
    assert rep.total_objects == gaussian_binomial(9, 8, 2)


# -- orbit components of the BFS image table --

def _path_table(rng, n):
    """A path through n nodes in random order as a one-column image table;
    its last node maps to itself."""
    order = rng.permutation(n).astype(np.int32)
    dst = np.empty((n, 1), dtype=np.int32)
    dst[order[:-1], 0] = order[1:]
    dst[order[-1], 0] = order[-1]
    return dst


def _image_tables():
    rng = np.random.default_rng(9)
    tables = {"path": _path_table(rng, 3000),
              "two paths": np.hstack([_path_table(rng, 2000), _path_table(rng, 2000)])}
    # self-loops everywhere, isolated nodes, duplicate and reversed edges
    loops = np.tile(np.arange(40, dtype=np.int32)[:, None], (1, 3))
    loops[5] = [9, 9, 5]
    loops[9] = [5, 9, 5]
    loops[30, 1:] = [2, 39]
    tables["loops and duplicates"] = loops
    tables["one node"] = np.zeros((1, 2), dtype=np.int32)
    tables["random sparse"] = rng.integers(0, 600, size=(600, 2)).astype(np.int32)
    return tables


IMAGE_TABLES = _image_tables()


# blocks of 7 rows put hooks and jumps across block edges and leave a
# ragged last block
@pytest.mark.parametrize("name", IMAGE_TABLES)
def test_orbit_roots_match_component_oracle(name, monkeypatch):
    dst = IMAGE_TABLES[name]
    monkeypatch.setattr(classify_module, "_BFS_CHUNK", 7)
    assert np.array_equal(_orbit_roots(dst), table_components(dst))


@pytest.mark.parametrize("name", IMAGE_TABLES)
def test_bfs_orbits_match_component_oracle(name, monkeypatch):
    dst = IMAGE_TABLES[name]
    monkeypatch.setattr(classify_module, "_BFS_CHUNK", 7)
    firsts, sizes = np.unique(table_components(dst), return_counts=True)
    actions = [lambda V, a=a: dst[V, a] for a in range(dst.shape[1])]
    got = _bfs_orbits(len(dst), lambda lo, hi: np.arange(lo, hi), actions, None)
    assert [(int(i), int(n)) for i, n in got] == list(zip(firsts.tolist(), sizes.tolist()))


def test_orbit_roots_allocates_parent_and_one_block(monkeypatch):
    # beyond the 800 kB parent of 200k nodes the union-find holds one
    # block's gathers and compares; whole-column temporaries take 32
    # bytes a node, 6.4 MB
    monkeypatch.setattr(classify_module, "_BFS_CHUNK", 4096)
    N = 200_000
    dst = np.random.default_rng(4).integers(0, N, size=(N, 2)).astype(np.int32)
    tracemalloc.start()
    try:
        roots = _orbit_roots(dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * N + 64 * 4096
    assert np.array_equal(roots, table_components(dst))


def test_orbit_roots_on_a_real_image_table(monkeypatch):
    tables = []

    def keep(dst):
        tables.append(dst.copy())
        return _orbit_roots(dst)

    monkeypatch.setattr(classify_module, "_orbit_roots", keep)
    F = GF(3)
    rep = classify_subspaces(F, 2, 2)
    (dst,) = tables
    assert dst.shape == (gaussian_binomial(4, 2, 3), len(gl_module.gl_generators(F, 2)))
    label = table_components(dst)
    assert np.array_equal(_orbit_roots(dst), label)
    firsts, sizes = np.unique(label, return_counts=True)
    rows = la.decode_codes(subspace_rows(F, 2, 2), 3, 8)
    assert [c.rep.flat for c in rep.classes] == [tuple(int(x) for x in rows[i]) for i in firsts]
    assert [c.orbit_size for c in rep.classes] == sizes.tolist()


def test_canon_rows_rejects_rank_loss():
    F = GF(3)
    stack = np.array([[[1, 0, 0, 0], [0, 1, 0, 0]],
                      [[1, 2, 0, 1], [2, 1, 0, 2]]], dtype=np.int64)
    with pytest.raises(RuntimeError, match="lost rank"):
        _canon_rows(F, stack, 2)
    lines = np.array([[[1, 2, 0, 1]], [[0, 0, 0, 0]]], dtype=np.int64)
    with pytest.raises(RuntimeError, match="expected 1, got 0"):
        _canon_rows(F, lines, 1)


def test_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        classify_subspaces(GF(2), 2, 1, strategy="guess")


def test_orbit_byte_limit_is_checked_before_a_level_is_imaged(monkeypatch):
    # a limit of the first level's predicted bytes admits that level and
    # refuses the second, which holds more keys, before any of its images
    # is computed
    F = GF(3)
    A = np.eye(2, dtype=np.int64)
    n_actions = len(classify_module._group_actions(F, (0, 0))[1])
    calls = []
    keys = classify_module._keys
    monkeypatch.setattr(classify_module, "_keys",
                        lambda *args: calls.append(args) or keys(*args))
    monkeypatch.setattr(classify_module, "_GROUND_BYTES", 0)
    knob = re.escape("(change it with ringforge.classify._GROUND_BYTES)")
    with pytest.raises(BudgetExceededError,
                       match=rf"orbit closure level \(1 seen keys, {n_actions} images\) "
                             r"needs about \d+ bytes, over the ground-set limit of 0 "
                             "bytes " + knob) as err:
        orbit_of(F, A)
    assert calls == []
    first = int(re.search(r"needs about (\d+) bytes", str(err.value)).group(1))
    monkeypatch.setattr(classify_module, "_GROUND_BYTES", first)
    with pytest.raises(BudgetExceededError, match="orbit closure level .*" + knob):
        orbit_of(F, A)
    assert len(calls) == n_actions


def test_s0_is_refused():
    with pytest.raises(ValueError, match="s must be >= 1, got 0"):
        orbit_of(GF(3), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="s must be >= 1, got 0"):
        classify_module._group_actions(GF(3), ())


def test_orbit_of_peak_is_a_few_times_the_member_keys():
    # the orbit is held as keys and imaged in blocks of frontier keys, so
    # no level's decoded images are held whole: 7.2 times the 1.5 MB of
    # keys; imaging each level whole peaks at 16 times
    F = GF(5)
    A = np.array([[4, 3, 2], [1, 1, 0], [0, 0, 0]])
    orbit_of(F, np.eye(3, dtype=np.int64))  # first-call imports and caches stay out
    tracemalloc.start()
    try:
        res = orbit_of(F, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.orbit_size == 186000
    assert peak <= 10 * 8 * res.orbit_size


def test_ground_limit_errors_name_the_knob(monkeypatch):
    monkeypatch.setattr(classify_module, "_GROUND_BYTES", 10)
    knob = re.escape("limit of 10 bytes (change it with ringforge.classify._GROUND_BYTES)")
    with pytest.raises(BudgetExceededError, match="ground set of 16 matrices .*" + knob):
        classify_congruence(GF(2), 2)
    with pytest.raises(BudgetExceededError, match="ground set of 15 subspaces .*" + knob):
        classify_subspaces(GF(2), 2, 1)
    with pytest.raises(BudgetExceededError, match="ground set of 15 subspaces .*" + knob):
        classify_subspaces(GF(2), 2, 1, strategy="sweep")


def test_sweep_tensor_is_counted_before_the_group_is_built(monkeypatch):
    # GL(2, 32) lowered to GF(2) is 1,014,816 x 20 x 20 float32, 1.6 GB;
    # the refusal comes before any group element is built
    def no_group(*args, **kwargs):
        raise AssertionError("group built before the byte check")

    monkeypatch.setattr(gl_module, "enumerate_gl", no_group)
    with pytest.raises(BudgetExceededError, match="ground set of 33825 subspaces .*_GROUND_BYTES"):
        classify_subspaces(GF(2, 5), 2, 1, strategy="sweep")


def _predicted_peak(monkeypatch, call):
    """The byte limit's prediction for a classification, read off the
    error that a zero limit raises before anything is built."""
    monkeypatch.setattr(classify_module, "_GROUND_BYTES", 0)
    with pytest.raises(BudgetExceededError, match="needs about") as err:
        call()
    monkeypatch.undo()
    return int(re.search(r"needs about (\d+) bytes", str(err.value)).group(1))


# every cell the old limit of 5 * 10^6 objects admitted, with the widest
# object keys and the most actions at that size, and the two cells it
# refused that run in about 500 MB
@pytest.mark.parametrize("p,r,s,t", [(2, 1, 3, 4), (2, 1, 3, 5), (47, 1, 2, 2),
                                     (167, 1, 2, 1), (13, 2, 2, 1), (2, 7, 2, 3),
                                     (2, 1, 3, 7), (7, 1, 3, 1), (3, 1, 3, 2)])
def test_ground_byte_limit_admits(p, r, s, t, monkeypatch):
    need = _predicted_peak(monkeypatch, lambda: classify_subspaces(GF(p, r), s, t))
    assert need <= classify_module._GROUND_BYTES


@pytest.mark.parametrize("p,r,s,t", [(5, 1, 3, 2), (2, 1, 4, 2), (11, 1, 3, 1)])
def test_ground_byte_limit_refuses(p, r, s, t, monkeypatch):
    need = _predicted_peak(monkeypatch, lambda: classify_subspaces(GF(p, r), s, t))
    assert need > classify_module._GROUND_BYTES
    with pytest.raises(BudgetExceededError, match="_GROUND_BYTES"):
        classify_subspaces(GF(p, r), s, t)


def test_ground_byte_limit_admits_congruence(monkeypatch):
    # GF(7) s = 3 holds a 323 MB image table and a 161 MB parent; GF(8)
    # s = 3 would hold 1.6 GB
    for p, r, s in ((47, 1, 2), (5, 1, 3), (7, 1, 3)):
        need = _predicted_peak(monkeypatch, lambda: classify_congruence(GF(p, r), s))
        assert need <= classify_module._GROUND_BYTES
    with pytest.raises(BudgetExceededError, match="ground set of 134217728 matrices"):
        classify_congruence(GF(2, 3), 3)


@pytest.mark.parametrize("call", [
    lambda: classify_subspaces(GF(5), 3, 1),
    lambda: classify_subspaces(GF(2), 3, 3),
    lambda: classify_congruence(GF(2, 2), 3),
    lambda: classify_congruence(GF(2), 5, symmetric_only=True),
    lambda: classify_subspaces(GF(3), 3, 1, strategy="sweep"),
], ids=["GF(5) s=3 t=1", "GF(2) s=3 t=3", "congruence GF(4) s=3",
        "symmetric congruence GF(2) s=5", "sweep GF(3) s=3 t=1"])
def test_ground_byte_prediction_covers_the_traced_peak(call, monkeypatch):
    need = _predicted_peak(monkeypatch, call)
    call()                              # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_enum_limit_error_names_the_knob(monkeypatch):
    monkeypatch.setattr(gl_module, "ENUM_LIMIT", 100)
    knob = re.escape("limit of 100 (change it with ringforge.gl.ENUM_LIMIT)")
    with pytest.raises(ValueError, match="GL\\(3, 2\\) has 168 elements, over the "
                                         "enumeration " + knob):
        enumerate_gl(GF(2), 3)


# -- Frobenius twists over GF(4) -------------------------------------------

def test_gf4_line_classes(classified):
    with_frob, _ = classified("subspaces", 2, 2, 2, 1)
    without, _ = classified("subspaces", 2, 2, 2, 1, use_frobenius=False)
    assert with_frob.class_count == 6
    assert without.class_count == 7


def test_gf4_plane_classes(classified):
    rep, _ = classified("subspaces", 2, 2, 2, 2)
    assert rep.class_count == 13
    assert rep.total_objects == 357
    for c in rep.classes:
        assert (2 * gl_order(4, 2)) % c.orbit_size == 0


def test_frobenius_classes_are_unions(classified):
    fine, _ = classified("subspaces", 2, 2, 2, 1, use_frobenius=False)
    F = GF(2, 2)
    coarse_of = {}
    for c in fine.classes:
        res = orbit_of(F, c.rep, use_frobenius=True)
        coarse_of.setdefault(res.canonical_rep.flat, []).append(c.orbit_size)
    coarse, _ = classified("subspaces", 2, 2, 2, 1)
    assert len(coarse_of) == coarse.class_count
    sizes = {c.rep.flat: c.orbit_size for c in coarse.classes}
    for key, parts in coarse_of.items():
        assert sizes[key] == sum(parts)


# -- orbit_of --------------------------------------------------------------

def test_orbit_of_matrix_matches_class(classified):
    rep, _ = classified("congruence", 3, 1, 2)
    for c in rep.classes:
        res = orbit_of(GF(3), np.asarray(c.rep_matrices()[0]))
        assert res.orbit_size == c.orbit_size
        assert np.array_equal(np.asarray(res.canonical_rep),
                              np.asarray(c.rep_matrices()[0]))


def test_orbit_of_members():
    F = GF(2)
    res = orbit_of(F, np.array([[1, 0], [0, 1]]), include_members=True)
    assert len(res.members) == res.orbit_size
    assert res.kind == "congruence"


@pytest.mark.parametrize("p,s,seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2), (3, 3, 3),
                                       (5, 2, 4), (7, 2, 5)])
def test_orbit_of_members_match_raw_orbit(p, s, seed):
    A = np.random.default_rng(seed).integers(0, p, size=(s, s))
    res = orbit_of(GF(p), A, include_members=True)
    want = sorted(int(la.encode_rows(np.array(M), p)) for M in raw_congruence_orbit(p, A))
    assert list(res.members) == want
    assert res.orbit_size == len(want)
    assert np.array_equal(res.canonical_rep, la.decode_codes(want[0], p, s * s).reshape(s, s))


@pytest.mark.parametrize("p,r,s,t", [(2, 1, 3, 2), (3, 1, 2, 2), (2, 2, 2, 1),
                                     (2, 2, 2, 2), (5, 1, 2, 3), (2, 2, 3, 1)])
def test_orbit_of_subspace_matches_classes(p, r, s, t, classified):
    F = GF(p, r)
    rep, _ = classified("subspaces", p, r, s, t)
    sizes = {c.rep.flat: c.orbit_size for c in rep.classes}
    codes = subspace_rows(F, s, t)
    rows = la.decode_codes(codes, F.q, t * s * s)
    for i in np.random.default_rng(p * 100 + s * 10 + t).integers(0, len(rows), 6):
        key = subspace_key(F, rows[i].reshape(t, s, s))
        res = orbit_of(F, key, include_members=True)
        assert sizes[res.canonical_rep.flat] == res.orbit_size == len(res.members)
        assert int(codes[i]) in res.members
        assert np.isin(np.array(res.members), codes).all()


def test_orbit_of_keys_wider_than_int64(classified):
    # 8 x 9 entries over GF(2) make 72-bit keys, which encode_rows returns
    # as python ints
    F = GF(2)
    rep, _ = classified("subspaces", 2, 1, 3, 8)
    assert rep.class_count == 11
    sizes = {c.rep.flat: c.orbit_size for c in rep.classes}
    for c in rep.classes:
        res = orbit_of(F, c.rep)
        assert res.canonical_rep == c.rep and res.orbit_size == c.orbit_size
    rows = la.decode_codes(subspace_rows(F, 3, 8), 2, 72)
    for i in np.random.default_rng(8).integers(0, len(rows), 12):
        res = orbit_of(F, subspace_key(F, rows[i].reshape(8, 3, 3)))
        assert sizes[res.canonical_rep.flat] == res.orbit_size


def test_orbit_of_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        orbit_of(GF(2), np.ones((2, 3), dtype=np.int64))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_orbit_invariant_under_twist(seed):
    F = GF(3)
    rng = np.random.default_rng(seed)
    while True:
        mats = rng.integers(0, 3, size=(2, 2, 2), dtype=np.int64)
        if la.rank(F, mats.reshape(2, 4)) == 2:
            break
    G = enumerate_gl(F, 2)
    C = G[rng.integers(len(G))]
    twisted = np.stack([congruence_twist(F, C, M) for M in mats])
    a = orbit_of(F, subspace_key(F, mats))
    b = orbit_of(F, subspace_key(F, twisted))
    assert a.canonical_rep.flat == b.canonical_rep.flat
    assert a.orbit_size == b.orbit_size


# -- report plumbing -------------------------------------------------------

def test_report_serialization(classified):
    rep, _ = classified("subspaces", 2, 1, 2, 1)
    d = rep.to_dict()
    assert d["kind"] == "subspace"
    assert d["class_count"] == 5
    assert len(d["classes"]) == 5
    assert all(len(c["rep"]) == 1 for c in d["classes"])  # t = 1 tuple
    rows = rep.to_csv_rows()
    assert rows[0] == ["rep", "orbit_size", "contains_compatible",
                       "commutative_capable"]
    assert len(rows) == 6
    json.dumps(d)  # plain types only


def test_congruence_report_shape(classified):
    rep, _ = classified("congruence", 2, 1, 2)
    d = rep.to_dict()
    assert d["kind"] == "congruence"
    assert np.asarray(d["classes"][0]["rep"]).shape == (2, 2)
