import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringforge import (
    GF,
    AutomorphismConstraintError,
    BudgetExceededError,
    IsoWitness,
    Ring,
    RingSpec,
    check_axioms,
    count_s1,
    equivalent_spec,
    iso_test,
    ring_structure,
    verify_witness,
)
from ringforge import classify, gl, rings
from ringforge import linalg as la

from conftest import prime_spec
from oracles import (brute_structure, iso_exhaustive, ring_mul_scalar,
                     span_invariant_all_codes, tail_alignment_greedy)


def gf4_spec(mats, sigma, theta, lam=0):
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim == 2:
        mats = mats[None, :, :]
    return RingSpec(GF(2, 2), mats.shape[1], mats.shape[0], lam, mats,
                    tuple(sigma), tuple(theta))


@pytest.fixture(scope="module")
def R8():
    # q = 2, s = t = 1: the order-8 ring F + Fu + Fw with u^2 = w
    return Ring(prime_spec(2, [[1]]))


# -- construction and validation -------------------------------------------

def test_order8_basics(R8):
    assert R8.order == 8
    assert R8.n == 3
    assert R8.zero() == (0, 0, 0)
    assert R8.one() == (1, 0, 0)
    u, w = (0, 1, 0), (0, 0, 1)
    assert R8.mul(u, u) == w
    assert R8.mul(u, w) == R8.zero()
    assert R8.mul(w, w) == R8.zero()
    assert R8.mul(R8.one(), u) == u
    assert R8.add(u, u) == R8.zero()  # characteristic 2


def test_order8_table_against_direct_formula(R8):
    # independent oracle: the product written out coordinate by coordinate
    def direct(x, y):
        a0, a1, w1 = x
        b0, b1, v1 = y
        return ((a0 * b0) % 2,
                (a0 * b1 + a1 * b0) % 2,
                (a0 * v1 + w1 * b0 + a1 * b1) % 2)

    T = R8.mul_table()
    for i in range(8):
        for j in range(8):
            assert R8.element(T[i, j]) == direct(R8.element(i), R8.element(j))


def test_element_index_round_trip(R8):
    for i in range(R8.order):
        assert R8.index(R8.element(i)) == i
    E = R8.element_array()
    assert E.shape == (8, 3)
    assert R8.element(5) == tuple(E[5])


def test_element_array_bound(monkeypatch):
    ring = Ring(prime_spec(2, [[1]], lam=17))       # 2^20 elements of 20 codes
    monkeypatch.setattr(classify, "_GROUND_BYTES", 8 * 2 ** 20 * 20 - 1)
    with pytest.raises(BudgetExceededError,
                       match=r"1048576 elements needs about 167772160 bytes.*"
                             r"ringforge\.classify\._GROUND_BYTES"):
        ring.element_array()


def test_rejects_dependent_matrices():
    mats = [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]
    with pytest.raises(ValueError, match="linearly dependent"):
        Ring(prime_spec(3, mats))


def test_rejects_bad_shapes():
    F = GF(2)
    with pytest.raises(ValueError, match="structural matrices"):
        Ring(RingSpec(F, 2, 1, 0, np.ones((1, 3, 3), np.int64), (0, 0), (0,)))
    with pytest.raises(ValueError, match="t must lie"):
        Ring(RingSpec(F, 1, 2, 0, np.ones((2, 1, 1), np.int64), (0,), (0, 0)))
    with pytest.raises(ValueError, match="sigma"):
        Ring(RingSpec(F, 2, 1, 0, np.ones((1, 2, 2), np.int64), (0,), (0,)))


def test_automorphism_constraint():
    # a_11 != 0 forces theta_1 = 2 sigma_1 = 0 over GF(4)
    with pytest.raises(AutomorphismConstraintError) as info:
        Ring(gf4_spec([[1]], sigma=(1,), theta=(1,)))
    assert info.value.indices == (1, 1, 1)
    # the satisfying assignment is accepted
    Ring(gf4_spec([[1]], sigma=(1,), theta=(0,)))


def test_spec_serialization_round_trip():
    spec = prime_spec(3, [[[1, 2], [0, 1]]], lam=2)
    d = spec.to_dict()
    assert d["lambda"] == 2
    back = RingSpec.from_dict(d)
    assert back.field == spec.field
    assert (back.s, back.t, back.lam) == (spec.s, spec.t, spec.lam)
    assert np.array_equal(back.matrices, spec.matrices)
    assert back.sigma == spec.sigma and back.theta == spec.theta
    assert spec.invariants() == (3, 6, 1, 2, 1, 2)
    assert spec.order == 3 ** 6


def _oracle_rings():
    """GF(2), GF(3), GF(16); GF(4) twisted; GF(2^11) and GF(3^7), q > 1024."""
    yield Ring(prime_spec(2, [[1]]))
    yield Ring(prime_spec(3, [[[1, 0], [1, 2]], [[0, 1], [0, 0]]], lam=1))
    yield Ring(RingSpec(GF(2, 4), 2, 2, 1, np.array([[[1, 0], [0, 1]], [[0, 5], [7, 0]]]),
                        (1, 1), (2, 2, 3)))
    yield Ring(gf4_spec([[1]], sigma=(1,), theta=(0, 1), lam=1))
    yield Ring(RingSpec(GF(2, 11), 2, 1, 1, np.array([[[3, 1000], [0, 2047]]]),
                        (1, 1), (2, 5)))
    yield Ring(RingSpec(GF(3, 7), 1, 1, 1, np.array([[[1234]]]), (3,), (6, 2)))


def test_mul_batch_matches_scalar():
    # the batched product against the formula evaluated by scalar field ops
    rng = np.random.default_rng(8)
    for ring in _oracle_rings():
        q, n = ring.field.q, ring.n
        X = rng.integers(0, q, size=(4, 1, n), dtype=np.int64)
        Y = rng.integers(0, q, size=(1, 5, n), dtype=np.int64)
        X[0, 0, 0] = Y[0, 1, 0] = 0
        P = ring.mul_batch(X, Y)
        assert P.shape == (4, 5, n) and P.dtype == np.int64
        for i, j in itertools.product(range(4), range(5)):
            assert tuple(P[i, j]) == ring_mul_scalar(ring, X[i, 0], Y[0, j])
        p = ring.mul_batch(X[1, 0], Y[0, 2])
        assert p.shape == (n,)
        assert tuple(p) == ring_mul_scalar(ring, X[1, 0], Y[0, 2])


def test_mul_batch_layouts_agree():
    # row-major, coordinate-major views (what mul_batch returns), narrow
    # and broadcast operands give one product, and the product is writable
    rng = np.random.default_rng(12)
    for ring in _oracle_rings():
        q, n = ring.field.q, ring.n
        X, Y, Z = (rng.integers(0, q, size=(7, n), dtype=np.int64) for _ in range(3))
        ref = ring.mul_batch(X, Y)
        assert ref.shape == (7, n) and ref.dtype == np.int64
        Xc, Yc = (np.ascontiguousarray(V.T).T for V in (X, Y))
        for x, y in ((Xc, Yc), (X, Yc), (Xc, Y), (X.astype(np.uint16), Y)):
            assert np.array_equal(ring.mul_batch(x, y), ref)
        assert np.array_equal(ring.mul_batch(ref, Z), ring.mul_batch(ref.copy(), Z))
        P = ring.mul_batch(X[:, None, :], X[None, :, :])
        assert P.shape == (7, 7, n)
        for i, j in itertools.product(range(7), range(7)):
            assert np.array_equal(P[i, j], ring.mul_batch(X[i], X[j]))
        assert ref.flags.writeable
        ref[0, 0] = (ref[0, 0] + 1) % q
        assert tuple(ref[0]) != ring_mul_scalar(ring, X[0], Y[0])


def test_sums_of_coordinate_major_blocks_stay_coordinate_major():
    # check_axioms' y + z over a p > 2 extension field feeds mul_batch,
    # which copies an operand whose coordinate rows are not contiguous
    ring = Ring(RingSpec(GF(3, 2), 1, 1, 0, np.array([[[1]]]), (0,), (0,)))
    X = np.random.default_rng(9).integers(0, 9, size=(50, ring.n), dtype=np.int64)
    x = np.ascontiguousarray(X.T).T
    for out in (ring.add(x, x), ring.mul_batch(x, x)):
        assert np.moveaxis(out, -1, 0).flags.c_contiguous


def test_table_cap():
    ring = Ring(prime_spec(5, np.eye(3, dtype=np.int64), lam=2))  # 5^7
    with pytest.raises(ValueError, match="capped"):
        ring.mul_table()
    with pytest.raises(ValueError, match=r"ringforge\.rings\._TABLE_LIMIT"):
        ring.add_table()


# -- axioms ----------------------------------------------------------------

def test_axioms_order8(R8):
    rep = check_axioms(R8)
    assert rep.ok and rep.mode == "exhaustive"
    assert rep.checked["associativity"] == 512
    assert rep.counterexample is None


def test_axioms_order81():
    ring = Ring(prime_spec(3, [[1]], lam=1))
    rep = check_axioms(ring)
    assert rep.ok
    assert rep.checked["associativity"] == 81 ** 3


def test_axioms_twisted_gf4():
    # non-identity Frobenius in the U block; product is still associative
    ring = Ring(gf4_spec([[1]], sigma=(1,), theta=(0, 1), lam=1))
    rep = check_axioms(ring)
    assert rep.ok
    assert rep.checked["associativity"] == 256 ** 3


def test_axioms_detect_corruption():
    ring = Ring(prime_spec(2, [[1]]))
    T = ring.mul_table()
    T[3, 5] = (T[3, 5] + 1) % 8
    rep = check_axioms(ring)
    assert not rep.ok
    assert rep.counterexample is not None
    assert rep.counterexample["law"] in (
        "associativity", "left_distributivity", "right_distributivity"
    )


def test_axioms_sampled():
    ring = Ring(prime_spec(7, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]))  # 7^5
    rep = check_axioms(ring, mode="sampled", seed=11, samples=4000)
    assert rep.ok and rep.mode == "sampled"
    assert rep.checked["associativity"] == 4000


class PlantedRing(Ring):
    """A ring whose product is off by 1 in the F coordinate on planted
    pairs (x, y)."""

    def __init__(self, spec, pairs):
        super().__init__(spec)
        self.pairs = pairs

    def mul_batch(self, X, Y):
        out = super().mul_batch(X, Y)
        X, Y = np.broadcast_arrays(X, Y)
        for x, y in self.pairs:
            hit = (X == x).all(axis=-1) & (Y == y).all(axis=-1)
            out[hit, 0] = self.field._add_raw(out[hit, 0], 1)
        return out


def _sampled_triples(ring, seed, samples):
    # the draw check_axioms makes
    rng = np.random.default_rng(seed)
    return [rng.integers(0, ring.field.q, size=(samples, ring.n), dtype=np.int64)
            for _ in range(3)]


def _unblocked_failures(ring, X, Y, Z):
    """Failure masks of the three product laws over all samples at once."""
    mul, add = ring.mul_batch, ring.add
    return {
        "associativity": (mul(mul(X, Y), Z) != mul(X, mul(Y, Z))).any(axis=1),
        "left_distributivity": (mul(X, add(Y, Z)) != add(mul(X, Y), mul(X, Z))).any(axis=1),
        "right_distributivity": (mul(add(Y, Z), X) != add(mul(Y, X), mul(Z, X))).any(axis=1),
    }


def test_axioms_sampled_counterexample_across_blocks():
    # two blocks, the second one partial: an associativity failure planted
    # in the last block outranks a distributivity failure in the first
    spec = RingSpec(GF(2, 4), 1, 1, 0, np.array([[[7]]]), (0,), (0,))
    block, seed = rings._PAIR_BLOCK, 5
    samples = block + 4321
    plain = Ring(spec)
    X, Y, Z = _sampled_triples(plain, seed, samples)
    late, early = samples - 10, 5
    ring = PlantedRing(spec, [(X[late], Y[late]),
                              (X[early], plain.add(Y[early], Z[early]))])
    bad = _unblocked_failures(ring, X, Y, Z)
    assert np.flatnonzero(bad["associativity"]).min() >= block
    assert np.flatnonzero(bad["left_distributivity"]).min() < block
    i = int(np.flatnonzero(bad["associativity"])[0])
    rep = check_axioms(ring, mode="sampled", seed=seed, samples=samples)
    assert not rep.ok and rep.checked["associativity"] == samples
    assert rep.counterexample == {
        "law": "associativity",
        "elements": [tuple(int(v) for v in E[i]) for E in (X, Y, Z)],
    }


def test_axioms_sampled_right_distributivity_only():
    spec = RingSpec(GF(2, 4), 1, 1, 0, np.array([[[7]]]), (0,), (0,))
    seed, samples, i = 9, 3000, 1234
    plain = Ring(spec)
    X, Y, Z = _sampled_triples(plain, seed, samples)
    ring = PlantedRing(spec, [(plain.add(Y[i], Z[i]), X[i])])
    bad = _unblocked_failures(ring, X, Y, Z)
    assert not bad["associativity"].any() and not bad["left_distributivity"].any()
    assert np.flatnonzero(bad["right_distributivity"]).tolist() == [i]
    rep = check_axioms(ring, mode="sampled", seed=seed, samples=samples)
    assert rep.counterexample == {
        "law": "right_distributivity",
        "elements": [tuple(int(v) for v in E[i]) for E in (X, Y, Z)],
    }


class DoublingRing(Ring):
    """A ring whose x + x is off by 1 in the F coordinate for planted x."""

    def __init__(self, spec, rows):
        super().__init__(spec)
        self.rows = rows

    def add(self, x, y):
        out = super().add(x, y)
        hit = (np.asarray(x) == y).all(axis=-1)
        hit &= np.any([(np.asarray(x) == r).all(axis=-1) for r in self.rows], axis=0)
        out[hit, 0] = self.field._add_raw(out[hit, 0], 1)
        return out


def test_axioms_sampled_characteristic_across_blocks():
    # the characteristic is checked a block at a time too, and reported at
    # the lowest failing sample, here in the second block
    spec = RingSpec(GF(2, 8), 1, 1, 0, np.array([[[7]]]), (0,), (0,))
    block, seed = rings._PAIR_BLOCK, 3
    samples = block + 999
    X, Y, Z = _sampled_triples(Ring(spec), seed, samples)
    ring = DoublingRing(spec, [X[samples - 1], X[block + 17]])
    assert not any(_unblocked_failures(ring, X, Y, Z)[law].any() for law in
                   ("associativity", "left_distributivity", "right_distributivity"))
    bad = (ring.add(X, X) != 0).any(axis=1)
    i = int(np.flatnonzero(bad)[0])
    assert i >= block
    rep = check_axioms(ring, mode="sampled", seed=seed, samples=samples)
    assert rep.counterexample == {"law": "characteristic",
                                  "elements": [tuple(int(v) for v in X[i])]}


def test_axioms_exhaustive_bound():
    ring = Ring(prime_spec(3, [[1]], lam=3))  # 729^3 > 2^26
    with pytest.raises(ValueError, match=r"bound of 67108864 \(change it with "
                       r"ringforge\.rings\._EXHAUSTIVE_TRIPLES\); use mode='sampled'"):
        check_axioms(ring)
    with pytest.raises(ValueError, match="mode"):
        check_axioms(Ring(prime_spec(2, [[1]])), mode="half")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_product_laws_sampled_triples(seed):
    ring = Ring(prime_spec(5, [[[0, 1], [1, 0]]], lam=1))
    rng = np.random.default_rng(seed)
    x, y, z = (tuple(rng.integers(0, 5, size=ring.n)) for _ in range(3))
    assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.mul(ring.add(x, y), z) == ring.add(ring.mul(x, z), ring.mul(y, z))


# -- structure reports -----------------------------------------------------

def test_structure_order8(R8):
    rep = ring_structure(R8)
    assert rep.order == 8
    assert rep.invariants == (2, 3, 1, 1, 1, 0)
    assert rep.radical_dims == (2, 1, 1)
    assert rep.commutative and rep.f_central


def test_structure_with_annihilator_tail():
    rep = ring_structure(Ring(prime_spec(2, [[1]], lam=1)))
    assert rep.radical_dims == (3, 1, 2)  # v joins the annihilator


def test_structure_identity_pair():
    rep = ring_structure(Ring(prime_spec(2, np.eye(2, dtype=np.int64))))
    assert rep.radical_dims == (3, 1, 1)
    assert rep.commutative


def test_noncommutative_witness():
    ring = Ring(prime_spec(3, [[[0, 1], [0, 0]]]))
    u1, u2 = (0, 1, 0, 0), (0, 0, 1, 0)
    assert ring.mul(u1, u2) == (0, 0, 0, 1)
    assert ring.mul(u2, u1) == (0, 0, 0, 0)
    assert not ring_structure(ring).commutative


def test_twisted_ring_not_central():
    ring = Ring(gf4_spec([[1]], sigma=(1,), theta=(0,)))
    rep = ring_structure(ring)
    assert not rep.f_central
    # symmetric matrix but twisted scalars: alpha u != u alpha
    assert not rep.commutative


def test_symmetry_decides_commutativity():
    # identity automorphisms: commutative iff the matrix is symmetric
    F = GF(2)
    for entries in itertools.product(range(2), repeat=4):
        A = np.array(entries, dtype=np.int64).reshape(2, 2)
        if not A.any():
            continue
        ring = Ring(prime_spec(2, A))
        rep = ring_structure(ring)
        assert rep.commutative == bool(np.array_equal(A, A.T))
        assert rep.f_central


def test_symmetry_decides_commutativity_gf3():
    rng = np.random.default_rng(3)
    done = 0
    while done < 20:
        A = rng.integers(0, 3, size=(2, 2), dtype=np.int64)
        if not A.any():
            continue
        rep = ring_structure(Ring(prime_spec(3, A)))
        assert rep.commutative == bool(np.array_equal(A, A.T))
        done += 1


def random_spec(rng, F, s, t, lam):
    """A valid presentation with random Frobenius exponents over F."""
    while True:
        sigma = tuple(int(e) for e in rng.integers(0, F.r, size=s))
        sums = np.add.outer(sigma, sigma) % F.r
        theta = [int(rng.choice(sums.ravel())) for _ in range(t)]
        mats = np.stack([
            np.where(sums == th, rng.integers(0, F.q, size=(s, s)), 0) for th in theta
        ])
        tail = [int(e) for e in rng.integers(0, F.r, size=lam)]
        spec = RingSpec(F, s, t, lam, mats, sigma, tuple(theta + tail))
        try:
            Ring(spec)
        except ValueError:  # dependent or zero matrices: draw again
            continue
        return spec


# (p, r, s, t, lambda), all of order <= 1024 so the oracle's table stays small
ORACLE_CELLS = [
    (2, 1, 2, 1, 0), (2, 1, 2, 2, 1), (2, 1, 3, 2, 1), (2, 1, 3, 3, 1),
    (2, 1, 4, 2, 1), (3, 1, 2, 1, 0), (3, 1, 2, 2, 1), (3, 1, 3, 1, 1),
    (3, 1, 3, 2, 0), (5, 1, 2, 1, 0), (5, 1, 1, 1, 1), (2, 2, 1, 1, 0),
    (2, 2, 2, 1, 0), (2, 2, 2, 1, 1), (2, 2, 2, 2, 0), (2, 2, 1, 1, 1),
    (2, 3, 1, 1, 0), (3, 2, 1, 1, 0),
]


def test_structure_matches_brute_oracle():
    seen = set()
    for p, r, s, t, lam in ORACLE_CELLS:
        F = GF(p, r)
        rng = np.random.default_rng(1000 * p + 100 * r + 10 * s + t + lam)
        for _ in range(6 if r > 1 else 3):      # more twist patterns when r > 1
            ring = Ring(random_spec(rng, F, s, t, lam))
            rep = ring_structure(ring)
            got = rep.radical_dims + (rep.commutative,)
            assert got == brute_structure(ring), ring.spec
            seen.add((r > 1, rep.commutative))
    # both answers occur, over prime and over extension fields
    assert len(seen) == 4


def test_twisted_tail_breaks_commutativity():
    # theta = 1 on the tail: x * w_2 = x w_2 but w_2 * x = x^2 w_2; the
    # order 4^7 is past the table limit
    F = GF(2, 2)
    spec = RingSpec(F, 2, 1, 3, np.eye(2, dtype=np.int64)[None], (0, 0), (0, 1, 1, 1))
    rep = ring_structure(Ring(spec))
    assert rep.order == 4 ** 7
    assert rep.radical_dims == (6, 1, 4)
    assert not rep.commutative


def test_structure_gf_2_16():
    F = GF(2, 16)
    spec = RingSpec(F, 2, 1, 1, np.eye(2, dtype=np.int64)[None], (3, 3), (6, 2))
    rep = ring_structure(Ring(spec))
    assert rep.radical_dims == (4, 1, 2)
    assert not rep.commutative


# -- isomorphism -----------------------------------------------------------

def test_iso_rejects_distinct_classes():
    # I_2 vs the antisymmetric form: symmetry is action-invariant
    a = prime_spec(3, np.eye(2, dtype=np.int64))
    d = prime_spec(3, [[[0, 1], [2, 0]]])
    assert iso_test(a, d) is None


def test_iso_finds_congruence_witness():
    a = prime_spec(3, [[[1, 0], [0, 2]]])
    C = [[1, 1], [0, 1]]
    d = equivalent_spec(a, C)
    w = iso_test(a, d)
    assert w is not None
    assert verify_witness(a, d, w)
    assert verify_witness(a, d, w, exhaustive=True)  # 81 elements


def test_iso_recombination_witness():
    a = prime_spec(2, [np.eye(3, dtype=np.int64), [[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
    d = equivalent_spec(a, la.identity(3), B=[[1, 1], [0, 1]])
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w)


def test_equivalent_spec_rejects_non_permutation_tail():
    a = gf4_spec([[1]], sigma=(0,), theta=(0, 1, 0), lam=2)
    for perm in ((0, 0), (0, 1, 2)):
        with pytest.raises(ValueError, match=r"not a permutation of range\(2\)"):
            equivalent_spec(a, la.identity(1), tail_perm=perm)
    assert equivalent_spec(a, la.identity(1), tail_perm=(1, 0)).theta == (0, 0, 1)


def test_iso_tail_permutation():
    a = prime_spec(2, [[1]], lam=2)
    d = equivalent_spec(a, la.identity(1), tail_perm=(1, 0))
    w = iso_test(a, d)
    assert w is not None
    assert sorted(w.v_perm) == [0, 1]
    # twisted tail slots must go to slots of the same exponent, or the
    # witness fails certification
    a = gf4_spec([[1]], sigma=(1,), theta=(0, 1, 1, 0), lam=3)
    d = equivalent_spec(a, [[1]], tail_perm=(1, 2, 0))
    assert d.theta == (0, 0, 1, 1)
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w)
    assert w.v_perm == (1, 2, 0)


@settings(max_examples=200, deadline=None)
@given(t=st.integers(0, 2), r=st.integers(1, 3), data=st.data())
def test_tail_alignment_matches_greedy_pairing(t, r, data):
    lam = data.draw(st.integers(0, 6))
    theta_a = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=t + lam,
                                       max_size=t + lam)))
    if data.draw(st.booleans()):
        theta_d = theta_a[:t] + tuple(data.draw(st.permutations(theta_a[t:])))
    else:
        theta_d = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=t + lam,
                                           max_size=t + lam)))
    assert rings._tail_alignment(theta_a, theta_d, t) == \
        tail_alignment_greedy(theta_a, theta_d, t)


def test_iso_invariant_mismatch():
    # orders 8 and 16: distinct rings
    assert iso_test(prime_spec(2, [[1]]), prime_spec(2, np.eye(2, dtype=np.int64))) is None
    # order 16 both, another (s, t, lambda): refused, not answered
    a, d = isomorphic_across_presentations()
    with pytest.raises(ValueError, match="invariant mismatch"):
        iso_test(a, d)


def isomorphic_across_presentations():
    """s = 2, t = 1, A = [[1, 0], [0, 0]] and s = 1, t = 1, lambda = 1,
    A = [[1]] over GF(2): U index 2 is dead, so it acts as an annihilator
    coordinate, and (a, u1, u2, w1) -> (a, u1, w1, u2) is an isomorphism."""
    return (prime_spec(2, [[1, 0], [0, 0]]), prime_spec(2, [[1]], lam=1))


def test_isomorphic_across_presentations():
    a, d = map(Ring, isomorphic_across_presentations())
    perm = np.array([d.index(tuple(np.array(a.element(i))[[0, 1, 3, 2]]))
                     for i in range(a.order)])
    assert sorted(perm) == list(range(16))
    for table in ("mul_table", "add_table"):
        TA, TD = getattr(a, table)(), getattr(d, table)()
        assert (perm[TA] == TD[perm[:, None], perm[None, :]]).all()


def test_iso_field_presentation_mismatch():
    F1, F2 = GF(3, 2), GF(3, 2, modulus=(2, 1, 1))
    a = RingSpec(F1, 1, 1, 0, np.array([[[1]]], np.int64), (0,), (0,))
    d = RingSpec(F2, 1, 1, 0, np.array([[[1]]], np.int64), (0,), (0,))
    with pytest.raises(ValueError, match="field presentations differ"):
        iso_test(a, d)


def test_iso_s1t1_scalar_pair():
    a = gf4_spec([[2]], sigma=(0,), theta=(0,))
    d = gf4_spec([[3]], sigma=(0,), theta=(0,))
    w = iso_test(a, d)
    assert w is not None
    # the search's first candidate is the scalar criterion's witness
    assert (w.sigma, w.C.tolist(), w.v_perm) == (0, [[1]], ())
    assert w.B.tolist() == [[2]]  # 3 / 2 in GF(4)
    assert verify_witness(a, d, w, exhaustive=True)


@pytest.mark.parametrize("p,r,max_lam", [(2, 2, 2), (3, 2, 2), (2, 3, 1)])
def test_iso_partitions_scalar_presentations_into_count_s1_classes(p, r, max_lam):
    # every s = t = 1 presentation: a a unit, any sigma, theta_1 = 2 sigma,
    # any tail; each is compared only with the class reps found so far
    F = GF(p, r)
    for lam in range(max_lam + 1):
        reps = []
        for a, sigma, tail in itertools.product(
                range(1, F.q), range(r), itertools.product(range(r), repeat=lam)):
            spec = RingSpec(F, 1, 1, lam, np.array([[[a]]], np.int64), (sigma,),
                            (2 * sigma % r,) + tail)
            if all(iso_test(rep, spec) is None for rep in reps):
                reps.append(spec)
        assert len(reps) == count_s1(r, lam), (F.q, lam)


def test_iso_global_twist_round_trip():
    a = gf4_spec([[1]], sigma=(1,), theta=(0, 1), lam=1)
    d = equivalent_spec(a, [[2]], sigma_e=1)
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w)


def test_iso_global_twist_rejects_tail_mismatch():
    a = gf4_spec([[1]], sigma=(0,), theta=(0, 0), lam=1)
    d = gf4_spec([[1]], sigma=(0,), theta=(0, 1), lam=1)
    assert iso_test(a, d) is None


def test_iso_global_twist_rejects_sigma_mismatch():
    a = gf4_spec([[1]], sigma=(0,), theta=(0,))
    d = gf4_spec([[1]], sigma=(1,), theta=(0,))
    assert iso_test(a, d) is None


def test_witness_rejects_tampering():
    a = prime_spec(3, [[[1, 0], [0, 2]]])
    d = equivalent_spec(a, [[1, 1], [0, 1]])
    w = iso_test(a, d)
    bad = IsoWitness(w.sigma, np.array([[1, 0], [0, 2]], np.int64), w.B, w.v_perm)
    assert not verify_witness(a, d, bad)
    singular = IsoWitness(w.sigma, np.zeros((2, 2), np.int64), w.B, w.v_perm)
    assert not verify_witness(a, d, singular)
    out_of_range = IsoWitness(w.sigma, np.array([[5, 0], [0, 1]], np.int64), w.B, w.v_perm)
    with pytest.raises(ValueError, match="out of range"):
        verify_witness(a, d, out_of_range)
    # a full-rank wide C, a square C of the wrong size, a B of the wrong size
    for C, B in (([[1, 0, 0], [0, 1, 0]], w.B), (la.identity(3), w.B),
                 (w.C, la.identity(2))):
        with pytest.raises(ValueError, match="has shape"):
            verify_witness(a, d, IsoWitness(w.sigma, np.array(C), np.array(B), w.v_perm))


def test_witness_checks_field_basis_pairs():
    # the map breaks multiplicativity only on pairs that involve the field
    # element x, which a basis of 1 and the radical leaves out
    a = gf4_spec([[1, 0], [0, 0]], sigma=(0, 1), theta=(0,))
    w = IsoWitness(0, np.array([[1, 0], [1, 1]], np.int64), np.array([[1]], np.int64), ())
    assert not verify_witness(a, a, w, exhaustive=True)
    assert not verify_witness(a, a, w)


def test_witness_exhaustive_cap():
    a = prime_spec(5, np.eye(2, dtype=np.int64), lam=2)  # 5^6 elements
    w = iso_test(a, a)
    with pytest.raises(ValueError, match="4096"):
        verify_witness(a, a, w, exhaustive=True)
    with pytest.raises(ValueError, match=r"ringforge\.rings\._TABLE_LIMIT"):
        verify_witness(a, a, w, exhaustive=True)


def test_equivalent_spec_rejects_singular():
    a = prime_spec(3, [[[1, 0], [0, 2]]])
    with pytest.raises(ValueError, match="C is singular"):
        equivalent_spec(a, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="B is singular"):
        equivalent_spec(a, la.identity(2), B=[[0]])


def test_equivalent_spec_rejects_wrong_shapes():
    a = prime_spec(3, [[[1, 0], [0, 2]]])
    with pytest.raises(ValueError, match=r"C has shape \(2, 3\), not \(2, 2\)"):
        equivalent_spec(a, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match=r"C has shape \(3, 3\)"):
        equivalent_spec(a, la.identity(3))
    with pytest.raises(ValueError, match=r"B has shape \(2, 2\), not \(1, 1\)"):
        equivalent_spec(a, la.identity(2), B=la.identity(2))


def test_equivalent_spec_theta_overdetermined():
    F = GF(2, 3)
    mats = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], np.int64)
    spec = RingSpec(F, 2, 2, 0, mats, (0, 1), (0, 2))
    Ring(spec)  # valid as given
    with pytest.raises(ValueError, match="overdetermined"):
        equivalent_spec(spec, la.identity(2), B=[[1, 1], [0, 1]])


def test_equivalent_spec_rejects_c_across_sigma():
    # found by seeded draws: the presentation returned for this C had 28672
    # commuting element pairs of 65536 against the input's 22528
    a = gf4_spec([[0, 0], [0, 3]], sigma=(0, 1), theta=(0,))
    with pytest.raises(ValueError, match="different sigma"):
        equivalent_spec(a, [[3, 3], [1, 0]])
    # a C that keeps the sigma blocks apart is fine
    d = equivalent_spec(a, [[2, 0], [0, 3]])
    assert verify_witness(a, d, iso_test(a, d), exhaustive=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_equivalent_spec_returns_only_isomorphic_presentations(seed):
    rng = np.random.default_rng(seed)
    F = GF(*[(2, 2), (2, 3), (3, 2)][rng.integers(0, 3)])
    s = int(rng.integers(1, 3))
    spec = random_spec(rng, F, s, int(rng.integers(1, min(2, s * s) + 1)),
                       int(rng.integers(0, 2)))
    # C joins coordinates of different sigma in some draws
    C = random_invertible(rng, F, s)
    across = np.not_equal.outer(spec.sigma, spec.sigma)
    if rng.integers(0, 2):
        C = np.where(across, 0, C)
        if la.rank(F, C) < s:
            C = la.identity(s)
    sigma_e, B = int(rng.integers(0, F.r)), random_invertible(rng, F, spec.t)
    if C[across].any():
        with pytest.raises(ValueError, match="different sigma"):
            equivalent_spec(spec, C, sigma_e=sigma_e, B=B)
        return
    try:
        d = equivalent_spec(spec, C, sigma_e=sigma_e, B=B)
    except ValueError as err:
        assert "overdetermined" in str(err)
        return
    w = iso_test(spec, d)
    assert w is not None
    # iso_test certified w on basis pairs; small orders check every pair
    if spec.order <= 729:
        assert verify_witness(spec, d, w, exhaustive=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_iso_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.choice([2, 3]))
    F = GF(q)
    while True:
        A = rng.integers(0, q, size=(2, 2), dtype=np.int64)
        if A.any():
            break
    spec = prime_spec(q, A)
    while True:
        C = rng.integers(0, q, size=(2, 2), dtype=np.int64)
        if la.rank(F, C) == 2:
            break
    beta = int(rng.integers(1, q))
    d = equivalent_spec(spec, C, B=[[beta]])
    w = iso_test(spec, d)
    assert w is not None
    assert verify_witness(spec, d, w)


# -- iso_test against the whole-group search ------------------------------

def random_invertible(rng, F, s, sigma=None):
    """A random invertible s x s matrix over F; given sigma, zero wherever
    sigma_i != sigma_j, so that it lies in the sigma-stabilizer."""
    keep = True if sigma is None else np.equal.outer(sigma, sigma)
    while True:
        C = np.where(keep, rng.integers(0, F.q, size=(s, s), dtype=np.int64), 0)
        if la.rank(F, C) == s:
            return C


def central_spec(rng, F, s, t, lam):
    """t random independent structural matrices, identity automorphisms."""
    while True:
        mats = rng.integers(0, F.q, size=(t, s, s), dtype=np.int64)
        if la.rank(F, mats.reshape(t, s * s)) == t:
            return RingSpec(F, s, t, lam, mats, (0,) * s, (0,) * (t + lam))


def twisted_spec(rng, F, s, t, lam):
    """Shared sigma = 1 on U, so every entry of A_k needs theta_k = 2."""
    spec = central_spec(rng, F, s, t, lam)
    tail = tuple(int(e) for e in rng.integers(0, F.r, size=lam))
    return RingSpec(F, s, t, lam, spec.matrices, (1,) * s,
                    (2 % F.r,) * t + tail)


def partner(rng, spec):
    """equivalent_spec with a random C over the whole field, zeroed across
    sigma blocks, and a random B, Frobenius power and tail permutation."""
    F = spec.field
    C = random_invertible(rng, F, spec.s, spec.sigma)
    return equivalent_spec(spec, C, sigma_e=int(rng.integers(0, F.r)),
                           B=random_invertible(rng, F, spec.t),
                           tail_perm=tuple(int(i) for i in rng.permutation(spec.lam)))


# (p, r, s, t, lambda, presentations); the oracle enumerates GL(s, q), so
# s <= 3 wherever it is within ENUM_LIMIT
ISO_ORACLE_CELLS = [
    (2, 1, 1, 1, 1, "central"), (2, 1, 2, 1, 1, "central"),
    (2, 1, 3, 2, 1, "central"), (2, 1, 3, 3, 0, "central"),
    (3, 1, 2, 1, 0, "central"), (3, 1, 2, 2, 1, "central"),
    (3, 1, 3, 1, 0, "central"), (3, 1, 3, 2, 1, "central"),
    (2, 2, 2, 1, 1, "central"), (2, 2, 2, 3, 0, "central"),
    (2, 2, 3, 1, 0, "central"),
    (5, 1, 1, 1, 1, "central"), (5, 1, 2, 1, 0, "central"),
    (5, 1, 2, 2, 1, "central"),
    (2, 3, 2, 1, 0, "central"), (2, 3, 2, 2, 1, "central"),
    (3, 2, 2, 1, 1, "central"), (3, 2, 2, 3, 0, "central"),
    (2, 2, 2, 1, 1, "twisted"), (2, 3, 2, 2, 0, "twisted"),
    (3, 2, 2, 1, 1, "twisted"), (3, 2, 2, 2, 0, "twisted"),
    (2, 3, 2, 1, 1, "twisted"),
    (2, 2, 2, 2, 0, "mixed"), (3, 2, 2, 1, 0, "mixed"),
]


def test_iso_matches_exhaustive_oracle():
    seen = set()
    makers = {"central": central_spec, "twisted": twisted_spec, "mixed": random_spec}
    for p, r, s, t, lam, kind in ISO_ORACLE_CELLS:
        F = GF(p, r)
        make = makers[kind]
        rng = np.random.default_rng([p, r, s, t, lam, list(makers).index(kind)])
        for _ in range(2):
            a = make(rng, F, s, t, lam)
            for d in (partner(rng, a), make(rng, F, s, t, lam)):
                got = iso_test(a, d)
                want = iso_exhaustive(a, d)
                assert (got is None) == (want is None), (a, d)
                # the orbit search and the oracle may find different witnesses
                if got is not None:
                    assert verify_witness(a, d, got,
                                          exhaustive=a.order <= rings._TABLE_LIMIT)
                same_span = np.array_equal(
                    rings._span_invariant(F, a.matrices, a.sigma),
                    rings._span_invariant(F, d.matrices, d.sigma))
                seen.add((got is not None, same_span))
    # witnesses, prefilter rejections, and full scans that find nothing
    assert seen == {(True, True), (False, False), (False, True)}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_span_invariant_unchanged_by_equivalent_spec(seed):
    rng = np.random.default_rng(seed)
    p, r = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)][rng.integers(0, 6)]
    F = GF(p, r)
    s = int(rng.integers(1, 4))
    t = int(rng.integers(1, min(3, s * s) + 1))
    make = twisted_spec if F.r > 1 and rng.integers(0, 2) else central_spec
    a = make(rng, F, s, t, 0)
    d = partner(rng, a)
    assert np.array_equal(rings._span_invariant(F, a.matrices, a.sigma),
                          rings._span_invariant(F, d.matrices, d.sigma))


def test_span_invariant_rejects_before_any_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("an orbit was searched")

    monkeypatch.setattr(rings, "_orbit_bfs", no_search)
    a = prime_spec(5, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    d = prime_spec(5, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    assert la.rank(GF(5), a.matrices[0]) == 3
    assert la.rank(GF(5), d.matrices[0]) == 2
    assert iso_test(a, d) is None
    assert iso_test(prime_spec(7, np.eye(3, dtype=np.int64)),
                    prime_spec(7, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])) is None


def test_iso_closes_one_orbit_for_every_frobenius_power(monkeypatch):
    """A non-isomorphic GF(4) s = 3 pair with 0/1 entries passes the span
    invariant.  Frob(A) = A, so one search per Frobenius power closed the
    same orbit twice; with the Frobenius folded into the actions it is
    closed once."""
    calls = []
    search = rings._orbit_bfs

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(rings, "_orbit_bfs", counted)
    a = gf4_spec([[1, 1, 1], [1, 0, 0], [1, 1, 1]], sigma=(0, 0, 0), theta=(0,))
    d = gf4_spec([[0, 0, 1], [0, 0, 1], [0, 1, 0]], sigma=(0, 0, 0), theta=(0,))
    assert iso_test(a, d) is None
    assert len(calls) == 1


def test_iso_raises_on_an_uncertified_witness(monkeypatch):
    monkeypatch.setattr(rings, "verify_witness", lambda *args, **kwargs: False)
    a = prime_spec(3, [[[1, 0], [0, 2]]])
    d = equivalent_spec(a, [[1, 1], [0, 1]])
    with pytest.raises(RuntimeError, match="no certified witness"):
        iso_test(a, d)


def test_iso_admits_pairs_the_invariant_cannot_separate(monkeypatch):
    """The orbit search enumerates no group, so ENUM_LIMIT does not bound
    it: GF(7), s = 3 is admitted, though GL(3, 7) has 33.8M elements."""
    def no_enumeration(F, s):
        raise AssertionError("GL(s, q) was enumerated")

    monkeypatch.setattr(gl, "ENUM_LIMIT", 100)
    monkeypatch.setattr(gl, "enumerate_gl", no_enumeration)
    C = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    a = prime_spec(5, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    b = prime_spec(7, np.eye(3, dtype=np.int64))
    for a, d in ((a, equivalent_spec(a, C)), (b, equivalent_spec(b, C))):
        assert np.array_equal(rings._span_invariant(a.field, a.matrices, a.sigma),
                              rings._span_invariant(a.field, d.matrices, d.sigma))
        w = iso_test(a, d)
        assert w is not None and verify_witness(a, d, w)


def test_iso_twisted_witness_outside_the_fixed_subfield(monkeypatch):
    """sigma = (1, 1) over GF(9) with C = [[2, 2], [3, 4]], not over GF(3):
    the action is A -> C^T A Frob(C), which keeps neither M + M^T nor
    M - M^T, and the congruence C^T A C does not reach D."""
    F = GF(3, 2)
    a = RingSpec(F, 2, 1, 0, np.array([[[3, 8], [0, 2]]], np.int64), (1, 1), (0,))
    d = equivalent_spec(a, [[2, 2], [3, 4]], sigma_e=1, B=[[5]])
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w)
    monkeypatch.setattr(rings, "_TABLE_LIMIT", 6561)
    assert verify_witness(a, d, w, exhaustive=True)


def test_span_invariant_keeps_theta_classes_apart():
    """sigma = (0, 1, 0) with theta = (1, 0): a point of span(A_1, A_2)
    that mixes the two theta classes can change rank under the twisted
    action.  Over all 5 points the ranks are {2: 2, 3: 3} for A and
    {2: 1, 3: 4} for D (found by seeded draws), so only the ranks within
    each class are compared."""
    F = GF(2, 2)
    mats = np.array([[[0, 3, 0], [2, 0, 2], [0, 3, 0]],
                     [[1, 0, 0], [0, 2, 0], [2, 0, 2]]], np.int64)
    a = RingSpec(F, 3, 2, 0, mats, (0, 1, 0), (1, 0))
    d = equivalent_spec(a, [[3, 0, 3], [0, 2, 0], [2, 0, 0]])
    assert np.array_equal(rings._span_invariant(F, a.matrices, a.sigma),
                          rings._span_invariant(F, d.matrices, d.sigma))
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w)


# GF(2), GF(3), GF(5), GF(4), GF(8), GF(9); the oracle decodes all q^t - 1
# codes, so t <= s^2 is cut where q^t passes _SPAN_ORACLE_CODES
SPAN_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]
_SPAN_ORACLE_CODES = 20000


@pytest.mark.parametrize("p,r", SPAN_FIELDS)
def test_span_invariant_matches_all_codes_oracle(p, r):
    F = GF(p, r)
    rng = np.random.default_rng([p, r])
    makers = (central_spec, random_spec) if r > 1 else (central_spec,)   # mixed sigma
    for s in (1, 2, 3):
        for t in range(1, s * s + 1):
            if F.q ** t > _SPAN_ORACLE_CODES:
                break
            for make in makers:
                a = make(rng, F, s, t, 0)
                assert np.array_equal(rings._span_invariant(F, a.matrices, a.sigma),
                                      span_invariant_all_codes(F, a.matrices, a.sigma)), a


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_span_invariant_block_size_does_not_change_it(monkeypatch, chunk):
    monkeypatch.setattr(classify, "_BFS_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for p, r, s, t in [(3, 1, 2, 4), (2, 2, 2, 3), (3, 2, 3, 2), (2, 1, 3, 7)]:
        F = GF(p, r)
        a = random_spec(rng, F, s, t, 0)
        assert np.array_equal(rings._span_invariant(F, a.matrices, a.sigma),
                              span_invariant_all_codes(F, a.matrices, a.sigma))


def _eij(t):
    """The first t of the nine 3 x 3 matrix units."""
    return np.eye(9, dtype=np.int64)[:t].reshape(t, 3, 3)


def test_span_invariant_peak_within_its_charge():
    """GF(5), s = 3, t = 8: 97,656 points.  The keys, the codes and one
    image block stay under the bytes charged against the limit (55 MB);
    decoding all 5^8 - 1 coefficient vectors at once peaks near 70 MB."""
    F, E = GF(5), _eij(8)
    points = (5 ** 8 - 1) // 4
    charge = 16 * points + classify._block_bytes(min(points, classify._BFS_CHUNK), 8 + 9)
    rings._span_invariant(F, E, (0, 0, 0))
    tracemalloc.start()
    try:
        rings._span_invariant(F, E, (0, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charge


def test_span_invariant_refused_before_any_key(monkeypatch):
    def no_keys(*args, **kwargs):
        raise AssertionError("keys were built")

    monkeypatch.setattr(la, "digit_sums", no_keys)
    C = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    # GF(11), t = 9: 235,794,769 points, over the default limit
    a = prime_spec(11, _eij(9))
    with pytest.raises(BudgetExceededError,
                       match=r"235794769 points.*ringforge\.classify\._GROUND_BYTES"):
        iso_test(a, equivalent_spec(a, C))
    # GF(5), t = 4: 156 points, over a lowered limit
    monkeypatch.setattr(classify, "_GROUND_BYTES", 10 ** 4)
    b = prime_spec(5, _eij(4))
    with pytest.raises(BudgetExceededError, match=r"span invariant of 156 points"):
        iso_test(b, equivalent_spec(b, C))


def test_iso_relabels_permuted_sigma():
    # the same ring with its two U coordinates swapped: sigma (0, 1) -> (1, 0)
    F = GF(2, 2)
    a = RingSpec(F, 2, 1, 0, np.array([[[2, 0], [0, 0]]], np.int64), (0, 1), (0,))
    d = RingSpec(F, 2, 1, 0, np.array([[[0, 0], [0, 2]]], np.int64), (1, 0), (0,))
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w, exhaustive=True)
    assert iso_exhaustive(a, d) is not None
    # a base change inside the sigma blocks and a Frobenius, then the U
    # coordinates relabelled from sigma (0, 1, 0) to (1, 0, 0)
    mats = np.array([[[0, 3, 0], [2, 0, 2], [0, 3, 0]],
                     [[1, 0, 0], [0, 2, 0], [2, 0, 2]]], np.int64)
    a = RingSpec(F, 3, 2, 0, mats, (0, 1, 0), (1, 0))
    b = equivalent_spec(a, [[3, 0, 3], [0, 2, 0], [2, 0, 0]], sigma_e=1)
    p = [1, 2, 0]
    d = RingSpec(F, 3, 2, 0, b.matrices[:, p][:, :, p], (1, 0, 0), b.theta)
    w = iso_test(a, d)
    assert w is not None and verify_witness(a, d, w)


def test_iso_gf_2_16_s1_allocates_little():
    """At s = 1 the spans of A and D meet before any image is computed,
    so GF(2^16), whose GL(1) has 65535 elements, costs well under 32 MB."""
    import tracemalloc

    F = GF(2, 16)
    a = RingSpec(F, 1, 1, 0, np.array([[[12345]]], np.int64), (0,), (0,))
    d = equivalent_spec(a, [[777]])
    tracemalloc.start()
    try:
        w = iso_test(a, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.C.tolist() == [[1]] and verify_witness(a, d, w)
    assert peak < 32 * 2 ** 20


def test_pair_tables_and_exhaustive_witness_memory():
    import tracemalloc

    a = prime_spec(3, [[1, 2], [0, 1]], lam=2)                  # 3^6 = 729
    d = equivalent_spec(a, [[1, 1], [0, 1]], B=[[2]], tail_perm=(1, 0))
    w = iso_test(a, d)
    ring = Ring(a)
    tracemalloc.start()
    try:
        assert verify_witness(a, d, w, exhaustive=True)
        witness_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        T = ring.mul_table()
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness_peak < 32 * 2 ** 20
    assert table_peak < 16 * 2 ** 20
    E = ring.element_array()
    rng = np.random.default_rng(6)
    i, j = rng.integers(0, ring.order, size=(2, 200))
    assert np.array_equal(T[i, j], la.encode_rows(ring.mul_batch(E[i], E[j]), 3))
    S = ring.add_table()
    assert np.array_equal(S[i, j], la.encode_rows(GF(3)._add_raw(E[i], E[j]), 3))
