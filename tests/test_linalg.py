from functools import cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringforge import GF
from ringforge import linalg as la
from ringforge.classify import _check_rank
from ringforge.gl import det_batch, enumerate_gl, gl_generators, gl_order

from oracles import (encode_rows_scalar, gf_table_kron, gf_table_matmul, gl_det_filter,
                     kron, raw_gl, rref_scalar)


def random_matrices(F, s, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, F.q, size=(count, s, s), dtype=np.int64)


def random_invertible(F, s, seed):
    rng = np.random.default_rng(seed)
    while True:
        A = rng.integers(0, F.q, size=(s, s), dtype=np.int64)
        if la.rank(F, A) == s:
            return A


# -- rref ------------------------------------------------------------------

@pytest.mark.parametrize("q,r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_rref_properties(q, r):
    F = GF(q, r)
    for i, M in enumerate(random_matrices(F, 3, 30, seed=q * 10 + r)):
        R, pivots = la.rref(F, M)
        assert len(pivots) == la.rank(F, M)
        assert list(pivots) == sorted(pivots)
        # pivot columns carry unit entries with zeros elsewhere
        for row, col in enumerate(pivots):
            assert R[row, col] == 1
            assert (np.delete(R[:, col], row) == 0).all()
        # row space unchanged: stacking adds no rank
        stacked = np.vstack([M, R[: len(pivots)]])
        assert la.rank(F, stacked) == len(pivots)
        # idempotent
        R2, piv2 = la.rref(F, R)
        assert np.array_equal(R, R2) and list(piv2) == list(pivots)


# GF(2^16) takes the log/exp multiplication path of fields above the table limit
@pytest.mark.parametrize("q,r", [(3, 1), (2, 2), (3, 2), (2, 4), (2, 16)])
def test_rref_batch_matches_scalar(q, r):
    F = GF(q, r)
    rng = np.random.default_rng(5)
    narrow = rng.integers(0, F.q, size=(60, 2, 4), dtype=np.int64)
    wide = rng.integers(0, F.q, size=(60, 3, 9), dtype=np.int64)
    wide[::3, 1] = 0                    # a zero row
    wide[1::3, 2] = wide[1::3, 0]       # a repeated row
    tall = rng.integers(0, F.q, size=(30, 5, 3), dtype=np.int64)   # t > m
    lines = rng.integers(0, F.q, size=(40, 1, 9), dtype=np.int64)  # t = 1
    lines[::4] = 0                      # all-zero items
    zero = np.zeros((6, 3, 4), dtype=np.int64)
    empty = np.zeros((0, 2, 4), dtype=np.int64)
    for stack in (narrow, wide, tall, lines, zero, empty):
        R, ranks = la.rref_batch(F, stack)
        assert R.shape == stack.shape and ranks.shape == (len(stack),)
        for i in range(len(stack)):
            Ri, piv = rref_scalar(F, stack[i])
            assert np.array_equal(R[i], Ri)
            assert ranks[i] == len(piv)
        if stack is wide:
            assert (ranks[::3] < 3).all() and (ranks[1::3] < 3).all()


# the elimination dtype widens after p = 11, 181 and 46337: the largest
# intermediate value is (p - 1)^2 + p before a reduction mod p
@pytest.mark.parametrize("p,dtype", [(2, np.int8), (11, np.int8), (13, np.int16),
                                     (181, np.int16), (191, np.int32),
                                     (65521, np.int64)])
def test_rref_batch_narrow_dtype_edges(p, dtype):
    F = GF(p)
    assert la._elim_dtype(F) == dtype
    rng = np.random.default_rng(p)
    stack = rng.integers(0, p, size=(50, 3, 6), dtype=np.int64)
    stack[::5] = p - 1                  # every entry at its largest code
    stack[1::5, 2] = 0
    R, ranks = la.rref_batch(F, stack)
    assert R.dtype == np.int64 and ranks.dtype == np.int64
    for i in range(len(stack)):
        Ri, piv = rref_scalar(F, stack[i])
        assert np.array_equal(R[i], Ri)
        assert ranks[i] == len(piv)


@cache
def _oracle_field(p, r):
    return GF(p, r)


@st.composite
def _rref_stacks(draw):
    """A field and a stack (N, t, m) with t = 0..5 (t > m included), some
    rows and some whole items zeroed, N = 0 included."""
    p, r = draw(st.sampled_from([(2, 1), (5, 1), (2, 2), (3, 2), (2, 16)]))
    F = _oracle_field(p, r)
    N, t, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, F.q - 1), min_size=N * t * m,
                            max_size=N * t * m))
    stack = np.array(entries, dtype=np.int64).reshape(N, t, m)
    stack[np.array(draw(st.lists(st.booleans(), min_size=N * t, max_size=N * t)),
                   dtype=bool).reshape(N, t)] = 0
    stack[np.array(draw(st.lists(st.booleans(), min_size=N, max_size=N)), dtype=bool)] = 0
    return F, stack


@settings(max_examples=150, deadline=None)
@given(case=_rref_stacks())
def test_rref_batch_and_rref_match_oracle(case):
    F, stack = case
    R, ranks = la.rref_batch(F, stack)
    assert R.shape == stack.shape and ranks.shape == (len(stack),)
    for i in range(len(stack)):
        Ro, pivo = rref_scalar(F, stack[i])
        Ri, piv = la.rref(F, stack[i])
        assert np.array_equal(R[i], Ro) and np.array_equal(Ri, Ro)
        assert ranks[i] == len(pivo) and piv == pivo


@st.composite
def _word_stacks(draw):
    """Row-word stacks (N, t) of m-bit GF(2) rows with t = 1..5, m = 1..16
    and t*m <= 62, as the packed BFS holds its keys: some rows zeroed,
    and some items made rank-deficient by a last row that is the XOR of
    the others."""
    t = draw(st.integers(1, 5))
    m = draw(st.integers(1, min(16, 62 // t)))
    N = draw(st.integers(0, 6))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=N * t, max_size=N * t))
    W = np.array(words, dtype=np.int64).reshape(N, t)
    W[np.array(draw(st.lists(st.booleans(), min_size=N * t, max_size=N * t)),
               dtype=bool).reshape(N, t)] = 0
    dependent = np.array(draw(st.lists(st.booleans(), min_size=N, max_size=N)), dtype=bool)
    W[dependent, -1] = np.bitwise_xor.reduce(W[dependent, :-1], axis=1)
    return m, W


# every order of the unit rows: each step's largest word can sit below it
@example(case=(5, np.array(list(permutations([1, 2, 4, 8, 16])), dtype=np.int64)))
@settings(max_examples=300, deadline=None)
@given(case=_word_stacks())
def test_rref_words_match_oracle(case):
    m, W = case
    F = _oracle_field(2, 1)
    N, t = W.shape
    R, ranks = la._rref_words(W)
    assert R.shape == (N, t) and R.dtype == np.int64 and ranks.shape == (N,)
    bits = la.decode_codes(W, 2, m)
    oracle_ranks = []
    for i in range(N):
        Ro, pivo = rref_scalar(F, bits[i])
        assert np.array_equal(R[i], la.encode_rows(Ro, 2))
        oracle_ranks.append(len(pivo))
    assert ranks.tolist() == oracle_ranks
    if min(oracle_ranks, default=t) < t:
        with pytest.raises(RuntimeError, match="lost rank"):
            _check_rank(ranks, t)
    else:
        _check_rank(ranks, t)


# -- inverse, det, solve ---------------------------------------------------

@pytest.mark.parametrize("q,r", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_inverse_round_trip(q, r):
    F = GF(q, r)
    I = la.identity(3)
    for seed in range(8):
        A = random_invertible(F, 3, seed)
        assert np.array_equal(la.mat_mul(F, A, la.inv_mat(F, A)), I)
        assert np.array_equal(la.mat_mul(F, la.inv_mat(F, A), A), I)


# a prime field, a table field and a log/exp field (q > 1024)
@pytest.mark.parametrize("p,r", [(7, 1), (3, 2), (2, 11)])
def test_mat_mul_matches_table_oracle(p, r):
    F = GF(p, r)
    rng = np.random.default_rng(p + r)
    A = rng.integers(0, F.q, size=(3, 4, 5), dtype=np.int64)
    B = rng.integers(0, F.q, size=(5, 2), dtype=np.int64)
    got = la.mat_mul(F, A, B)
    assert got.shape == (3, 4, 2)
    for a, g in zip(A, got):
        assert np.array_equal(g, gf_table_matmul(F, a, B))
    with pytest.raises(ValueError, match=r"shape mismatch \(3, 4, 5\) x \(4, 2\)"):
        la.mat_mul(F, A, B[:4])


def test_singular_rejected():
    F = GF(3)
    with pytest.raises(ValueError, match="singular"):
        la.inv_mat(F, la.mat(F, [[1, 2], [2, 1]]))  # det = 1 - 4 = 0 mod 3


@pytest.mark.parametrize("q,r", [(5, 1), (2, 2)])
def test_det_multiplicative(q, r):
    F = GF(q, r)
    for s in (3, 4):
        A = random_matrices(F, s, 10, seed=s)
        B = random_matrices(F, s, 10, seed=s + 100)
        AB = np.array([la.mat_mul(F, a, b) for a, b in zip(A, B)])
        assert np.array_equal(det_batch(F, AB), F.mul(det_batch(F, A), det_batch(F, B)))


def test_det_identity_and_swap():
    F = GF(7)
    M = np.stack([la.identity(4), la.identity(4)[[1, 0, 2, 3]]])
    assert det_batch(F, M).tolist() == [1, F.neg(1)]


def test_solve_round_trip():
    F = GF(3, 2)
    for seed in range(6):
        A = random_invertible(F, 3, seed)
        x = np.random.default_rng(seed).integers(0, 9, size=3, dtype=np.int64)
        b = la.mat_mul(F, A, x[:, None])[:, 0]
        assert np.array_equal(la.solve(F, A, b), x)


# -- kron and vec-action ---------------------------------------------------

def test_kron_mixed_product():
    F = GF(3)
    rng = np.random.default_rng(11)
    A, B, C, D = (rng.integers(0, 3, size=(2, 2), dtype=np.int64) for _ in range(4))
    left = la.mat_mul(F, kron(F, A, B), kron(F, C, D))
    right = kron(F, la.mat_mul(F, A, C), la.mat_mul(F, B, D))
    assert np.array_equal(left, right)


def test_kron_batch_matches_scalar(monkeypatch):
    # one item past a chunk boundary
    monkeypatch.setattr(la, "_KRON_CHUNK", 4)
    for F, s in [(GF(2, 2), 2), (GF(3, 2), 2), (GF(5), 3), (GF(7), 3)]:
        C = random_matrices(F, s, la._KRON_CHUNK + 1, seed=F.q + s)
        D = random_matrices(F, s, la._KRON_CHUNK + 1, seed=F.q + s + 1)
        K = la.kron_batch(F, C, D)
        m = s * s
        assert K.shape == (len(C), m * F.r, m * F.r)
        for i in range(len(C)):
            want = la.lower(F, gf_table_kron(F, C[i], D[i]))
            assert K[i].dtype == want.dtype
            assert np.array_equal(K[i], want)
            assert np.array_equal(K[i], kron(F, C[i], D[i]))


def test_lower_blocks_are_multiplication_matrices():
    # block row i of c is the digits of c*x^i; GF(3^7) multiplies by log/exp
    for F in (GF(2, 2), GF(3, 2), GF(2, 4), GF(3, 3), GF(7), GF(3, 7)):
        L = la.lower(F, np.arange(F.q).reshape(F.q, 1, 1))
        for c in range(F.q):
            for i in range(F.r):
                want = F.element_digits(F.mul(c, F.p ** i))
                assert tuple(int(x) for x in L[c, i]) == want


# (p, r, m, narrow, lowered): V is also held in the unsigned dtype
# narrow, and the lowered map is float32 while the dot-product bound
# m*r*(p-1)^2 is below 2^24, float64 below 2^53; 1361 and 1367 sit on
# either side of 2^24 at m = 9
DTYPE_CASES = [
    (2, 1, 9, np.uint8, np.float32), (7, 1, 7, np.uint8, np.float32),
    (7, 1, 9, np.uint16, np.float32), (13, 1, 1, np.uint8, np.float32),
    (13, 1, 4, np.uint16, np.float32), (11, 1, 4, np.uint16, np.float32),
    (5, 1, 9, np.uint8, np.float32), (2, 2, 9, np.uint8, np.float32),
    (3, 2, 9, np.uint8, np.float32), (3, 2, 31, np.uint8, np.float32),
    (3, 2, 32, np.uint16, np.float32), (2, 4, 4, np.uint8, np.float32),
    (2, 4, 63, np.uint8, np.float32), (2, 4, 64, np.uint16, np.float32),
    (3, 3, 4, np.uint8, np.float32), (1361, 1, 9, np.uint16, np.float32),
    (1367, 1, 9, np.uint16, np.float64), (65521, 1, 4, np.uint16, np.float64),
]


@pytest.mark.parametrize("p,r,m,narrow,lowered", DTYPE_CASES,
                         ids=[f"{p}-{r}-{m}-{v.__name__}" for p, r, m, v, _ in DTYPE_CASES])
def test_linmap_apply_matches_table_oracle(p, r, m, narrow, lowered):
    F = GF(p, r)
    rng = np.random.default_rng(p * 100 + r * 10 + m)
    m2 = 3
    P = rng.integers(0, F.q, size=(4, m, m2), dtype=np.int64)
    V = rng.integers(0, F.q, size=(5, m), dtype=np.int64)
    # the largest dot product: every digit of V and of the blocks is p - 1
    P[0] = p - 1
    V[0] = F.q - 1
    L = la.lower(F, P)
    assert L.dtype == lowered
    assert L.shape == (4, m * r, m2 * r)
    out = la.linmap_apply(F, V, L)
    assert out.shape == (4, 5, m2)
    assert out.dtype == np.int64
    for g in range(4):
        assert np.array_equal(out[g], gf_table_matmul(F, V, P[g]))
    assert np.array_equal(la.linmap_apply(F, V.astype(narrow), L), out)
    # a batch of vector stacks against one map
    single = la.linmap_apply(F, V.reshape(5, 1, m), L[1])
    assert np.array_equal(single.reshape(5, m2), gf_table_matmul(F, V, P[1]))
    zero = la.linmap_apply(F, np.zeros(m, dtype=np.int64), L)
    assert zero.shape == (4, m2) and not zero.any()


def test_lowered_dtype_past_float64_names_the_bound():
    F = GF(65521)
    with pytest.raises(ValueError, match=r"reaches \d+, past the 2\^53"):
        la.lower(F, np.broadcast_to(0, (1 << 22, 1)))


@pytest.mark.parametrize("p,r", [(5, 1), (2, 2), (2, 4), (13, 1)])
def test_linmap_apply_blocks_and_stacks(p, r, monkeypatch):
    # blocks of 7 rows: every shape below spans several blocks and ends
    # in a partial one
    monkeypatch.setattr(la, "_APPLY_BLOCK", 7)
    F = GF(p, r)
    rng = np.random.default_rng(p + 10 * r)
    m, m2, G = 4, 3, 11
    P = rng.integers(0, F.q, size=(G, m, m2), dtype=np.int64)
    L = la.lower(F, P)
    # one map, more rows than a block
    V = rng.integers(0, F.q, size=(50, m), dtype=np.int64)
    assert np.array_equal(la.linmap_apply(F, V, L[0]), gf_table_matmul(F, V, P[0]))
    # one V broadcast against every map, as a stack and as a vector
    out = la.linmap_apply(F, V[:3], L)
    vec = la.linmap_apply(F, V[0], L)
    assert out.shape == (G, 3, m2) and vec.shape == (G, m2)
    for g in range(G):
        assert np.array_equal(out[g], gf_table_matmul(F, V[:3], P[g]))
        assert np.array_equal(vec[g], out[g, 0])
    # a stack of vector stacks is refused
    with pytest.raises(ValueError, match="cannot apply a map stack"):
        la.linmap_apply(F, V[:15].reshape(5, 3, m), L)


def test_linmap_apply_rejects_unlowered_map():
    F = GF(2, 2)
    P = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="lowered map has 3 rows, expected 6"):
        la.linmap_apply(F, np.ones(3, dtype=np.int64), P)


def test_vec_action_is_congruence():
    # vec(C^T A C) = vec(A) . (C kron C)
    F = GF(5)
    rng = np.random.default_rng(9)
    for seed in range(5):
        A = rng.integers(0, 5, size=(3, 3), dtype=np.int64)
        C = random_invertible(F, 3, seed + 50)
        direct = la.mat_mul(F, la.mat_mul(F, C.T, A), C)
        via_vec = la.linmap_apply(F, A.reshape(1, 9), kron(F, C, C)).reshape(3, 3)
        assert np.array_equal(direct, via_vec)


# -- integer codes ---------------------------------------------------------

def test_encode_decode_round_trip():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 3, size=(20, 5), dtype=np.int64)
    codes = la.encode_rows(rows, 3)
    assert np.array_equal(la.decode_codes(codes, 3, 5), rows)


@pytest.mark.parametrize("q", [2, 3, 4, 16, 65521])
def test_encode_rows_matches_digit_loop_at_every_width(q):
    # widths around the w = 62 // log2(q) digits of one int64 word; a
    # single row encodes to a scalar at every width
    w = int(62 // np.log2(q))
    rng = np.random.default_rng(q)
    for m in (w - 1, w, w + 1, 2 * w + 1):
        rows = rng.integers(0, q, size=(30, m), dtype=np.int64)
        rows[0] = q - 1
        codes = la.encode_rows(rows, q)
        assert codes.dtype == (np.int64 if m <= w else object)
        assert codes.tolist() == encode_rows_scalar(rows, q)
        assert np.array_equal(la.decode_codes(codes, q, m), rows)
        key = la.encode_rows(rows[1], q)
        assert not isinstance(key, np.ndarray) and key == codes[1]


@pytest.mark.parametrize("p,r", [(17, 1), (2, 4), (251, 1)])
def test_narrow_codes_match_int64(p, r, monkeypatch):
    # narrow codes decode, encode (across a block boundary) and map
    # exactly as int64 ones do
    monkeypatch.setattr(la, "_ENCODE_CHUNK", 7)
    F = GF(p, r)
    rng = np.random.default_rng(p + r)
    codes = rng.integers(0, F.q ** 3, size=50)
    codes[0] = F.q ** 3 - 1
    wide = la.decode_codes(codes, F.q, 3)
    narrow = la.decode_codes(codes, F.q, 3, np.min_scalar_type(F.q - 1))
    assert narrow.dtype == np.min_scalar_type(F.q - 1)
    assert np.array_equal(narrow, wide)
    assert np.array_equal(la.encode_rows(narrow, F.q), codes)
    assert la.encode_rows(narrow[0], F.q) == codes[0]
    L = la.lower(F, rng.integers(0, F.q, size=(2, 3, 4)))
    out = la.linmap_apply(F, narrow, L)
    assert out.dtype == np.int64 and np.array_equal(out, la.linmap_apply(F, wide, L))


def test_encode_decode_round_trip_of_empty_rows():
    # rows of no entries encode to zero keys and decode back to no entries
    codes = la.encode_rows(np.zeros((4, 0), dtype=np.int64), 3)
    assert codes.dtype == np.int64 and codes.tolist() == [0, 0, 0, 0]
    assert la.decode_codes(codes, 3, 0).shape == (4, 0)


def test_encode_is_msf_base_q():
    # first coordinate is the most significant digit
    assert la.encode_rows(np.array([[1, 0, 0]]), 5)[0] == 25
    assert la.encode_rows(np.array([[0, 0, 1]]), 5)[0] == 1
    assert la.encode_rows(np.array([[2, 1]]), 3)[0] == 7


# -- GL --------------------------------------------------------------------

def test_gl_order_values():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 48
    assert gl_order(2, 3) == 168
    assert gl_order(4, 2) == 180
    assert gl_order(3, 3) == 11232


@pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (2, 3)])
def test_enumerate_gl_against_raw(q, s):
    F = GF(q)
    G = enumerate_gl(F, s)
    assert len(G) == gl_order(q, s)
    got = {tuple(C.ravel()) for C in G}
    want = {tuple(C.ravel()) for C in raw_gl(q, s)}
    assert got == want


@pytest.mark.parametrize("q,r,s", [
    (2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (5, 1, 2), (7, 1, 2),
    (2, 2, 2), (3, 2, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3),
])
def test_enumerate_gl_matches_det_filter(q, r, s):
    F = GF(q, r)
    G = enumerate_gl(F, s)
    want = gl_det_filter(F, s)
    assert G.dtype == want.dtype and np.array_equal(G, want)


def test_enumerate_gl_extension_field():
    F = GF(2, 2)
    G = enumerate_gl(F, 2)
    assert len(G) == gl_order(4, 2)
    assert (det_batch(F, G) != 0).all()


def test_det_batch_matches_scalar():
    # np.linalg.det is exact here: entries below p <= 7 and s <= 5 keep
    # every determinant (Hadamard bound 6^5 * 5^2.5 < 5 * 10^5) far inside
    # float precision
    rng = np.random.default_rng(4)
    for p, s in [(3, 3), (5, 4), (5, 5), (7, 4), (7, 5)]:
        stack = rng.integers(0, p, size=(40, s, s), dtype=np.int64)
        want = [round(np.linalg.det(M)) % p for M in stack]
        assert det_batch(GF(p), stack).tolist() == want


@pytest.mark.parametrize("p,r,s", [(2, 2, 2), (3, 1, 3)])
def test_det_batch_nonzero_iff_full_rank(p, r, s):
    # every s x s matrix: a nonzero determinant is exactly full rank
    F = GF(p, r)
    mats = la.decode_codes(np.arange(F.q ** (s * s)), F.q, s * s).reshape(-1, s, s)
    _, ranks = la.rref_batch(F, mats)
    assert np.array_equal(det_batch(F, mats) != 0, ranks == s)


def _closure_size(F, gens):
    """Size of the closure of I under right multiplication by gens, kept
    as sorted integer keys."""
    s = gens.shape[-1]
    frontier = la.identity(s)[None]
    seen = la.encode_rows(frontier.reshape(1, -1), F.q)
    while len(frontier):
        imgs = np.concatenate([la.mat_mul(F, frontier, g) for g in gens])
        keys, first = np.unique(la.encode_rows(imgs.reshape(len(imgs), -1), F.q),
                                return_index=True)
        pos = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != keys
        seen = np.insert(seen, pos[fresh], keys[fresh])
        frontier = imgs[first[fresh]]
    return len(seen)


GENERATOR_CELLS = (
    [(q, 1) for q in (2, 3, 4, 5, 9)]
    + [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
    + [(q, 3) for q in (2, 3, 4, 5)]
    + [(2, 4)]
)


@pytest.mark.parametrize("q,s", GENERATOR_CELLS)
def test_generators_close_to_gl_order(q, s):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = round(np.log(q) / np.log(p))
    F = GF(p, r)
    gens = gl_generators(F, s)
    if s >= 2:
        assert len(gens) == (2 if q == 2 or s >= 3 else 3)
    assert _closure_size(F, gens) == gl_order(q, s)


@pytest.mark.parametrize("q,r,s", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_generators_span_group(q, r, s):
    F = GF(q, r)
    gens = gl_generators(F, s)
    assert (det_batch(F, gens) != 0).all()
    frontier = [la.identity(s)]
    seen = {tuple(la.identity(s).ravel())}
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens:
                P = la.mat_mul(F, M, g)
                key = tuple(P.ravel())
                if key not in seen:
                    seen.add(key)
                    nxt.append(P)
        frontier = nxt
    assert len(seen) == gl_order(F.q, s)
