import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringforge import GF, linalg

from oracles import least_generator, naive_powers, poly_code_mul

# q <= 81 keeps every exhaustive loop here instantaneous
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 4)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda pr: f"GF({pr[0] ** pr[1]})")
def F(request):
    p, r = request.param
    return GF(p, r)


# -- construction ----------------------------------------------------------

def test_default_moduli():
    assert tuple(GF(2, 2).modulus) == (1, 1, 1)
    assert tuple(GF(3, 2).modulus) == (1, 0, 1)


def test_prime_required():
    with pytest.raises(ValueError, match="p must be prime"):
        GF(4)
    with pytest.raises(ValueError, match="p must be prime"):
        GF(1)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over Z_2
    with pytest.raises(ValueError, match="reducible"):
        GF(2, 2, modulus=(1, 0, 1))


def test_bad_degree():
    with pytest.raises(ValueError, match="extension degree"):
        GF(2, 0)


def test_order_cap():
    with pytest.raises(ValueError, match="exceeds"):
        GF(2, 40)


# -- arithmetic tables -----------------------------------------------------

def test_gf4_table_values():
    F = GF(2, 2)
    # codes: 0, 1, 2 = x, 3 = x+1 with x^2 = x+1
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.mul(3, 3) == 2
    assert F.add(2, 3) == 1
    assert F.frobenius(2) == 3
    assert F.frobenius(3) == 2
    assert F.frobenius(2, 2) == 2


def test_field_axioms_exhaustive(F):
    q = F.q
    for a in range(q):
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(q):
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0


def test_inverses(F):
    for a in F.units():
        assert F.mul(a, F.inv(a)) == 1
        assert F.div(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


def test_unit_group_order(F):
    # a^(q-1) = 1 for units, a^q = a for everyone
    for a in F.units():
        assert F.pow(a, F.q - 1) == 1
    for a in range(F.q):
        assert F.pow(a, F.q) == a


def test_frobenius_is_homomorphism(F):
    if F.q > 49:
        pytest.skip("pairs capped at q <= 49")
    for e in F.automorphism_exponents():
        for a in range(F.q):
            for b in range(F.q):
                assert F.frobenius(F.add(a, b), e) == F.add(
                    F.frobenius(a, e), F.frobenius(b, e)
                )
                assert F.frobenius(F.mul(a, b), e) == F.mul(
                    F.frobenius(a, e), F.frobenius(b, e)
                )


def test_frobenius_is_pth_power(F):
    for a in range(F.q):
        assert F.frobenius(a) == F.pow(a, F.p)
        assert F.frobenius(a, F.r) == a  # full cycle


def test_pow_negative(F):
    for a in F.units():
        assert F.pow(a, -1) == F.inv(a)
        assert F.pow(a, -2) == F.mul(F.inv(a), F.inv(a))
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 8), b=st.integers(0, 8), m=st.integers(0, 50), n=st.integers(0, 50))
def test_pow_laws_gf9(a, b, m, n):
    F = GF(3, 2)
    assert F.pow(F.mul(a, b), m) == F.mul(F.pow(a, m), F.pow(b, m))
    if a:
        assert F.pow(a, m + n) == F.mul(F.pow(a, m), F.pow(a, n))


# one field per arithmetic regime: prime, q x q tables, log/exp with digits
REGIME_FIELDS = [(5, 1), (3, 2), (2, 11)]
# the array check also runs on both log/exp fields the q <= 81 list misses
ARRAY_FIELDS = FIELDS + [(2, 11), (3, 7)]


def _field_id(pr):
    return f"GF({pr[0] ** pr[1]})"


@pytest.mark.parametrize("pr", REGIME_FIELDS, ids=_field_id)
@pytest.mark.parametrize("kind", [int, np.int64, np.uint16], ids=lambda k: k.__name__)
def test_int_operands_give_int(pr, kind):
    F = GF(*pr)
    a, b = kind(2), kind(F.q - 1)
    results = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.div(a, b), F.neg(a),
               F.inv(a), F.pow(a, 3), F.pow(a, -2), F.pow(kind(0), 0),
               F.frobenius(a), F.frobenius(b, 2)]
    assert [type(x) for x in results] == [int] * len(results)


@pytest.mark.parametrize("pr", ARRAY_FIELDS, ids=_field_id)
def test_array_ops_match_scalar(pr):
    F = GF(*pr)
    rng = np.random.default_rng(7)
    a = rng.integers(0, F.q, size=40)
    b = rng.integers(0, F.q, size=40)
    a[:2] = b[2:4] = 0
    u = rng.integers(1, F.q, size=40)
    cases = [(F.add, (a, b)), (F.sub, (a, b)), (F.mul, (a, b)), (F.div, (a, u)),
             (F.neg, (a,)), (F.inv, (u,))]
    cases += [(lambda x, k=k: F.pow(x, k), (a,)) for k in (0, 1, 2, 5, F.q - 2, F.q)]
    cases += [(lambda x, k=k: F.pow(x, k), (u,)) for k in (-1, -3, -(F.q - 2))]
    cases += [(lambda x, e=e: F.frobenius(x, e), (a,)) for e in range(-1, F.r + 1)]
    for op, args in cases:
        out = op(*args)
        assert out.shape == (40,)
        assert not any(np.shares_memory(out, x) for x in args)
        assert out.tolist() == [op(*(int(x[i]) for x in args)) for i in range(40)]
    assert F.pow(0, 0) == 1 and F.pow(np.zeros(3, dtype=np.int64), 0).tolist() == [1] * 3
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.pow(a, -1)
    with pytest.raises(ZeroDivisionError):
        F.div(a, b)


@pytest.mark.parametrize("pr", REGIME_FIELDS + [(2, 1), (2, 4)], ids=_field_id)
def test_inv_of_zero_raises(pr):
    F = GF(*pr)
    for zero in (0, np.int64(0), np.array([1, 0, 1]), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
            F.inv(zero)
    with pytest.raises(ZeroDivisionError):
        F._inv_raw(np.int64(0))
    assert F.inv(1) == 1 and F.inv(np.array([1])).tolist() == [1]


# -- characteristic 2 ------------------------------------------------------

def _digitwise(op, r):
    """op applied to each base-2 digit pair of two codes, reduced mod 2."""
    return lambda a, b: sum((op(a // 2 ** i, b // 2 ** i) % 2) * 2 ** i for i in range(r))


@pytest.mark.parametrize("r", [1, 2, 10, 11, 16], ids=lambda r: f"GF(2^{r})")
@pytest.mark.parametrize("dtype", [np.int8, np.int64], ids=lambda d: d.__name__)
def test_char2_kernels_match_digitwise(r, dtype):
    # a (30, 10) stack against one factor per row, as rref_batch calls them
    F = GF(2, r)
    rng = np.random.default_rng(r)
    hi = min(F.q, 128)                  # int8 holds the codes below 128
    a, b = (rng.integers(0, hi, size=(30, 10)).astype(dtype) for _ in range(2))
    f = rng.integers(0, hi, size=(30, 1)).astype(dtype)
    a[0], b[1], f[2] = 0, 0, 0
    add, sub = _digitwise(lambda x, y: x + y, r), _digitwise(lambda x, y: x - y, r)
    ai, bi = a.ravel().tolist(), b.ravel().tolist()
    fi = np.broadcast_to(f, a.shape).ravel().tolist()
    out = F._add_raw(a, b)
    assert out.dtype == dtype
    assert out.ravel().tolist() == [add(x, y) for x, y in zip(ai, bi)]
    out = F._sub_mul_raw(a, f, b)
    assert out.dtype == (dtype if r == 1 else np.int64)
    assert out.ravel().tolist() == [sub(x, poly_code_mul(2, F.modulus, g, y))
                                    for x, g, y in zip(ai, fi, bi)]
    assert F._add_raw(int(a[2, 3]), int(b[2, 3])) == add(ai[23], bi[23])
    if r == 1:
        out = F._mul_raw(a, b)
        assert out.dtype == dtype
        assert out.ravel().tolist() == [x * y for x, y in zip(ai, bi)]


# table fields (q <= 1024) with p = 2 and p > 2, then the log/exp regime
KERNEL_FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2), (3, 4), (2, 8), (2, 11), (3, 7)]


@pytest.mark.parametrize("p,r", KERNEL_FIELDS, ids=lambda v: str(v))
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint16, np.int64],
                         ids=lambda d: d.__name__)
def test_kernels_match_naive(p, r, dtype):
    # array x array (the flat gather), array x python int (one table row),
    # numpy scalars and int x int, and the (N, m) x (N, 1) broadcast of
    # rref_batch.  The index a*q + b must not be computed in the operand
    # dtype: an int8 code times q wraps on numpy 2 and under numpy 1's
    # value-based casting alike
    F = GF(p, r)
    q, mod = F.q, F.modulus
    pows = [p ** i for i in range(r)]
    rng = np.random.default_rng(q)
    hi = min(q, int(np.iinfo(dtype).max) + 1)
    a, b = (rng.integers(0, hi, size=(12, 9)).astype(dtype) for _ in range(2))
    f = rng.integers(0, hi, size=(12, 1)).astype(dtype)
    a[0], b[1], f[2] = 0, 0, 0
    a[3, 0] = b[3, 0] = hi - 1

    def add(x, y):
        return sum(((x // w + y // w) % p) * w for w in pows)

    def sub(x, y):
        return sum(((x // w - y // w) % p) * w for w in pows)

    def mul(x, y):
        return poly_code_mul(p, mod, x, y)

    def naive(op, x, y):
        x, y = np.broadcast_arrays(x, y)
        return [op(int(u), int(v)) for u, v in zip(x.ravel(), y.ravel())]

    k = int(a[3, 0])
    for raw, op in ((F._mul_raw, mul), (F._add_raw, add)):
        for x, y in ((a, b), (a, f), (f, a), (k, b), (b, k), (dtype(k), b),
                     (b, dtype(k)), (dtype(k), dtype(k))):
            assert np.ravel(raw(x, y)).tolist() == naive(op, x, y)
        assert raw(k, 1) == op(k, 1)
        assert raw(k, k) == op(k, k)
    for x, g, y in ((a, f, b), (a, k, b), (a, b, f), (k, k, 1)):
        assert np.ravel(F._sub_mul_raw(x, g, y)).tolist() == [
            sub(u, mul(v, w)) for u, v, w in zip(*(np.ravel(z).tolist() for z in
                                                   np.broadcast_arrays(x, g, y)))]


def test_gather_keeps_the_operands_layout():
    # a coordinate-major operand gives a coordinate-major result, as a
    # ufunc's would, so Ring.mul_batch reads it back without a copy; a
    # gather allocates its one int64 result and nothing more, in either order
    F = GF(3, 2)
    x = np.ascontiguousarray(np.arange(600).reshape(200, 3).T % 9).T
    for raw in (F._add_raw, F._mul_raw):
        assert raw(x, x).flags.f_contiguous
        assert raw(x, x[:1]).flags.f_contiguous
        assert raw(x[:1], x).flags.f_contiguous
        assert raw(x.copy(), x).flags.c_contiguous
    a = np.arange(100_000) % 9
    f = np.ascontiguousarray(a.reshape(25_000, 4).T).T
    for raw, u in product((F._add_raw, F._mul_raw), (a, f)):
        raw(u, u)
        tracemalloc.start()
        try:
            raw(u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + 4096


def test_code_range_checks(F):
    with pytest.raises(ValueError):
        F.mul(0, F.q)
    with pytest.raises(ValueError):
        F.add(-1, 0)
    with pytest.raises(ValueError, match="out of range"):
        F._check(np.array([0, F.q]))
    with pytest.raises(TypeError, match="integers"):
        F.mul(np.array([1.7]), 1)
    with pytest.raises(TypeError, match="integers"):
        F.add(0.0, 1)


def test_table_build_memory():
    # the q x q multiplication table of GF(2^10) is 8 MB (p = 2 builds no
    # addition table); a (q, q, r) int64 digit tensor would take 80 MB
    tracemalloc.start()
    try:
        GF(2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


# -- structure queries -----------------------------------------------------

def test_squares_and_nonsquare(F):
    sq = set(F.squares())
    assert 0 in sq and 1 in sq
    if F.p == 2:
        # squaring is bijective in characteristic 2
        assert sq == set(range(F.q))
        with pytest.raises(ValueError):
            F.least_nonsquare()
    else:
        assert len(sq) == (F.q - 1) // 2 + 1
        g = F.least_nonsquare()
        assert g not in sq
        assert all(a in sq for a in range(g))


def test_sign_coset_reps(F):
    reps = F.sign_coset_reps()
    covered = set()
    for c in reps:
        assert c not in covered
        covered.add(c)
        covered.add(F.neg(c))
    assert covered == set(F.units())
    expected = F.q - 1 if F.p == 2 else (F.q - 1) // 2
    assert len(reps) == expected


def test_multiplicative_generator(F):
    g = F.multiplicative_generator()
    seen = set()
    x = 1
    for _ in range(F.q - 1):
        x = F.mul(x, g)
        seen.add(x)
    assert seen == set(F.units())


# every GF(p^r) with r > 1 and q <= 1024
TABLE_FIELDS = [(p, r) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                for r in range(2, 11) if p ** r <= 1024]
# every field is built by the same code: prime fields, and two past the
# full tables
BUILT_FIELDS = TABLE_FIELDS + [(p, 1) for p in range(2, 258)
                               if all(p % d for d in range(2, p))] + [(2, 11), (3, 7)]


@pytest.mark.parametrize("p,r", BUILT_FIELDS, ids=lambda v: str(v))
def test_field_tables_match_naive(p, r):
    F = GF(p, r)
    q = F.q
    assert F._gen == least_generator(p, F.modulus)
    powers = naive_powers(p, F.modulus, F._gen)
    # two periods of g^n, then the zero tail that log 0 points into
    tail = 2 * (q - 1)
    assert F._exp[:tail].tolist() == powers + powers
    assert F._exp[tail:].tolist() == [0] * (tail + 1)
    assert F._log[powers].tolist() == list(range(q - 1))
    assert F._log[0] == tail
    # the Frobenius power e is a -> a^(p^e), which is g^(k p^e) for
    # a = g^k, 0 fixed; e = r wraps to the identity
    for e in range(r + 1):
        want = [0] * q
        for k, a in enumerate(powers):
            want[a] = powers[k * p ** e % (q - 1)]
        assert F._frob_raw(np.arange(q), e).tolist() == want
    # the digit table in the narrowest dtype holding p - 1, and negation
    # digit by digit
    pows = [p ** i for i in range(r)]
    digits = np.array([[(a // w) % p for w in pows] for a in range(q)])
    assert F._digits.dtype == np.min_scalar_type(p - 1)
    assert np.array_equal(F._digits, digits)
    assert F._neg.tolist() == ((-digits % p) @ np.array(pows)).tolist()
    # addition against digit-wise addition, one row at a time: the table
    # gather for p > 2 and q <= 1024, the XOR for p = 2, which builds no
    # table, mod p for prime fields and digit sums past the tables
    assert (F._add_t is None) == (p == 2 or r == 1 or q > 1024)
    for a in range(q):
        row = ((digits[a] + digits) % p) @ np.array(pows)
        assert F._add_raw(a, np.arange(q)).tolist() == row.tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 41, 251, 257])
def test_prime_generator_is_least(p):
    assert GF(p).multiplicative_generator() == least_generator(p, (0, 1))


def test_gf_2_16_generator_pinned():
    # the least generator of GF(2^16) under the default modulus
    F = GF(2, 16)
    assert F._gen == 3
    assert F.multiplicative_generator() == 3
    assert F.mul(F._exp[12345], F._exp[65535 - 12345]) == 1


def test_gf_2_16_tables_footprint():
    # a uint8 digit table and one int64 row per Frobenius power used keep
    # the tables held after three powers under 8 MiB
    F = GF(2, 16)
    a = np.arange(F.q)
    for e in (1, 2, 3):
        F._frob_raw(a, e)
    held = 0
    for v in vars(F).values():
        for t in v.values() if isinstance(v, dict) else (v,):
            held += t.nbytes if isinstance(t, np.ndarray) else 0
    assert held <= 8 * 2 ** 20
    # phi is Z_2-linear: phi(a) is the XOR of (x^i)^2 over the set bits i
    sq = [poly_code_mul(2, F.modulus, 1 << i, 1 << i) for i in range(16)]
    phi = np.zeros(F.q, dtype=np.int64)
    for i, c in enumerate(sq):
        phi ^= (a >> i & 1) * c
    want = a
    for e in range(1, 16):
        want = phi[want]
        assert np.array_equal(F._frob_raw(a, e), want)


def _naive_rank(p, modulus, M):
    """Rank of a list of rows over GF(p^r) by fraction-free elimination in
    python, multiplying by ``poly_code_mul`` and subtracting digit by
    digit."""
    r = len(modulus) - 1

    def comb(c, x, f, y):   # c*x - f*y
        cx, fy = poly_code_mul(p, modulus, c, x), poly_code_mul(p, modulus, f, y)
        return sum((cx // p ** i - fy // p ** i) % p * p ** i for i in range(r))

    rows, rank = [list(row) for row in M], 0
    for j in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        c = rows[rank][j]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j]
            rows[i] = [comb(c, x, f, y) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [131, 251])
def test_digit_ops_past_uint8_sums(p):
    # past the full tables two uint8 digits sum to up to 2(p-1), which
    # wraps uint8 from p = 131: the digit-path ops against naive digit-wise
    # arithmetic on seeded random codes
    F = GF(p, 2)
    rng = np.random.default_rng(p)
    a, b, f = rng.integers(0, F.q, size=(3, 2000))

    def code(lo, hi):
        return lo % p + p * (hi % p)

    fb = np.array([poly_code_mul(p, F.modulus, int(x), int(y)) for x, y in zip(f, b)])
    assert F.add(a, b).tolist() == code(a % p + b % p, a // p + b // p).tolist()
    assert F.sub(a, b).tolist() == code(a % p - b % p, a // p - b // p).tolist()
    assert F.neg(a).tolist() == code(-(a % p), -(a // p)).tolist()
    want = code(a % p - fb % p, a // p - fb // p)
    assert F._sub_mul_raw(a, f, b).tolist() == want.tolist()
    # ranks of 5 x 6 matrices whose last rows are combinations of the
    # first k
    for k in (1, 2, 3, 5):
        M = rng.integers(0, F.q, size=(5, 6))
        M[k:] = 0
        for i in range(k, 5):
            for j in range(k):
                M[i] = F.add(M[i], F.mul(int(rng.integers(F.q)), M[j]))
        assert linalg.rank(F, M) == _naive_rank(p, F.modulus, M.tolist())


def test_automorphism_exponents(F):
    assert list(F.automorphism_exponents()) == list(range(F.r))


def test_digits_and_poly_str():
    F = GF(3, 2)
    assert F.element_digits(5) == (2, 1)  # 5 = 2 + 1*3
    assert F.poly_str(5) == "a+2"
    assert F.poly_str(0) == "0"
    assert F.poly_str(1) == "1"
    assert GF(2, 3).poly_str(6) == "a^2+a"


def test_serialization_round_trip(F):
    d = F.to_dict()
    G = GF.from_dict(d)
    assert G == F
    assert hash(G) == hash(F)
    assert G.modulus == F.modulus


def test_equality_distinguishes_presentations():
    assert GF(3, 2) != GF(3, 1)
    assert GF(2, 2) == GF(2, 2, modulus=(1, 1, 1))
