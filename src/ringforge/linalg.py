"""Exact linear algebra over a GF instance.

Matrices and vectors are numpy int64 arrays of element codes; only the
lowered maps below are held in floats.  The batched helpers carry the
orbit engine and are vectorized over the leading axes.

GF(q)-linear maps that act on many vectors (the group tensor of the
orbit engines) are held lowered to Z_p, q = p^r: ``lower`` replaces each
entry c of an (m, m2) matrix by the r x r matrix of multiplication by c,
whose row i holds the digits of c*x^i, giving an (m*r, m2*r) matrix over
Z_p.  ``kron_batch`` returns kron(C, D) in this form and
``linmap_apply`` applies it to the digit vectors of GF codes as a float
matmul (BLAS) reduced mod p, the same code for every field; ``mat_mul``
is a lowered right factor applied to the rows of the left.  A lowered
map is stored in float32 while a dot product's bound m*r*(p-1)^2 is
below 2^24, in float64 below 2^53 (``_lowered_dtype``), so every sum of
integer terms is exact; numpy's integer matmul does not use BLAS.

``rref_batch`` brings a stack of bases (N, t, m) to reduced row echelon
form by row-pivot Gauss-Jordan through the ``GF`` raw ops, one step per
row of the stack, the same code for every field.  It is the one row
reduction on digit rows: ``rref`` (and with it ``rank``, ``solve`` and
``inv_mat``) is its one-item case.  The one other is ``_rref_words``,
the same Gauss-Jordan over GF(2) on rows packed into integer words, where
a row operation is one XOR; the subspace BFS uses it over GF(2) while a
space's key fits int64, and ``rref_batch`` everywhere else.  A matrix
is invertible when its ``rank`` is its size; ``gl.det_batch`` takes no
elimination.  Each ``rref_batch`` step works on whole (N, m) rows, so
its numpy overhead does not grow with m.  Prime fields are eliminated
in the narrow signed dtype of ``_elim_dtype`` (int8 up to p = 11, int16
up to p = 181), so each step moves less memory; the result is int64
like every other array here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mat", "identity", "mat_mul", "rref", "rank",
    "inv_mat", "solve", "lower", "kron_batch",
    "linmap_apply", "rref_batch", "encode_rows", "decode_codes", "digit_sums",
]

# group elements lowered per step of kron_batch
_KRON_CHUNK = 8192
# rows of vectors multiplied per matmul of linmap_apply
_APPLY_BLOCK = 8192
# rows widened to int64 per step of encode_rows
_ENCODE_CHUNK = 1 << 16


def mat(F, rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.int64)
    F._check(A)
    return A


def identity(s: int) -> np.ndarray:
    return np.eye(s, dtype=np.int64)


def mat_mul(F, A, B) -> np.ndarray:
    """A @ B over F for a matrix B (k, n) and a stack A (..., k): B is
    lowered and applied to the rows of A, ``linmap_apply(F, A, lower(F, B))``."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape[-1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    return linmap_apply(F, A, lower(F, B))


def rref(F, M):
    """Reduced row echelon form; returns (R, pivot_columns).

    A one-item ``rref_batch``: the first rank rows of R are nonzero and
    each pivot is the leading column of its row.
    """
    R, ranks = rref_batch(F, np.asarray(M)[None])
    return R[0], [int(np.flatnonzero(row)[0]) for row in R[0, :ranks[0]]]


def rank(F, M) -> int:
    return len(rref(F, M)[1])


def inv_mat(F, A) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    s = A.shape[0]
    aug = np.concatenate([A, identity(s)], axis=1)
    R, piv = rref(F, aug)
    if piv[:s] != list(range(s)) or len(piv) < s:
        raise ValueError("matrix is singular")
    return R[:, s:]


def solve(F, A, b):
    """One solution x of A x = b (free variables 0), or None if inconsistent."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m, n = A.shape
    aug = np.concatenate([A, b[:, None]], axis=1)
    R, piv = rref(F, aug)
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row, j in enumerate(piv):
        x[j] = R[row, n]
    return x


def _lowered_dtype(F, m: int):
    """Float dtype in which a length m*r dot product of digits is exact.

    Every term of the dot product is a nonnegative integer and so is every
    partial sum, none above the bound m*r*(p-1)^2; a float holds every
    integer up to 2^24 (float32) or 2^53 (float64) exactly, so the sum is
    exact in any summation order, fused multiply-adds included.
    """
    bound = m * F.r * (F.p - 1) ** 2
    for dt, bits in ((np.float32, 24), (np.float64, 53)):
        if bound < 1 << bits:
            return np.dtype(dt)
    raise ValueError(f"a length {m * F.r} dot product over Z_{F.p} reaches {bound}, "
                     f"past the 2^53 that float64 holds exactly")


def _elim_dtype(F):
    """Dtype ``rref_batch`` eliminates in: for a prime field the smallest
    signed dtype holding a - f*b before its reduction mod p, which needs
    (p-1)^2 + p; int64 for r > 1, whose raw ops gather from int64 tables."""
    if F.r > 1:
        return np.dtype(np.int64)
    bound = (F.p - 1) ** 2 + F.p
    for dt in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def lower(F, P) -> np.ndarray:
    """A GF(q) matrix stack (..., m, m2) as Z_p matrices (..., m*r, m2*r).

    Block (k, j) is the multiplication-by-P[k, j] matrix, whose row i holds
    the digits of P[k, j]*x^i; the dtype is ``_lowered_dtype(F, m)``.
    Row i of every block comes from one product of the whole stack by x,
    so a call costs O(|P| r^2), the size of its output, whatever q is.
    """
    P = np.asarray(P, dtype=np.int64)
    *lead, m, m2 = P.shape
    r = F.r
    out = np.empty((*lead, m, r, m2, r), dtype=_lowered_dtype(F, m))
    for i in range(r):
        if i:
            P = F._mul_raw(P, F.p)          # the code of x is p
        out[..., i, :, :] = np.take(F._digits, P, axis=0)
    return out.reshape(*lead, m * r, m2 * r)


def kron_batch(F, C, D) -> np.ndarray:
    """Per-item kron(C_g, D_g), lowered to Z_p, for two stacks (G, s, s).

    Row-major flattening makes vec(C^T A D) = vec(A) @ kron(C, D), which is
    the whole reason this exists; congruence passes one stack twice.  The
    output (G, s*s*r, s*s*r) is written in ``_lowered_dtype`` chunk by
    chunk, so no GF-coded (G, s*s, s*s) stack is ever held whole.
    """
    C = np.asarray(C, dtype=np.int64)
    D = np.asarray(D, dtype=np.int64)
    G, s, _ = C.shape
    m = s * s
    out = np.empty((G, m * F.r, m * F.r), dtype=_lowered_dtype(F, m))
    for lo in range(0, G, _KRON_CHUNK):
        c, d = C[lo:lo + _KRON_CHUNK], D[lo:lo + _KRON_CHUNK]
        K = F._mul_raw(c[:, :, None, :, None], d[:, None, :, None, :])
        out[lo:lo + len(c)] = lower(F, K.reshape(len(c), m, m))
    return out


def _digit_rows(digits, V):
    # (..., m) codes -> (..., m*r) digits, digit i of V[..., k] in column
    # k*r + i, gathered from the (q, r) digit table ``digits``
    return np.take(digits, V, axis=0).reshape(V.shape[:-1] + (-1,))


def _digit_codes(F, Y):
    # integer-valued digit sums (..., m2*r) -> codes (..., m2), still as
    # floats: each sum mod p, then digit i of entry j (column j*r + i)
    # recombined; the caller stores them into its int64 output
    p, r = F.p, F.r
    Y -= p * np.floor(Y / p)
    codes = Y[..., r - 1::r]
    for i in range(r - 2, -1, -1):
        codes = codes * p + Y[..., i::r]
    return codes


def linmap_apply(F, V, L) -> np.ndarray:
    """V @ P over F with P lowered (L = lower(F, P)), as int64 codes:
    (..., m) x (m*r, m2*r) -> (..., m2) for one map, and one V (m,) or
    (n, m) against every map of a stack (G, m*r, m2*r) -> (G, m2) or
    (G, n, m2).

    Each product is a float matmul (BLAS) on the digits of V, in L's
    dtype: ``_lowered_dtype`` makes every dot product exact.  Its integer
    result x is reduced as x - p*floor(x/p), also exact: x/p is correctly
    rounded, and since x < 2^24 (2^53 in float64) half an ulp of x/p is
    below 1/p, so k + j/p (j < p) cannot round up to k + 1; p*floor(x/p)
    and the difference are integers below the bound.  The r digits of an
    entry are then recombined into a code below q <= 2^16, again exact.
    One map is applied to all rows of V as one 2-D matmul per block of
    ``_APPLY_BLOCK`` rows; a stack of maps is applied in blocks of maps
    holding about as many rows, so float temporaries stay bounded.  V may
    be held in any integer dtype (the ground set is narrow).
    """
    V = np.asarray(V)
    r = F.r
    m = V.shape[-1]
    if L.shape[-2] != m * r:
        raise ValueError(f"lowered map has {L.shape[-2]} rows, expected {m * r}")
    m2 = L.shape[-1] // r
    # digits in L's dtype, cast per call: GF keeps no float tables
    digits = F._digits.astype(L.dtype)
    if L.ndim == 2:
        rows = V.reshape(-1, m)
        out = np.empty((len(rows), m2), dtype=np.int64)
        for lo in range(0, len(rows), _APPLY_BLOCK):
            X = _digit_rows(digits, rows[lo:lo + _APPLY_BLOCK])
            out[lo:lo + len(X)] = _digit_codes(F, X @ L)
        return out.reshape(V.shape[:-1] + (m2,))
    if L.ndim != 3 or V.ndim > 2:
        raise ValueError(f"cannot apply a map stack {L.shape} to vectors {V.shape}")
    out = np.empty((len(L),) + V.shape[:-1] + (m2,), dtype=np.int64)
    step = max(1, _APPLY_BLOCK // max(1, int(np.prod(V.shape[:-1]))))
    X = _digit_rows(digits, V)
    for lo in range(0, len(L), step):
        out[lo:lo + step] = _digit_codes(F, np.matmul(X, L[lo:lo + step]))
    return out


def rref_batch(F, M):
    """Reduced row echelon form of a stack (N, t, m); returns (R, ranks).

    Row-pivot Gauss-Jordan over the whole stack, one step per row: step i
    moves the remaining row with the leftmost leading entry to position
    i, scales it to a unit pivot and clears its column from every other
    row.  That row and its leading column come from one argmax over the
    remaining block read column by column, confirmed by one gather of the
    pivot entry: an item whose remaining rows are all zero gets a zero
    pivot, is left unchanged by the step, and is not counted in
    ``ranks``.  The last row of a stack needs no search and no swap, so a
    t = 1 stack is only scaled.  The stack is eliminated in
    ``_elim_dtype(F)`` (int8 up to p = 11, int16 up to p = 181) and
    returned as int64.
    """
    dt = _elim_dtype(F)
    R = np.array(M, dtype=dt)
    inv = F._inv.astype(dt)
    N, t, m = R.shape
    ranks = np.zeros(N, dtype=np.int64)
    items = np.arange(N)
    for i in range(min(t, m)):
        if i < t - 1:
            # first nonzero in column-major order: the leftmost leading
            # column, and the first remaining row that leads there
            nz = (R[:, i:] != 0).transpose(0, 2, 1).reshape(N, m * (t - i))
            col, k = np.divmod(nz.argmax(axis=1), t - i)
            k += i
            sw = np.flatnonzero(k != i)     # a full gather would copy the stack
            R[sw, i], R[sw, k[sw]] = R[sw, k[sw]], R[sw, i]
        else:
            col = (R[:, i] != 0).argmax(axis=1)
        lead = R[items, i, col]
        piv = F._mul_raw(R[:, i], inv[lead][:, None])
        R[:, i] = piv
        for j in range(t):
            if j != i:
                f = R[items, j, col]
                R[:, j] = F._sub_mul_raw(R[:, j], f[:, None], piv)
        ranks += lead != 0
    return R.astype(np.int64, copy=False), ranks


def _rref_words(W):
    """GF(2) reduced row echelon form of a stack of bases held as row words
    (N, t); returns (words, ranks) like ``rref_batch``.

    Word i packs row i of an item as ``encode_rows`` packs a row for
    q = 2, first entry in the most significant bit, so a row's leading
    column is its highest set bit, and a row operation is one XOR.  Step
    i moves the largest remaining word, the one whose leading column is
    leftmost, to position i by compare-exchanges.  Every other row x
    that has the pivot's leading bit set becomes x ^ pivot: x ^ pivot
    differs from x first at that bit, so it is the smaller of the two
    exactly when x has the bit, and ``min(x, x ^ pivot)`` clears the
    column with no search for the bit, exact for words up to 63 bits.
    A zero pivot (an item whose remaining rows are all zero) changes
    nothing and is not counted in ``ranks``.  The elimination runs on a
    (t, N) copy, one contiguous array per row.
    """
    W = np.array(np.asarray(W, dtype=np.int64).T)
    t = len(W)
    ranks = np.zeros(W.shape[1], dtype=np.int64)
    for i in range(t):
        for k in range(t - 1, i, -1):
            larger = np.maximum(W[k - 1], W[k])
            np.minimum(W[k - 1], W[k], out=W[k])
            W[k - 1] = larger
        piv = W[i]
        for j in range(t):
            if j != i:
                np.minimum(W[j], W[j] ^ piv, out=W[j])
        ranks += piv != 0
    return W.T, ranks


def encode_rows(rows, q: int):
    """Row vectors of codes -> integer keys, first entry most significant.

    A row is cut into words of at most w = 62 // log2(q) digits from its
    end, as ``decode_codes`` cuts a key, and each word is one int64 matmul.
    Keys fit int64 while m <= w, that is m*log2(q) <= 62, and are python
    ints beyond, joined from the words with two object operations a word.
    Rows in a narrow dtype are widened to int64 ``_ENCODE_CHUNK`` rows at
    a time, so no int64 copy of the whole input is made.
    """
    rows = np.asarray(rows)
    m = rows.shape[-1]
    w = int(62 // np.log2(q))           # digits per int64 word
    pows = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
    cuts = [0, *range(m % w or w, m, w), m]      # the first word may be short
    flat = rows.reshape(int(np.prod(rows.shape[:-1])), m)     # -1 fails at m = 0
    out = np.empty(len(flat), dtype=np.int64 if m <= w else object)
    for lo in range(0, len(flat), _ENCODE_CHUNK):
        block = flat[lo:lo + _ENCODE_CHUNK].astype(np.int64, copy=False)
        key = out[lo:lo + len(block)]
        for a, b in zip(cuts, cuts[1:]):
            word = block[:, a:b] @ pows[w - (b - a):]
            key[...] = word if a == 0 else key * q ** (b - a) + word
    # [()] turns the 0-d result of a single row into a scalar
    return out.reshape(rows.shape[:-1])[()]


def decode_codes(codes, q: int, m: int, dtype=np.int64) -> np.ndarray:
    """Inverse of encode_rows for int64 and python-int keys, written in
    ``dtype``, which must hold q - 1 (``np.min_scalar_type(q - 1)`` is the narrowest).
    Keys are cut into int64 words first: two object operations a word."""
    rem = np.asarray(codes)
    out = np.empty(rem.shape + (m,), dtype=dtype)
    w = int(62 // np.log2(q))           # digits per int64 word
    for hi in range(m, 0, -w):
        word = np.asarray(rem % q ** min(w, hi), dtype=np.int64)
        rem = rem // q ** min(w, hi)
        for j in range(hi - 1, max(hi - w, 0) - 1, -1):
            out[..., j] = word % q
            word //= q
    return out


def digit_sums(base: int, weights, q: int, dtype) -> np.ndarray:
    """The keys base + sum_k d_k * weights[k] over every digit tuple d in
    [0, q)^len(weights), in ``dtype``, one weight at a time: the first
    varies slowest, so the keys follow the tuples' lexicographic order."""
    keys = np.array([base], dtype=dtype)
    digits = np.arange(q, dtype=dtype)
    for w in weights:
        keys = (keys[:, None] + digits * w).ravel()
    return keys
