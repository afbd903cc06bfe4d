"""Exact linear algebra over a GF instance.

Matrices and vectors are numpy int64 arrays of element codes.  Scalar
helpers run plain python loops (everything here is tiny); the batched
helpers carry the orbit engine and are vectorized over the leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mat", "identity", "mat_mul", "mat_vec", "transpose", "rref", "rank",
    "det", "inv_mat", "solve", "kron", "kron_batch", "linmap_apply",
    "rref_batch", "encode_rows", "decode_codes",
]


def mat(F, rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.int64)
    F._check_array(A)
    return A


def identity(s: int) -> np.ndarray:
    return np.eye(s, dtype=np.int64)


def mat_mul(F, A, B) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape[-1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for k in range(A.shape[-1]):
        out = F._add_raw(out, F._mul_raw(A[..., k, None], B[k, ...][None, :]))
    return out


def mat_vec(F, A, v) -> np.ndarray:
    return mat_mul(F, A, np.asarray(v, dtype=np.int64)[:, None])[..., 0]


def transpose(A) -> np.ndarray:
    return np.asarray(A).T


def rref(F, M):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    R = [list(map(int, row)) for row in M]
    mul, add, neg, inv = F.mul, F.add, F.neg, F.inv
    piv = []
    rr = 0
    for j in range(cols):
        pr = None
        for i in range(rr, rows):
            if R[i][j]:
                pr = i
                break
        if pr is None:
            continue
        R[rr], R[pr] = R[pr], R[rr]
        c = R[rr][j]
        if c != 1:
            c = inv(c)
            R[rr] = [mul(c, x) for x in R[rr]]
        for i in range(rows):
            f = R[i][j]
            if i != rr and f:
                R[i] = [add(x, neg(mul(f, y))) for x, y in zip(R[i], R[rr])]
        piv.append(j)
        rr += 1
        if rr == rows:
            break
    return np.array(R, dtype=np.int64).reshape(rows, cols), piv


def rank(F, M) -> int:
    return len(rref(F, M)[1])


def det(F, A) -> int:
    A = np.asarray(A, dtype=np.int64)
    s = A.shape[0]
    if A.shape != (s, s):
        raise ValueError(f"matrix is not square: {A.shape}")
    R = [list(map(int, row)) for row in A]
    mul, add, neg, inv = F.mul, F.add, F.neg, F.inv
    d = 1
    for j in range(s):
        pr = None
        for i in range(j, s):
            if R[i][j]:
                pr = i
                break
        if pr is None:
            return 0
        if pr != j:
            R[j], R[pr] = R[pr], R[j]
            d = neg(d)
        d = mul(d, R[j][j])
        c = inv(R[j][j])
        for i in range(j + 1, s):
            f = R[i][j]
            if f:
                f = mul(f, c)
                R[i] = [add(x, neg(mul(f, y))) for x, y in zip(R[i], R[j])]
    return d


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


def kron(F, A, B) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    (a1, a2), (b1, b2) = A.shape, B.shape
    out = F._mul_raw(A[:, None, :, None], B[None, :, None, :])
    return out.reshape(a1 * b1, a2 * b2)


def kron_batch(F, C) -> np.ndarray:
    """Per-item kron(C_g, C_g) for a stack of square matrices (G, s, s).

    Row-major flattening makes vec(C^T A C) = vec(A) @ kron(C, C), which is
    the whole reason this exists.
    """
    C = np.asarray(C, dtype=np.int64)
    G, s, _ = C.shape
    out = F._mul_raw(C[:, :, None, :, None], C[:, None, :, None, :])
    return out.reshape(G, s * s, s * s)


def linmap_apply(F, V, P) -> np.ndarray:
    """Broadcasted V @ P over F: (..., m) x (G, m, m2) -> (G, ..., m2)."""
    V = np.asarray(V, dtype=np.int64)
    P = np.asarray(P, dtype=np.int64)
    if F.r == 1:
        return np.matmul(V, P) % F.p
    m = V.shape[-1]
    out = None
    for k in range(m):
        term = F._mul_raw(V[..., k, None], P[..., k, :][..., None, :])
        out = term if out is None else F._add_raw(out, term)
    return out


def rref_batch(F, M):
    """Reduced row echelon form of a stack (N, t, m); returns (R, ranks)."""
    R = np.array(M, dtype=np.int64)
    N, t, m = R.shape
    cur = np.zeros(N, dtype=np.int64)
    rows = np.arange(t)
    for j in range(m):
        av = (R[:, :, j] != 0) & (rows[None, :] >= cur[:, None])
        sel = np.where(av.any(axis=1))[0]
        if sel.size == 0:
            continue
        pr = np.argmax(av[sel], axis=1)
        r0 = cur[sel]
        tmp = R[sel, pr].copy()
        R[sel, pr] = R[sel, r0]
        R[sel, r0] = tmp
        pv = R[sel, r0, j]
        R[sel, r0] = F._mul_raw(R[sel, r0], F._inv[pv][:, None])
        fac = R[sel, :, j].copy()
        fac[np.arange(sel.size), r0] = 0
        R[sel] = F._sub_mul_raw(R[sel], fac[:, :, None], R[sel, r0][:, None, :])
        cur[sel] += 1
    return R, cur


def encode_rows(rows, q: int):
    """Row vectors of codes -> integer keys, first entry most significant."""
    rows = np.asarray(rows, dtype=np.int64)
    m = rows.shape[-1]
    if m * np.log2(q) <= 62:
        pows = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
        return rows @ pows
    flat = rows.reshape(-1, m)
    out = np.empty(flat.shape[0], dtype=object)
    for i, row in enumerate(flat):
        v = 0
        for c in row:
            v = v * q + int(c)
        out[i] = v
    return out.reshape(rows.shape[:-1])


def decode_codes(codes, q: int, m: int) -> np.ndarray:
    """Inverse of encode_rows for int64 keys."""
    codes = np.asarray(codes)
    out = np.empty(codes.shape + (m,), dtype=np.int64)
    rem = codes.astype(np.int64).copy()
    for j in range(m - 1, -1, -1):
        out[..., j] = rem % q
        rem //= q
    return out
