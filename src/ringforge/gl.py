"""The general linear group GL(s, F): order, enumeration, generators."""

from __future__ import annotations

import numpy as np

from . import linalg

__all__ = ["gl_order", "det_batch", "enumerate_gl", "gl_generators"]

# ground sets above this are never enumerated densely
ENUM_LIMIT = 2 * 10 ** 7


def gl_order(q: int, s: int) -> int:
    n = 1
    for i in range(s):
        n *= q ** s - q ** i
    return n


def det_batch(F, A) -> np.ndarray:
    """Determinants of a stack of square matrices (N, s, s)."""
    A = np.asarray(A, dtype=np.int64)
    s = A.shape[-1]
    mul, add, neg = F._mul_raw, F._add_raw, F._neg_raw
    if s == 1:
        return A[:, 0, 0].copy()
    if s == 2:
        return add(mul(A[:, 0, 0], A[:, 1, 1]), neg(mul(A[:, 0, 1], A[:, 1, 0])))
    if s == 3:
        a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 0, 2]
        d, e, f = A[:, 1, 0], A[:, 1, 1], A[:, 1, 2]
        g, h, i = A[:, 2, 0], A[:, 2, 1], A[:, 2, 2]
        pos = add(add(mul(a, mul(e, i)), mul(b, mul(f, g))), mul(c, mul(d, h)))
        negt = add(add(mul(c, mul(e, g)), mul(b, mul(d, i))), mul(a, mul(f, h)))
        return add(pos, neg(negt))
    return np.array([linalg.det(F, M) for M in A], dtype=np.int64)


def enumerate_gl(F, s: int) -> np.ndarray:
    """All invertible s x s matrices, ascending by integer encoding.

    Built row by row: each prefix of k independent rows is extended by
    every vector outside its span.  Prefixes and their extensions are both
    visited in ascending code order, so the output needs no sort.
    """
    q = F.q
    total = q ** (s * s)
    if total > ENUM_LIMIT:
        raise ValueError(
            f"GL({s}, {q}) ground set of {total} matrices exceeds the enumeration "
            f"limit of {ENUM_LIMIT} (change it with ringforge.gl.ENUM_LIMIT)"
        )
    prefixes = np.zeros((1, 0, s), dtype=np.int64)
    for k in range(s):
        n = len(prefixes)
        # span codes: every combination of the k rows, (n, q^k)
        coeffs = linalg.decode_codes(np.arange(q ** k), q, k)
        span = np.zeros((n, q ** k, s), dtype=np.int64)
        for l in range(k):
            span = F._add_raw(span, F._mul_raw(coeffs[None, :, l, None],
                                               prefixes[:, None, l, :]))
        in_span = np.zeros((n, q ** s), dtype=bool)
        in_span[np.arange(n)[:, None], linalg.encode_rows(span, q)] = True
        which, rows = np.nonzero(~in_span)
        prefixes = np.concatenate(
            [prefixes[which], linalg.decode_codes(rows, q, s)[:, None, :]], axis=1)
    return prefixes


def gl_generators(F, s: int) -> np.ndarray:
    """A small generating set: unit transvections plus one diagonal scaling."""
    gens = []
    for i in range(s):
        for j in range(s):
            if i != j:
                T = linalg.identity(s)
                T[i, j] = 1
                gens.append(T)
    if F.q > 2:
        D = linalg.identity(s)
        D[0, 0] = F.multiplicative_generator()
        gens.append(D)
    if not gens:
        gens.append(linalg.identity(s))
    return np.array(gens, dtype=np.int64)
