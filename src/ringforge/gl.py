"""The general linear group GL(s, F): order, enumeration, generators."""

from __future__ import annotations

import numpy as np

from . import linalg

__all__ = ["gl_order", "det_batch", "gl_chunks", "enumerate_gl", "gl_generators"]

# ground sets above this are never enumerated densely
ENUM_LIMIT = 2 * 10 ** 7
# matrices per chunk of gl_chunks
_GL_CHUNK = 1 << 16


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


def _check_enum_limit(q: int, s: int) -> None:
    total = q ** (s * s)
    if total > ENUM_LIMIT:
        raise ValueError(
            f"GL({s}, {q}) ground set of {total} matrices exceeds the enumeration "
            f"limit of {ENUM_LIMIT} (change it with ringforge.gl.ENUM_LIMIT)"
        )


def _extend(F, prefixes: np.ndarray) -> np.ndarray:
    """Every extension of each k-row prefix (n, k, s) by a row outside its
    span, prefix by prefix and each prefix's new rows ascending by code."""
    q = F.q
    n, k, s = prefixes.shape
    # span codes: every combination of the k rows, (n, q^k)
    coeffs = linalg.decode_codes(np.arange(q ** k), q, k)
    span = np.zeros((n, q ** k, s), dtype=np.int64)
    for l in range(k):
        span = F._add_raw(span, F._mul_raw(coeffs[None, :, l, None],
                                           prefixes[:, None, l, :]))
    in_span = np.zeros((n, q ** s), dtype=bool)
    in_span[np.arange(n)[:, None], linalg.encode_rows(span, q)] = True
    which, rows = np.nonzero(~in_span)
    return np.concatenate(
        [prefixes[which], linalg.decode_codes(rows, q, s)[:, None, :]], axis=1)


def gl_chunks(F, s: int):
    """GL(s, F) ascending by integer encoding, as consecutive chunks.

    The (s-1)-row prefixes are built whole; each chunk is the set of full
    extensions of a block of consecutive prefixes, about ``_GL_CHUNK``
    matrices and never less than one prefix's q^s - q^(s-1).  Prefixes and
    their extensions are both visited in ascending code order, so every
    chunk is ascending and each one starts above the last.  The
    enumeration limit is checked before the first chunk is built.
    """
    _check_enum_limit(F.q, s)
    prefixes = np.zeros((1, 0, s), dtype=np.int64)
    for _ in range(s - 1):
        prefixes = _extend(F, prefixes)
    per = max(1, _GL_CHUNK // (F.q ** s - F.q ** (s - 1)))
    for lo in range(0, len(prefixes), per):
        yield _extend(F, prefixes[lo:lo + per])


def enumerate_gl(F, s: int) -> np.ndarray:
    """All invertible s x s matrices, ascending by integer encoding.

    Built row by row: each prefix of k independent rows is extended by
    every vector outside its span.  This is the concatenation of
    ``gl_chunks``, so the output needs no sort.
    """
    return np.concatenate(list(gl_chunks(F, s)))


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
