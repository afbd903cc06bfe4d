"""The general linear group GL(s, F): order, enumeration, generators."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import linalg

__all__ = ["gl_order", "det_batch", "enumerate_gl", "gl_generators"]

# groups of more elements than this are never enumerated densely
ENUM_LIMIT = 2 * 10 ** 7


def gl_order(q: int, s: int) -> int:
    n = 1
    for i in range(s):
        n *= q ** s - q ** i
    return n


def det_batch(F, A) -> np.ndarray:
    """Determinants of a stack of square matrices (N, s, s), by cofactor
    expansion along the first row, det A = sum_j (-1)^j A[0, j] det A(0|j),
    where the minor A(0|j) drops row 0 and column j.  The minors are
    expanded the same way and shared: ``minors`` maps each k columns to
    the determinant of the last k rows on those columns, grown from the
    empty set, whose determinant is 1.  A stack costs s*2^(s-1) products.
    """
    A = np.asarray(A, dtype=np.int64)
    N, s = len(A), A.shape[-1]
    minors = {(): np.ones(N, dtype=np.int64)}
    for i in range(s - 1, -1, -1):
        grown = {}
        for cols in combinations(range(s), s - i):
            d = np.zeros(N, dtype=np.int64)
            for k, j in enumerate(cols):
                term = F._mul_raw(A[:, i, j], minors[cols[:k] + cols[k + 1:]])
                d = F._add_raw(d, F._neg_raw(term) if k % 2 else term)
            grown[cols] = d
        minors = grown
    return minors[tuple(range(s))]


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


def enumerate_gl(F, s: int) -> np.ndarray:
    """All invertible s x s matrices, ascending by integer encoding.

    Built row by row: each prefix of k independent rows is extended by
    every vector outside its span.  Prefixes and their extensions are both
    visited in ascending code order, so the output needs no sort.  A group
    of more than ``ENUM_LIMIT`` elements is refused before any row is built.
    """
    order = gl_order(F.q, s)
    if order > ENUM_LIMIT:
        raise ValueError(
            f"GL({s}, {F.q}) has {order} elements, over the enumeration "
            f"limit of {ENUM_LIMIT} (change it with ringforge.gl.ENUM_LIMIT)"
        )
    out = np.zeros((1, 0, s), dtype=np.int64)
    for _ in range(s):
        out = _extend(F, out)
    return out


def gl_generators(F, s: int) -> np.ndarray:
    """Generators of GL(s, F): one for s = 1, three for s = 2 over q > 2,
    two otherwise.

    With x = I + E_12 (the unit transvection x_12(1)), the cyclic shift Z
    with e_i Z = e_(i+1) (indices mod s), and w the multiplicative
    generator, the set is

    * s = 1: D = (w) alone (I over GF(2));
    * q = 2: x, Z;
    * s = 2, q > 2: x, Z, D with D = diag(w, 1);
    * s >= 3, q > 2: x D', Z with D' = diag(1, ..., 1, w).

    Z is the second matrix whenever s >= 2; it has entries in F_p, so it
    commutes with the entrywise Frobenius.  Proof for {x, Z, D},
    D = diag(w, 1, ..., 1):

    * D x_12(a) D^-1 = x_12(w a), and x_12(a) x_12(b) = x_12(a + b).  The
      powers of w span F additively, so products give x_12(a) for all a.
    * Conjugating by Z moves x_ij(a) to x_(i+1)(j+1)(a), so every
      x_(i,i+1)(a), indices cyclic, is a product of generators (at s = 2
      these are x_12 and x_21).
    * The commutators [x_ij(a), x_jk(b)] = x_ik(ab) (i, j, k distinct)
      then give every elementary transvection x_ij(a), i != j, and these
      generate SL(s, F).
    * det D = w generates F^*, so SL(s, F) and D generate GL(s, F).

    For s >= 3, x and D' commute, since w sits off rows and columns 1
    and 2.  Their orders p and q - 1 are coprime, so the powers of x D'
    include x and D' (x D' to a power k with k = 1 mod p and k = 0
    mod q - 1 is x).  D' is a conjugate of D by a power of Z, so {x D', Z}
    generates what {x, Z, D} does.  At s = 2 the diagonals that commute
    with x_12 are the scalars, which fix x_12 under conjugation, so D
    stays separate.
    """
    w = F.multiplicative_generator()
    if s == 1:
        return np.array([[[w]]], dtype=np.int64)
    x = linalg.identity(s)
    x[0, 1] = 1
    Z = np.roll(linalg.identity(s), 1, axis=1)
    if F.q == 2:
        return np.array([x, Z], dtype=np.int64)
    if s == 2:
        return np.array([x, Z, np.diag([w, 1])], dtype=np.int64)
    x[-1, -1] = w
    return np.array([x, Z], dtype=np.int64)
