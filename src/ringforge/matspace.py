"""Matrix tuples over a field: congruence twists, canonical subspace keys,
subspace enumeration, tuple compatibility, and the closed-form congruence
representative lists behind the classification tables."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .counting import gaussian_binomial

__all__ = [
    "SubspaceKey", "CompatReport", "congruence_twist", "subspace_key",
    "subspace_rows", "enumerate_subspaces", "dead_indices", "tuple_compatible",
    "symmetric_reps", "bilinear_class_reps",
]


@dataclass(frozen=True)
class SubspaceKey:
    """Canonical name of a space of s x s matrices: the reduced-row-echelon
    basis of its coordinate matrix, rows flattened row-major.  Keys compare
    lexicographically on the row sequence."""

    s: int
    rank: int
    rows: tuple

    @classmethod
    def from_rref(cls, s: int, rank: int, R) -> "SubspaceKey":
        """Key of the first ``rank`` rows of an RREF basis R, given as
        rows of length s*s or flattened."""
        rows = np.reshape(R, (-1, s * s))[:rank].tolist()
        return cls(s=s, rank=rank, rows=tuple(map(tuple, rows)))

    @property
    def flat(self) -> tuple:
        return tuple(c for row in self.rows for c in row)

    def matrices(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.rank, self.s, self.s)

    def __lt__(self, other):
        return self.rows < other.rows


@dataclass(frozen=True)
class CompatReport:
    independent: bool
    dead_indices: tuple     # 1-based basis indices with row i and column i zero
    verdict: bool


def _tuple3(mats) -> np.ndarray:
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim == 2:
        mats = mats[None, :, :]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a tuple of square matrices, got shape {mats.shape}")
    return mats


def congruence_twist(F, C, A, e: int = 0) -> np.ndarray:
    """C^T A^sigma C with sigma the e-th Frobenius power applied entrywise."""
    C = linalg.mat(F, C)
    A = linalg.mat(F, A)
    s = A.shape[0]
    if A.shape != (s, s) or C.shape != (s, s):
        raise ValueError(f"shape mismatch: A {A.shape}, C {C.shape}")
    if linalg.rank(F, C) < len(C):
        raise ValueError("C is singular")
    return linalg.mat_mul(F, linalg.mat_mul(F, C.T, F.frobenius(A, e)), C)


def subspace_key(F, mats) -> SubspaceKey:
    """Canonical key of span(mats); rank below len(mats) is reported, not an
    error, so dependent spanning tuples collapse to the same key."""
    mats = _tuple3(mats)
    F._check(mats)
    t, s = mats.shape[0], mats.shape[1]
    R, piv = linalg.rref(F, mats.reshape(t, s * s))
    return SubspaceKey.from_rref(s, len(piv), R)


def subspace_rows(F, s: int, t: int) -> np.ndarray:
    """All t-dimensional subspaces as the sorted keys of their flattened
    RREF bases (``linalg.encode_rows``; ``linalg.decode_codes`` inverts
    it): int64 while t*s*s*log2(q) <= 62, python ints beyond.  Per pivot
    pattern, the key of the bare pivots takes every digit of each free
    entry (right of its row's pivot, off the pivot columns) as a Cartesian
    sum (``linalg.digit_sums``), the first free entry most significant; no
    basis is written."""
    m = s * s
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 1 <= t <= m:
        raise ValueError(f"t must lie in [1, {m}], got {t}")
    q, n = F.q, t * m
    dt = np.int64 if n * np.log2(q) <= 62 else object
    weight = [q ** k for k in range(n - 1, -1, -1)]    # of entry i*m + j
    blocks = []
    for pivots in combinations(range(m), t):
        free = [weight[i * m + j] for i in range(t) for j in range(pivots[i] + 1, m)
                if j not in pivots]
        blocks.append(linalg.digit_sums(
            sum(weight[i * m + c] for i, c in enumerate(pivots)), free, q, dt))
    codes = np.concatenate(blocks)
    codes.sort()
    if len(codes) != gaussian_binomial(m, t, q):
        raise RuntimeError(f"enumerated {len(codes)} subspaces, expected "
                           f"{gaussian_binomial(m, t, q)}")
    return codes


def enumerate_subspaces(F, s: int, t: int):
    """Yield every t-dimensional subspace key exactly once, ascending."""
    q, n = F.q, t * s * s
    for row in linalg.decode_codes(subspace_rows(F, s, t), q, n, np.min_scalar_type(q - 1)):
        yield SubspaceKey.from_rref(s, t, row)


def dead_indices(tuples) -> np.ndarray:
    """Dead-index mask (N, s) of a stack of tuples (N, t, s, s): entry i is
    True when row i and column i vanish in every member of the tuple."""
    zero = np.asarray(tuples) == 0
    return zero.all(axis=(1, 3)) & zero.all(axis=(1, 2))


def tuple_compatible(F, mats) -> CompatReport:
    """Independence plus the dead-index scan (1-based indices i whose row i
    and column i vanish in every member)."""
    mats = _tuple3(mats)
    F._check(mats)
    t, s = mats.shape[0], mats.shape[1]
    independent = linalg.rank(F, mats.reshape(t, s * s)) == t
    dead = tuple(int(i) + 1 for i in np.flatnonzero(dead_indices(mats[None])[0]))
    return CompatReport(independent, dead, independent and not dead)


def _diag(s, entries) -> np.ndarray:
    M = np.zeros((s, s), dtype=np.int64)
    for i, v in enumerate(entries):
        M[i, i] = v
    return M


def symmetric_reps(F, s: int) -> list:
    """Congruence representatives of the nonzero symmetric s x s matrices:
    per rank, one or two classes depending on the characteristic."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    reps = []
    if F.p == 2:
        T = np.array([[0, 1], [1, 0]], dtype=np.int64)
        for rho in range(1, s + 1):
            reps.append(_diag(s, [1] * rho))
            if rho % 2 == 0:
                M = np.zeros((s, s), dtype=np.int64)
                for b in range(rho // 2):
                    M[2 * b:2 * b + 2, 2 * b:2 * b + 2] = T
                reps.append(M)
    else:
        g = F.least_nonsquare()
        for rho in range(1, s + 1):
            reps.append(_diag(s, [1] * rho))
            reps.append(_diag(s, [g] + [1] * (rho - 1)))
    return reps


def bilinear_class_reps(F, s: int) -> list:
    """The full congruence-class representative list (zero included) for
    s = 2 and s = 3.  Fixed forms come first, then the parameter families
    in ascending parameter order."""
    if s == 2:
        return _reps_2(F)
    if s == 3:
        return _reps_3(F)
    raise ValueError(f"representative lists cover s = 2 and s = 3 only, got s={s}")


def _reps_2(F) -> list:
    q = F.q
    A = lambda rows: np.array(rows, dtype=np.int64)
    if F.p == 2:
        reps = [
            A([[0, 0], [0, 0]]),
            A([[1, 0], [0, 0]]),
            A([[1, 0], [0, 1]]),
            A([[0, 1], [1, 0]]),
            A([[1, 0], [1, 0]]),
        ]
        reps += [A([[1, 0], [a, 1]]) for a in F.units()]
        _check_rep_count(reps, q + 4)
        return reps
    g = F.least_nonsquare()
    m1 = F.neg(1)
    reps = [
        A([[0, 0], [0, 0]]),
        A([[0, 1], [m1, 0]]),
        A([[1, 0], [0, 0]]),
        A([[1, 0], [1, 0]]),
        A([[g, 0], [0, 0]]),
        A([[g, 0], [F.add(g, g), g]]),
        A([[1, 0], [0, 1]]),
        A([[1, 0], [0, g]]),
    ]
    cosets = F.sign_coset_reps()
    reps += [A([[1, 0], [c, 1]]) for c in cosets]
    reps += [A([[1, 0], [c, g]]) for c in cosets]
    _check_rep_count(reps, q + 7)
    return reps


def _reps_3(F) -> list:
    q = F.q
    A = lambda rows: np.array(rows, dtype=np.int64)

    def with_corner(mu, rows):
        M = A(rows)
        M[0, 0] = mu
        return M

    if F.p == 2:
        reps = [
            _diag(3, [0, 0, 0]),
            _diag(3, [1, 0, 0]),
            _diag(3, [1, 1, 0]),
            _diag(3, [1, 1, 1]),
            A([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ]
        for mu in (0, 1):
            reps.append(with_corner(mu, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
        for mu in (0, 1):
            for c in F.units():
                reps.append(with_corner(mu, [[0, 0, 0], [0, 1, 0], [0, c, 1]]))
        # I + E21 carries the mu = 1 member of the previous family onto
        # [[1,0,0],[0,0,0],[1,1,0]] over any field, so that form is redundant;
        # the regular nilpotent block covers the class otherwise missed.
        reps.append(A([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        reps.append(A([[1, 0, 0], [0, 0, 1], [1, 1, 0]]))
        alpha = _least_irreducible_alpha(F)
        reps.append(A([[1, 0, 0], [0, 0, 1], [alpha, 1, 1]]))
        _check_rep_count(reps, 2 * q + 8)
        return reps
    g = F.least_nonsquare()
    m1 = F.neg(1)
    g2 = F.add(g, g)
    reps = [
        _diag(3, [0, 0, 0]),
        _diag(3, [1, 0, 0]),
        _diag(3, [g, 0, 0]),
        _diag(3, [1, 1, 0]),
        _diag(3, [1, g, 0]),
        _diag(3, [1, 1, 1]),
        _diag(3, [1, 1, g]),
    ]
    cosets = F.sign_coset_reps()
    mus = (0, 1, g)
    for mu in mus:
        reps.append(with_corner(mu, [[0, 0, 0], [0, 0, 1], [0, m1, 0]]))
    for mu in mus:
        reps.append(with_corner(mu, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    for mu in mus:
        reps.append(with_corner(mu, [[0, 0, 0], [0, g, 0], [0, g2, g]]))
    for mu in mus:
        for c in cosets:
            reps.append(with_corner(mu, [[0, 0, 0], [0, 1, 0], [0, c, 1]]))
    for mu in mus:
        for c in cosets:
            reps.append(with_corner(mu, [[0, 0, 0], [0, 1, 0], [0, c, g]]))
    for mu in mus:
        reps.append(with_corner(mu, [[0, 0, 0], [0, 0, 1], [1, 1, 0]]))
    _check_rep_count(reps, 3 * q + 16)
    return reps


def _check_rep_count(reps, expected):
    if len(reps) != expected:
        raise RuntimeError(f"built {len(reps)} representatives, expected {expected}")


def _least_irreducible_alpha(F) -> int:
    # least a with x^2 + a x + 1 irreducible: no root in F
    for a in range(F.q):
        if all(
            F.add(F.add(F.mul(x, x), F.mul(a, x)), 1) != 0
            for x in range(F.q)
        ):
            return a
    raise AssertionError("no irreducible x^2 + a x + 1 over " + repr(F))
