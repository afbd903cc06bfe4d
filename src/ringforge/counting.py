"""Exact class counts: closed forms, the generating-function congruence
count, and labeled predictions for the measured parameter cells."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .gf import _prime_factors, is_prime

__all__ = [
    "NotCoveredError", "Prediction", "gaussian_binomial", "count_s1",
    "count_t_full", "congruence_class_count", "symmetric_line_count",
    "predicted_count",
]


class NotCoveredError(LookupError):
    """No closed form or measured value is on record for these parameters."""


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def count_s1(r: int, lam: int) -> int:
    """Isomorphism classes with s = t = 1 over GF(p^r) with a lambda-dimensional
    annihilator complement: r * C(r + lam - 1, lam)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return r * comb(r + lam - 1, lam)


def count_t_full(r: int, s: int, lam: int) -> int:
    """Isomorphism classes when t = s^2 (the full matrix space):
    C(r + s - 1, s) * C(r + lam - 1, lam)."""
    if r < 1 or s < 1:
        raise ValueError(f"r and s must be >= 1, got r={r}, s={s}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return comb(r + s - 1, s) * comb(r + lam - 1, lam)


def _prime_power(q: int):
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"q must be a prime power, got {q}")
    p, k = primes[0], 1
    while p ** k != q:
        k += 1
    return p, k


def _mul_trunc(a, b, deg):
    out = [0] * (deg + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j > deg:
                    break
                out[i + j] += ai * bj
    return out


def congruence_class_count(q: int, s: int) -> int:
    """Number of congruence classes of s x s matrices over GF(q), from the
    classical generating function

        prod_{k>=1} (1 + t^k)^e (1 - q t^{2k})^{-1} (1 - t^k)^{-1},

    e = 1 for even q and 2 for odd q, read off at degree s."""
    _prime_power(q)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    e = 1 if q % 2 == 0 else 2
    series = [1] + [0] * s
    for k in range(1, s + 1):
        one_plus = [0] * (s + 1)
        one_plus[0] = 1
        if k <= s:
            one_plus[k] = 1
        for _ in range(e):
            series = _mul_trunc(series, one_plus, s)
        geo = [0] * (s + 1)
        for j in range(0, s // (2 * k) + 1):
            geo[2 * k * j] = q ** j
        series = _mul_trunc(series, geo, s)
        geo = [0] * (s + 1)
        for j in range(0, s // k + 1):
            geo[k * j] = 1
        series = _mul_trunc(series, geo, s)
    return series[s]


def symmetric_line_count(s: int) -> int:
    """Equivalence classes of lines spanned by a nonzero symmetric matrix:
    (3s - 1) / 2 for odd s, 3s / 2 for even s."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return (3 * s - 1) // 2 if s % 2 else 3 * s // 2


@dataclass(frozen=True)
class Prediction:
    p: int
    s: int
    t: int
    value: int
    commutative: int | None
    status: str       # "verified" or "conjectured"
    source: str


# class counts measured by full classification runs, per (s, t) -> set of p
_MEASURED = {
    (2, 1): None,     # proved for every p from the explicit representative lists
    (3, 1): None,
    (2, 2): {2, 3, 5, 7},
    (2, 3): {2},
    (3, 2): {2},
}


def predicted_count(p: int, r: int, s: int, t: int, lam: int = 0) -> Prediction:
    """Class-count value for a covered (s, t) cell over GF(p), labeled
    verified (proved or measured) or conjectured (formula extrapolation).

    The value does not depend on lam when r = 1: the extra annihilator
    coordinates carry only identity automorphisms there.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if r != 1:
        raise NotCoveredError("counts are only on record for prime fields (r = 1)")
    cell = (s, t)
    if cell == (2, 1):
        value = 5 if p == 2 else p + 4
        return Prediction(p, s, t, value, symmetric_line_count(2), "verified",
                          "t=1 class count for 2x2 matrices, proved from the "
                          "explicit representative lists")
    if cell == (3, 1):
        # scaling merges p+6 congruence-class pairs for odd p (measured at
        # p in {3, 5}; the merge count includes pairs interior to the
        # mu-parameterized families), leaving 2p+9 line classes
        if p == 2:
            return Prediction(p, s, t, 11, symmetric_line_count(3), "verified",
                              "t=1 class count for 3x3 matrices over GF(2), "
                              "where scaling is trivial")
        value = 2 * p + 9
        status = "verified" if p in (3, 5) else "conjectured"
        return Prediction(p, s, t, value, symmetric_line_count(3), status,
                          "measured t=1 class count for 3x3 matrices at "
                          "p = 3 and p = 5; extrapolated beyond")
    if cell == (2, 2):
        value = 10 if p == 2 else 3 * p + 5
        if p in _MEASURED[cell]:
            return Prediction(p, s, t, value, 3, "verified",
                              "measured classification of 2-dim spaces of 2x2 "
                              "matrices")
        return Prediction(p, s, t, value, 3, "conjectured",
                          "formula extrapolated beyond the measured primes "
                          "2, 3, 5, 7")
    if cell == (2, 3):
        value = 5 if p == 2 else p + 4
        if p == 2:
            return Prediction(p, s, t, value, 1, "verified",
                              "measured classification of 3-dim spaces of 2x2 "
                              "matrices over GF(2)")
        return Prediction(p, s, t, value, 1, "conjectured",
                          "conjectured pattern, matching measured counts at "
                          "p = 3 and p = 5")
    if cell == (3, 2) and p == 2:
        # no commutative sub-count is recorded for this cell: measurement
        # (generator BFS and the subspace sweep agree) gives 15
        # all-symmetric classes, so consumers should take the figure from
        # classify_subspaces rather than from a stored constant
        return Prediction(p, s, t, 322, None, "verified",
                          "measured classification of 2-dim spaces of 3x3 "
                          "matrices over GF(2)")
    raise NotCoveredError(f"no count on record for (s, t) = {cell} over GF({p})")
