"""Galois field arithmetic on integer element codes.

An element sum(c_i x^i) of GF(p^r) is stored as the integer sum(c_i p^i),
so the codes 0..q-1 enumerate the field and double as table indices.  All
operations accept either plain ints or numpy arrays of codes and run one
numpy code path on one set of precomputed tables: an int result when every
operand is an int (python or numpy), a new int64 array otherwise.  Fields
are immutable and safe to share.

Every field is built by one table build.  Its one multiplication is
M(c), the r x r matrix over Z_p of multiplication by c, whose row i holds
the digits of c*x^i: the generator search raises M(a) to powers mod p
and reads the digits of a^e off row 0, the exp table is doubled by
M(g^n), and the log, inverse, negation and Frobenius tables follow from
it, the Frobenius phi(a) = g^(p log a) composed with itself for each
power.  The operations come in three regimes: prime fields compute mod
p; extension fields up to q = 1024 gather from full q x q tables; larger
ones use log/exp and digit ops.  In characteristic 2 the digit-wise sum
of two codes is their XOR, so p = 2 adds (and subtracts) by XOR in every
regime and builds no q x q addition table.

The q x q tables are symmetric and kept with a flat view: two arrays
gather at a*q + b, the index computed in int64 whatever the operands'
dtype, and an array against a python int reads one row.  The exp table
holds two periods of g^n and then a zero tail, and log 0 points into
that tail, so a product of logs needs no mask for zero operands; the
q x q multiplication table is built by the same expression.
"""

from __future__ import annotations

from itertools import product

import numpy as np

__all__ = ["GF", "is_prime"]

# largest q whose extension field gets full q x q add/mul tables (no add
# table for p = 2); larger fields use log/exp and digit ops.  A field-size
# bound, unrelated to the ring-order cap rings._TABLE_LIMIT
_FULL_TABLE_Q = 1024
_Q_LIMIT = 1 << 16


def _prime_factors(n):
    """The distinct primes dividing n, ascending, by trial division; [] for
    n < 2."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


# polynomial remainder on ascending coefficient lists over Z_p

def _poly_mod(a, m, p):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    del a[dm:]
    return a


def _is_irreducible(coeffs, p):
    r = len(coeffs) - 1
    if r < 1 or coeffs[-1] != 1:
        return False
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for tail in product(range(p), repeat=d):
            div = list(tail) + [1]
            if not any(_poly_mod(coeffs, div, p)):
                return False
    return True


def _default_modulus(p, r):
    # least monic irreducible, ordered by the integer encoding of the
    # non-leading coefficients
    for m in range(p ** r):
        coeffs = [(m // p ** i) % p for i in range(r)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _least_generator(q, power):
    """Least code g with g^((q-1)/l) != 1 for every prime l | q-1, which is
    the least generator of the unit group; power(g, e) computes g^e."""
    exps = [(q - 1) // l for l in _prime_factors(q - 1)]
    for g in range(1, q):
        if all(power(g, e) != 1 for e in exps):
            return g
    raise RuntimeError(f"no multiplicative generator found in GF({q})")


def _gather(T, flat, a, b):
    """T[a, b] for a symmetric q x q table T with flat = T.reshape(-1), where
    a or b is an array.

    Against a python int the other operand reads one row of T.  Otherwise
    one int64 array holds the index a*q + b, computed in int64 so that a
    narrow operand cannot wrap, and then the result: ``take`` reads each
    index before it writes that position, and with mode "clip" it writes
    in place (mode "raise" buffers the output).  So the gather allocates
    one array where flat[a*q + b] allocates three, and past a few thousand
    elements those allocations cost more than the gather.  That array
    takes the memory order of an operand of the full shape, as a ufunc's
    result would, so coordinate-major operands give a coordinate-major
    result; ``take`` runs on its flat view in that order, since it copies
    indices and output that are not C-contiguous.  Codes are not
    range-checked here; the public operations check them.
    """
    if isinstance(a, int):
        return T[a][b]
    if isinstance(b, int):
        return T[b][a]
    shape = np.broadcast(a, b).shape
    like = a if a.shape == shape else b if b.shape == shape else None
    idx = (np.empty(shape, dtype=np.int64) if like is None
           else np.empty_like(like, dtype=np.int64))
    np.multiply(a, len(T), out=idx, dtype=np.int64)
    idx += b
    v = idx.ravel(order="K")
    flat.take(v, out=v, mode="clip")
    # idx itself, not a view of it, so numpy can reuse it as a temporary;
    # a numpy scalar for two scalar operands
    return idx if idx.ndim else idx[()]


class GF:
    """The field GF(p^r) with elements coded as integers in [0, p^r)."""

    def __init__(self, p: int, r: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        q = p ** r
        if q > _Q_LIMIT:
            raise ValueError(f"field order {q} exceeds supported bound {_Q_LIMIT}")
        self.p = p
        self.r = r
        self.q = q
        if modulus is None:
            self.modulus = _default_modulus(p, r)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
            if not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {list(modulus)} is reducible over Z_{p}")
            self.modulus = modulus
        self._build_tables()

    # -- construction of the arithmetic tables --

    def _code_pow(self, a, e):
        """a^e for one code a while bootstrapping the tables: the digits of
        a^e are row 0 of M(a)^e, here the digits of 1 times M(a) e times,
        by square and multiply mod p."""
        p = self.p
        M = self._mul_matrices(a)
        row = self._digits[1]
        while e:
            if e & 1:
                row = row @ M % p
            M = M @ M % p
            e >>= 1
        return int(row @ self._pows)

    def _mul_matrices(self, c):
        """Multiplication by each code in c as an r x r matrix over Z_p.

        Row i of M(c) holds the digits of c*x^i, so digits(y) @ M(c) is
        digits(y*c) mod p and M(ab) = M(a) @ M(b).  Shape c.shape + (r, r).
        """
        p, r = self.p, self.r
        c = np.asarray(c, dtype=np.int64)
        out = np.empty(c.shape + (r, r), dtype=np.int64)
        row = self._digits[c]
        for i in range(r):
            if i:
                # times x: shift the digits up, reduce x^r by the modulus
                top = row[..., -1:]
                row = np.concatenate([np.zeros_like(top), row[..., :-1]], axis=-1)
                row = (row - top * self._x_r) % p
            out[..., i, :] = row
        return out

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        self._pows = p ** np.arange(r, dtype=np.int64)
        self._digits = (np.arange(q)[:, None] // self._pows) % p
        self._x_r = np.array(self.modulus[:r], dtype=np.int64)
        gen = _least_generator(q, self._code_pow)
        self._gen = gen
        # exp[n:n+k] = exp[:k] * g^n, doubling n; M is M(g^n).  Two
        # periods of g^n, then a zero tail that log 0 points into:
        # log a + log b lands in the tail when a or b is 0
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        exp[0] = 1
        M = self._mul_matrices(gen)
        n = 1
        while n < q - 1:
            k = min(n, q - 1 - n)
            exp[n:n + k] = (self._digits[exp[:k]] @ M % p) @ self._pows
            M = M @ M % p
            n += k
        exp[q - 1:2 * (q - 1)] = exp[: q - 1]
        log = np.full(q, 2 * (q - 1), dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        self._exp, self._log = exp, log
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        self._inv = inv
        self._neg = ((-self._digits) % p) @ self._pows
        # phi(a) = g^(p log a), 0 fixed; frob[e] = phi applied e times
        phi = exp[log * p % (q - 1)]
        phi[0] = 0
        frob = np.empty((r, q), dtype=np.int64)
        frob[0] = np.arange(q)
        for e in range(1, r):
            frob[e] = phi[frob[e - 1]]
        self._frob = frob
        self._add_t = self._mul_t = None
        if r > 1 and q <= _FULL_TABLE_Q:
            if p > 2:
                # Horner over the digits, top digit first: each digit sum
                # is uint8 (p <= 31 here, so 2(p-1) fits) and is added
                # into the int64 table in place, so the peak stays near
                # the 7.4 MB table of GF(31^2) and no narrow product can
                # wrap; p = 2 adds by XOR and needs no table
                add = np.zeros((q, q), dtype=np.int64)
                for i in range(r - 1, -1, -1):
                    d = self._digits[:, i].astype(np.uint8)
                    add *= p
                    add += (d[:, None] + d[None, :]) % p
                self._add_t = add
                self._add_flat = add.reshape(-1)
            lg = self._log
            self._mul_t = self._exp[lg[:, None] + lg[None, :]]
            self._mul_flat = self._mul_t.reshape(-1)
        self._squares = None

    # -- element validation --

    def _check(self, *codes):
        """Validate operands as element codes in [0, q).

        Returns whether every operand is an int (python or numpy), and the
        operands as python ints if so, as int64 arrays otherwise.
        """
        q = self.q
        ints = []
        for a in codes:
            if not isinstance(a, (int, np.integer)):
                break
            if not 0 <= a < q:
                raise ValueError(f"element code {a} out of range for GF({q})")
            ints.append(int(a))
        else:
            return True, ints
        codes = tuple(np.asarray(a) for a in codes)
        for a in codes:
            if not np.issubdtype(a.dtype, np.integer):
                raise TypeError(f"element codes must be integers, got {a.dtype}")
            if a.size and (a.min() < 0 or a.max() >= q):
                bad = a.min() if a.min() < 0 else a.max()
                raise ValueError(f"element code {bad} out of range for GF({q})")
        return False, tuple(a.astype(np.int64, copy=False) for a in codes)

    # -- arithmetic; int in -> int out, array in -> array out --

    def add(self, a, b):
        scalar, (a, b) = self._check(a, b)
        out = self._add_raw(a, b)
        return int(out) if scalar else out

    def _add_raw(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.r == 1:
            return (a + b) % self.p
        if self._add_t is not None:
            if isinstance(a, int) and isinstance(b, int):
                return self._add_flat[a * self.q + b]
            return _gather(self._add_t, self._add_flat, a, b)
        d = (self._digits[a] + self._digits[b]) % self.p
        return d @ self._pows

    def neg(self, a):
        scalar, (a,) = self._check(a)
        out = self._neg_raw(a)
        return int(out) if scalar else out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        scalar, (a, b) = self._check(a, b)
        out = self._mul_raw(a, b)
        return int(out) if scalar else out

    def _mul_raw(self, a, b):
        if self.q == 2:
            return a & b
        if self.r == 1:
            return (a * b) % self.p
        if self._mul_t is not None:
            if isinstance(a, int) and isinstance(b, int):
                return self._mul_flat[a * self.q + b]
            return _gather(self._mul_t, self._mul_flat, a, b)
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        scalar, (a,) = self._check(a)
        out = self._inv_raw(a)
        return int(out) if scalar else out

    def _inv_raw(self, a):
        # a python int is compared directly: np.any on it costs microseconds
        if a == 0 if isinstance(a, int) else np.any(a == 0):
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        """a**k for integer k by square and multiply; negative k inverts
        first, and 0**0 = 1."""
        scalar, (a,) = self._check(a)
        if k < 0:
            a, k = self._inv_raw(a), -k
        out = a ** 0   # ones shaped like a; the int 1 for an int
        while k:
            if k & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return int(out) if scalar else out

    def frobenius(self, a, e: int = 1):
        """Apply x -> x^(p^e); e reduces mod r."""
        scalar, (a,) = self._check(a)
        out = self._frob_raw(a, e)
        if scalar:
            return int(out)
        # _frob_raw returns a itself for e = 0 mod r; never alias the input
        return out.copy() if out is a else out

    def _frob_raw(self, a, e):
        """x -> x^(p^e); returns a itself when e = 0 mod r, so callers
        must not write into the result."""
        e %= self.r
        if e == 0:
            return a
        return self._frob[e][a]

    def _neg_raw(self, a):
        if self.r == 1:
            return (-a) % self.p
        return self._neg[a]

    def _sub_mul_raw(self, a, f, b):
        """a - f*b; one reduction mod p for prime fields, XOR for p = 2."""
        if self.p == 2:
            return a ^ self._mul_raw(f, b)
        if self.r == 1:
            return (a - f * b) % self.p
        return self._add_raw(a, self._neg[self._mul_raw(f, b)])

    def multiplicative_generator(self) -> int:
        """Least code generating the unit group."""
        return self._gen

    # -- structure queries --

    def units(self):
        return range(1, self.q)

    def squares(self):
        """Sorted codes of all squares (including 0)."""
        if self._squares is None:
            a = np.arange(self.q)
            self._squares = tuple(np.unique(self.mul(a, a)).tolist())
        return self._squares

    def least_nonsquare(self) -> int:
        """Least unit code that is not a square; undefined in char 2."""
        if self.p == 2:
            raise ValueError("every element of a characteristic-2 field is a square")
        sq = set(self.squares())
        for a in self.units():
            if a not in sq:
                return a
        raise AssertionError  # unreachable for odd p

    def sign_coset_reps(self):
        """Least-code representatives of the {1,-1} cosets in the unit group."""
        reps, seen = [], set()
        for a in self.units():
            if a not in seen:
                reps.append(a)
                seen.add(a)
                seen.add(self.neg(a))
        return reps

    def automorphism_exponents(self):
        """Frobenius exponents 0..r-1 enumerating Aut(GF(p^r))."""
        return range(self.r)

    # -- presentation --

    def element_digits(self, a):
        _, (a,) = self._check(a)
        return tuple((a // self.p ** i) % self.p for i in range(self.r))

    def poly_str(self, a, var: str = "a") -> str:
        digits = self.element_digits(a)
        terms = []
        for i in range(self.r - 1, -1, -1):
            c = digits[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return "+".join(terms) if terms else "0"

    def to_dict(self):
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d) -> "GF":
        return cls(int(d["p"]), int(d.get("r", 1)), d.get("modulus"))

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.q})"
        terms = []
        for i in range(self.r, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}x" + (f"^{i}" if i > 1 else ""))
        return f"GF({self.q})[" + "+".join(terms) + "]"
