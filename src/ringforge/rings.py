"""Finite characteristic-p rings presented by field data.

A ring here is F + U + W as an F-module: F = GF(p^r), dim U = s, and
dim W = t + lambda, where the first t coordinates of W carry structural
matrices A_1..A_t and the remaining lambda coordinates are annihilator
coordinates.  Each U coordinate twists by a Frobenius power sigma_i, each
W coordinate by theta_k, and multiplication of x = (a, u, w) and
y = (a', u', w') is

    F part:  a a'
    U part:  a u'_i + u_i sigma_i(a')
    W part:  a w'_k + w_k theta_k(a') + sum_{ij} A_k[i,j] u_i sigma_i(u'_j)

with the structural sum present only for k <= t.  Elements are tuples of
1 + s + t + lambda field codes; batched operations take arrays with that
trailing axis.  ``iso_test`` searches one orbit of the classifier's
actions, ``classify._group_actions`` at sigma with the Frobenius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify, linalg
from .classify import _group_actions, _orbit_bfs, _twist_maps
from .gf import GF

__all__ = [
    "AutomorphismConstraintError", "RingSpec", "Ring", "AxiomReport",
    "StructureReport", "check_axioms", "ring_structure", "IsoWitness",
    "iso_test", "verify_witness", "equivalent_spec",
]

_TABLE_LIMIT = 4096
_EXHAUSTIVE_TRIPLES = 1 << 26
# element pairs per block of the N^2 tables and of the exhaustive witness
# check; triples per block of the sampled axiom check
_PAIR_BLOCK = 1 << 15


def _row_blocks(N: int):
    """Slices of range(N) whose rows pair with N partners in about
    ``_PAIR_BLOCK`` pairs, so a pair stack over all N^2 pairs is built a
    block at a time."""
    step = max(1, _PAIR_BLOCK // N)
    return [slice(lo, min(lo + step, N)) for lo in range(0, N, step)]


def _over_table_limit(what: str, order: int) -> ValueError:
    return ValueError(
        f"{what} capped at order {_TABLE_LIMIT}, ring has {order} "
        f"(change it with ringforge.rings._TABLE_LIMIT)"
    )


class AutomorphismConstraintError(ValueError):
    """theta_k must equal sigma_i + sigma_j wherever A_k[i, j] is nonzero."""

    def __init__(self, i, j, k):
        self.indices = (i, j, k)
        super().__init__(
            f"structural entry A_{k}[{i},{j}] is nonzero but "
            f"theta_{k} != sigma_{i} + sigma_{j}"
        )


@dataclass
class RingSpec:
    field: GF
    s: int
    t: int
    lam: int
    matrices: np.ndarray      # (t, s, s) element codes
    sigma: tuple              # s Frobenius exponents
    theta: tuple              # t + lam Frobenius exponents

    @property
    def n(self) -> int:
        return 1 + self.s + self.t + self.lam

    @property
    def order(self) -> int:
        return self.field.q ** self.n

    def invariants(self) -> tuple:
        return (self.field.p, self.n, self.field.r, self.s, self.t, self.lam)

    def to_dict(self) -> dict:
        return {
            "p": self.field.p,
            "r": self.field.r,
            "modulus": list(self.field.modulus),
            "s": self.s,
            "t": self.t,
            "lambda": self.lam,
            "matrices": [[[int(x) for x in row] for row in M] for M in self.matrices],
            "sigma": [int(e) for e in self.sigma],
            "theta": [int(e) for e in self.theta],
        }

    @classmethod
    def from_dict(cls, d) -> "RingSpec":
        missing = [k for k in ("p", "s", "t", "matrices") if k not in d]
        if missing:
            raise ValueError(f"presentation lacks the field(s) {', '.join(missing)}")
        F = GF(int(d["p"]), int(d.get("r", 1)), d.get("modulus"))
        s = int(d["s"])
        t = int(d["t"])
        lam = int(d.get("lambda", 0))
        mats = np.asarray(d["matrices"], dtype=np.int64)
        sigma = tuple(int(e) for e in d.get("sigma", [0] * s))
        theta = tuple(int(e) for e in d.get("theta", [0] * (t + lam)))
        return cls(F, s, t, lam, mats, sigma, theta)


class Ring:
    """A validated ring; construction rejects malformed presentations."""

    def __init__(self, spec: RingSpec):
        F = spec.field
        s, t, lam = spec.s, spec.t, spec.lam
        if s < 1 or t < 1 or lam < 0:
            raise ValueError(f"need s >= 1, t >= 1, lambda >= 0, got {(s, t, lam)}")
        if t > s * s:
            raise ValueError(f"t must lie in [1, {s * s}], got {t}")
        mats = np.asarray(spec.matrices, dtype=np.int64)
        if mats.shape != (t, s, s):
            raise ValueError(
                f"expected {t} structural matrices of shape {s}x{s}, got {mats.shape}"
            )
        F._check(mats)
        if len(spec.sigma) != s or len(spec.theta) != t + lam:
            raise ValueError(
                f"need {s} sigma and {t + lam} theta exponents, "
                f"got {len(spec.sigma)} and {len(spec.theta)}"
            )
        sigma = tuple(int(e) % F.r for e in spec.sigma)
        theta = tuple(int(e) % F.r for e in spec.theta)
        if linalg.rank(F, mats.reshape(t, s * s)) != t:
            raise ValueError("structural matrices are linearly dependent")
        for k in range(t):
            for i in range(s):
                for j in range(s):
                    if mats[k, i, j] and theta[k] != (sigma[i] + sigma[j]) % F.r:
                        raise AutomorphismConstraintError(i + 1, j + 1, k + 1)
        self.spec = RingSpec(F, s, t, lam, mats, sigma, theta)
        self.field = F
        self.s, self.t, self.lam = s, t, lam
        self.sigma, self.theta = sigma, theta
        self.matrices = mats
        self.n = spec.n
        self.order = F.q ** self.n
        self._mul_t = None
        self._add_t = None

    # -- elements --

    def zero(self) -> tuple:
        return (0,) * self.n

    def one(self) -> tuple:
        return (1,) + (0,) * (self.n - 1)

    def element(self, i: int) -> tuple:
        return tuple(int(x) for x in linalg.decode_codes(np.int64(i), self.field.q, self.n))

    def index(self, x) -> int:
        return int(linalg.encode_rows(np.asarray(x, dtype=np.int64), self.field.q))

    def element_array(self) -> np.ndarray:
        need = 8 * self.order * self.n
        if need > classify._GROUND_BYTES:
            raise classify._over_bytes(f"element array of {self.order} elements", need)
        return linalg.decode_codes(np.arange(self.order), self.field.q, self.n)

    # -- arithmetic --

    def add(self, x, y):
        F = self.field
        xa = np.asarray(x, dtype=np.int64)
        ya = np.asarray(y, dtype=np.int64)
        out = F._add_raw(xa, ya)
        if isinstance(x, tuple) and isinstance(y, tuple):
            return tuple(int(v) for v in out)
        return out

    def neg(self, x):
        out = self.field._neg_raw(np.asarray(x, dtype=np.int64))
        if isinstance(x, tuple):
            return tuple(int(v) for v in out)
        return out

    def mul(self, x, y):
        out = self.mul_batch(x, y)
        if isinstance(x, tuple) and isinstance(y, tuple):
            return tuple(int(v) for v in out)
        return out

    def mul_batch(self, X, Y) -> np.ndarray:
        """Product on arrays of shape (..., n); broadcasts like numpy.

        The formula reads and writes whole coordinates, so it runs
        coordinate-major, (n, ...): an operand is copied to int64
        coordinate-major only if its coordinate rows are not already
        contiguous int64, and the product is written coordinate-major and
        returned as a writable ``np.moveaxis`` view of shape (..., n).  A
        product passed back in is therefore read with no copy.
        """
        F = self.field
        s, t, lam = self.s, self.t, self.lam
        X = np.ascontiguousarray(np.moveaxis(np.asarray(X), -1, 0), dtype=np.int64)
        Y = np.ascontiguousarray(np.moveaxis(np.asarray(Y), -1, 0), dtype=np.int64)
        out = np.empty((self.n,) + np.broadcast_shapes(X.shape[1:], Y.shape[1:]),
                       dtype=np.int64)
        x0, y0 = X[0], Y[0]
        mul, add, frob = F._mul_raw, F._add_raw, F._frob_raw
        # Frobenius images, one per coordinate and distinct exponent
        y0_tw = {e: frob(y0, e) for e in set(self.sigma + self.theta)}
        u_tw = {e: [frob(Y[1 + j], e) for j in range(s)] for e in set(self.sigma)}
        out[0] = mul(x0, y0)
        for i in range(s):
            out[1 + i] = add(mul(x0, Y[1 + i]), mul(X[1 + i], y0_tw[self.sigma[i]]))
        # structural products u_i sigma_i(u'_j) that some A_k reads
        prods = {(i, j): mul(X[1 + i], u_tw[self.sigma[i]][j])
                 for i, j in zip(*np.nonzero(self.matrices.any(axis=0)))}
        for k in range(t + lam):
            acc = add(mul(x0, Y[1 + s + k]), mul(X[1 + s + k], y0_tw[self.theta[k]]))
            if k < t:
                for (i, j), uu in prods.items():
                    a = int(self.matrices[k, i, j])
                    if a:
                        acc = add(acc, mul(a, uu))
            out[1 + s + k] = acc
        return np.moveaxis(out, 0, -1)

    def mul_table(self) -> np.ndarray:
        if self._mul_t is None:
            self._mul_t = self._pair_table(self.mul_batch, "multiplication table")
        return self._mul_t

    def add_table(self) -> np.ndarray:
        if self._add_t is None:
            self._add_t = self._pair_table(self.field._add_raw, "addition table")
        return self._add_t

    def _pair_table(self, op, what: str) -> np.ndarray:
        """(N, N) codes of op(x_i, x_j), built a block of rows at a time."""
        N = self.order
        if N > _TABLE_LIMIT:
            raise _over_table_limit(what, N)
        E = self.element_array()
        out = np.empty((N, N), dtype=np.int64)
        for rows in _row_blocks(N):
            out[rows] = linalg.encode_rows(op(E[rows, None, :], E[None, :, :]),
                                           self.field.q)
        return out

    def __repr__(self):
        return (
            f"Ring(|R|={self.order}, F=GF({self.field.q}), s={self.s}, "
            f"t={self.t}, lambda={self.lam})"
        )


# -- axiom checking --

@dataclass
class AxiomReport:
    ok: bool
    mode: str
    checked: dict
    counterexample: dict | None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "checked": dict(self.checked),
            "counterexample": self.counterexample,
        }


def _first_bad(ring, law, mask, x=None):
    """mask is a boolean failure array; report the first failing triple."""
    idx = np.argwhere(mask)
    if len(idx) == 0:
        return None
    first = idx[0]
    trip = [int(v) for v in ([x] if x is not None else []) + list(first)]
    return {"law": law, "elements": [ring.element(i) for i in trip]}


def check_axioms(ring: Ring, mode: str = "exhaustive", seed: int = 42,
                 samples: int = 20000) -> AxiomReport:
    """Associativity, both distributive laws, and characteristic p.

    Exhaustive mode walks every triple through the cached tables; sampled
    mode draws seeded random triples and evaluates the product formula
    directly, so the two modes exercise different code paths.  Sampled
    mode evaluates every law ``_PAIR_BLOCK`` triples at a time and keeps
    one failure mask per law over all samples, so it reports the
    same counterexample as one unblocked pass: the first failing law in
    the order above, at its lowest sample index.  The samples are drawn
    as int64, so a seed gives the same triples as ever, and held in the
    narrowest unsigned dtype that holds q - 1; each block is copied once
    to int64 coordinate-major, the layout ``Ring.mul_batch`` computes in,
    so the products of a block chain without copies.
    """
    N = ring.order
    p = ring.field.p
    if mode == "exhaustive":
        if N ** 3 > _EXHAUSTIVE_TRIPLES:
            raise ValueError(
                f"{N}^3 triples exceed the exhaustive bound of {_EXHAUSTIVE_TRIPLES} "
                f"(change it with ringforge.rings._EXHAUSTIVE_TRIPLES); "
                f"use mode='sampled'"
            )
        T = ring.mul_table()
        S = ring.add_table()
        checked = {
            "associativity": N ** 3,
            "left_distributivity": N ** 3,
            "right_distributivity": N ** 3,
            "characteristic": N,
        }
        for x in range(N):
            tx = T[x]
            bad = T[T[x], :] != tx[T]
            if bad.any():
                return AxiomReport(False, mode, checked,
                                   _first_bad(ring, "associativity", bad, x))
            bad = T[x][S] != S[tx[:, None], tx[None, :]]
            if bad.any():
                return AxiomReport(False, mode, checked,
                                   _first_bad(ring, "left_distributivity", bad, x))
            cx = T[:, x]
            bad = T[S, x] != S[cx[:, None], cx[None, :]]
            if bad.any():
                return AxiomReport(False, mode, checked,
                                   _first_bad(ring, "right_distributivity", bad, x))
        acc = np.arange(N)
        for _ in range(p - 1):
            acc = S[acc, np.arange(N)]
        if (acc != 0).any():
            x = int(np.argwhere(acc != 0)[0][0])
            return AxiomReport(False, mode, checked,
                               {"law": "characteristic", "elements": [ring.element(x)]})
        return AxiomReport(True, mode, checked, None)

    if mode != "sampled":
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    rng = np.random.default_rng(seed)
    q, n = ring.field.q, ring.n
    narrow = np.min_scalar_type(q - 1)
    X, Y, Z = (rng.integers(0, q, size=(samples, n), dtype=np.int64).astype(narrow)
               for _ in range(3))
    checked = {
        "associativity": samples,
        "left_distributivity": samples,
        "right_distributivity": samples,
        "characteristic": samples,
    }

    def report(law, mask, *elems):
        i = int(np.argwhere(mask)[0][0])
        return AxiomReport(False, mode, checked, {
            "law": law,
            "elements": [tuple(int(v) for v in e[i]) for e in elems],
        })

    laws = ("associativity", "left_distributivity", "right_distributivity",
            "characteristic")
    bad = {law: np.zeros(samples, dtype=bool) for law in laws}
    mul, add = ring.mul_batch, ring.add
    for lo in range(0, samples, _PAIR_BLOCK):
        b = slice(lo, lo + _PAIR_BLOCK)
        # one int64 coordinate-major copy per block, which mul_batch and
        # its products then read without copying
        x, y, z = (np.ascontiguousarray(V[b].T, dtype=np.int64).T for V in (X, Y, Z))
        xy, y_z = mul(x, y), add(y, z)
        bad["associativity"][b] = (mul(xy, z) != mul(x, mul(y, z))).any(axis=1)
        bad["left_distributivity"][b] = (mul(x, y_z) != add(xy, mul(x, z))).any(axis=1)
        bad["right_distributivity"][b] = (mul(y_z, x)
                                          != add(mul(y, x), mul(z, x))).any(axis=1)
        acc = x
        for _ in range(p - 1):
            acc = add(acc, x)
        bad["characteristic"][b] = (acc != 0).any(axis=1)
    for law in laws:
        if bad[law].any():
            elems = (X,) if law == "characteristic" else (X, Y, Z)
            return report(law, bad[law], *elems)
    return AxiomReport(True, mode, checked, None)


# -- structure --

@dataclass
class StructureReport:
    order: int
    invariants: tuple        # (p, n, r, s, t, lambda)
    radical_dims: tuple      # (dim M, dim M^2, dim ann M) over F
    commutative: bool
    f_central: bool

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "invariants": list(self.invariants),
            "radical_dims": list(self.radical_dims),
            "commutative": self.commutative,
            "f_central": self.f_central,
        }


def _zp_basis(ring: Ring) -> np.ndarray:
    """Z_p-basis of the ring: rows carry p^d, the code of x^d, in one slot,
    slot by slot, so the first r rows span F and the next s*r span U."""
    F = ring.field
    basis = np.zeros((ring.n, F.r, ring.n), dtype=np.int64)
    for slot in range(ring.n):
        basis[slot, :, slot] = F._pows
    return basis.reshape(ring.n * F.r, ring.n)


def _f_dim(F: GF, rows: np.ndarray, what: str) -> int:
    """Z_p-rank of a digit matrix as an F-dimension; r must divide it."""
    rank = int(linalg.rref_batch(GF(F.p) if F.r > 1 else F, rows[None])[1][0])
    if rank % F.r:
        raise RuntimeError(f"Z_{F.p}-rank {rank} of {what} is not a multiple of r={F.r}")
    return rank // F.r


def ring_structure(ring: Ring) -> StructureReport:
    """dim M, dim M^2 and dim ann M over F, commutativity and F-centrality.

    M = U + W is the radical.  Multiplication is biadditive, so every
    product is a Z_p-combination of products of Z_p-basis elements, and
    all three bilinear facts are read off one product tensor P over the
    pairs of ``_zp_basis``: the ring is commutative iff P is symmetric in
    its first two axes; M^2 is the Z_p-span of the radical pair products,
    which lie in W; W annihilates M, and ann M meets U in the kernel of
    the Z_p-linear map u -> (u*b, b*u), b over the radical basis.
    """
    F = ring.field
    r, s, t, lam = F.r, ring.s, ring.t, ring.lam
    Z = _zp_basis(ring)
    P = ring.mul_batch(Z[:, None, :], Z[None, :, :])        # (n*r, n*r, n)
    commutative = bool((P == P.transpose(1, 0, 2)).all())
    D = F._digits[P]                                        # (n*r, n*r, n, r)
    rad, u_rows = slice(r, None), slice(r, r + s * r)
    # M^2: one column per radical pair, one row per Z_p digit of W
    dim_m2 = _f_dim(F, D[rad, rad, 1 + s:].reshape(-1, (t + lam) * r).T, "M^2")
    # ann M in U: kernel of u -> (u*b, b*u), one row per U basis element
    both = np.concatenate([D[u_rows, rad], D[rad, u_rows].transpose(1, 0, 2, 3)], axis=1)
    dim_u_ann = s - _f_dim(F, both.reshape(s * r, -1), "u -> (uM, Mu)")
    f_central = all(e == 0 for e in ring.sigma) and all(e == 0 for e in ring.theta)
    return StructureReport(
        order=ring.order,
        invariants=ring.spec.invariants(),
        radical_dims=(s + t + lam, dim_m2, dim_u_ann + t + lam),
        commutative=commutative,
        f_central=f_central,
    )


# -- isomorphism testing --

@dataclass
class IsoWitness:
    sigma: int               # global Frobenius exponent
    C: np.ndarray            # base change on U (s x s, invertible)
    B: np.ndarray            # recombination on the structural W block (t x t)
    v_perm: tuple            # source tail slot -> target tail slot

    def to_dict(self) -> dict:
        return {
            "sigma": int(self.sigma),
            "C": [[int(x) for x in row] for row in self.C],
            "B": [[int(x) for x in row] for row in self.B],
            "v_perm": [int(i) for i in self.v_perm],
        }


def _tail_alignment(theta_a, theta_d, t):
    """Source tail slot -> target tail slot (the whole lists at t = 0, as
    for sigma), pairing the k-th occurrence of each exponent with its k-th
    occurrence; None when the multisets differ."""
    tail_a = np.asarray(theta_a[t:], dtype=np.int64)
    tail_d = np.asarray(theta_d[t:], dtype=np.int64)
    order_a = np.argsort(tail_a, kind="stable")
    order_d = np.argsort(tail_d, kind="stable")
    if not np.array_equal(tail_a[order_a], tail_d[order_d]):
        return None
    perm = np.empty(len(tail_a), dtype=np.int64)
    perm[order_a] = order_d
    return tuple(int(j) for j in perm)


def _psi_apply(ringA: Ring, witness: IsoWitness, X):
    """The element map induced by a witness, on arrays (..., n): the
    Frobenius power, then one F-linear map, blockdiag(1, (C^-1)^T, B, the
    tail permutation), lowered once."""
    F = ringA.field
    s, t, n = ringA.s, ringA.t, ringA.n
    Psi = np.zeros((n, n), dtype=np.int64)
    Psi[0, 0] = 1
    Psi[1:1 + s, 1:1 + s] = linalg.inv_mat(F, witness.C).T
    Psi[1 + s:1 + s + t, 1 + s:1 + s + t] = witness.B
    tail = 1 + s + t
    Psi[tail + np.arange(ringA.lam), tail + np.array(witness.v_perm, dtype=np.int64)] = 1
    X = F._frob_raw(np.asarray(X, dtype=np.int64), witness.sigma)
    return linalg.linmap_apply(F, X, linalg.lower(F, Psi))


def _square(F: GF, M, n: int, name: str) -> np.ndarray:
    """M as codes of F, refused unless it is n x n."""
    M = linalg.mat(F, M)
    if M.shape != (n, n):
        raise ValueError(f"{name} has shape {M.shape}, not ({n}, {n})")
    return M


def verify_witness(specA: RingSpec, specD: RingSpec, witness: IsoWitness,
                   exhaustive: bool = False) -> bool:
    """Check the witness map is a bijective homomorphism.

    The map is semilinear in every coordinate block, so additivity is
    structural; bijectivity needs C, B invertible and the tail aligned; and
    multiplicativity on all Z_p-basis pairs is complete by biadditivity.
    Exhaustive mode checks every element pair instead: it maps the N
    elements once and reads psi(xy) by a gather at the product's code.
    A C or B of the wrong shape, or with codes out of range, raises a
    ValueError.
    """
    ringA, ringD = Ring(specA), Ring(specD)
    F = ringA.field
    C, B = _square(F, witness.C, ringA.s, "C"), _square(F, witness.B, ringA.t, "B")
    if linalg.rank(F, C) < ringA.s or linalg.rank(F, B) < ringA.t:
        return False
    if sorted(witness.v_perm) != list(range(ringA.lam)):
        return False
    one = np.array(ringA.one(), dtype=np.int64)
    if not (_psi_apply(ringA, witness, one) == one).all():
        return False
    if exhaustive:
        if ringA.order > _TABLE_LIMIT:
            raise _over_table_limit("exhaustive witness check", ringA.order)
        right, blocks = ringA.element_array(), _row_blocks(ringA.order)
    else:
        right, blocks = _zp_basis(ringA), [slice(None)]
    psi_right = _psi_apply(ringA, witness, right)
    for rows in blocks:
        XY = ringA.mul_batch(right[rows, None], right[None])
        lhs = (psi_right[linalg.encode_rows(XY, F.q)] if exhaustive
               else _psi_apply(ringA, witness, XY))
        if not (lhs == ringD.mul_batch(psi_right[rows, None], psi_right[None])).all():
            return False
    return True


def _check_same_invariants(specA: RingSpec, specD: RingSpec) -> bool:
    """False when the orders differ, as they do when the characteristics
    differ: the rings are distinct.  True when ``iso_test`` can compare
    the presentations.  Raises on the rest, another field presentation or
    the same order with another (r, s, t, lambda), which may still be
    isomorphic."""
    if specA.order != specD.order:
        return False
    if specA.field != specD.field:
        raise ValueError(
            f"field presentations differ: {specA.field!r} vs {specD.field!r}"
        )
    if specA.invariants() != specD.invariants():
        raise ValueError(
            f"invariant mismatch: {specA.invariants()} vs {specD.invariants()}"
        )
    return True


def _span_invariant(F: GF, mats: np.ndarray, sigma) -> np.ndarray:
    """Sorted codes (theta, rank M, and rank(M +- M^T) when every sigma_i
    is 0) over one M per projective point of each theta class, the span
    of the A_k of one theta_k, which an isomorphism maps onto the class of
    the same theta.  Such an M is nonzero only where
    sigma_i + sigma_j = theta, so ``classify._twist_maps`` maps its block
    (x, theta - x) to C_x^T M_(x, theta - x) Frob_x(C_(theta - x)), of the
    same rank, and the entrywise Frobenius keeps its support and rank; a
    point that mixes classes can change rank.
    A class of k matrices has (q^k - 1)/(q - 1) points, the coefficient
    vectors whose first nonzero entry, at i, is 1: per i, the keys of
    ``linalg.digit_sums``, decoded and imaged ``classify._BFS_CHUNK`` at a
    time.  The keys and the codes, 16 bytes a point, and one image block
    (``classify._block_bytes``) are charged against
    ``classify._GROUND_BYTES`` before anything is built."""
    t, s, _ = mats.shape
    q = F.q
    flat = mats.reshape(t, s * s)
    first = (flat != 0).argmax(axis=1)
    sig = np.asarray(sigma)
    theta = (sig[first // s] + sig[first % s]) % F.r
    classes = [(th, flat[theta == th]) for th in np.unique(theta)]
    total = sum((q ** len(sub) - 1) // (q - 1) for _, sub in classes)
    need = 16 * total + classify._block_bytes(min(total, classify._BFS_CHUNK), t + s * s)
    if need > classify._GROUND_BYTES:
        raise classify._over_bytes(f"span invariant of {total} points", need)
    out, at = np.empty(total, dtype=np.int64), 0
    for th, sub in classes:
        k, L = len(sub), linalg.lower(F, sub)
        w = [q ** e for e in range(k - 1, -1, -1)]      # key weight of coefficient j
        for i in range(k):                              # the first nonzero one
            keys = linalg.digit_sums(w[i], w[i + 1:], q, np.int64)
            for lo in range(0, len(keys), classify._BFS_CHUNK):
                points = linalg.decode_codes(keys[lo:lo + classify._BFS_CHUNK], q, k)
                M = linalg.linmap_apply(F, points, L).reshape(-1, s, s)
                Mt = M.transpose(0, 2, 1)
                forms = ([M] if any(sigma)
                         else [M, F._add_raw(M, Mt), F._add_raw(M, F._neg_raw(Mt))])
                code = np.full(len(M), th, dtype=np.int64)
                for X in forms:
                    code = code * (s + 1) + linalg.rref_batch(F, X)[1]
                out[at:at + len(M)] = code
                at += len(M)
    out.sort()
    return out


def iso_test(specA: RingSpec, specD: RingSpec) -> IsoWitness | None:
    """Search for an isomorphism witness; None means there is none.

    Rings of different orders are distinct; presentations of one order
    over another field presentation or with another (r, s, t, lambda)
    raise a ValueError (``_check_same_invariants``).  The sigma lists
    must agree as multisets, the tails must align (``_tail_alignment``)
    and the span invariants, which carry the theta of each A_k, must
    agree.  No isomorphism joins U coordinates that
    twist differently, so D's U coordinates are relabelled to A's sigma
    order, k-th occurrence to k-th occurrence.  ``classify._orbit_bfs``
    grows the orbit of span(A_1..A_t) under ``classify._group_actions``
    at A's sigma, the sigma-stabilizer with the Frobenius folded in, until
    span(D_1..D_t) appears, so the orbit is closed once for all Frobenius
    powers, unless the span invariant or a level predicted over
    ``classify._GROUND_BYTES`` raises first.  The witness (e, C) is read
    off the tree path from (0, I) by the rule of ``_group_actions``, the
    relabelling is composed in, and B is solved from the image of the
    Frob_e(A_k).  That image is nonzero only where
    sigma_i + sigma_j = theta_k, so B keeps theta and the witness is an
    isomorphism; one that ``verify_witness`` does not certify raises.
    At s = t = 1 the spans meet at once: sigma 0, C = [[1]], B = [[d/a]].
    """
    ringA, ringD = Ring(specA), Ring(specD)
    if not _check_same_invariants(specA, specD):
        return None
    F = ringA.field
    s, t = ringA.s, ringA.t
    pi = _tail_alignment(ringA.sigma, ringD.sigma, 0)     # A coordinate -> D's
    perm = _tail_alignment(ringA.theta, ringD.theta, t)
    if pi is None or perm is None:
        return None
    if not np.array_equal(_span_invariant(F, ringA.matrices, ringA.sigma),
                          _span_invariant(F, ringD.matrices, ringD.sigma)):
        return None

    m = s * s
    A_rows = ringA.matrices.reshape(t, m)
    D_rows = ringD.matrices[:, pi][:, :, pi].reshape(t, m)
    target_R, _ = linalg.rref(F, D_rows)
    target = int(linalg.encode_rows(target_R.reshape(-1), F.q))
    gens, acts = _group_actions(F, ringA.sigma, use_frobenius=True)
    _, _, path = _orbit_bfs(F, A_rows, acts, True, target)
    if path is None:
        return None
    e, C = 0, linalg.identity(s)
    for a in path:
        if acts[a][1]:
            e, C = (e + 1) % F.r, F._frob_raw(C, 1)
        C = linalg.mat_mul(F, C, gens[a])
    X = linalg.linmap_apply(F, F._frob_raw(A_rows, e),
                            _twist_maps(F, C[None], ringA.sigma)[0])
    cols = [linalg.solve(F, X.T, D_rows[rho]) for rho in range(t)]
    C_D = np.empty_like(C)
    C_D[:, pi] = C
    witness = (None if any(c is None for c in cols)
               else IsoWitness(e, C_D, np.stack(cols, axis=1), perm))
    if witness is None or not verify_witness(specA, specD, witness):
        raise RuntimeError("the orbit transporter gives no certified witness")
    return witness


def equivalent_spec(spec: RingSpec, C, sigma_e: int = 0, B=None,
                    tail_perm=None) -> RingSpec:
    """The presentation reached by base change C, global Frobenius power
    sigma_e, and structural recombination B; the tail can be permuted.

    C acts on each Frob_(sigma_e)(A_k) by ``classify._twist_maps``, the action
    that ``verify_witness`` certifies as (sigma_e, C, B, tail_perm).
    C[i, j] != 0 with sigma_i != sigma_j is refused: no isomorphism joins
    U coordinates that twist differently.  A B that combines A_k of
    different theta is refused too.  Validation happens in the Ring
    constructor of the result.
    """
    ring = Ring(spec)
    F = ring.field
    s, t, lam = ring.s, ring.t, ring.lam
    if tail_perm is None:
        tail_perm = tuple(range(lam))
    elif sorted(tail_perm) != list(range(lam)):
        raise ValueError(
            f"tail_perm {tuple(tail_perm)} is not a permutation of range({lam})"
        )
    C = _square(F, C, s, "C")
    if linalg.rank(F, C) < s:
        raise ValueError("C is singular")
    if any(C[i, j] for i in range(s) for j in range(s) if ring.sigma[i] != ring.sigma[j]):
        raise ValueError("C joins U coordinates with different sigma")
    if B is None:
        B = linalg.identity(t)
    B = _square(F, B, t, "B")
    if linalg.rank(F, B) < t:
        raise ValueError("B is singular")
    twisted = linalg.linmap_apply(
        F, F._frob_raw(ring.matrices, sigma_e).reshape(t, s * s),
        _twist_maps(F, C[None], ring.sigma)[0])
    new_mats = linalg.mat_mul(F, B.T, twisted).reshape(t, s, s)
    new_theta_head = []
    for rho, M in enumerate(new_mats):
        need = {
            (ring.sigma[i] + ring.sigma[j]) % F.r
            for i in range(s)
            for j in range(s)
            if M[i, j]
        }
        if len(need) > 1:
            raise ValueError(
                "transformation leaves the supported regime: theta is overdetermined"
            )
        new_theta_head.append(need.pop() if need else ring.theta[rho])
    tail = list(ring.theta[t:])
    new_tail = [0] * lam
    for mu in range(lam):
        new_tail[tail_perm[mu]] = tail[mu]
    return RingSpec(F, s, t, lam, new_mats, ring.sigma,
                    tuple(new_theta_head) + tuple(new_tail))
