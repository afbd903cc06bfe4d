"""Self-contained reference implementations used as oracles by the tests.

Everything here is deliberately naive and, apart from the scalar field
ops of ``rref_scalar``, ``gf_table_*`` and ``ring_mul_scalar``, the raw
product and lowering of ``kron``, the determinants of ``gl_det_filter``,
the ring products and scalar ranks of ``brute_structure`` and the
kernels of ``iso_exhaustive`` and ``congruence_sweep``, independent of
the package: plain itertools enumeration, float determinants (exact for
the sizes and moduli involved), python-list elimination, digit-by-digit
integer keys, and dictionary-based orbit bookkeeping.  ``iso_exhaustive``
is the whole-group isomorphism search that ``iso_test`` replaced: it
shares no search order, prefilter or orbit search with it.  ``congruence_sweep`` is
the whole-group congruence classification that the generator BFS of
``classify_congruence`` replaced.  ``table_components`` labels the
components of a BFS image table by a scalar graph search, not the
package's union-find.  Slow is fine; these only run on small
parameters.
"""

import itertools
from math import comb

import numpy as np


def raw_gl(p: int, s: int) -> np.ndarray:
    """All invertible s x s matrices over Z_p, via brute enumeration.

    np.linalg.det is exact here: integer matrices with entries < p <= 7
    and s <= 3 keep the determinant well inside float precision.
    """
    out = []
    for entries in itertools.product(range(p), repeat=s * s):
        C = np.array(entries, dtype=np.int64).reshape(s, s)
        if round(float(np.linalg.det(C))) % p != 0:
            out.append(C)
    return np.array(out)


def encode_rows_scalar(rows, q: int) -> list:
    """Integer key of each row (N, m), first entry most significant, by a
    python loop over every digit."""
    keys = []
    for row in np.asarray(rows).tolist():
        key = 0
        for c in row:
            key = key * q + c
        keys.append(key)
    return keys


def gl_det_filter(F, s: int) -> np.ndarray:
    """GL(s, F) ascending by code: every s x s matrix in itertools.product
    order, kept when its determinant is nonzero.

    The determinants come from the package's ``det_batch``, which
    test_linalg checks against np.linalg.det mod p and against full rank
    on its own.
    """
    from ringforge.gl import det_batch

    mats = np.array(list(itertools.product(range(F.q), repeat=s * s)),
                    dtype=np.int64).reshape(-1, s, s)
    return mats[det_batch(F, mats) != 0]


def product_subspace_rows(q: int, s: int, t: int) -> np.ndarray:
    """Every t-dimensional subspace of GF(q)^(s*s) as its flattened RREF
    basis (N, t*s*s), ascending by key.

    One RREF shape per pivot pattern; its free entries (right of their
    row's pivot, off the pivot columns) take every value by
    itertools.product.  Keys put the first entry first, so sorting the
    rows as tuples sorts them by key.
    """
    m = s * s
    rows = []
    for pivots in itertools.combinations(range(m), t):
        free = [
            (i, j)
            for i in range(t)
            for j in range(pivots[i] + 1, m)
            if j not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free)):
            M = [[0] * m for _ in range(t)]
            for i, c in enumerate(pivots):
                M[i][c] = 1
            for (i, j), v in zip(free, vals):
                M[i][j] = v
            rows.append(tuple(x for row in M for x in row))
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, t * m)


def raw_congruence_orbit(p: int, A: np.ndarray, group=None) -> set:
    """The congruence orbit of A over Z_p as a set of flat tuples."""
    A = np.asarray(A)
    if group is None:
        group = raw_gl(p, A.shape[0])
    orbit = set()
    for C in group:
        M = (C.T @ A @ C) % p
        orbit.add(tuple(M.ravel()))
    return orbit


def raw_congruence_partition(p: int, s: int, symmetric_only: bool = False):
    """Partition the s x s matrices over Z_p into congruence classes.

    Returns a list of orbits (sets of flat tuples), sorted by minimum.
    """
    group = raw_gl(p, s)
    seen = set()
    orbits = []
    for entries in itertools.product(range(p), repeat=s * s):
        if entries in seen:
            continue
        A = np.array(entries, dtype=np.int64).reshape(s, s)
        if symmetric_only and not np.array_equal(A, A.T):
            continue
        orb = raw_congruence_orbit(p, A, group)
        orbits.append(orb)
        seen |= orb
    return sorted(orbits, key=min)


def congruence_sweep(F, s: int, symmetric_only: bool = False) -> dict:
    """``ClassReport.to_dict()`` of the congruence classes of s x s
    matrices over F, without its strategy field, by the dense sweep: the
    full-group image of each undiscovered matrix in ascending code order,
    so every orbit is found from its minimum."""
    from ringforge import gl, linalg
    from ringforge.matspace import dead_indices

    q, m = F.q, s * s
    total = q ** m
    G = gl.enumerate_gl(F, s)
    P = linalg.kron_batch(F, G, G)
    all_mats = linalg.decode_codes(np.arange(total), q, m).reshape(total, s, s)
    if symmetric_only:
        ground = np.flatnonzero((all_mats == all_mats.transpose(0, 2, 1)).all(axis=(1, 2)))
    else:
        ground = np.arange(total)
    visited = np.zeros(total, dtype=bool)
    classes = []
    for code in ground:
        if visited[code]:
            continue
        imgs = linalg.linmap_apply(F, all_mats[code].reshape(m), P)
        orbit = np.unique(linalg.encode_rows(imgs, q))
        visited[orbit] = True
        assert orbit[0] == code, "a matrix is not the minimum of its orbit"
        mats = all_mats[orbit]
        rep = mats[0]
        classes.append({
            "rep": rep.tolist(),
            "orbit_size": len(orbit),
            "contains_compatible": bool((~dead_indices(mats[:, None]).any(axis=1)).any()),
            "commutative_capable": bool((rep == rep.T).all()),
        })
    assert sum(c["orbit_size"] for c in classes) == len(ground)
    return {
        "kind": "congruence",
        "params": {"p": F.p, "r": F.r, "q": q, "s": s, "symmetric_only": symmetric_only},
        "total_objects": len(ground),
        "class_count": len(classes),
        "classes": classes,
    }


def table_components(dst) -> np.ndarray:
    """Component of every node of the undirected graph that joins node i
    to dst[i, a] for each column a of an (N, g) image table, named by its
    minimum node: a scalar search over adjacency lists, started from each
    unlabelled node in ascending order."""
    N = len(dst)
    adj = [[] for _ in range(N)]
    for i, row in enumerate(dst.tolist()):
        for j in row:
            adj[i].append(j)
            adj[j].append(i)
    label = [-1] * N
    for start in range(N):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if label[v] < 0:
                    label[v] = start
                    stack.append(v)
    return np.array(label)


def raw_line_class_count(p: int, s: int) -> int:
    """Orbits of lines (1-dim spaces of s x s matrices) under congruence
    combined with nonzero scaling."""
    group = raw_gl(p, s)
    scalars = range(1, p)
    seen = set()
    count = 0
    for entries in itertools.product(range(p), repeat=s * s):
        if entries == (0,) * (s * s) or entries in seen:
            continue
        A = np.array(entries, dtype=np.int64).reshape(s, s)
        orbit = set()
        for C in group:
            M = (C.T @ A @ C) % p
            for c in scalars:
                orbit.add(tuple(int(x) for x in ((c * M) % p).ravel()))
        seen |= orbit
        count += 1
    return count


def gauss_recursive(n: int, k: int, q: int) -> int:
    """Gaussian binomial via the Pascal-style recursion
    [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gauss_recursive(n - 1, k - 1, q) + q ** k * gauss_recursive(n - 1, k, q)


def multiset_count(r: int, k: int) -> int:
    """Multisets of size k from r symbols, counted by direct enumeration."""
    return sum(1 for _ in itertools.combinations_with_replacement(range(r), k))


def scalar_congruence_classes(q: int, elements, mul) -> int:
    """Classes of 1 x 1 matrices: a ~ c^2 a for c a unit.  `mul` is the
    field multiplication on codes."""
    reached = {}
    for a in elements:
        key = min(mul(mul(c, c), a) for c in elements if c != 0)
        reached.setdefault(key, 0)
    return len(reached)


def zp_poly_mul_table(p: int):
    """Multiplication on Z_p codes, for scalar_congruence_classes."""
    return lambda a, b: (a * b) % p


def binomial_formula_s1(r: int, lam: int) -> int:
    return r * comb(r + lam - 1, lam)


def gf_table_matmul(F, V, P) -> np.ndarray:
    """V @ P over F, entry by entry through the field's scalar add/mul
    tables: (n, m) x (m, m2) -> (n, m2) codes."""
    V = np.asarray(V)
    P = np.asarray(P)
    out = np.zeros((V.shape[0], P.shape[1]), dtype=np.int64)
    for i in range(V.shape[0]):
        for j in range(P.shape[1]):
            acc = 0
            for k in range(V.shape[1]):
                acc = F.add(acc, F.mul(int(V[i, k]), int(P[k, j])))
            out[i, j] = acc
    return out


def kron(F, A, B) -> np.ndarray:
    """kron(A, B) over F, lowered to Z_p: the one-pair reference for
    ``linalg.kron_batch``, built from the field's raw product."""
    from ringforge import linalg

    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    (a1, a2), (b1, b2) = A.shape, B.shape
    out = F._mul_raw(A[:, None, :, None], B[None, :, None, :])
    return linalg.lower(F, out.reshape(a1 * b1, a2 * b2))


def gf_table_kron(F, A, B) -> np.ndarray:
    """kron(A, B) over F through the field's scalar mul table, GF codes."""
    (a1, a2), (b1, b2) = A.shape, B.shape
    out = np.zeros((a1 * b1, a2 * b2), dtype=np.int64)
    for i, j, k, l in itertools.product(range(a1), range(a2), range(b1), range(b2)):
        out[i * b1 + k, j * b2 + l] = F.mul(int(A[i, j]), int(B[k, l]))
    return out


def rref_scalar(F, M):
    """Reduced row echelon form of one matrix by column-by-column
    Gauss-Jordan on python lists through the field's scalar ops; returns
    (R, pivot_columns).  The reference for ``linalg.rref_batch`` and
    ``linalg.rref``: it searches pivots column by column, not row by row."""
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


def poly_code_mul(p: int, modulus, a: int, b: int) -> int:
    """Product of two GF(p^r) codes by schoolbook polynomial arithmetic
    modulo the monic `modulus` (ascending coefficients)."""
    r = len(modulus) - 1
    da = [(a // p ** i) % p for i in range(r)]
    db = [(b // p ** i) % p for i in range(r)]
    prod = [0] * (2 * r)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for deg in range(2 * r - 1, r - 1, -1):
        c = prod[deg] % p
        prod[deg] = 0
        for k in range(r):
            prod[deg - r + k] -= c * modulus[k]
    return sum((prod[i] % p) * p ** i for i in range(r))


def naive_powers(p: int, modulus, g: int) -> list:
    """[g^0, g^1, ..., g^(q-2)] by repeated multiplication."""
    q = p ** (len(modulus) - 1)
    out, x = [], 1
    for _ in range(q - 1):
        out.append(x)
        x = poly_code_mul(p, modulus, x, g)
    return out


def least_generator(p: int, modulus) -> int:
    """Least code whose multiplicative order is q - 1, by brute force."""
    q = p ** (len(modulus) - 1)
    for g in range(1, q):
        x, order = g, 1
        while x != 1:
            x = poly_code_mul(p, modulus, x, g)
            order += 1
        if order == q - 1:
            return g
    raise AssertionError("no generator")


def ring_mul_scalar(ring, x, y) -> tuple:
    """The product of two ring elements by the formula of the ``rings``
    module docstring, coordinate by coordinate through the public scalar
    ``F.mul``, ``F.add`` and ``F.frobenius``."""
    F = ring.field
    s, t, lam = ring.s, ring.t, ring.lam
    a, u, w = int(x[0]), [int(v) for v in x[1:1 + s]], [int(v) for v in x[1 + s:]]
    b, v, z = int(y[0]), [int(c) for c in y[1:1 + s]], [int(c) for c in y[1 + s:]]
    out = [F.mul(a, b)]
    for i in range(s):
        out.append(F.add(F.mul(a, v[i]), F.mul(u[i], F.frobenius(b, ring.sigma[i]))))
    for k in range(t + lam):
        acc = F.add(F.mul(a, z[k]), F.mul(w[k], F.frobenius(b, ring.theta[k])))
        if k < t:
            for i, j in itertools.product(range(s), repeat=2):
                term = F.mul(u[i], F.frobenius(v[j], ring.sigma[i]))
                acc = F.add(acc, F.mul(int(ring.matrices[k, i, j]), term))
        out.append(acc)
    return tuple(out)


def brute_structure(ring):
    """(dim M, dim M^2, dim ann M, commutative) of a ring of order <= 4096.

    Commutativity from the full multiplication table; ann M from a scan
    of all q^s vectors of U against the radical's Z_p-basis on both
    sides; M^2 as the span of the W parts of all radical basis products,
    ranked by the package's scalar ``rank`` over Z_p.  Products come from
    ``Ring.mul``, which test_rings checks against a direct formula.
    """
    from ringforge import GF
    from ringforge import linalg as la

    F = ring.field
    s, t, lam = ring.s, ring.t, ring.lam
    basis = []
    for slot in range(1, ring.n):
        for d in range(F.r):
            e = [0] * ring.n
            e[slot] = F.p ** d
            basis.append(tuple(e))
    prods = []
    for b1 in basis:
        for b2 in basis:
            w = ring.mul(b1, b2)[1 + s:]
            prods.append([(c // F.p ** d) % F.p for c in w for d in range(F.r)])
    rank = la.rank(GF(F.p), np.array(prods, dtype=np.int64))
    assert rank % F.r == 0
    kill = 0
    for u in itertools.product(range(F.q), repeat=s):
        x = (0,) + u + (0,) * (t + lam)
        if all(ring.mul(x, b) == ring.zero() and ring.mul(b, x) == ring.zero()
               for b in basis):
            kill += 1
    dim_u = round(np.log(kill) / np.log(F.q))
    assert F.q ** dim_u == kill
    T = ring.mul_table()
    return (s + t + lam, rank // F.r, dim_u + t + lam, bool((T == T.T).all()))


def tail_alignment_greedy(theta_a, theta_d, t):
    """Tail slot pairing by a first-free scan: each source slot in turn
    takes the first unused target slot with the same exponent."""
    tail_a, tail_d = list(theta_a[t:]), list(theta_d[t:])
    if sorted(tail_a) != sorted(tail_d):
        return None
    used = [False] * len(tail_d)
    perm = []
    for e in tail_a:
        j = next(j for j, f in enumerate(tail_d) if not used[j] and f == e)
        used[j] = True
        perm.append(j)
    return tuple(perm)


def iso_exhaustive(specA, specD):
    """``iso_test`` by the whole-group search: the lowered sigma-twisted
    map of every element C of GL(s, q) at once (``classify._twist_maps``;
    kron(C, C) when sigma is 0), every image eliminated, then the
    candidates in ascending order of C within each Frobenius power.  A C
    that joins U coordinates of different sigma is imaged too, so no
    relabelling is needed; ``verify_witness`` decides.  No invariant
    prefilter, no orbit search."""
    from ringforge import gl, linalg
    from ringforge.classify import _twist_maps
    from ringforge.rings import (IsoWitness, Ring, _check_same_invariants,
                                 _tail_alignment, verify_witness)

    ringA, ringD = Ring(specA), Ring(specD)
    if not _check_same_invariants(specA, specD):
        return None
    F = ringA.field
    s, t = ringA.s, ringA.t
    if sorted(ringA.sigma) != sorted(ringD.sigma):
        return None
    if sorted(ringA.theta[:t]) != sorted(ringD.theta[:t]):
        return None
    perm = _tail_alignment(ringA.theta, ringD.theta, t)
    if perm is None:
        return None
    m = s * s
    VA = ringA.matrices.reshape(t, m)
    D_rows = ringD.matrices.reshape(t, m)
    target_R, _ = linalg.rref(F, D_rows)
    target_key = int(linalg.encode_rows(target_R.reshape(-1), F.q))
    Gmats = gl.enumerate_gl(F, s)
    P = _twist_maps(F, Gmats, ringA.sigma)
    for e in F.automorphism_exponents():
        imgs = linalg.linmap_apply(F, F._frob_raw(VA, e), P)    # (G, t, m)
        R, ranks = linalg.rref_batch(F, imgs)
        keys = linalg.encode_rows(R.reshape(len(Gmats), t * m), F.q)
        for ci in np.where((keys == target_key) & (ranks == t))[0]:
            X = imgs[ci]
            cols = [linalg.solve(F, X.T, D_rows[rho]) for rho in range(t)]
            if any(c is None for c in cols):
                continue
            B = np.stack(cols, axis=1)
            if linalg.rank(F, B) < t:
                continue
            witness = IsoWitness(sigma=e, C=Gmats[ci], B=B, v_perm=perm)
            if verify_witness(specA, specD, witness):
                return witness
    return None


def span_invariant_all_codes(F, mats, sigma) -> np.ndarray:
    """``rings._span_invariant`` by decoding every nonzero coefficient
    vector of each theta class, all q^k - 1 at once, and keeping the ones
    whose first nonzero entry is 1.  The codes come from the package's
    ``lower``, ``linmap_apply`` and ``rref_batch``; only the enumeration
    of the points is the oracle's own."""
    from ringforge import linalg

    t, s, _ = mats.shape
    q = F.q
    flat = mats.reshape(t, s * s)
    first = (flat != 0).argmax(axis=1)
    sig = np.asarray(sigma)
    theta = (sig[first // s] + sig[first % s]) % F.r
    out = []
    for th in np.unique(theta):
        sub = flat[theta == th]
        codes = linalg.decode_codes(np.arange(1, q ** len(sub)), q, len(sub))
        lead = codes[np.arange(len(codes)), (codes != 0).argmax(axis=1)]
        points = codes[lead == 1]
        M = linalg.linmap_apply(F, points, linalg.lower(F, sub)).reshape(-1, s, s)
        Mt = M.transpose(0, 2, 1)
        forms = [M] if any(sigma) else [M, F._add_raw(M, Mt), F._add_raw(M, F._neg_raw(Mt))]
        code = np.full(len(M), th, dtype=np.int64)
        for X in forms:
            code = code * (s + 1) + linalg.rref_batch(F, X)[1]
        out.append(code)
    return np.sort(np.concatenate(out))
