"""Orbit classification engines.

Two group actions are classified here: congruence orbits of single
matrices (A -> C^T A C over GL(s, F)) and equivalence orbits of
t-dimensional matrix spaces (S -> span{C^T A^sigma C : A in S}, with the
field automorphism twist optional).  Both run one engine, generator BFS:
every object of the ground set is moved by each action of
``_group_actions``, one per generator of ``gl.gl_generators`` (two for
s >= 3), with the Frobenius folded into the shift Z (or, at s = 1,
added as one more).  The orbits are the connected components of the resulting graph,
found by a numpy union-find over its image table (``_orbit_roots``).  A
subspace sweep, the full-group image of each undiscovered orbit,
remains as the explicit ``strategy="sweep"``.  Everything is
deterministic: objects are held in ascending key order and every orbit
is named by its minimum key.

Every engine holds objects as keys; a block is decoded only to be
imaged, and ``_keys`` brings its images under one action back to keys.
The ground set of spaces is its sorted keys (``matspace.subspace_rows``),
where ``_bfs_orbits`` locates the images; over all s x s matrices a key
is its own ground index, so congruence holds no ground array.  Over
GF(2) while a key fits int64 (t*s*s <= 62 bits) a basis is t row words
read off its key instead, a generator acts through a table of the
images of all 2^(s*s) words, and images are reduced by XOR
(``linalg._rref_words``).  One orbit alone is closed by ``_orbit_bfs``,
which records the action and parent of each new key.
``_group_actions`` is the one action builder: the engines and
``orbit_of`` take it at sigma = 0, and ``rings.iso_test`` at the U twist
vector of its first ring, Frobenius folded in, reading a transporter
(C, e) off the tree path.

Memory is the one limit: a classification (``_check_ground_bytes``)
or a closure level (``_orbit_bfs``) predicted to peak over
``_GROUND_BYTES`` is refused before it is built.

No engine scans objects for dead indices, because the compatibility
flag of a class follows from its representative.  Index i is dead in a
tuple when row i and column i vanish in every member.  Write
R(S) = {v : v^T A = 0 = A v for all A in S}, the common two-sided
radical of a tuple or space S.  For C in GL(s, F), row i of C^T A C is
(C e_i)^T A C and column i is C^T A (C e_i), so i is dead in C^T S C
exactly when C e_i lies in R(S); the entrywise Frobenius maps R(S)
onto R(phi(S)), so the same holds for C^T phi(S) C.  If S != 0 then
R(S) is a proper subspace, so some standard vector e_k lies outside it,
and C = I + sum of E_kj over the j with e_j in R(S) is invertible
(det 1) with no column in R(S): C e_j = e_j + e_k for those j.  So
C^T S C, a member of the class of S, has no dead index.  Every class
of t-spaces (t >= 1) therefore contains a compatible member, and a
congruence class does unless it is the class of the zero matrix, the
only matrix with no compatible member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gl, linalg
from .counting import gaussian_binomial
from .matspace import SubspaceKey, subspace_rows

__all__ = [
    "BudgetExceededError", "OrbitClass", "ClassReport", "OrbitResult",
    "classify_congruence", "classify_subspaces", "orbit_of",
]

_GROUND_BYTES = 1 << 30       # bytes; an engine predicted to peak above this is refused
_BFS_CHUNK = 1 << 16           # objects per block of a BFS image pass


class BudgetExceededError(RuntimeError):
    """An orbit computation predicted to peak above ``_GROUND_BYTES``."""


def _over_bytes(what, need) -> BudgetExceededError:
    return BudgetExceededError(
        f"{what} needs about {need} bytes, over the ground-set limit of "
        f"{_GROUND_BYTES} bytes (change it with ringforge.classify._GROUND_BYTES)")


def _key_bytes(q, n) -> int:
    """Bytes of a key of n digits: int64, or beyond 62 bits an object
    pointer and the python int behind it."""
    return 8 if n * np.log2(q) <= 62 else 8 + (q ** n).__sizeof__()


def _check_ground_bytes(N, what, code_bytes, build_bytes, work_bytes) -> None:
    """Refuse a classification of N objects whose predicted peak is over
    ``_GROUND_BYTES``, before anything is built.  The peak is the larger
    of two phases: the build of the codes, ``build_bytes`` an object; and
    the engine's work, with the codes held, ``code_bytes`` an object (0
    when no ground array is kept), and ``work_bytes`` besides."""
    need = max(N * build_bytes, N * code_bytes + work_bytes)
    if need > _GROUND_BYTES:
        raise _over_bytes(f"ground set of {N} {what}", need)


def _bfs_bytes(N, n_actions, block_bytes) -> int:
    """Bytes a BFS of N objects holds besides their codes: the larger of
    the union-find, an (N, n_actions) int32 image table and an int32
    ``parent``, and the tail, with the table freed, ``parent`` and
    ``np.unique``'s sorted int32 copy and bool mask, 9 bytes an object.
    Both add ``block_bytes``: what the engine keeps to image with and one
    image block's temporaries, which the allocator keeps; a union-find
    block's are smaller, and imaging holds less than the union-find."""
    return N * max(4 * n_actions + 4, 9) + block_bytes


def _sweep_bytes(F, s, t, N, key_bytes) -> int:
    """Bytes a sweep of N spaces holds besides their codes: its visited
    flags, the |GL(s, q)| x s^2 int64 group stack and its lowered
    |GL| x (m r)^2 tensor, then the larger of ``kron_batch``'s chunk (per
    element its int64 products, in ``lower`` two int64 multiples and
    their r digits, 8 m^2 (r + 2) bytes, and its lowered floats) and one
    orbit's images under one exponent (int64 images, ``rref_batch``'s
    copy, result and row temporaries, 48 bytes a digit, and the keys of
    every exponent, concatenated and sorted).  ``gl.enumerate_gl`` holds
    less than the group stack and the tensor."""
    G, m, r = gl.gl_order(F.q, s), s * s, F.r
    item = linalg._lowered_dtype(F, m).itemsize
    group = G * (8 * m + (m * r) ** 2 * item)
    kron = min(G, linalg._KRON_CHUNK) * (8 * m * m * (r + 2) + (m * r) ** 2 * item)
    images = G * (48 * t * m + (r + 3) * key_bytes)
    return N + group + max(kron, images)


@dataclass
class OrbitClass:
    """One orbit: its minimum as representative, its size, and two flags.
    ``contains_compatible`` says some member has no dead index; by the
    module docstring's proof it is True for every class of spaces and for
    every congruence class but that of the zero matrix.
    ``commutative_capable`` says the representative's matrices are
    symmetric."""

    rep: object        # SubspaceKey for subspace runs, (s, s) array for congruence
    orbit_size: int
    contains_compatible: bool
    commutative_capable: bool

    def rep_matrices(self) -> np.ndarray:
        if isinstance(self.rep, SubspaceKey):
            return self.rep.matrices()
        return np.asarray(self.rep)[None, :, :]

    def rep_flat(self):
        return tuple(int(c) for c in self.rep_matrices().ravel())


@dataclass
class ClassReport:
    kind: str          # "subspace" or "congruence"
    params: dict
    total_objects: int
    class_count: int
    strategy: str
    classes: list

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "params": dict(self.params),
            "total_objects": self.total_objects,
            "class_count": self.class_count,
            "strategy": self.strategy,
            "classes": [],
        }
        for c in self.classes:
            mats = [[[int(x) for x in row] for row in M] for M in c.rep_matrices()]
            rep = mats if self.kind == "subspace" else mats[0]
            out["classes"].append(
                {
                    "rep": rep,
                    "orbit_size": c.orbit_size,
                    "contains_compatible": c.contains_compatible,
                    "commutative_capable": c.commutative_capable,
                }
            )
        return out

    def to_csv_rows(self) -> list:
        rows = [["rep", "orbit_size", "contains_compatible", "commutative_capable"]]
        for c in self.classes:
            enc = "-".join(str(x) for x in c.rep_flat())
            rows.append(
                [enc, c.orbit_size, int(c.contains_compatible), int(c.commutative_capable)]
            )
        return rows


@dataclass
class OrbitResult:
    kind: str
    canonical_rep: object
    orbit_size: int
    members: tuple | None = None


# -- the generator-BFS orbit engine --

def _orbit_roots(dst):
    """Root of every node of the graph joining node i to dst[i, a] for each
    column a of the (N, g) image table: the minimum index of its connected
    component.

    Hook and shortcut (Shiloach-Vishkin), in blocks of ``_BFS_CHUNK``
    rows, so nothing of length N is allocated beyond ``parent``.  A hook
    pass takes, for each column and block, the parents u of the block's
    nodes and v of their images, and hooks the larger of each differing
    pair under the smaller with ``np.minimum.at``.  Then the blocks are
    jumped in ascending order, each in place (parent[x] =
    parent[parent[x]]) until a jump changes none of its pointers.  Hook
    passes repeat until one finds no differing pair.

    Proof.  Every node's pointer goes to a node of its own component no
    larger than itself: a hook writes into parent[w] a value below w
    taken from the parents of two adjacent nodes, and a jump moves a
    pointer to its pointer's pointer, so both keep this, whatever blocks
    have been written before.  A jump leaves every root a root.  When a
    block's jumps stop, parent[parent[x]] = parent[x] for each of its
    nodes x, so every node of it points at a root; later blocks do not
    write into it, so after the sweep every node points at a root.  A
    pass that finds no differing pair writes nothing and starts there;
    so every edge then joins two nodes of one root, each component has
    one root, and that root is at most every node of it: its minimum.
    Writes only lower pointers, and the first differing pair of a pass
    has two roots u != v, so its hook lowers parent[max(u, v)] =
    max(u, v): the sum of the parents falls in every pass that hooks, so
    the loop ends.
    """
    N, g = dst.shape
    parent = np.arange(N, dtype=dst.dtype)
    blocks = [slice(lo, lo + _BFS_CHUNK) for lo in range(0, N, _BFS_CHUNK)]
    hooked = True
    while hooked:
        hooked = False
        for a in range(g):
            for rows in blocks:
                u, v = parent[rows], parent[dst[rows, a]]
                cross = u != v
                if cross.any():
                    u, v = u[cross], v[cross]
                    np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
                    hooked = True
        for rows in blocks:
            blk = parent[rows]
            while True:
                up = parent[blk]
                if np.array_equal(up, blk):
                    break
                blk[:] = up
    return parent


def _bfs_orbits(N, load, actions, ground):
    """Orbits of the N ground objects as connected components of the graph
    joining each object to the ground index of its image under each
    action, in blocks of ``_BFS_CHUNK`` objects, so no image stack of the
    whole ground set is held.  ``load(lo, hi)`` returns objects lo..hi-1
    in the form the actions take; an action returns their images' keys,
    located in the sorted codes ``ground``, or indices if it is None.
    The image table is freed once ``_orbit_roots`` has read it, before
    the roots are sorted and counted.  Returns an iterator of (first
    index, size), ascending by first index, so every orbit is named by
    its minimum."""
    dst = np.empty((N, len(actions)), dtype=np.int32)
    for lo in range(0, N, _BFS_CHUNK):
        hi = min(lo + _BFS_CHUNK, N)
        V = load(lo, hi)
        for a, act in enumerate(actions):
            dst[lo:hi, a] = act(V) if ground is None else _ground_index(ground, act(V))
    parent = _orbit_roots(dst)
    del dst
    firsts, sizes = np.unique(parent, return_counts=True)
    return zip(firsts.astype(np.intp), sizes)


def _twist_maps(F, C, sigma) -> np.ndarray:
    """Lowered maps of a stack of base changes C (G, s, s) on structural
    matrices: A -> sum_x C^T P_x A Frob_x(C), P_x keeping the rows i with
    sigma_i = x, since row i of A_k meets u'_j through sigma_i.  The terms
    kron(P_x C, Frob_x(C)) sit on disjoint rows, so their lowered sum is
    exact.  Over the sigma-stabilizer {C : C_ij = 0 unless
    sigma_i = sigma_j} this is a group action, as Frob_x is a ring
    automorphism.  At sigma = 0 it is ``kron_batch(F, C, C)``, congruence."""
    C = np.asarray(C, dtype=np.int64)
    sig = np.asarray(sigma)
    return sum(linalg.kron_batch(F, np.where((sig == x)[:, None], C, 0), F._frob_raw(C, x))
               for x in sorted(set(sigma)))


def _group_actions(F, sigma, use_frobenius=False):
    """The generators of the sigma-stabilizer and the actions a BFS
    applies to every object, as (gens, actions).  The stabilizer is the
    product of GL(s_x, F) over the U coordinates of each exponent x of
    sigma ((0,) * s, one block, for the classifier), generated by the
    ``gl.gl_generators`` of each block embedded in the identity.  Action
    i is a (P, twist) pair: P is the ``_twist_maps`` map of gens[i] or
    None, and twist says the entrywise Frobenius phi comes first.

    With the twist on and r > 1 the group is G = prod_x GL(s_x, F) x|
    <phi>.  The shift Z_1 of the first block of two or more coordinates
    acts as "phi, then Z_1", and the generators with Z_1 phi in place of
    Z_1 still generate G.  Proof for GL(s_1, F): x = I + E_12 and Z_1
    have entries in F_p, so phi fixes them; conjugation by Z_1 phi keeps
    block 1 in block 1, maps the set of all x_ij(a), a in F, onto the
    x_i'j'(a) with indices shifted cyclically, and a diagonal matrix to
    its Frobenius image with the entries shifted.  So the group H the
    actions generate holds a diagonal with a primitive element at
    position 1: D at s_1 = 2, and at s_1 >= 3 a conjugate of D' by a
    power of Z_1 phi (H holds D', as ``gl.gl_generators`` shows).  As in
    that proof, conjugating x by it gives every x_12(a), the conjugates
    by Z_1 phi give every x_(i,i+1)(a), these generate SL(s_1, F), and
    with the diagonal GL(s_1, F).  So Z_1 is in H, and so is
    phi = Z_1^-1 (Z_1 phi); the other blocks keep their own generators.
    When every block has one coordinate, phi is one more action,
    (None, True), whose entry in gens is the identity.

    On pairs (C, e), the map A -> twist_C(Frob_e(A)), a twisted action
    with generator g gives (Frob(C) g, e + 1) and any other (C g, e),
    as phi twist_C = twist_Frob(C) phi and twist_g twist_C = twist_(C g)."""
    if len(sigma) < 1:
        raise ValueError(f"s must be >= 1, got {len(sigma)}")
    sig = np.asarray(sigma)
    fold = use_frobenius and F.r > 1          # phi still to be placed
    gens, twists = [], []
    for x in sorted(set(sigma)):
        block = np.flatnonzero(sig == x)
        for i, g in enumerate(gl.gl_generators(F, len(block))):
            G = linalg.identity(len(sig))
            G[np.ix_(block, block)] = g
            gens.append(G)
            twists.append(fold and i == 1)    # generator 1 is the block's Z
            fold = fold and i != 1
    actions = list(zip(_twist_maps(F, np.array(gens), sigma), twists))
    if fold:
        gens.append(linalg.identity(len(sig)))
        actions.append((None, True))
    return np.array(gens), actions


def _image(F, V, P, twist):
    """V under one action of ``_group_actions``: the entrywise Frobenius if
    ``twist``, then the map P unless it is None."""
    if twist:
        V = F._frob_raw(V, 1)
    return V if P is None else linalg.linmap_apply(F, V, P)


def _keys(F, V, P, twist, spaces):
    """Keys of the images of a block V (B, t, m) under one action: its
    ``_image``, brought back to RREF by ``_canon_rows`` when the objects
    are spaces and P moves them (the Frobenius alone keeps RREF)."""
    img = _image(F, V, P, twist)
    if spaces and P is not None:
        img = _canon_rows(F, img, V.shape[1])
    return linalg.encode_rows(img.reshape(len(img), -1), F.q)


# -- congruence orbits of single matrices --

def classify_congruence(F, s: int, symmetric_only: bool = False) -> ClassReport:
    """Partition all s x s matrices over F (or the symmetric ones, which
    congruence keeps symmetric) into congruence classes by generator BFS.
    A matrix is its own key, so images need no reduction."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    q, m = F.q, s * s
    N = q ** (s * (s + 1) // 2) if symmetric_only else q ** m
    acts = _group_actions(F, (0,) * s)[1]
    # a symmetric ground is its keys; the last step of their digit sums
    # holds them and a q-th as many
    key_bytes = _key_bytes(q, m) if symmetric_only else 0
    _check_ground_bytes(N, "matrices", key_bytes, 2 * key_bytes,
                        _bfs_bytes(N, len(acts), 64 * m * min(N, _BFS_CHUNK)))

    ground = None                     # over all matrices a key is its index
    if symmetric_only:
        # a digit of upper entry (i, j) sets its mirror too; two symmetric
        # matrices first differ, row-major, at an upper entry, so the keys
        # follow the upper digits' lexicographic order and ascend
        w = [q ** k for k in range(m - 1, -1, -1)]          # of entry i*s + j
        upper = [w[i * s + j] + (j > i) * w[j * s + i]
                 for i in range(s) for j in range(i, s)]
        ground = linalg.digit_sums(0, upper, q, np.int64 if key_bytes == 8 else object)

    def load(lo, hi):
        keys = np.arange(lo, hi) if ground is None else ground[lo:hi]
        return linalg.decode_codes(keys, q, m).reshape(-1, 1, m)

    actions = [lambda V, P=P: _keys(F, V, P, False, False) for P, _ in acts]
    classes = []
    for idx, size in _bfs_orbits(N, load, actions, ground):
        rep = load(idx, idx + 1).reshape(s, s)
        # only the zero matrix has no compatible member (module docstring)
        classes.append(OrbitClass(rep, int(size), bool(rep.any()),
                                  bool((rep == rep.T).all())))
    return ClassReport(
        kind="congruence",
        params={
            "p": F.p, "r": F.r, "q": q, "s": s,
            "symmetric_only": symmetric_only,
        },
        total_objects=N,
        class_count=len(classes),
        strategy="bfs",
        classes=classes,
    )


# -- equivalence orbits of t-dimensional matrix spaces --

def _check_rank(ranks, t) -> None:
    if (ranks != t).any():
        raise RuntimeError(f"orbit image lost rank: expected {t}, got {ranks.min()}")


def _canon_rows(F, imgs, t):
    """Canonical RREF rows for a stack of bases (N, t, m) of full rank t."""
    R, ranks = linalg.rref_batch(F, imgs)
    _check_rank(ranks, t)
    return R


def _ground_index(codes, keys):
    """Positions of keys in the sorted ground-set codes, all of which must
    occur.  The keys are searched in ascending order: numpy's binary search
    keeps the previous key's lower bound when keys ascend, so sorted keys
    walk the codes one way and mostly hit cache, several times faster
    than images in random order."""
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.minimum(np.searchsorted(codes, keys[order]), len(codes) - 1)
    if (codes[pos] != keys).any():
        raise RuntimeError("orbit image left the ground set")
    return pos


def _sweep_subspaces(F, s, t, use_frobenius, codes):
    q, m = F.q, s * s
    Gmats = gl.enumerate_gl(F, s)
    P = linalg.kron_batch(F, Gmats, Gmats)
    exps = list(F.automorphism_exponents()) if (use_frobenius and F.r > 1) else [0]
    N = len(codes)
    visited = np.zeros(N, dtype=bool)
    out = []
    for idx in range(N):
        if visited[idx]:
            continue
        V = linalg.decode_codes(codes[idx], q, t * m).reshape(t, m)
        keys_per_exp = []
        for e in exps:
            imgs = linalg.linmap_apply(F, F._frob_raw(V, e), P)
            R = _canon_rows(F, imgs, t)
            keys_per_exp.append(linalg.encode_rows(R.reshape(len(Gmats), t * m), q))
        keys = np.unique(np.concatenate(keys_per_exp))
        pos = _ground_index(codes, keys)
        visited[pos] = True
        # ascending discovery order makes the first unvisited object the
        # orbit minimum
        if pos[0] != idx:
            raise RuntimeError(f"subspace {idx} is not the minimum of its orbit")
        out.append((idx, len(keys)))
    return out


def _bfs_subspaces(F, s, t, use_frobenius, codes):
    """Generator BFS over the ground set of spaces: on packed row words
    over GF(2) while the keys fit int64, on digit rows otherwise."""
    packed = F.q == 2 and codes.dtype != object
    engine = _packed_bfs_subspaces if packed else _dense_bfs_subspaces
    return engine(F, s, t, use_frobenius, codes)


def _dense_bfs_subspaces(F, s, t, use_frobenius, codes):
    q, m = F.q, s * s

    def load(lo, hi):
        V = linalg.decode_codes(codes[lo:hi], q, t * m, np.min_scalar_type(q - 1))
        return V.reshape(-1, t, m)

    actions = [lambda V, P=P, twist=twist: _keys(F, V, P, twist, True)
               for P, twist in _group_actions(F, (0,) * s, use_frobenius)[1]]
    return _bfs_orbits(len(codes), load, actions, codes)


def _packed_bfs_subspaces(F, s, t, use_frobenius, codes):
    """The BFS over GF(2) with int64 keys, on row words: a space's key is
    its t RREF rows of m = s*s bits, concatenated, so row i of a block is
    read off the ground codes by a shift and a mask.  A generator maps a
    row word through a table of the images of all 2^m words, built once
    per call by the dense kernels, so an image block is one gather; the
    images are reduced by ``linalg._rref_words`` and their words joined
    back into keys.  The field has no automorphism, so ``use_frobenius``
    changes nothing.

    The tables need no limit of their own: for 1 <= t < m there are at
    least 2^m - 1 spaces, so a table has at most N + 1 entries, and t = m
    fits int64 keys only for m <= 7, a table of at most 16 entries."""
    m = s * s
    low = (1 << m) - 1
    shifts = m * np.arange(t - 1, -1, -1)
    every_row = linalg.decode_codes(np.arange(1 << m), 2, m, np.uint8)
    tables = [linalg.encode_rows(linalg.linmap_apply(F, every_row, P), 2)
              for P, _ in _group_actions(F, (0,) * s)[1]]

    def load(lo, hi):
        return (codes[lo:hi, None] >> shifts) & low

    def image(W, table):
        R, ranks = linalg._rref_words(table[W])
        _check_rank(ranks, t)
        return np.bitwise_or.reduce(R << shifts, axis=1)

    actions = [lambda W, T=T: image(W, T) for T in tables]
    return _bfs_orbits(len(codes), load, actions, codes)


def classify_subspaces(F, s: int, t: int, use_frobenius: bool = True,
                       strategy: str = "auto") -> ClassReport:
    """Partition the t-dimensional spaces of s x s matrices over F into
    equivalence classes under congruence twists (and, if use_frobenius,
    field automorphisms applied entrywise).  ``strategy`` "auto" and "bfs"
    run the generator BFS, "sweep" the full-group image of each orbit."""
    m = s * s
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 1 <= t <= m:
        raise ValueError(f"t must lie in [1, {m}], got {t}")
    if strategy == "auto":
        strategy = "bfs"
    if strategy not in ("sweep", "bfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    q, n = F.q, t * m
    N = gaussian_binomial(m, t, q)
    code_bytes = _key_bytes(q, n)
    if strategy == "sweep":
        engine, work = _sweep_subspaces, _sweep_bytes(F, s, t, N, code_bytes)
    else:
        n_actions = len(_group_actions(F, (0,) * s, use_frobenius)[1])
        rows = min(N, _BFS_CHUNK)
        if q == 2 and code_bytes == 8:
            # the packed engine images t row words a row, and builds and
            # keeps one int64 table of all 2^m row words per action
            block = ((8 * n_actions + 16 * m) << m) + 64 * t * rows
        else:
            block = 64 * n * rows
        engine, work = _bfs_subspaces, _bfs_bytes(N, n_actions, block)
    # the build holds the codes twice: its pivot blocks and their concatenation
    _check_ground_bytes(N, "subspaces", code_bytes, 2 * code_bytes, work)

    codes = subspace_rows(F, s, t)
    firsts, sizes = map(np.array, zip(*engine(F, s, t, use_frobenius, codes)))
    reps = linalg.decode_codes(codes[firsts], q, n).reshape(-1, t, s, s)
    symmetric = (reps == reps.transpose(0, 1, 3, 2)).all(axis=(1, 2, 3))
    # every class of spaces holds a compatible member (module docstring)
    classes = [OrbitClass(SubspaceKey.from_rref(s, t, R), int(size), True, bool(sym))
               for R, size, sym in zip(reps, sizes, symmetric)]
    covered = int(sizes.sum())
    if covered != N:
        raise RuntimeError(f"orbits cover {covered} of {N} subspaces")
    return ClassReport(
        kind="subspace",
        params={
            "p": F.p, "r": F.r, "q": q, "s": s, "t": t,
            "use_frobenius": use_frobenius,
        },
        total_objects=covered,
        class_count=len(classes),
        strategy=strategy,
        classes=classes,
    )


# -- single-orbit closure --

def _orbit_bfs(F, start, acts, spaces, target=None):
    """Breadth-first closure of the orbit of one (t, m) block under
    ``acts``, the (P, twist) pairs of ``_group_actions``, of spaces kept in
    RREF if ``spaces``.  Each level's frontier keys are decoded
    ``_BFS_CHUNK`` at a time and imaged by ``_keys`` into one action-major
    key array: image i has action i // len(frontier) and parent
    i % len(frontier), and the first image of each new key is kept.  A
    level's predicted bytes are checked against ``_GROUND_BYTES`` before
    it is imaged.  Returns the sorted keys, the block of the least, and
    the actions of the tree path from ``start`` to the ``target`` key,
    None if no key is the target.

    A level of S seen keys and n = (actions x frontier) images peaks at
    S * (2k + 9) + n * (3k + 34) bytes and one block's temporaries, k
    bytes a key (``_key_bytes``): the seen keys, their 8-byte first
    indices in ``sources``, and ``np.insert``'s copy and mask of them; the
    key array, and ``np.unique``'s sorted copy, int64 order, mask and
    outputs; ``searchsorted``'s positions and the insert's indices."""
    t, m = start.shape
    key_bytes = _key_bytes(F.q, t * m)

    def decode(keys):
        return linalg.decode_codes(keys, F.q, t * m).reshape(-1, t, m)

    start = _canon_rows(F, start[None], t) if spaces else start[None]
    frontier = seen = linalg.encode_rows(start.reshape(1, t * m), F.q)
    sources = []                                # per level: (indices, frontier size)
    path = None
    while len(frontier):
        hit = np.flatnonzero(frontier == target)
        if len(hit):
            j, path = hit[0], []
            for src, width in reversed(sources):
                action, j = divmod(int(src[j]), width)
                path.insert(0, action)
            break
        width = len(frontier)
        images = width * len(acts)
        need = (len(seen) * (2 * key_bytes + 9) + images * (3 * key_bytes + 34)
                + min(width, _BFS_CHUNK) * t * m * 64)
        if need > _GROUND_BYTES:
            raise _over_bytes(f"orbit closure level ({len(seen)} seen keys, "
                              f"{images} images)", need)
        keys = np.empty((len(acts), width), dtype=seen.dtype)
        for lo in range(0, width, _BFS_CHUNK):
            V = decode(frontier[lo:lo + _BFS_CHUNK])
            for a, (P, twist) in enumerate(acts):
                keys[a, lo:lo + len(V)] = _keys(F, V, P, twist, spaces)
        keys, first = np.unique(keys.ravel(), return_index=True)
        pos = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != keys
        seen = np.insert(seen, pos[fresh], keys[fresh])
        sources.append((first[fresh], width))
        frontier = keys[fresh]
    return seen, decode(seen[:1])[0], path


def orbit_of(F, obj, use_frobenius: bool = True,
             include_members: bool = False) -> OrbitResult:
    """BFS closure (``_orbit_bfs``) of one matrix (congruence action) or
    one subspace (equivalence action, Frobenius included unless disabled)."""
    subspace = isinstance(obj, SubspaceKey)
    if subspace:
        s, t = obj.s, obj.rank
        start = np.array(obj.rows, dtype=np.int64)
    else:
        A = linalg.mat(F, obj)
        s = A.shape[0]
        if A.shape != (s, s):
            raise ValueError(f"matrix is not square: {A.shape}")
        t, start = 1, A.reshape(1, s * s)
    seen, rep, _ = _orbit_bfs(
        F, start, _group_actions(F, (0,) * s, use_frobenius and subspace)[1], subspace)
    return OrbitResult(
        kind="subspace" if subspace else "congruence",
        canonical_rep=SubspaceKey.from_rref(s, t, rep) if subspace else rep.reshape(s, s),
        orbit_size=len(seen),
        members=tuple(seen.tolist()) if include_members else None,
    )
