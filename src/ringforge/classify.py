"""Orbit classification engines.

Two group actions are classified here: congruence orbits of single
matrices (A -> C^T A C over GL(s, F)) and equivalence orbits of
t-dimensional matrix spaces (S -> span{C^T A^sigma C : A in S}, with the
field automorphism twist optional).  Both engines materialize the ground
set, then either sweep the whole group per undiscovered orbit or close
over a generating set, whichever fits the action budget.  Everything is
deterministic: objects are visited in ascending key order and every orbit
is named by its minimum key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import gl, linalg
from .counting import gaussian_binomial
from .matspace import SubspaceKey, dead_indices, subspace_rows

__all__ = [
    "BudgetExceededError", "OrbitClass", "ClassReport", "OrbitResult",
    "classify_congruence", "classify_subspaces", "orbit_of",
    "DEFAULT_BUDGET", "SWEEP_LIMIT",
]

DEFAULT_BUDGET = 10 ** 12
SWEEP_LIMIT = 10 ** 9          # sweep-vs-BFS strategy threshold
ENV_BUDGET = "RINGFORGE_BUDGET"
_GROUND_LIMIT = 5 * 10 ** 6    # dense ground sets larger than this are refused


class BudgetExceededError(RuntimeError):
    pass


def resolve_budget(budget=None) -> int:
    if budget is not None:
        return int(budget)
    env = os.environ.get(ENV_BUDGET)
    return int(env) if env else DEFAULT_BUDGET


def _over_budget(what, budget) -> BudgetExceededError:
    return BudgetExceededError(
        f"{what}, over the action budget of {budget} "
        f"(change it with budget=, --budget or {ENV_BUDGET})"
    )


def _over_ground_limit(n, what) -> BudgetExceededError:
    return BudgetExceededError(
        f"ground set of {n} {what} exceeds the dense ground-set limit of "
        f"{_GROUND_LIMIT} (change it with ringforge.classify._GROUND_LIMIT)"
    )


@dataclass
class OrbitClass:
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


# -- congruence orbits of single matrices --

def _matrix_orbit_flags(q, s, orbit_codes):
    m = s * s
    mats = linalg.decode_codes(np.asarray(orbit_codes), q, m).reshape(-1, s, s)
    dead_any = dead_indices(mats[:, None]).any(axis=1)
    nonzero = np.asarray(orbit_codes) != 0
    contains = bool((nonzero & ~dead_any).any())
    rep = mats[0]
    commut = bool((rep == rep.T).all())
    return rep, contains, commut


def classify_congruence(F, s: int, symmetric_only: bool = False,
                        budget=None) -> ClassReport:
    """Partition all s x s matrices over F into congruence classes."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    q, m = F.q, s * s
    total = q ** m
    if total > _GROUND_LIMIT:
        raise _over_ground_limit(total, "matrices")
    budget = resolve_budget(budget)
    group_order = gl.gl_order(q, s)
    if group_order * total > budget:
        raise _over_budget(f"congruence sweep needs {group_order * total} actions", budget)
    Gmats = gl.enumerate_gl(F, s)
    P = linalg.kron_batch(F, Gmats)

    if symmetric_only:
        all_mats = linalg.decode_codes(np.arange(total), q, m).reshape(total, s, s)
        ground = np.where((all_mats == all_mats.transpose(0, 2, 1)).all(axis=(1, 2)))[0]
    else:
        ground = np.arange(total)

    visited = np.zeros(total, dtype=bool)
    classes = []
    covered = 0
    for code in ground:
        if visited[code]:
            continue
        vec = linalg.decode_codes(np.int64(code), q, m)
        imgs = linalg.linmap_apply(F, vec, P)
        orbit = np.unique(linalg.encode_rows(imgs, q))
        visited[orbit] = True
        if orbit[0] != code:
            raise RuntimeError(f"matrix {code} is not the minimum of its orbit")
        rep, contains, commut = _matrix_orbit_flags(q, s, orbit)
        classes.append(OrbitClass(rep, len(orbit), contains, commut))
        covered += len(orbit)
    if covered != len(ground):
        raise RuntimeError(f"orbits cover {covered} of {len(ground)} matrices")
    return ClassReport(
        kind="congruence",
        params={
            "p": F.p, "r": F.r, "q": q, "s": s,
            "symmetric_only": symmetric_only,
        },
        total_objects=len(ground),
        class_count=len(classes),
        strategy="sweep",
        classes=classes,
    )


# -- equivalence orbits of t-dimensional matrix spaces --

def _normalize_lines(F, W):
    """Scale rows of (N, m) so the leading nonzero entry is 1."""
    lead_idx = np.argmax(W != 0, axis=1)
    lead = W[np.arange(len(W)), lead_idx]
    return F._mul_raw(W, F._inv[lead][:, None])


def _canon_rows(F, imgs, t):
    """Canonical RREF rows for a stack of bases (N, t, m) of full rank t."""
    if t == 1:
        N, _, m = imgs.shape
        return _normalize_lines(F, imgs.reshape(N, m)).reshape(N, t, m)
    R, ranks = linalg.rref_batch(F, imgs)
    if (ranks != t).any():
        raise RuntimeError(f"orbit image lost rank: expected {t}, got {ranks.min()}")
    return R


def _subspace_orbit_flags(s, t, orbit_rows):
    arr = orbit_rows.reshape(-1, t, s, s)
    contains = bool((~dead_indices(arr).any(axis=1)).any())
    rep = arr[0]
    commut = bool((rep == rep.transpose(0, 2, 1)).all())
    return contains, commut


def _make_key(s, t, row) -> SubspaceKey:
    m = s * s
    rows = tuple(tuple(int(x) for x in row[i * m:(i + 1) * m]) for i in range(t))
    return SubspaceKey(s=s, rank=t, rows=rows)


def _ground_index(codes, keys):
    """Positions of keys in the sorted ground-set codes, all of which must occur."""
    pos = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
    if (codes[pos] != keys).any():
        raise RuntimeError("orbit image left the ground set")
    return pos


def _sweep_subspaces(F, s, t, use_frobenius, rows, codes):
    q, m = F.q, s * s
    Gmats = gl.enumerate_gl(F, s)
    P = linalg.kron_batch(F, Gmats)
    exps = list(F.automorphism_exponents()) if (use_frobenius and F.r > 1) else [0]
    N = len(rows)
    visited = np.zeros(N, dtype=bool)
    out = []
    for idx in range(N):
        if visited[idx]:
            continue
        V = rows[idx].reshape(t, m)
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
        contains, commut = _subspace_orbit_flags(s, t, rows[pos])
        out.append((idx, len(keys), contains, commut))
    return out


def _bfs_subspaces(F, s, t, use_frobenius, rows, codes):
    q, m = F.q, s * s
    N = len(rows)
    gens = gl.gl_generators(F, s)
    Vt = rows.reshape(N, t, m)
    srcs, dsts = [], []
    for P in linalg.kron_batch(F, gens):
        imgs = linalg.linmap_apply(F, Vt, P)
        R = _canon_rows(F, imgs, t)
        keys = linalg.encode_rows(R.reshape(N, t * m), q)
        srcs.append(np.arange(N))
        dsts.append(_ground_index(codes, keys))
    if use_frobenius and F.r > 1:
        # RREF structure survives the entrywise Frobenius, so no re-reduction
        keys = linalg.encode_rows(F._frob_raw(rows, 1), q)
        srcs.append(np.arange(N))
        dsts.append(_ground_index(codes, keys))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(N, N))
    ncomp, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    firsts = np.full(ncomp, N, dtype=np.int64)
    np.minimum.at(firsts, labels, np.arange(N))

    arr = rows.reshape(N, t, s, s)
    dead_any = dead_indices(arr).any(axis=1)
    orbit_ok = np.zeros(ncomp, dtype=bool)
    np.logical_or.at(orbit_ok, labels, ~dead_any)

    out = []
    for lab in np.argsort(firsts):
        idx = int(firsts[lab])
        rep = arr[idx]
        commut = bool((rep == rep.transpose(0, 2, 1)).all())
        out.append((idx, int(sizes[lab]), bool(orbit_ok[lab]), commut))
    return out


def classify_subspaces(F, s: int, t: int, use_frobenius: bool = True,
                       filter_compatible: bool = False, strategy: str = "auto",
                       budget=None) -> ClassReport:
    """Partition the t-dimensional spaces of s x s matrices over F into
    equivalence classes under congruence twists (and, if use_frobenius,
    field automorphisms applied entrywise)."""
    m = s * s
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 1 <= t <= m:
        raise ValueError(f"t must lie in [1, {m}], got {t}")
    q = F.q
    N = gaussian_binomial(m, t, q)
    budget = resolve_budget(budget)
    r_factor = F.r if use_frobenius else 1
    sweep_actions = gl.gl_order(q, s) * r_factor * N
    # BFS computes N x (generators + 1) images; scalars fix every subspace,
    # so an orbit has at most |G| r / (q - 1) members and the sweep
    # computes at least N (q - 1)
    bfs_per_object = len(gl.gl_generators(F, s)) + 1

    if strategy == "auto":
        strategy = "sweep" if (sweep_actions <= SWEEP_LIMIT and q ** m <= gl.ENUM_LIMIT
                               and q - 1 < bfs_per_object) else "bfs"
    if strategy not in ("sweep", "bfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if N > _GROUND_LIMIT:
        raise _over_ground_limit(N, "subspaces")
    if strategy == "sweep" and sweep_actions > budget:
        raise _over_budget(f"subspace sweep needs {sweep_actions} actions", budget)

    rows = subspace_rows(F, s, t)
    codes = linalg.encode_rows(rows, q)

    if strategy == "sweep":
        entries = _sweep_subspaces(F, s, t, use_frobenius, rows, codes)
    else:
        bfs_actions = len(rows) * bfs_per_object
        if bfs_actions > budget:
            raise _over_budget(f"subspace BFS needs {bfs_actions} actions", budget)
        entries = _bfs_subspaces(F, s, t, use_frobenius, rows, codes)

    classes = []
    for idx, size, contains, commut in entries:
        if filter_compatible and not contains:
            continue
        classes.append(OrbitClass(_make_key(s, t, rows[idx]), size, contains, commut))
    covered = sum(c.orbit_size for c in classes)
    if not filter_compatible and covered != N:
        raise RuntimeError(f"orbits cover {covered} of {N} subspaces")
    return ClassReport(
        kind="subspace",
        params={
            "p": F.p, "r": F.r, "q": q, "s": s, "t": t,
            "use_frobenius": use_frobenius,
            "filter_compatible": filter_compatible,
        },
        total_objects=covered,
        class_count=len(classes),
        strategy=strategy,
        classes=classes,
    )


# -- single-orbit closure --

def orbit_of(F, obj, use_frobenius: bool = True, budget=None,
             include_members: bool = False) -> OrbitResult:
    """BFS closure of one matrix (congruence action) or one subspace
    (equivalence action, Frobenius included unless disabled)."""
    budget = resolve_budget(budget)
    if isinstance(obj, SubspaceKey):
        kind = "subspace"
        s, t = obj.s, obj.rank
        start = np.array(obj.flat, dtype=np.int64)
        frob = use_frobenius and F.r > 1
    else:
        kind = "congruence"
        A = linalg.mat(F, obj)
        s = A.shape[0]
        if A.shape != (s, s):
            raise ValueError(f"matrix is not square: {A.shape}")
        t = 1
        start = A.reshape(-1)
        frob = False
    m = s * s
    q = F.q
    gens = gl.gl_generators(F, s)
    Ps = linalg.kron_batch(F, gens)

    def canon(batch):
        # batch (B, t*m) -> canonical rows
        if kind == "congruence":
            return batch
        return _canon_rows(F, batch.reshape(-1, t, m), t).reshape(-1, t * m)

    start = canon(start[None, :])[0]
    seen = {int(linalg.encode_rows(start, q)): None}
    frontier = start[None, :]
    n_actions = 0
    while len(frontier):
        B = len(frontier)
        img_list = [
            linalg.linmap_apply(F, frontier.reshape(B, t, m), P).reshape(B, t * m)
            for P in Ps
        ]
        if frob:
            img_list.append(F._frob_raw(frontier, 1))
        imgs = np.concatenate(img_list)
        imgs = canon(imgs)
        keys = linalg.encode_rows(imgs, q)
        n_actions += len(keys)
        if n_actions > budget:
            raise _over_budget(f"orbit closure reached {n_actions} actions", budget)
        fresh_rows = []
        for row, k in zip(imgs, keys):
            k = int(k)
            if k not in seen:
                seen[k] = None
                fresh_rows.append(row)
        frontier = np.array(fresh_rows, dtype=np.int64) if fresh_rows \
            else np.empty((0, t * m), dtype=np.int64)
    keys = sorted(seen)
    rep_row = linalg.decode_codes(np.int64(keys[0]), q, t * m)
    if kind == "subspace":
        rep = _make_key(s, t, rep_row)
    else:
        rep = rep_row.reshape(s, s)
    return OrbitResult(
        kind=kind,
        canonical_rep=rep,
        orbit_size=len(keys),
        members=tuple(keys) if include_members else None,
    )
