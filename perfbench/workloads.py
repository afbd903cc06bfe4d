"""The benchmark's workloads: inputs made from a seed, tasks, output checks.

Each workload is a list of tasks that one client runs one after another
through ringforge's public API.  ``build`` is the set-up a user pays on
every call: it makes every GF, RingSpec and Ring the workload uses.  Every
task carries a check that compares its output with a second source inside
the repository or with a value recorded here; a check returns None when
the output is right and a message when it is not.

Why these workloads:

* prime-classify loads the ground set (``matspace.subspace_rows``) and the
  prime-field ``linalg.rref_batch``; the field tables (r = 1) are barely
  used.  It holds the p = 11 and p = 13 cells of ``predicted_count``.
* extension-classify runs the r > 1 paths: the ``GF`` table gathers inside
  ``linmap_apply`` and the per-item scalar ``rref`` inside ``rref_batch``,
  on small ground sets.  GF(9) (2,2) is where ``auto`` picks the sweep.
* rings loads ``gl.enumerate_gl``, ``kron_batch`` and memory through
  ``iso_test``, once on an isomorphic and once on a non-isomorphic pair,
  so a change that trades one against the other shows.  It also runs
  ``ring_structure`` at order 3^7 and ``check_axioms`` at q = 3, 16 and
  2^16, the last building its field by the generator search.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

KINDS = ("classify", "congruence", "iso_same", "iso_distinct", "structure", "axioms")


@dataclass
class Task:
    name: str
    kind: str                                   # one of KINDS
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    record: Callable[[object], dict]
    # (group images computed, objects classified) for classification tasks
    actions: "Callable[[object], tuple[int, int]] | None" = None


def digest(report) -> str:
    """Hash of the per-class output of a ClassReport: reps, orbit sizes, flags.

    The strategy is left out, so sweep and BFS runs of one cell agree.
    """
    classes = report.to_dict()["classes"]
    blob = json.dumps(classes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- classification cells --
# (p, r, s, t, strategy, expected class count, expected digest)
# The digests were recorded at the commit the benchmark was defined on;
# ROADMAP keeps the public canonical reps fixed, so they must not move.

PRIME_CELLS = [
    (2, 1, 3, 3, "auto", 4998, "a817a613351f8b00"),
    (2, 1, 3, 2, "auto", 322, "4350a0b33b2d022d"),
    (2, 1, 3, 2, "bfs", 322, "4350a0b33b2d022d"),
    (5, 1, 3, 1, "auto", 19, "4e833c7a2dffe2f3"),
    (11, 1, 2, 2, "auto", 38, "e9196b56332b6313"),
    (13, 1, 2, 2, "auto", 44, "c1a0529d6f3ae1cb"),
]

EXTENSION_CELLS = [
    (3, 2, 2, 2, "auto", 23, "1668c3a8f32d3d7e"),
    (2, 2, 3, 1, "auto", 13, "0f2d3506eaf3caec"),
    (2, 4, 2, 2, "auto", 22, "df6cdb63be75b33e"),
]

# classify_congruence cell: (p, r, s, expected digest)
CONGRUENCE_CELL = (2, 2, 3, "782300f52f4d3db9")


def _subspace_task(rf, F, s, t, strategy, expected, expected_digest):
    q = F.q
    try:
        predicted = rf.predicted_count(F.p, F.r, s, t).value
    except rf.NotCoveredError:
        predicted = None

    def call():
        return rf.classify.classify_subspaces(F, s, t, strategy=strategy)

    def check(rep):
        objects = rf.gaussian_binomial(s * s, t, q)
        if rep.total_objects != objects:
            return f"total_objects {rep.total_objects} != gaussian_binomial {objects}"
        if rep.class_count != expected:
            return f"class_count {rep.class_count} != recorded {expected}"
        if predicted is not None and rep.class_count != predicted:
            return f"class_count {rep.class_count} != predicted_count {predicted}"
        got = digest(rep)
        if got != expected_digest:
            return f"reps digest {got} != recorded {expected_digest}"
        return None

    def record(rep):
        return {"class_count": rep.class_count, "digest": digest(rep),
                "strategy": rep.strategy}

    name = f"classify_subspaces GF({q}) s={s} t={t} {strategy}"
    return Task(name, "classify", call, check, record,
                lambda rep: classify_actions(rf, F, rep))


def _congruence_task(rf, F, s, expected_digest):
    q = F.q

    def call():
        return rf.classify.classify_congruence(F, s)

    def check(rep):
        if rep.total_objects != q ** (s * s):
            return f"total_objects {rep.total_objects} != {q}^{s * s}"
        expected = rf.congruence_class_count(q, s)
        if rep.class_count != expected:
            return f"class_count {rep.class_count} != congruence_class_count {expected}"
        got = digest(rep)
        if got != expected_digest:
            return f"reps digest {got} != recorded {expected_digest}"
        return None

    def record(rep):
        return {"class_count": rep.class_count, "digest": digest(rep)}

    return Task(f"classify_congruence GF({q}) s={s}", "congruence", call, check,
                record, lambda rep: classify_actions(rf, F, rep))


def _prime_classify(rf, rng):
    fields = {}
    tasks = []
    for p, r, s, t, strategy, expected, dg in PRIME_CELLS:
        F = fields.setdefault((p, r), rf.GF(p, r))
        tasks.append(_subspace_task(rf, F, s, t, strategy, expected, dg))
    return tasks


def _extension_classify(rf, rng):
    fields = {}
    p, r, s, dg = CONGRUENCE_CELL
    F = fields.setdefault((p, r), rf.GF(p, r))
    tasks = [_congruence_task(rf, F, s, dg)]
    for p, r, s, t, strategy, expected, dg in EXTENSION_CELLS:
        F = fields.setdefault((p, r), rf.GF(p, r))
        tasks.append(_subspace_task(rf, F, s, t, strategy, expected, dg))
    return tasks


# -- rings --

def _random_matrix(rf, rng, F, s, rank=None):
    """A uniformly drawn s x s matrix, redrawn until it has the rank
    (full rank by default)."""
    want = s if rank is None else rank
    while True:
        M = rng.integers(0, F.q, size=(s, s), dtype=np.int64)
        if M.any() and rf.linalg.rank(F, M) == want:
            return M


def _iso_tasks(rf, rng):
    """An isomorphic and a non-isomorphic pair at GF(5), s=3, t=1.

    The partner D is A moved by equivalent_spec with a random invertible C
    and a random nonzero B, so it is isomorphic by construction.  The
    partner E has rank 2 where A has rank 3; rank is invariant under
    congruence, scaling and Frobenius, so no witness exists.
    """
    F = rf.GF(5)
    A = _random_matrix(rf, rng, F, 3)
    spec_a = rf.RingSpec(F, 3, 1, 0, A[None], (0, 0, 0), (0,))
    C = _random_matrix(rf, rng, F, 3)
    B = np.array([[rng.integers(1, F.q)]], dtype=np.int64)
    spec_d = rf.equivalent_spec(spec_a, C, B=B)
    E = _random_matrix(rf, rng, F, 3, rank=2)
    spec_e = rf.RingSpec(F, 3, 1, 0, E[None], (0, 0, 0), (0,))
    for spec in (spec_a, spec_d, spec_e):
        rf.Ring(spec)

    def check_same(w):
        if w is None:
            return "no witness for an isomorphic pair"
        if not rf.rings.verify_witness(spec_a, spec_d, w):
            return "witness fails verify_witness"
        return None

    def check_distinct(w):
        return None if w is None else "witness returned for a rank-2 partner"

    return [
        Task("iso_test GF(5) s=3 t=1 isomorphic", "iso_same",
             lambda: rf.rings.iso_test(spec_a, spec_d), check_same,
             lambda w: {"witness": w is not None}),
        Task("iso_test GF(5) s=3 t=1 distinct", "iso_distinct",
             lambda: rf.rings.iso_test(spec_a, spec_e), check_distinct,
             lambda w: {"witness": w is not None}),
    ]


def _structure_task(rf, rng):
    """ring_structure at order 3^7 on a seeded presentation of one ring.

    The base ring has A_1 = E11 and A_2 = E12 + E21 over GF(3), s=3, t=2,
    lambda=1.  Both are symmetric and independent, so the ring is
    commutative with dim M^2 = t = 2; U vector e3 is killed on both sides,
    so dim ann M = 1 + t + lambda = 4.  A random base change and
    recombination keep all of this.
    """
    F = rf.GF(3)
    base = np.zeros((2, 3, 3), dtype=np.int64)
    base[0, 0, 0] = 1
    base[1, 0, 1] = base[1, 1, 0] = 1
    spec0 = rf.RingSpec(F, 3, 2, 1, base, (0, 0, 0), (0, 0, 0))
    spec = rf.equivalent_spec(spec0, _random_matrix(rf, rng, F, 3),
                              B=_random_matrix(rf, rng, F, 2))
    rf.Ring(spec)
    expected = {"order": 3 ** 7, "invariants": [3, 7, 1, 3, 2, 1],
                "radical_dims": [6, 2, 4], "commutative": True, "f_central": True}

    def check(rep):
        got = rep.to_dict()
        return None if got == expected else f"structure {got} != {expected}"

    # a fresh Ring per call: the Ring caches its multiplication table
    return Task("ring_structure GF(3) order 3^7", "structure",
                lambda: rf.rings.ring_structure(rf.Ring(spec)), check,
                lambda rep: rep.to_dict())


def _axiom_task(rf, name, spec, mode, **kw):
    if mode == "exhaustive":
        triples, singles = spec.order ** 3, spec.order
    else:
        triples = singles = kw.get("samples", 20000)    # check_axioms' default
    counts = {"associativity": triples, "left_distributivity": triples,
              "right_distributivity": triples, "characteristic": singles}

    def check(rep):
        if not rep.ok:
            return f"axioms fail: {rep.counterexample}"
        if rep.mode != mode or rep.checked != counts:
            return f"checked {rep.mode} {rep.checked} != {mode} {counts}"
        return None

    return Task(name, "axioms",
                lambda: rf.rings.check_axioms(rf.Ring(spec), mode=mode, **kw),
                check, lambda rep: {"ok": rep.ok})


def _axiom_tasks(rf, rng):
    """Every valid presentation is a ring, so each check must report ok."""
    F3 = rf.GF(3)
    spec81 = rf.RingSpec(F3, 2, 1, 0, _random_matrix(rf, rng, F3, 2)[None],
                         (0, 0), (0,))
    F16 = rf.GF(2, 4)
    A16 = np.stack([_random_matrix(rf, rng, F16, 2) for _ in range(2)])
    while rf.linalg.rank(F16, A16.reshape(2, 4)) != 2:
        A16 = np.stack([_random_matrix(rf, rng, F16, 2) for _ in range(2)])
    spec16 = rf.RingSpec(F16, 2, 2, 1, A16, (1, 1),
                         (2, 2, int(rng.integers(0, 4))))
    F65536 = rf.GF(2, 16)
    spec65536 = rf.RingSpec(F65536, 2, 1, 1, _random_matrix(rf, rng, F65536, 2)[None],
                            (3, 3), (6, int(rng.integers(0, 16))))
    for spec in (spec81, spec16, spec65536):
        rf.Ring(spec)
    seed16, seed65536 = (int(x) for x in rng.integers(0, 2 ** 31, size=2))
    return [
        _axiom_task(rf, "check_axioms exhaustive GF(3) order 81", spec81,
                    "exhaustive"),
        _axiom_task(rf, "check_axioms sampled GF(16) 200k", spec16, "sampled",
                    seed=seed16, samples=200_000),
        _axiom_task(rf, "check_axioms sampled GF(2^16)", spec65536, "sampled",
                    seed=seed65536),
    ]


def _rings(rf, rng):
    return _iso_tasks(rf, rng) + [_structure_task(rf, rng)] + _axiom_tasks(rf, rng)


WORKLOADS = {
    "prime-classify": _prime_classify,
    "extension-classify": _extension_classify,
    "rings": _rings,
}


def build(rf, workload: str, seed: int) -> list:
    """Set-up: every input of the workload, made from the seed."""
    return WORKLOADS[workload](rf, np.random.default_rng(seed))


def classify_actions(rf, F, report) -> "tuple[int, int]":
    """(group images the engine computes, objects classified), from outside.

    A sweep computes classes x |G| x r images (r Frobenius powers when the
    twist applies), BFS computes N x (generators + 1), and the congruence
    sweep classes x |G|.
    """
    p = report.params
    s = p["s"]
    if report.kind == "congruence":
        return report.class_count * rf.gl.gl_order(F.q, s), report.total_objects
    if report.strategy == "sweep":
        r = F.r if (p["use_frobenius"] and F.r > 1) else 1
        return (report.class_count * rf.gl.gl_order(F.q, s) * r,
                report.total_objects)
    gens = len(rf.gl.gl_generators(F, s))
    return report.total_objects * (gens + 1), report.total_objects
