"""Command line front end.

Subcommands mirror the library surface: orbit classification of matrix
tuples and of single matrices, the closed-form counts, ring construction
with axiom checking, isomorphism testing between presentation files, the
hard-coded representative lists, and a self-check suite.  Output is JSON
(indent 2, stable ordering) or CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .classify import (BudgetExceededError, classify_congruence,
                       classify_subspaces, orbit_of)
from .counting import (NotCoveredError, congruence_class_count, count_s1,
                       count_t_full, gaussian_binomial, predicted_count)
from .gf import GF
from .matspace import bilinear_class_reps, symmetric_reps
from .rings import (Ring, RingSpec, check_axioms, equivalent_spec, iso_test,
                    ring_structure, verify_witness)


def _np_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _emit(args, payload, csv_rows=None):
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            csv_rows = [["key", "value"]] + [
                [k, json.dumps(v, default=_np_default)] for k, v in payload.items()
            ]
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerows(csv_rows)
    else:
        print(json.dumps(payload, indent=2, default=_np_default))


def _field(args) -> GF:
    return GF(args.p, args.r)


# -- subcommands --

def _cmd_classify(args) -> int:
    F = _field(args)
    report = classify_subspaces(F, args.s, args.t, use_frobenius=not args.no_frobenius)
    _emit(args, report.to_dict(), report.to_csv_rows())
    return 0


def _cmd_congruence(args) -> int:
    F = _field(args)
    report = classify_congruence(F, args.s, symmetric_only=args.symmetric_only)
    _emit(args, report.to_dict(), report.to_csv_rows())
    return 0


def _cmd_count(args) -> int:
    q = args.p ** args.r
    payload = {"kind": args.kind}
    if args.kind == "congruence":
        payload.update({"q": q, "s": args.s, "value": congruence_class_count(q, args.s)})
    elif args.kind == "subspaces":
        payload.update({
            "q": q, "s": args.s, "t": args.t,
            "value": gaussian_binomial(args.s * args.s, args.t, q),
        })
    elif args.kind == "s1":
        payload.update({"r": args.r, "lambda": args.lam,
                        "value": count_s1(args.r, args.lam)})
    elif args.kind == "t-full":
        payload.update({"r": args.r, "s": args.s, "lambda": args.lam,
                        "value": count_t_full(args.r, args.s, args.lam)})
    else:  # predicted
        pred = predicted_count(args.p, args.r, args.s, args.t, args.lam)
        payload.update({
            "p": pred.p, "s": pred.s, "t": pred.t,
            "value": pred.value, "commutative": pred.commutative,
            "status": pred.status, "source": pred.source,
        })
    rows = [["key", "value"]] + [[k, v] for k, v in payload.items()]
    _emit(args, payload, rows)
    return 0


def _load_spec(path: str) -> RingSpec:
    with open(path) as fh:
        return RingSpec.from_dict(json.load(fh))


def _cmd_iso(args) -> int:
    specA = _load_spec(args.left)
    specD = _load_spec(args.right)
    witness = iso_test(specA, specD)
    payload = {
        "isomorphic": witness is not None,
        "witness": witness.to_dict() if witness is not None else None,
    }
    _emit(args, payload)
    return 0


def _cmd_ring(args) -> int:
    spec = _load_spec(args.spec)
    ring = Ring(spec)
    payload = {"spec": ring.spec.to_dict(),
               "structure": ring_structure(ring).to_dict()}
    if args.axioms:
        payload["axioms"] = check_axioms(ring, mode=args.axioms,
                                         seed=args.seed).to_dict()
    if args.table:
        payload["table"] = ring.mul_table()
    _emit(args, payload)
    return 0


def _cmd_reps(args) -> int:
    F = _field(args)
    if args.kind == "symmetric":
        reps = symmetric_reps(F, args.s)
    else:
        reps = bilinear_class_reps(F, args.s)
    payload = {
        "kind": args.kind, "p": F.p, "r": F.r, "q": F.q, "s": args.s,
        "count": len(reps),
        "reps": [[[int(x) for x in row] for row in M] for M in reps],
    }
    rows = [["index", "rep"]]
    for i, M in enumerate(reps):
        rows.append([i, "-".join(str(int(x)) for x in np.asarray(M).ravel())])
    _emit(args, payload, rows)
    return 0


# -- self checks --

def _checks(scope: str) -> list:
    """(name, source, expected, thunk) rows; thunks return the measured value."""

    def classes(p, r, s, t, **kw):
        return lambda: classify_subspaces(GF(p, r), s, t, **kw).class_count

    def congr(p, r, s, **kw):
        return lambda: classify_congruence(GF(p, r), s, **kw).class_count

    def scalar_pair():
        F4 = GF(2, 2)
        a = RingSpec(F4, 1, 1, 1, np.array([[[2]]]), (1,), (0, 1))
        d = RingSpec(F4, 1, 1, 1, np.array([[[3]]]), (1,), (0, 1))
        w = iso_test(a, d)
        return w is not None and verify_witness(a, d, w, exhaustive=True)

    def twisted_pair():
        a = RingSpec(GF(3, 2), 2, 1, 0, np.array([[[3, 8], [0, 2]]]), (1, 1), (0,))
        d = equivalent_spec(a, [[2, 2], [3, 4]], sigma_e=1, B=[[5]])
        w = iso_test(a, d)
        return w is not None and verify_witness(a, d, w)

    def order16():
        F = GF(2)
        spec = RingSpec(F, 2, 1, 0, np.array([[[1, 0], [0, 1]]]), (0, 0), (0,))
        return check_axioms(Ring(spec), mode="exhaustive").ok

    rows = [
        ("congruence classes, s=2 over GF(3)", "closed form q+7 for odd q",
         congruence_class_count(3, 2), congr(3, 1, 2)),
        ("congruence classes, s=3 over GF(2)", "closed form 2q+8 for even q",
         congruence_class_count(2, 3), congr(2, 1, 3)),
        ("symmetric classes, s=2 over GF(3)",
         "rank classes split by square class, plus the zero class",
         5, lambda: classify_congruence(GF(3), 2, symmetric_only=True).class_count),
        ("plane classes, s=2 t=2 over GF(2)", "generator BFS",
         10, classes(2, 1, 2, 2)),
        ("plane classes, s=2 t=3 over GF(2)", "generator BFS",
         5, classes(2, 1, 2, 3)),
        ("scalar presentation count, r=2 lambda=1", "r * C(r+lambda-1, lambda)",
         4, lambda: count_s1(2, 1)),
        ("full-span count, r=2 s=2 lambda=1", "C(r+s-1, s) * C(r+lambda-1, lambda)",
         6, lambda: count_t_full(2, 2, 1)),
        ("predicted classes, p=3 s=2 t=2", "3p+5, measured and verified",
         (14, "verified"),
         lambda: (lambda pr: (pr.value, pr.status))(predicted_count(3, 1, 2, 2))),
        ("predicted classes, p=5 s=2 t=3", "p+4, open beyond p=2",
         (9, "conjectured"),
         lambda: (lambda pr: (pr.value, pr.status))(predicted_count(5, 1, 2, 3))),
        ("scalar-ring isomorphism witness",
         "witness search over GF(4), rechecked on every element pair",
         True, scalar_pair),
        ("axioms of an order-16 presentation", "exhaustive triple walk",
         True, order16),
    ]
    if scope == "full":
        rows += [
            ("plane classes, s=2 t=2 over GF(3)", "generator BFS",
             14, classes(3, 1, 2, 2)),
            ("plane classes, s=2 t=2 over GF(5)", "generator BFS",
             20, classes(5, 1, 2, 2)),
            ("plane classes, s=2 t=2 over GF(7)", "generator BFS",
             26, classes(7, 1, 2, 2)),
            ("plane classes, s=2 t=3 over GF(3)", "generator BFS",
             7, classes(3, 1, 2, 3)),
            ("plane classes, s=2 t=3 over GF(5)", "generator BFS",
             9, classes(5, 1, 2, 3)),
            ("plane classes, s=3 t=2 over GF(2)", "generator BFS",
             322, classes(2, 1, 3, 2)),
            ("commutative-capable planes, s=3 t=2 over GF(2)",
             "all-symmetric classes; generator BFS and the subspace sweep agree",
             15, lambda: sum(
                 1 for c in classify_subspaces(GF(2), 3, 2).classes
                 if c.commutative_capable)),
            ("congruence classes, s=3 over GF(3)", "closed form 3q+16 for odd q",
             congruence_class_count(3, 3), congr(3, 1, 3)),
            ("congruence classes, s=3 over GF(7)", "closed form 3q+16 for odd q",
             congruence_class_count(7, 3), congr(7, 1, 3)),
            ("line classes, s=3 over GF(3)",
             "scaling merges p+6 congruence pairs; sweep, generator BFS, and "
             "a raw minimum-over-group scan agree",
             15, classes(3, 1, 3, 1)),
            ("twisted isomorphism witness, s=2 over GF(9)",
             "orbit transporter of A -> C^T A Frob(C), C off the fixed subfield, "
             "checked on basis pairs",
             True, twisted_pair),
            ("listed plane reps are pairwise inequivalent, s=2 over GF(5)",
             "q+7 canonical orbits",
             congruence_class_count(5, 2),
             lambda: len({
                 tuple(map(tuple, orbit_of(GF(5), M).canonical_rep))
                 for M in bilinear_class_reps(GF(5), 2)})),
        ]
    return rows


def _cmd_verify(args) -> int:
    results = []
    ok = True
    for name, source, expected, thunk in _checks(args.scope):
        t0 = time.perf_counter()
        try:
            measured = thunk()
        except Exception as exc:  # a crashed check is a failed check
            measured = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        passed = measured == expected
        ok = ok and passed
        results.append({
            "name": name,
            "expected": expected,
            "measured": measured,
            "status": "PASS" if passed else "FAIL",
            "seconds": round(dt, 3),
            "source": source,
        })
    if args.format != "table":
        cols = ["name", "expected", "measured", "status", "seconds", "source"]
        _emit(args, {"scope": args.scope, "ok": ok, "checks": results},
              [cols] + [[row[k] for k in cols] for row in results])
    else:
        width = max(len(r["name"]) for r in results)
        for row in results:
            print(f"{row['name']:<{width}}  {row['status']}  "
                  f"expected={row['expected']}  measured={row['measured']}  "
                  f"[{row['seconds']:.3f}s]  {row['source']}")
        print(f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
              f"({sum(r['status'] == 'PASS' for r in results)}/{len(results)})")
    return 0 if ok else 1


# -- parser --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringforge",
        description="classification toolkit for finite characteristic-p rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--r", type=int, default=1, help="extension degree")

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="orbits of t-dimensional matrix spaces")
    add_field(p)
    p.add_argument("--s", type=int, required=True, help="matrix size")
    p.add_argument("--t", type=int, required=True, help="space dimension")
    p.add_argument("--no-frobenius", action="store_true",
                   help="congruence twists only, no field automorphisms")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("congruence", help="congruence orbits of single matrices")
    add_field(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--symmetric-only", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_congruence)

    p = sub.add_parser("count", help="closed-form counts")
    add_field(p)
    p.add_argument("--kind", required=True,
                   choices=("congruence", "subspaces", "s1", "t-full", "predicted"))
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("iso", help="isomorphism test between two presentation files")
    p.add_argument("--left", required=True, help="JSON presentation file")
    p.add_argument("--right", required=True, help="JSON presentation file")
    add_format(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("ring", help="build a ring and report its structure")
    p.add_argument("--spec", required=True, help="JSON presentation file")
    p.add_argument("--axioms", choices=("exhaustive", "sampled"), default=None)
    p.add_argument("--table", action="store_true",
                   help="include the multiplication table (small rings only)")
    p.add_argument("--seed", type=int, default=42)
    add_format(p)
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("reps", help="hard-coded representative lists")
    add_field(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--kind", choices=("symmetric", "bilinear"), default="bilinear")
    add_format(p)
    p.set_defaults(func=_cmd_reps)

    p = sub.add_parser("verify", help="run the self-check table")
    p.add_argument("--scope", choices=("fast", "full"), default="fast")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotCoveredError, BudgetExceededError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
