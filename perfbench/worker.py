"""One benchmark process: set-up, then the closed loop over a workload.

run.py starts this script and times it from process start to the
``ready`` line it prints once set-up is done.  With ``--setup-only`` the
process stops there.  Otherwise one client runs the workload's tasks one
after another, cycling through the list, until the next task would end
after ``--seconds``; the first pass always completes.  The last line of
standard output is a JSON object with the per-task times and metrics.

With ``--trace 1`` the layers are wrapped from outside (spans.py), set-up
included, and the per-layer metrics replace the end-to-end ones.  The
spans are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_ringforge():
    """Import ringforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "ringforge" / "__init__.py").is_file():
        raise SystemExit(f"no ringforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringforge

    if Path(ringforge.__file__).resolve().parent != (SRC / "ringforge").resolve():
        raise SystemExit(f"imported ringforge from {ringforge.__file__}, not {SRC}")
    return ringforge


def layer_metrics(delta, wrapped, selfs, cost, kind, seconds, actions, max_nbytes):
    """Per-layer metrics of one task run (or of set-up) from a tracer delta."""
    def get(name, field):
        return delta.get(name, {}).get(field, 0)

    m = {
        "matspace.subspace_rows_s": get("matspace.subspace_rows", "total_s"),
        "matspace.ground_objects": get("matspace.subspace_rows", "items"),
        "linalg.rref_batch_s": get("linalg.rref_batch", "total_s"),
        "linalg.rref_batch_items": get("linalg.rref_batch", "items"),
        "linalg.rref_s": get("linalg.rref", "total_s"),
        "linalg.rref_calls": get("linalg.rref", "calls"),
        "linalg.linmap_apply_s": get("linalg.linmap_apply", "total_s"),
        "linalg.linmap_apply_items": get("linalg.linmap_apply", "items"),
        "linalg.kron_batch_s": get("linalg.kron_batch", "total_s"),
        "linalg.encode_rows_s": get("linalg.encode_rows", "total_s"),
        "gl.enumerate_gl_s": get("gl.enumerate_gl", "total_s"),
        "gl.enumerate_gl_calls": get("gl.enumerate_gl", "calls"),
        "gl.group_elems": get("gl.enumerate_gl", "items"),
        "gl.det_batch_s": get("gl.det_batch", "total_s"),
        "gf.build_s": get("gf.build", "total_s"),
        "gf.mul_raw_s": get("gf.mul_raw", "total_s"),
        "gf.mul_raw_calls": get("gf.mul_raw", "calls"),
        "gf.add_raw_s": get("gf.add_raw", "total_s"),
        "gf.add_raw_calls": get("gf.add_raw", "calls"),
        "gf.frob_raw_s": get("gf.frob_raw", "total_s"),
        "gf.gather_elems": sum(get(n, "items") for n in
                               ("gf.mul_raw", "gf.add_raw", "gf.frob_raw")),
        "classify.sweep_self_s": get("classify.sweep", "self_s"),
        "classify.bfs_self_s": get("classify.bfs", "self_s"),
        "classify.congruence_self_s": get("classify.congruence", "self_s"),
        "classify.sweep_tasks": get("classify.sweep", "calls"),
        "classify.bfs_tasks": get("classify.bfs", "calls"),
        "classify.actions": actions[0],
        "classify.objects": actions[1],
        "rings.iso_test_self_s": get("rings.iso_test", "self_s"),
        # iso_test solves one system per candidate C when t = 1
        "rings.iso_candidates": get("linalg.solve", "calls") if kind.startswith("iso")
        else 0,
        "rings.verify_witness_s": get("rings.verify_witness", "total_s"),
        "rings.verify_witness_calls": get("rings.verify_witness", "calls"),
        "rings.mul_table_s": get("rings.mul_table", "total_s"),
        "rings.mul_batch_s": get("rings.mul_batch", "total_s"),
        "rings.mul_batch_elems": get("rings.mul_batch", "items"),
        "rings.mul_calls": get("rings.mul", "calls"),
        "rings.ring_structure_self_s": get("rings.ring_structure", "self_s"),
        "rings.check_axioms_self_s": get("rings.check_axioms", "self_s"),
        "trace.max_array_mb": max_nbytes / 2 ** 20,
        "trace.overhead_s": wrapped["span"] * cost["span"] + wrapped["agg"] * cost["agg"],
    }
    for k in workloads.KINDS:
        m[f"task.{k}_s"] = seconds if kind == k else 0.0
    for name, v in selfs.items():
        m["self:" + name] = v
    return m


def run_loop(tasks, seconds, tracer, cost):
    """Closed loop; returns per-task samples and, traced, per-run metrics."""
    n = len(tasks)
    samples = [[] for _ in tasks]
    layers = [[] for _ in tasks]
    records = [None] * n
    errors = []
    ranges = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % n
        if i >= n and time.perf_counter() + statistics.median(samples[k]) > deadline:
            break
        task = tasks[k]
        mark = tracer.mark() if tracer else None
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = task.call()
            err = None
        except Exception as exc:      # a raising task is a failed task
            out, err = None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        if err is None:
            try:
                err = task.check(out)
                if records[k] is None:
                    records[k] = task.record(out)
            except Exception as exc:
                err = f"check raised {exc!r}"
        attempted += 1
        if err is not None:
            failed += 1
            errors.append({"task": task.name, "error": err})
        samples[k].append(dt)
        if tracer:
            delta, wrapped, selfs = tracer.delta(mark)
            actions = task.actions(out) if (task.actions and err is None) else (0, 0)
            layers[k].append(layer_metrics(delta, wrapped, selfs, cost, task.kind, dt,
                                           actions, tracer.max_nbytes))
            # spans of one task run share this label
            ranges.append((f"{task.name} [run {i}]", mark[0], len(tracer.spans)))
        i += 1
    return samples, layers, records, errors, attempted, failed, ranges


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rf = import_ringforge()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    tracer = cost = None
    if args.trace:
        tracer = spans.Tracer()
        cost = spans.wrapper_cost()
        tracer.install(rf)
        mark = tracer.mark()
        tracer.active = True
    t0 = time.perf_counter()
    tasks = workloads.build(rf, args.workload, args.seed)
    setup_in_process = time.perf_counter() - t0
    if tracer:
        tracer.active = False
        delta, wrapped, selfs = tracer.delta(mark)
        setup_layers = layer_metrics(delta, wrapped, selfs, cost, "setup",
                                     setup_in_process, (0, 0), tracer.max_nbytes)
        setup_range = ("setup", mark[0], len(tracer.spans))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    samples, layers, records, errors, attempted, failed, ranges = run_loop(
        tasks, args.seconds, tracer, cost)
    per_task = [statistics.median(s) for s in samples]
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "tasks": [
            {"name": t.name, "kind": t.kind, "runs": len(s), "median_s": med,
             "samples_s": s, "output": rec}
            for t, s, med, rec in zip(tasks, samples, per_task, records)
        ],
    }
    kinds = {}
    for t, med in zip(tasks, per_task):
        kinds[f"{t.kind}_s"] = kinds.get(f"{t.kind}_s", 0.0) + med
    result["kinds"] = kinds
    if tracer:
        metrics = dict(setup_layers)
        for runs in layers:
            for name in set().union(*runs):
                v = statistics.median(r.get(name, 0) for r in runs)
                if name == "trace.max_array_mb":
                    metrics[name] = max(metrics[name], v)
                else:
                    metrics[name] = metrics.get(name, 0) + v
        objects = metrics.pop("classify.objects")
        metrics["classify.useful_ratio"] = (
            objects / metrics["classify.actions"] if metrics["classify.actions"] else 0.0)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, [setup_range] + ranges)
        tracer.uninstall()
        result["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {"wall_s": sum(per_task)}
        metrics.update(kinds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
