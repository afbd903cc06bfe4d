"""Steadiness check: two sets of seeded runs per workload, compared.

    python3 perfbench/steady.py --trace --out perfbench/out/steady.json

Every workload in BENCHMARK.json runs with seeds 1..5 in set 1 and 6..10
in set 2; within a set the workloads take turns.  For every end-to-end
metric and workload the report gives each set's median, the spread of all
runs (the distance between the first and third quartile as a share of the
median), and the drift, set 2's median against set 1's.  The two sets agree
when the drift, in either direction, and the spread are both within the
metric's bound in BENCHMARK.json.  ``--trace`` adds one traced run per
workload, so the per-layer metrics are recorded next to the end-to-end
ones.  The exit code is 1 when a spread or a drift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import environment, load_spec  # noqa: E402

RUNS_PER_SET = 5


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help="add one traced run each")
    ap.add_argument("--out", type=Path, default=HERE / "out" / "steady.json")
    args = ap.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for set_no in (1, 2):
        for j in range(RUNS_PER_SET):
            seed = 1 + (set_no - 1) * RUNS_PER_SET + j
            for w in names:
                values, res = run_once(w, seed, seconds, 0)
                runs.append({"set": set_no, "workload": w, "seed": seed,
                             "metrics": values, "attempted": res["attempted"],
                             "failed": res["failed"]})
                print(f"set {set_no} seed {seed:3d} {w:20s} "
                      + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)

    summary, ok = [], True
    for w in names:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name] for r in runs
                     if r["workload"] == w and r["set"] == s] for s in (1, 2)]
            med1, med2 = statistics.median(sets[0]), statistics.median(sets[1])
            worse = (med2 - med1) / med1
            if m["better"] == "higher":
                worse = -worse
            sp = spread(sets[0] + sets[1])
            row = {"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                   "median_set1": med1, "median_set2": med2, "drift": worse,
                   "spread": sp, "drift_ok": abs(worse) <= bound,
                   "spread_ok": sp <= bound,
                   "spread_below_third": sp <= bound / 3}
            ok &= row["drift_ok"] and row["spread_ok"]
            summary.append(row)
            print(f"{w:20s} {name:12s} median {med1:12.4f} / {med2:12.4f} {m['unit']:3s} "
                  f"drift {worse:+.4f}  spread {sp:.4f}  bound {bound}  "
                  f"{'ok' if row['drift_ok'] and row['spread_ok'] else 'OUT OF BOUND'}")

    traced = {}
    if args.trace:
        for w in names:
            values, _ = run_once(w, 1, seconds, 1)
            full = json.loads((HERE / "out" / f"result-{w}-seed1-trace1.json").read_text())
            selfs = {k[5:]: v for k, v in full["metrics"].items() if k.startswith("self:")}
            traced[w] = {"seed": 1, "metrics": values, "self_s": selfs}
            print(f"traced {w}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "environment": environment(), "run_seconds": seconds,
        "runs_per_set": RUNS_PER_SET, "runs": runs, "summary": summary,
        "traced": traced, "all_within_bounds": ok,
    }, indent=1) + "\n")
    print(f"written {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
