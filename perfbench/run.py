"""ringforge benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the ringforge under src/ is benchmarked.
Workloads are defined in perfbench/workloads.py, metric names and units in
BENCHMARK.json.  The run starts worker.py once for set-up plus the closed
loop, and, untraced, twice more for set-up only: once before the loop and
once after it.  ``setup_s`` is the median of the three times from process
start to each worker's ``ready`` line.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
one traced worker gives the per-layer metrics instead.  The last line of
standard output is the result as JSON.  A failed output check makes the
run exit with code 1; a failed set-up, such as missing sources, makes it
exit with code 2.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
# a worker that outlives its run by this much is stopped
GRACE_S = 150


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    """What a before/after comparison needs to know about this run."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    env["git_commit"] = env["git_dirty_paths"] = None
    # only look for git inside the checkout, never in a directory above it
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout
        env["git_commit"] = git("rev-parse", "HEAD").strip()
        env["git_dirty_paths"] = [line[3:] for line in git(
            "status", "--porcelain", "--untracked-files=no").splitlines()]
    return env


class SetupError(RuntimeError):
    """A worker ended before it printed its ``ready`` line."""


def start_worker(args, setup_only: bool):
    """Start a worker; return (process, seconds until its ready line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait()
        raise SetupError(f"worker exited with code {proc.returncode} during set-up")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def setup_sample(args) -> float:
    proc, ready = start_worker(args, setup_only=True)
    finish(proc, GRACE_S)
    return ready


def measure(args) -> dict:
    """Run the loop's worker; untraced, take a set-up sample before and after."""
    setups = [] if args.trace else [setup_sample(args)]
    proc, ready = start_worker(args, setup_only=False)
    setups.append(ready)
    result = json.loads(finish(proc, args.seconds + GRACE_S).splitlines()[-1])
    if not args.trace:
        setups.append(setup_sample(args))
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    try:
        result = measure(args)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for t in result["tasks"]:
        print(f"task  {t['median_s']:10.4f} s  x{t['runs']}  {t['name']}  "
              + json.dumps(t["output"], sort_keys=True))
    for e in result["errors"]:
        print(f"FAILED  {e['task']}: {e['error']}")
    got = result["metrics"]
    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"metric  {name:32s} {m['value']:14.6f} {m['unit']}")
    if not args.trace:
        for name, v in sorted(result["kinds"].items()):
            print(f"kind    {name:32s} {v:14.6f} s")
        print("setup samples  " + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
    else:
        selfs = sorted(((v, k[5:]) for k, v in got.items() if k.startswith("self:")),
                       reverse=True)
        for v, name in selfs[:15]:
            print(f"self    {name:45s} {v:12.6f} s")
        print(f"spans written to {result['spans_file']}")
    attempted, failed = result["attempted"], result["failed"]
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"full result written to {path.relative_to(ROOT)}")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
