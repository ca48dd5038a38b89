#!/usr/bin/env python3
"""End-to-end benchmark for deproto: build, run, compare.

Run one workload (builds the benchmark binary first; the build log goes to
stderr):

    python3 e2e_bench/run.py --workload sweep-sync --seed 1 --seconds 18 --trace 0

The last stdout line is the JSON summary {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Every run also writes .bench_results/<workload>-seed<n>-
trace<t>.json (run environment, metrics, tail percentile, failures) and,
traced, a .trace.json span file.

Compare two sets of result files (directories or files): per metric and
workload, each side's quartiles and whether the medians agree within the
bounds of BENCHMARK.json; counts that are exact per seed must match.
--gain adds the win count over seed-paired runs (a gain needs at least
nine wins in ten and a median shift beyond the base side's quartile
spread):

    python3 e2e_bench/run.py compare BASE_DIR --change CHANGE_DIR [--gain METRIC]

Re-record the exact-verify reference values (after an intended change to
the exact chain's numbers):

    python3 e2e_bench/run.py record-exact
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "deproto-e2e-bench"


def build():
    """Configure (once) and build the binary; returns its path or None."""
    out = ROOT / ".bench_build" / "e2e"
    jobs = str(os.cpu_count() or 1)
    log = sys.stderr
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        return None
    return out / BINARY


def run_workload(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes (the smoke test)")
    p.add_argument("--inject-wrong-majority", action="store_true",
                   help="seed one job against its expectation")
    p.add_argument("--results-dir", default=str(ROOT / ".bench_results"))
    a = p.parse_args(argv)
    binary = build()
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--results-dir", a.results_dir,
           "--work-dir", str(ROOT / ".bench_work"),
           "--exact-reference", str(HERE / "exact_reference.json")]
    if a.quick:
        cmd.append("--quick")
    if a.inject_wrong_majority:
        cmd.append("--inject-wrong-majority")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def record_exact():
    binary = build()
    if binary is None:
        return 1
    return subprocess.run([str(binary), "--record-exact-reference",
                           str(HERE / "exact_reference.json")]).returncode


# --- compare mode ---------------------------------------------------------

# Per-layer metrics that are exact per seed: both sides must match.
EXACT_COUNTS = (
    "sim.event.messages_per_node_period", "api.json_kb_per_job",
    "api.cache.hit_frac", "dist.frames_per_job", "dist.retries",
    "dist.restarts", "analysis.exact.kernel_nnz",
    "analysis.exact.repeated_machine_frac",
)


def load_results(paths):
    runs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            if f.name.endswith(".trace.json"):
                continue
            doc = json.loads(f.read_text())
            if "env" in doc and "metrics" in doc:
                runs.append(doc)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base", nargs="+", help="result files or directories")
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--gain", help="metric claimed to improve: seed-paired win count")
    a = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load_results(a.base), load_results(a.change)]
    if not sides[0] or not sides[1]:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    envs = {json.dumps({k: r["env"][k] for k in ("nproc", "compiler",
                                                  "build_type")})
            for side in sides for r in side}
    if len(envs) > 1:
        print("warning: the two sides ran in different environments:")
        for e in sorted(envs):
            print("  ", e)

    def table(side):
        t = {}
        for r in side:
            w = r["env"]["workload"]
            for name, m in r["metrics"].items():
                t.setdefault((w, name), {})[r["env"]["seed"]] = m["value"]
        return t

    base, change = table(sides[0]), table(sides[1])
    status = 0
    print(f"{'workload':15} {'metric':38} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  verdict")
    for key in sorted(set(base) & set(change)):
        w, name = key
        bv, cv = base[key], change[key]
        bq, cq = quartiles(list(bv.values())), quartiles(list(cv.values()))
        if name in EXACT_COUNTS:
            shared = set(bv) & set(cv)
            ok = all(bv[s] == cv[s] for s in shared)
            verdict = "exact match" if ok else "COUNTS DIFFER"
        elif name in bounds:
            bound = bounds[name]["bound"]
            rel = cq[1] / bq[1] - 1.0 if bq[1] else 0.0
            worse = rel if better[name] == "lower" else -rel
            ok = worse <= bound
            verdict = f"{rel:+.3f} {'agrees' if abs(rel) <= bound else ('WORSE' if worse > bound else 'better')} (bound {bound})"
        else:
            ok = True
            rel = cq[1] / bq[1] - 1.0 if bq[1] else 0.0
            verdict = f"{rel:+.3f} (no bound)"
        if not ok:
            status = 1
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{w:15} {name:38} {fmt(bq):>32} {fmt(cq):>32}  {verdict}")

    if a.gain:
        print(f"\nwin count for {a.gain}:")
        for w in sorted({k[0] for k in base if k[1] == a.gain}):
            bv, cv = base.get((w, a.gain), {}), change.get((w, a.gain), {})
            seeds = sorted(set(bv) & set(cv))
            if not seeds:
                continue
            lower = better.get(a.gain, "lower") == "lower"
            wins = sum((cv[s] < bv[s]) if lower else (cv[s] > bv[s])
                       for s in seeds)
            bq, cq = quartiles([bv[s] for s in seeds]), quartiles(
                [cv[s] for s in seeds])
            spread = bq[2] - bq[0]
            claim = (wins >= 0.9 * len(seeds)
                     and abs(cq[1] - bq[1]) > spread)
            print(f"  {w:15} wins {wins}/{len(seeds)}  medians "
                  f"{bq[1]:.4g} -> {cq[1]:.4g}  base IQR {spread:.4g}  "
                  f"{'GAIN' if claim else 'no gain claimed'}")
    return status


def main(argv):
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    if argv and argv[0] == "record-exact":
        return record_exact()
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
