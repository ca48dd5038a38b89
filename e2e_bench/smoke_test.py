#!/usr/bin/env python3
"""Quick-size smoke test of the end-to-end benchmark itself.

    python3 e2e_bench/smoke_test.py

Runs every workload of BENCHMARK.json tiny (--quick: two small batches),
untraced and traced, and checks that:
  * each run exits 0 and ends with the JSON summary, exactly the keys
    correct/attempted/failed/metrics, with correct == true and failed == 0
    (failed_frac 0);
  * every end-to-end (untraced) and per-layer (traced) metric prints by
    name with its unit;
  * the result file carries the run environment and the trace file parses
    into well-formed spans, from both the layer-by-layer batch and the
    SuiteRunner batch;
  * a job seeded with the wrong majority registers as a failure;
  * compare mode accepts a set of runs against itself.
Exits nonzero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results" / "smoke"


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "5", "--trace", str(trace), "--quick",
           "--results-dir", str(RESULTS), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: summary keys {sorted(summary)}")
    return summary, "\n".join(lines[:-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            summary, text = run(w, trace)
            if not summary["correct"] or summary["failed"] != 0:
                fail(f"{w} trace={trace}: {summary['failed']} of "
                     f"{summary['attempted']} jobs failed")
            if summary["attempted"] < 1:
                fail(f"{w}: no jobs attempted")
            for m in names:
                got = summary["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail(f"{w} trace={trace}: metric {m['name']} missing or "
                         f"unit {got and got['unit']} != {m['unit']}")
                if not any(line.split()[:1] == [m["name"]] and
                           line.split()[-1] == m["unit"]
                           for line in text.splitlines()):
                    fail(f"{w}: {m['name']} not printed with its unit")
            stem = RESULTS / f"{w}-seed1-trace{trace}-quick"
            result = json.loads(Path(f"{stem}.json").read_text())
            for key in ("nproc", "compiler", "build_type", "git_revision",
                        "seed"):
                if key not in result["env"]:
                    fail(f"{w}: result file lacks env.{key}")
            if result["extra"]["failed_frac"] != 0:
                fail(f"{w}: failed_frac {result['extra']['failed_frac']}")
            if trace:
                spans = json.loads(Path(f"{stem}.trace.json").read_text())
                ids = {s["id"] for s in spans["spans"]}
                for s in spans["spans"]:
                    if s["end"] < s["start"] or (s["parent"] >= 0 and
                                                 s["parent"] not in ids):
                        fail(f"{w}: malformed span {s}")
                names = {s["name"] for s in spans["spans"]}
                if "job" not in names:
                    fail(f"{w}: no job spans in the trace")
                if w != "exact-verify" and "api.suite.run" not in names:
                    fail(f"{w}: no SuiteRunner batch in the trace")
        print(f"ok  {w}")

    summary, _ = run("sweep-sync", 0, "--inject-wrong-majority")
    if summary["correct"] or summary["failed"] < 1:
        fail("a job seeded with the wrong majority was not counted as failed")
    print("ok  wrong-majority job registers as a failure "
          f"({summary['failed']} of {summary['attempted']})")
    # The injected run shares its result file name with the clean one;
    # rerun the clean one so the compare below sees only clean results.
    run("sweep-sync", 0)

    p = subprocess.run([sys.executable, str(HERE / "run.py"), "compare",
                        str(RESULTS), "--change", str(RESULTS)],
                       capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"compare of a run set against itself:\n{p.stdout}{p.stderr}")
    print("ok  compare")
    print("smoke test passed")


if __name__ == "__main__":
    main()
