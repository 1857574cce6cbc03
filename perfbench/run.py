"""Benchmark of the subembed CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

--trace 0 runs the workload's CLI commands in fresh child processes,
closed-loop, for --seconds and prints the end-to-end metrics. --trace 1
runs the same commands in-process with spans recorded around the calls
into each subembed module and prints the per-layer metrics. Either way the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A result file with provenance goes to .perfbench_out/results/.

The benchmark builds nothing: it runs the checkout's own src/subembed, and
exits with status 2 without a result when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
from time import perf_counter

_ROOT = os.getcwd()
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import THREAD_VARS, provenance, thread_settings  # noqa: E402

# before numpy is first imported, so the in-process runs use the same BLAS
# thread count as the children
for _var in THREAD_VARS:
    os.environ.pop(_var, None)
os.environ.update(thread_settings())

from perfbench import traced, untraced  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
# every run must exit within 180 s; children are killed at this point
HARD_LIMIT_S = 165.0


def run_one(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workload = WORKLOADS[name]
    runner = traced if trace else untraced
    work = os.path.join(_ROOT, OUT_DIR, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = runner.run(workload, seed, seconds, _ROOT, _SRC, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = runner.UNITS
    tally = result["tally"]
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}

    results_dir = os.path.join(_ROOT, OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{name}-seed{seed}-trace{trace}")
    record = {
        "provenance": provenance(_ROOT, _SRC, name, seed, workload.parallelism),
        "seconds": seconds,
        "trace": trace,
        "why": workload.why,
        "sizes": workload.sizes,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "problems": tally.problems,
        "metrics": metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in result.get("extra", {}).items()},
        "detail": result["detail"],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with gzip.open(stem + ".spans.jsonl.gz", "wt") as fh:
            for row in result["spans"]:
                fh.write(json.dumps(row) + "\n")

    print(f"# {name}  seed={seed}  trace={trace}  ({stem}.json)")
    for k, m in metrics.items():
        print(f"{name:16s} {k:34s} {m['value']:14.6g} {m['unit']}")
    for k, (value, unit) in result.get("extra", {}).items():
        print(f"{name:16s} {k:34s} {value:14.6g} {unit}")
    print(f"{name:16s} {'error_rate':34s} {tally.error_rate:14.6g} ratio  ({tally.failed}/{tally.attempted} failed)")
    for problem in tally.problems:
        print(f"{name:16s} problem: {problem}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(_SRC, "subembed", "cli.py")):
        print(f"error: no subembed sources under {_SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        deadline = perf_counter() + HARD_LIMIT_S
        records[name] = run_one(name, args.seed, args.seconds, args.trace, deadline)
    if len(names) == 1:
        rec = records[names[0]]
        metrics = rec["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in records.items() for k, m in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
