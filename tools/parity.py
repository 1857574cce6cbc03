#!/usr/bin/env python3
"""Byte parity of the CLI's outputs between this checkout and a git revision.

Runs the benchmark's commands (trial, sweep, embed-points, verify and width,
at the sizes of ``perfbench.workloads.WORKLOADS``) on the inputs that
``perfbench.inputs.generate`` writes for each seed, one more case,
``embed-duplicates`` (``DUPLICATES``), and, at the first seed only, the
sizes of CI's paper-scale steps (``PAPER_SCALE``), once with this checkout's
``src/`` and once with REV's, and compares each command's exit status and
the sha256 of its standard output, standard error and output files. Both
trees read the same input files and run with one BLAS thread.

REV's ``src/`` is exported with ``git archive`` into a temporary directory,
so no worktree is registered and a cut-short run leaves nothing in the
repository to clean up. Nothing is fetched: REV must be in the local clone.

    python3 tools/parity.py --base REV [--seeds 1,2,3] [--workload NAME]

Exits 0 when every digest matches, 1 after listing each one that differs,
and 2 on a usage error or a revision git cannot export.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench.checks import parse_matrix_csv  # noqa: E402
from perfbench.common import child_env  # noqa: E402
from perfbench.inputs import matrix_csv  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

CHILD = "import sys; from subembed.cli import main; sys.exit(main(sys.argv[1:]))"


class DuplicatePoints(Workload):
    """embed-points on the workload's random points, each given twice."""

    def generate(self, seed: int, out_dir: str) -> dict:
        inp = super().generate(seed, out_dir)
        with open(inp["points"], encoding="utf-8") as fh:
            points = parse_matrix_csv(fh.read())
        with open(inp["points"], "w", encoding="utf-8") as fh:
            fh.write(matrix_csv(np.repeat(points, 2, axis=0)))
        return inp


# 20 points in R^4, each twice, at D=2: the 20 duplicate pairs lower m from
# required_m(1, 780, 2) = 54 to required_m(1, 760, 2) = 53, so metric_embed
# certifies the map's first 53 rows in a second walk
DUPLICATES = DuplicatePoints("embed-duplicates", "embed", "duplicates lower m", {"points": 20, "n": 4, "D": 2.0})

# the sizes of CI's paper-scale steps: 8 trials, and a sweep over m = 40, 50,
# 59, 70, of one fixed Haar family at n=1024, k=8, p=2000 with two workers;
# verify and width on a 500-member family at n=256, k=8; 500 points in R^1024
_HAAR = {"n": 1024, "k": 8, "p": 2000, "D": 8.0, "family_kind": "haar_random", "trials": 8}
PAPER_SCALE = {
    w.name: w
    for w in (
        Workload("paper-trial", "trial", "trials at paper scale", _HAAR, parallelism=2),
        Workload("paper-sweep", "sweep", "a sweep at paper scale",
                 {**_HAAR, "m_values": [40, 50, 59, 70], "target_rate": 0.9}, parallelism=2),
        Workload("paper-verify-width", "verify_width", "a 500-member family file",
                 {"n": 256, "k": 8, "p": 500, "D": 8.0, "draws": 1000}),
        Workload("paper-embed", "embed", "500 points in R^1024", {"points": 500, "n": 1024, "D": 8.0}),
    )
}
CASES = {**WORKLOADS, DUPLICATES.name: DUPLICATES, **PAPER_SCALE}


def export_src(rev: str, dest: str) -> str | None:
    """REV's src/ tree, unpacked from ``git archive`` under dest; None, after
    git's own message, when git cannot export it."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], stdout=subprocess.PIPE)
    if archive.returncode:
        return None
    os.makedirs(dest, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return os.path.join(dest, "src")


def sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return "not written"


def digests(src: str, out_dir: str, cases: dict) -> dict[str, str]:
    """Per command of every (workload, seed) case, run with src on
    PYTHONPATH: its exit status and the sha256 of its stdout, its stderr and
    each file it writes, keyed by workload, seed, command and file name."""
    env = child_env(src)
    found = {}
    for (name, seed), inp in cases.items():
        for cmd in CASES[name].commands(inp, os.path.join(out_dir, f"{name}-{seed}")):
            os.makedirs(os.path.dirname(cmd.stdout), exist_ok=True)
            with open(cmd.stdout, "wb") as out:
                run = subprocess.run([sys.executable, "-c", CHILD, *cmd.argv], env=env, stdout=out,
                                     stderr=subprocess.PIPE)
            key = f"{name} seed {seed} {cmd.label}"
            found[f"{key} exit status"] = str(run.returncode)
            found[f"{key} stderr"] = hashlib.sha256(run.stderr).hexdigest()
            for path in (cmd.stdout, *cmd.outputs):
                found[f"{key} {os.path.basename(path)}"] = sha256(path)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare this checkout against")
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated input seeds (default 1,2,3); the paper-scale cases run at the first only")
    parser.add_argument("--workload", choices=[*CASES, "all"], default="all")
    args = parser.parse_args(argv)
    try:
        seeds = [int(tok) for tok in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    names = list(CASES) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="parity-") as work:
        cases = {
            (name, seed): CASES[name].generate(seed, os.path.join(work, "inputs", f"{name}-{seed}"))
            for name in names
            for seed in (seeds[:1] if name in PAPER_SCALE else seeds)
        }
        base_src = export_src(args.base, os.path.join(work, "base"))
        if base_src is None:
            return 2
        base = digests(base_src, os.path.join(work, "out-base"), cases)
        head = digests(os.path.join(ROOT, "src"), os.path.join(work, "out-head"), cases)
    keys = base.keys() | head.keys()
    differ = sorted(key for key in keys if base.get(key) != head.get(key))
    for key in differ:
        print(f"differs: {key}: {base.get(key)} at {args.base}, {head.get(key)} here")
    print(f"{len(keys) - len(differ)} of {len(keys)} digests identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
