"""The untraced run: every CLI command in a fresh child process.

Gives the end-to-end metrics. Each child is timed from spawn to exit, and
its peak RSS comes from ``wait4``, which covers the pool workers it reaped.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

from .common import Tally, child_env, diff_outputs, exit_problems, record_pass, run_checks, summary

# the CLI module has no __main__ guard, so `python -m subembed.cli` would
# time an empty process; call main explicitly instead
CHILD = "import sys; from subembed.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_ONLY = "import subembed.cli"
# Set-up is timed against the same interpreter start-up with numpy alone,
# run right after it: the machine's speed phases move both alike. Over ten
# minutes of pairs on the 2-vCPU tuning machine, medians over 25 s windows
# had an IQR of 0.13 of their median for the raw set-up time and 0.014 for
# the ratio.
IMPORT_BASELINE = "import numpy"
# numpy's start-up on that machine when fast; setup_s is the median ratio
# times this, i.e. set-up seconds at that machine's speed
REFERENCE_BASELINE_S = 0.1
# The yardstick: a fixed job that never imports subembed (numpy start-up,
# small SVDs and GEMMs, a Python loop; 0.6 to 0.9 s on the 2-vCPU machine
# this was tuned on). That machine changes speed by up to 1.6x for tens of
# seconds at a time, so raw pass times spread about 20% between runs;
# dividing each pass by the yardstick runs just before and after it leaves
# 5 to 7% (IQR over median, ten seeded runs per workload).
YARDSTICK = """
import sys
import numpy as np
a = np.arange(108.0).reshape(27, 4) / 7.0
b = np.arange(256.0).reshape(64, 4) / 9.0
t = 0.0
for i in range(int(sys.argv[1])):
    t += float(np.linalg.svd(a + i, compute_uv=False)[0])
    c = b.T @ b
    d = [x * 0.5 for x in range(40)]
"""
YARDSTICK_ITERATIONS = "30000"
MIN_PASSES = 3

UNITS = {"rel_wall": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class ChildResult:
    code: int | str
    wall_s: float
    maxrss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _start(args, env, cwd, stdout_path):
    out, err = open(stdout_path, "wb"), open(stdout_path + ".err", "wb")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", *args], env=env, cwd=cwd, stdout=out, stderr=err, start_new_session=True
        )
    finally:
        out.close()
        err.close()
    return proc


def _finish(proc, start: float, deadline: float) -> ChildResult:
    """Reap one child, killing its process group if it runs past deadline."""
    timer = threading.Timer(max(0.0, deadline - perf_counter()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code < 0:
        code = f"killed by signal {-code}"
    return ChildResult(code, wall, usage.ru_maxrss / 1024.0)


def spawn(args, env, cwd, stdout_path, deadline) -> ChildResult:
    """Run one child to completion; wall time is from spawn to exit."""
    start = perf_counter()
    return _finish(_start(args, env, cwd, stdout_path), start, deadline)


def run_yardstick(processes: int, env, cwd, out_dir, deadline) -> float:
    """Time per yardstick job when as many run at once as the workload keeps
    busy: the harmonic mean of their wall times, which tracks the machine's
    combined speed, as a pool of workers sees it."""
    start = perf_counter()
    procs = {}
    for i in range(processes):
        proc = _start([YARDSTICK, YARDSTICK_ITERATIONS], env, cwd, os.path.join(out_dir, f"yardstick{i}.stdout"))
        procs[proc.pid] = proc
    timers = [threading.Timer(max(0.0, deadline - start), _kill_group, (pid,)) for pid in procs]
    for timer in timers:
        timer.start()
    walls = []
    try:
        # reap in exit order, so each job's time ends when it exits
        while procs:
            pid, status = os.waitpid(-1, 0)
            proc = procs.pop(pid, None)
            if proc is not None:
                proc.returncode = os.waitstatus_to_exitcode(status)
                walls.append(perf_counter() - start)
    finally:
        for timer in timers:
            timer.cancel()
        for pid, proc in procs.items():
            _kill_group(pid)
            proc.wait()
    return len(walls) / sum(1.0 / w for w in walls)


def run_pass(commands, env, root, deadline) -> list[ChildResult]:
    for c in commands:
        os.makedirs(os.path.dirname(c.stdout), exist_ok=True)
    return [spawn([CHILD, *c.argv], env, root, c.stdout, deadline) for c in commands]


def run(workload, seed: int, seconds: float, root: str, src: str, work: str, deadline: float) -> dict:
    env = child_env(src)
    tally = Tally()
    inp = workload.generate(seed, os.path.join(work, "inputs"))

    setup_out = os.path.join(work, "setup.stdout")

    def time_setup(n):
        """n (set-up, baseline) pairs of wall times."""
        pairs = []
        for _ in range(n):
            r = spawn([IMPORT_ONLY], env, root, setup_out, deadline)
            b = spawn([IMPORT_BASELINE], env, root, setup_out, deadline)
            for code, what in ((r.code, IMPORT_ONLY), (b.code, IMPORT_BASELINE)):
                if code != 0:
                    tally.problems.append(f"{what}: exit status {code}")
            pairs.append((r.wall_s, b.wall_s))
        return pairs

    # the first import also compiles the sources to bytecode; it is not kept
    time_setup(1)

    def yardstick():
        return run_yardstick(workload.parallelism, env, root, work, deadline)

    # warm-up pass: untimed, and the reference every later pass must equal
    ref_cmds = workload.commands(inp, os.path.join(work, "ref"))
    ref = run_pass(ref_cmds, env, root, deadline)
    semantic = run_checks(workload, inp, ref_cmds, [r.code for r in ref], seed)
    if workload.parallelism > 1:
        # the parallel log must match a serial log of the same config byte
        # for byte; produced outside the timed region
        serial_cmds = workload.commands(inp, os.path.join(work, "serial"), parallelism=1)
        for c, r, rc in zip(serial_cmds, run_pass(serial_cmds, env, root, deadline), ref_cmds):
            cross = diff_outputs(c, rc)
            tally.record(c.label + " --parallelism 1", exit_problems(r.code) + cross)
            semantic[c.label] = semantic[c.label] + cross
    record_pass(tally, ref_cmds, [r.code for r in ref], ref_cmds, semantic)

    walls, rss = [], []
    # two set-up pairs before the passes and one after each of them
    setup = time_setup(2)
    yard = [yardstick()]
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        if walls and perf_counter() + walls[-1] + yard[-1] > deadline:
            break
        pass_dir = os.path.join(work, f"pass{len(walls)}")
        cmds = workload.commands(inp, pass_dir)
        results = run_pass(cmds, env, root, deadline)
        record_pass(tally, cmds, [r.code for r in results], ref_cmds, semantic)
        walls.append(sum(r.wall_s for r in results))
        rss.append(max(r.maxrss_mb for r in results))
        shutil.rmtree(pass_dir)
        yard.append(yardstick())
        setup += time_setup(1)

    rel = summary(w / (0.5 * (a + b)) for w, a, b in zip(walls, yard, yard[1:]))
    wall = summary(walls)
    setup_s = summary(REFERENCE_BASELINE_S * r / b for r, b in setup)
    setup_raw = summary(r for r, _ in setup)
    return {
        "metrics": {
            "rel_wall": rel["median"],
            "setup_s": setup_s["median"],
            "peak_rss_mb": max(rss),
        },
        # raw times, printed and kept in the result file; too unsteady on a
        # machine whose speed drifts to serve as regression gates
        "extra": {
            "wall_s": (wall["median"], "s"),
            "certs_per_s": (workload.certificates() / wall["median"], "1/s"),
            "yardstick_s": (statistics.median(yard), "s"),
            "setup_raw_s": (setup_raw["median"], "s"),
            "numpy_start_s": (statistics.median(b for _, b in setup), "s"),
        },
        "tally": tally,
        "detail": {"rel_wall": rel, "wall_s": wall, "yardstick_s": yard, "setup_s": setup_s, "setup_raw_s": setup_raw,
                   "peak_rss_mb_per_pass": rss, "certificates_per_pass": workload.certificates()},
    }
