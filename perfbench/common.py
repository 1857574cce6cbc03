"""Pieces shared by the untraced and traced runs: failure accounting, output
comparison, the child environment and run provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys

# One BLAS thread per process: the parallel workload runs 2 worker processes
# on a 2-core machine, so processes x threads stays at or below nproc, and
# the small GEMMs and SVDs here gain nothing from BLAS threads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_settings() -> dict[str, str]:
    return {var: str(BLAS_THREADS) for var in THREAD_VARS}


def child_env(src: str) -> dict[str, str]:
    """Environment for CLI children: the checkout's sources on PYTHONPATH,
    explicit BLAS threads, and no SUBEMBED_SEED, which would silently
    override the config seeds."""
    env = {k: v for k, v in os.environ.items() if k != "SUBEMBED_SEED" and k not in THREAD_VARS}
    env["PYTHONPATH"] = src
    env.update(thread_settings())
    return env


class Tally:
    """Invocations attempted and failed; an invocation fails when it exits
    non-zero or any of its output checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.extend(f"{label}: {p}" for p in problems[:5])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def output_files(cmd) -> tuple[str, ...]:
    return cmd.outputs + (cmd.stdout,)


def diff_outputs(cmd, ref) -> list[str]:
    """Problems if cmd's files are missing or differ from ref's byte for byte."""
    problems = []
    for mine, theirs in zip(output_files(cmd), output_files(ref)):
        data = _read_bytes(mine)
        if data is None:
            problems.append(f"{os.path.basename(mine)} was not written")
        elif data != _read_bytes(theirs):
            problems.append(f"{os.path.basename(mine)} differs from {theirs}")
    return problems


def exit_problems(code) -> list[str]:
    return [] if code == 0 else [f"exit status {code}"]


def run_checks(workload, inp, ref_cmds, codes, seed) -> dict[str, list[str]]:
    """Semantic problems of the reference pass, by command label. The outputs
    come from the program under test, so a check that raises is a problem
    found, not a crash of the benchmark."""
    if any(code != 0 for code in codes):
        return {c.label: ["reference invocation failed"] for c in ref_cmds}
    try:
        return workload.check(inp, ref_cmds, seed)
    except Exception as exc:
        return {c.label: [f"output check raised {type(exc).__name__}: {exc}"] for c in ref_cmds}


def record_pass(tally: Tally, cmds, codes, ref_cmds, semantic: dict, tag: str = "") -> None:
    """Count one pass: each invocation must exit 0, write the reference
    pass's bytes, and the reference must have passed its semantic checks."""
    for c, code, ref in zip(cmds, codes, ref_cmds):
        problems = exit_problems(code) + semantic[c.label]
        if c is not ref:
            problems += diff_outputs(c, ref)
        tally.record(f"{c.label}{tag}", problems)


def summary(values) -> dict:
    """Median, quartiles and count of a list of measurements."""
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def _git_sha(root: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def provenance(root: str, src: str, workload: str, seed: int, processes: int) -> dict:
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(src),
        "python": f"{platform.python_implementation()} {sys.version.split()[0]}",
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "threads": {"processes": processes, "blas_threads_per_process": BLAS_THREADS, **thread_settings()},
        "workload": workload,
        "seed": seed,
    }
