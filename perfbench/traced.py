"""The traced run: the same commands in-process, serially, through
``subembed.cli.main``, alternating untraced and traced passes.

Gives the per-layer metrics. The parallel workload also runs its pool
untraced in-process, timing how long the parent waits on the pool and
counting the family builds its workers make.
"""

from __future__ import annotations

import importlib
import io
import os
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from time import perf_counter

from . import tracing
from .common import Tally, output_files, record_pass, run_checks

MIN_LOOPS = 2
MODULES = ("cli", "harness", "ensembles", "geometry", "stats")

UNITS = {
    "seeding.rng_from.calls": "count",
    "seeding.self_s": "s",
    "ensembles.rows_sampled": "count",
    "ensembles.self_s": "s",
    "ensembles.us_per_row": "us",
    "geometry.self_s": "s",
    "geometry.subspaces_built": "count",
    "geometry.subspace_check_s": "s",
    "geometry.family_builds": "count",
    "geometry.family_reuse_ratio": "ratio",
    "geometry.family_build_s": "s",
    "geometry.load_family_s": "s",
    "distortion.self_s": "s",
    "distortion.calls": "count",
    "distortion.member_certs": "count",
    "distortion.certify_s": "s",
    "distortion.ns_per_member_cert": "ns",
    "distortion.flops_computed": "flop",
    "distortion.bytes_computed": "B",
    "distortion.gflops_achieved": "GFLOP/s",
    "stats.self_s": "s",
    "stats.width_s": "s",
    "stats.width_member_draws_per_s": "1/s",
    "harness.self_s": "s",
    "harness.trials": "count",
    "harness.pool_wait_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.pool_family_builds": "count",
    "cli.self_s": "s",
    "cli.io_s": "s",
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "trace.overhead_ratio": "ratio",
}


def import_subembed(src: str) -> dict:
    """Import the checkout's subembed, refusing a copy from anywhere else."""
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"subembed.{name}") for name in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"subembed was imported from {mods['cli'].__file__}, not from {src}")
    return mods


def invoke(cli, commands, tracer=None) -> list[tuple[object, float]]:
    """Run commands through cli.main in this process; (exit code, wall).

    With a tracer, each command gets its own invocation id."""
    results = []
    for c in commands:
        if tracer is not None:
            tracer.invocation += 1
        os.makedirs(os.path.dirname(c.stdout), exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(c.argv))
        except Exception as exc:  # a traceback is a failed invocation, not a failed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        with open(c.stdout, "w") as fh:
            fh.write(out.getvalue())
        results.append((code, wall))
    return results


_worker_builds = [0]


def _count_builds(fn, *args):
    """Worker side of the timed pool: fn's result and the family builds it
    made. The counter is put on the worker's own ``build_family`` at first
    use, so forked and spawned workers alike are counted."""
    harness = sys.modules["subembed.harness"]
    build = harness.build_family
    if not getattr(build, "counts_builds", False):
        def counted(*a, **kw):
            _worker_builds[0] += 1
            return build(*a, **kw)

        counted.counts_builds = True
        harness.build_family = counted
    before = _worker_builds[0]
    result = fn(*args)
    return result, _worker_builds[0] - before


def _timed_pool(harness, waits, builds):
    """A ProcessPoolExecutor whose map drains eagerly, records the wait and
    counts the family builds made in the workers."""
    base = harness.ProcessPoolExecutor

    class TimedPool(base):
        def map(self, fn, *iterables, **kwargs):
            start = perf_counter()
            pairs = list(super().map(partial(_count_builds, fn), *iterables, **kwargs))
            waits.append(perf_counter() - start)
            builds.append(sum(n for _, n in pairs))
            return iter([result for result, _ in pairs])

    return TimedPool


def run(workload, seed: int, seconds: float, root: str, src: str, work: str, deadline: float) -> dict:
    os.environ.pop("SUBEMBED_SEED", None)
    mods = import_subembed(src)
    cli, harness = mods["cli"], mods["harness"]
    tally = Tally()
    tracer = tracing.Tracer()
    table = tracing.patch_table(mods)
    inp = workload.generate(seed, os.path.join(work, "inputs"))
    serial = 1

    ref_cmds = workload.commands(inp, os.path.join(work, "ref"), parallelism=serial)
    ref = invoke(cli, ref_cmds)
    semantic = run_checks(workload, inp, ref_cmds, [code for code, _ in ref], seed)
    record_pass(tally, ref_cmds, [code for code, _ in ref], ref_cmds, semantic)

    def checked_pass(tag, parallelism=serial, spans_to=None):
        cmds = workload.commands(inp, os.path.join(work, tag), parallelism=parallelism)
        results = invoke(cli, cmds, spans_to)
        record_pass(tally, cmds, [code for code, _ in results], ref_cmds, semantic, f" ({tag})")
        return cmds, sum(wall for _, wall in results)

    def pool_pass(tag):
        waits, builds = [], []
        original = harness.ProcessPoolExecutor
        harness.ProcessPoolExecutor = _timed_pool(harness, waits, builds)
        try:
            checked_pass(tag, parallelism=workload.parallelism)
        finally:
            harness.ProcessPoolExecutor = original
        if not waits:
            # a zero wait would read as a free pool; follow the pool instead
            raise RuntimeError("the pool pass never called ProcessPoolExecutor.map in subembed.harness")
        return sum(waits), sum(builds)

    untraced_walls, traced_walls, per_pass, all_spans = [], [], [], []
    pool_waits, pool_builds, serial_compute = [], [], []
    io_bytes = None
    start = perf_counter()
    while len(traced_walls) < MIN_LOOPS or perf_counter() - start < seconds:
        loop = len(traced_walls)
        if loop and perf_counter() + 3 * traced_walls[-1] > deadline:
            break
        untraced_walls.append(checked_pass(f"untraced{loop}")[1])

        try:
            tracer.install(table)
            cmds, wall = checked_pass(f"traced{loop}", spans_to=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        traced_walls.append(wall)
        per_pass.append(tracing.layer_metrics(spans))
        serial_compute.append(sum(s.duration for s in spans if s.name == "harness.run_trials"))
        all_spans.extend(tracing.span_records(spans))
        if io_bytes is None:
            io_bytes = (
                sum(os.path.getsize(p) for c in cmds for p in c.inputs),
                sum(os.path.getsize(p) for c in cmds for p in output_files(c)),
            )
        if workload.parallelism > 1:
            wait, builds = pool_pass(f"pool{loop}")
            pool_waits.append(wait)
            pool_builds.append(builds)

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.bytes_in"], metrics["cli.bytes_out"] = io_bytes
    wait = statistics.median(pool_waits) if pool_waits else 0.0
    metrics["harness.pool_wait_s"] = wait
    metrics["harness.pool_family_builds"] = statistics.median(pool_builds) if pool_builds else 0
    metrics["harness.pool_efficiency"] = (
        statistics.median(serial_compute) / (workload.parallelism * wait) if wait else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    return {
        "metrics": metrics,
        "tally": tally,
        "spans": all_spans,
        "detail": {
            "untraced_walls": untraced_walls,
            "traced_walls": traced_walls,
            "pool_waits": pool_waits,
            "pool_family_builds": pool_builds,
        },
    }
