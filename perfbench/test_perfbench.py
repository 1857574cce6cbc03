"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

from perfbench import checks, traced, tracing, untraced
from perfbench.common import Tally, child_env, record_pass
from perfbench.tracing import Span
from perfbench.workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

TINY = {
    "trial": Workload("tiny-trial", "trial", "", {"n": 8, "k": 2, "p": 3, "D": 8.0,
                                                  "family_kind": "haar_random", "trials": 6}, parallelism=2),
    "sweep": Workload("tiny-sweep", "sweep", "", {"n": 6, "k": 2, "p": 15, "D": 8.0, "family_kind": "k_sparse",
                                                  "trials": 3, "m_values": [2, 4, 8], "target_rate": 0.9}),
    "embed": Workload("tiny-embed", "embed", "", {"points": 7, "n": 5, "D": 8.0}),
    "verify_width": Workload("tiny-vw", "verify_width", "", {"n": 12, "k": 2, "p": 5, "D": 8.0,
                                                             "draws": 40, "check_sample": 3}),
}


@pytest.fixture(scope="module")
def mods():
    return traced.import_subembed(SRC)


def _tree(files):
    out = {}
    for dirpath, _, names in os.walk(files):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, files)] = fh.read()
    return out


def _reference(mods, workload, tmp_path, tag="ref"):
    inp = workload.generate(5, str(tmp_path / "inputs"))
    cmds = workload.commands(inp, str(tmp_path / tag), parallelism=1)
    codes = [code for code, _ in traced.invoke(mods["cli"], cmds)]
    return inp, cmds, codes


def test_self_time_of_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap on [3, 4];
    # a has child c [2, 3]; a span outside its parent is clipped to it
    family = SimpleNamespace(members=[SimpleNamespace(dim=2)] * 3)
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0, 1, None),
        Span(1, 0, "harness.run_trials", 1.0, 4.0, 1, None),
        Span(2, 0, "distortion.family_distortion", 3.0, 6.0, 1, (4, 6, family)),
        Span(3, 1, "seeding.rng_from", 2.0, 3.0, 1, None),
        Span(4, 3, "seeding.derive_seed", 2.5, 3.5, 1, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 0.5, 4: 1.0}
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == 5.0
    assert metrics["harness.self_s"] == 2.0
    assert metrics["seeding.self_s"] == 1.5
    assert metrics["seeding.rng_from.calls"] == 1
    # per member: the 4x6 @ 6x2 product, 2*4*6*2 flops, and the singular
    # values of a 4x2 matrix, 4*4*2^2 - 4*2^3/3 flops
    assert metrics["distortion.member_certs"] == 3
    assert metrics["distortion.flops_computed"] == pytest.approx(3 * (96 + 64 - 32 / 3))
    assert metrics["distortion.certify_s"] == 3.0


def test_outermost_skips_nested_spans_of_the_same_set():
    spans = [
        Span(0, None, "cli.store_matrix_csv", 0.0, 2.0, 1, None),
        Span(1, 0, "cli.format_matrix_csv", 0.5, 1.5, 1, None),
        Span(2, None, "cli.load_config", 3.0, 3.25, 1, None),
    ]
    assert [s.id for s in tracing.outermost(spans, tracing.IO_SPANS)] == [0, 2]
    assert tracing.layer_metrics(spans)["cli.io_s"] == 2.25


@pytest.mark.parametrize("kind", sorted(TINY))
def test_generator_is_a_pure_function_of_its_seed(tmp_path, kind):
    workload = TINY[kind]
    workload.generate(3, str(tmp_path / "a"))
    workload.generate(3, str(tmp_path / "b"))
    workload.generate(4, str(tmp_path / "c"))
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a != c


@pytest.mark.parametrize("kind", sorted(TINY))
def test_reference_outputs_pass_their_checks(mods, tmp_path, kind):
    workload = TINY[kind]
    inp, cmds, codes = _reference(mods, workload, tmp_path)
    assert codes == [0] * len(cmds)
    assert workload.check(inp, cmds, 5) == {c.label: [] for c in cmds}


def test_flipped_byte_is_counted_in_error_rate(mods, tmp_path):
    workload = TINY["verify_width"]
    inp, ref_cmds, codes = _reference(mods, workload, tmp_path)
    semantic = workload.check(inp, ref_cmds, 5)
    cmds = workload.commands(inp, str(tmp_path / "pass"), parallelism=1)
    os.makedirs(tmp_path / "pass")
    for c, ref in zip(cmds, ref_cmds):
        for mine, theirs in zip(c.outputs + (c.stdout,), ref.outputs + (ref.stdout,)):
            shutil.copyfile(theirs, mine)
    report = Path(cmds[0].outputs[0])
    data = bytearray(report.read_bytes())
    data[-3] ^= 0x01
    report.write_bytes(bytes(data))

    tally = Tally()
    record_pass(tally, ref_cmds, codes, ref_cmds, semantic)
    record_pass(tally, cmds, [0, 0], ref_cmds, semantic)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_rate == 0.25
    assert "report.csv differs" in tally.problems[0]


def _rewrite_json(path, **changes):
    with open(path) as fh:
        payload = json.load(fh)
    payload.update(changes)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


@pytest.mark.parametrize("kind,label", [("verify_width", "verify"), ("embed", "embed-points")])
def test_wrong_L_is_caught_and_counted(mods, tmp_path, kind, label):
    workload = TINY[kind]
    inp, cmds, codes = _reference(mods, workload, tmp_path)
    cmd = next(c for c in cmds if c.label == label)
    summary_path = cmd.stdout if kind == "verify_width" else cmd.outputs[1]
    with open(summary_path) as fh:
        summary = json.load(fh)
    wrong = summary["L"] * (1 + 1e-6) if summary["feasible"] else 1.0
    _rewrite_json(summary_path, L=wrong)

    semantic = workload.check(inp, cmds, 5)
    assert semantic[label] and "L=" in semantic[label][0]
    tally = Tally()
    record_pass(tally, cmds, codes, cmds, semantic)
    assert tally.failed == 1 and tally.error_rate == 1 / len(cmds)


def test_feasible_flag_must_agree_with_the_extremes():
    assert checks._scale_errors(False, None, 1.0, 3.0, 8.0, "x")
    assert checks._scale_errors(True, 9.0, 1.0, 9.0, 8.0, "x")
    assert not checks._scale_errors(True, 3.0, 1.0, 3.0, 8.0, "x")
    assert not checks._scale_errors(False, None, 1.0, 9.0, 8.0, "x")


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_changes_no_output_bytes(mods, tmp_path, kind):
    workload = TINY[kind]
    inp, _, _ = _reference(mods, workload, tmp_path, "plain")
    tracer = tracing.Tracer()
    original_main = mods["cli"].main
    tracer.install(tracing.patch_table(mods))
    try:
        cmds = workload.commands(inp, str(tmp_path / "traced"), parallelism=1)
        codes = [code for code, _ in traced.invoke(mods["cli"], cmds, tracer)]
    finally:
        tracer.uninstall()
    assert mods["cli"].main is original_main
    assert codes == [0] * len(cmds)
    assert _tree(str(tmp_path / "plain")) == _tree(str(tmp_path / "traced"))
    spans = tracer.take()
    assert {s.name for s in spans if s.parent is None} == {"cli.main"}
    assert {s.invocation for s in spans} == set(range(1, len(cmds) + 1))


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = traced.run(TINY["trial"], 1, 0.01, ROOT, SRC, str(tmp_path), perf_counter() + 120)
    assert result["tally"].failed == 0
    assert set(result["metrics"]) == set(traced.UNITS)
    assert result["metrics"]["harness.trials"] == 6
    assert result["metrics"]["harness.pool_wait_s"] > 0
    # at parallelism 2 every trial rebuilds the fixed family in its worker
    assert result["metrics"]["harness.pool_family_builds"] == 6
    assert result["metrics"]["geometry.family_builds"] == 1


def test_a_probe_the_library_lacks_is_an_error(mods):
    tracer = tracing.Tracer()
    original_main = mods["cli"].main
    table = tracing.patch_table(mods) + [(mods["harness"], "no_such_function", "harness.no_such_function", None)]
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.install(table)
    assert mods["cli"].main is original_main


def test_untraced_run_compares_parallel_and_serial_logs(tmp_path):
    result = untraced.run(TINY["trial"], 1, 0.01, ROOT, SRC, str(tmp_path), perf_counter() + 120)
    tally = result["tally"]
    # reference, serial reference and three timed passes
    assert (tally.attempted, tally.failed) == (5, 0)
    assert set(result["metrics"]) == set(untraced.UNITS)
    assert all(v > 0 for v in result["metrics"].values())


def test_child_environment_drops_the_seed_override(monkeypatch):
    monkeypatch.setenv("SUBEMBED_SEED", "7")
    env = child_env(SRC)
    assert "SUBEMBED_SEED" not in env
    assert env["PYTHONPATH"] == SRC and env["OPENBLAS_NUM_THREADS"] == "1"


def test_benchmark_json_matches_the_runners():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == untraced.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.UNITS
