import errno
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import subembed
import subembed.cli
import subembed.harness
import subembed.stats
from subembed import EnsembleSpec, k_sparse_family, sample_matrix, store_family_json
from subembed.cli import format_matrix_csv, load_matrix_csv, main, store_matrix_csv


def write_config(path, **overrides):
    payload = {
        "n": 12,
        "k": 2,
        "p": 4,
        "D": 4.0,
        "ensemble": {"kind": "gaussian"},
        "family_kind": "haar_random",
        "trials": 5,
        "seed": 99,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


def strict_json(text):
    """json.loads that rejects Infinity and NaN, as RFC 8259 does."""

    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def write_axes_family(path, n=2):
    members = []
    for i in range(2):
        col = [0.0] * n
        col[i] = 1.0
        members.append({"base": [0.0] * n, "basis_columns": [col]})
    path.write_text(json.dumps({"n": n, "members": members}))
    return path


# ---------------------------------------------------------------- matrix csv


def test_matrix_csv_identity_round_trip(tmp_path):
    path = tmp_path / "eye.csv"
    store_matrix_csv(np.eye(2), path)
    loaded = load_matrix_csv(path)
    assert np.array_equal(loaded.matrix, np.eye(2))


def test_matrix_csv_gaussian_round_trip(tmp_path):
    gamma = sample_matrix(EnsembleSpec.gaussian(), 27, 64, 5)
    path = tmp_path / "g.csv"
    store_matrix_csv(gamma, path)
    assert np.array_equal(load_matrix_csv(path).matrix, gamma.matrix)


def test_matrix_csv_rows_format_each_entry_as_its_17_digit_f_string():
    # one %-format a row must write what f"{x:.17g}" writes of each entry:
    # random bit patterns (NaN and inf among them), signed zeros, the
    # subnormal and normal ends, and the largest finite magnitudes
    bits = np.random.default_rng(8).integers(0, 1 << 64, size=200_000, dtype=np.uint64)
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, tiny - 5e-324, big, -big, 1.0, 0.1, -1 / 3])
    matrix = np.concatenate([bits.view(np.float64), edges, np.zeros(388)]).reshape(-1, 400)
    rows = (",".join(f"{x:.17g}" for x in row) for row in matrix)
    assert format_matrix_csv(matrix) == "\n".join(["501,400", *rows]) + "\n"
    assert format_matrix_csv(np.empty((0, 3))) == "0,3\n"


def test_matrix_csv_errors(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("2,3\n1,2,3\n4,5\n")
    code = main(["verify", "--matrix", str(ragged), "--family", "x", "--D", "2"])
    assert code == 2
    assert "row 1" in capsys.readouterr().err

    mismatch = tmp_path / "short.csv"
    mismatch.write_text("3,2\n1,2\n3,4\n")
    code = main(["verify", "--matrix", str(mismatch), "--family", "x", "--D", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "3 rows" in err and "2" in err


@pytest.mark.parametrize(
    "command,text,expected",
    [
        ("verify", "1,-1\n1,2\n", "m >= 1 and n >= 1"),
        ("verify", "0,2\n", "m >= 1 and n >= 1"),
        ("embed-points", "1,10000000000000\n1,2,3\n", "row 0 has 3 fields, expected 10000000000000"),
        ("embed-points", "2,-3\n1,2\n3,4\n", "m >= 1 and n >= 1"),
        ("verify", "2,2\n1,2\n3,inf\n", "m.csv: row 1: entries must be finite"),
        ("embed-points", "2,2\n1,2\nnan,4\n", "m.csv: row 1: entries must be finite"),
    ],
    ids=["verify-negative-n", "verify-zero-m", "embed-huge-n", "embed-negative-n", "verify-inf", "embed-nan"],
)
def test_malformed_matrix_header_exits_2(tmp_path, capsys, command, text, expected):
    # the header sets the allocation's size, so it is checked before anything
    # is allocated; a non-finite entry is named by its file and row
    path = tmp_path / "m.csv"
    path.write_text(text)
    argv = {
        "verify": ["verify", "--matrix", str(path), "--family", "x", "--D", "2"],
        "embed-points": ["embed-points", "--points", str(path), "--D", "8", "--ensemble", "gaussian",
                         "--seed", "1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and expected in err


@pytest.mark.parametrize("writer", ["format_matrix_csv", "savetxt"])
def test_matrix_csv_reads_back_what_each_writer_writes_bit_for_bit(tmp_path, writer):
    # finite random bit patterns (random 17-digit mantissas over the whole
    # exponent range), signed zeros, subnormals and the largest magnitudes,
    # written by the package and by np.savetxt as CI writes its inputs
    bits = np.random.default_rng(11).integers(0, 1 << 64, size=6000, dtype=np.uint64).view(np.float64)
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny - 5e-324, -(tiny - 5e-324), tiny, -tiny, 1e308, -1e308, big, -big]
    matrix = np.concatenate([bits[np.isfinite(bits)][:5988], edges]).reshape(100, 60)
    path = tmp_path / "m.csv"
    if writer == "format_matrix_csv":
        path.write_text(format_matrix_csv(matrix), encoding="utf-8")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            np.savetxt(fh, matrix, fmt="%.17g", delimiter=",", header="100,60", comments="")
    assert np.array_equal(load_matrix_csv(path).matrix.view(np.uint64), matrix.view(np.uint64))


@pytest.mark.parametrize("field", ["x", "", '"1"', "1_0"], ids=["letter", "empty", "quoted", "underscore"])
@pytest.mark.parametrize("command", ["verify", "embed-points"])
def test_unparsable_matrix_field_exits_2_naming_file_row_and_column(tmp_path, capsys, command, field):
    path = tmp_path / "m.csv"
    path.write_text(f"3,3\n1,2,3\n4,5,6\n7,{field},9\n")
    argv = {
        "verify": ["verify", "--matrix", str(path), "--family", "x", "--D", "2"],
        "embed-points": ["embed-points", "--points", str(path), "--D", "8", "--ensemble", "gaussian",
                         "--seed", "1"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "row 2, column 2" in captured.err


# ---------------------------------------------------------------- gen-matrix


def test_gen_matrix_round_trips_bit_exact(tmp_path):
    out = tmp_path / "m.csv"
    assert main([
        "gen-matrix", "--ensemble", "gaussian", "--m", "27", "--n", "64",
        "--seed", "5", "--output", str(out),
    ]) == 0
    direct = sample_matrix(EnsembleSpec.gaussian(), 27, 64, 5)
    assert np.array_equal(load_matrix_csv(out).matrix, direct.matrix)


def test_gen_matrix_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["gen-matrix", "--ensemble", "iid_bounded", "--m", "4", "--n", "6", "--seed", "1"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- verify


def test_verify_worked_example(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = write_axes_family(tmp_path / "fam.json")
    code = main([
        "verify", "--matrix", str(mat), "--family", str(fam), "--D", "2",
        "--require-feasible",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["feasible"] is True
    assert summary["L"] == 2.0
    assert summary["achieved_distortion"] == 2.0


def test_verify_infeasible_exit_code(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = write_axes_family(tmp_path / "fam.json")
    code = main([
        "verify", "--matrix", str(mat), "--family", str(fam), "--D", "1.5",
        "--require-feasible",
    ])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["feasible"] is False and summary["L"] is None


def test_verify_zero_matrix_is_never_feasible(tmp_path, capsys):
    mat = tmp_path / "zero.csv"
    mat.write_text("2,2\n0,0\n0,0\n")
    fam = write_axes_family(tmp_path / "fam.json")
    code = main([
        "verify", "--matrix", str(mat), "--family", str(fam), "--D", "8",
        "--require-feasible",
    ])
    assert code == 1
    summary = strict_json(capsys.readouterr().out)
    assert summary["feasible"] is False and summary["L"] is None
    assert summary["family_sigma_max"] == 0.0
    assert summary["achieved_distortion"] is None


@pytest.mark.parametrize(
    "text,expected",
    [
        ('{"n": 2,\n "members": [}', ["line 2", "column"]),
        ('{"n": 2, "members": [{"base": [0, 0]}]}', ["member 0", "basis_columns"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, 0]]}, [[0, 1]]]}', ["member 1", "object"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, NaN]]}]}', ["member 0", "non-finite"]),
        ('{"n": 2, "members": [{"base": [0, Infinity], "basis_columns": [[1, 0]]}]}',
         ["member 0", "non-finite"]),
        ('{"n": 2, "members": [{"base": [0, "x"], "basis_columns": [[1, 0]]}]}',
         ["member 0", "entries must be numbers"]),
        ('{"n": 2, "members": [{"base": [0, "1"], "basis_columns": [[1, 0]]}]}',
         ["member 0", "entries must be numbers"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, 0]]}, {"basis_columns": [["0", "1"]]}]}',
         ["member 1", "entries must be numbers"]),
        ('{"n": 2, "members": [{"base": [true, false], "basis_columns": [[1, 0]]}]}',
         ["member 0", "entries must be numbers"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, 0]]}, {"basis_columns": [[false, 1.0]]}]}',
         ["member 1", "entries must be numbers"]),
        ('{"n": 2, "members": [{"base": null, "basis_columns": [[1, 0]]}]}',
         ["member 0", "entries must be numbers"]),
        ('{"n": 2, "members": [{"base": [0, 0], "basis_columns": [[1, null]]}]}',
         ["member 0", "entries must be numbers"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, 0]]}, {"base": [0, 0, 0], "basis_columns": [[1, 0]]}]}',
         ["member 1", "ambient dimension 2"]),
        ('{"n": 3.7, "members": [{"basis_columns": [[1, 0, 0]]}]}', ["'n'", "integer"]),
        ('{"n": true, "members": [{"basis_columns": [[1]]}]}', ["'n'", "integer"]),
        ('{"n": "4", "members": [{"basis_columns": [[1, 0, 0, 0]]}]}', ["'n'", "integer"]),
        ('{"n": 0, "members": [{"basis_columns": [[1]]}]}', ["'n'", "integer"]),
        ('{"n": 1000000000000, "members": [{"basis_columns": [[1, 0]]}]}',
         ["member 0", "ambient dimension"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, 0]]}, {"basis_columns": [[0, 0]]}]}',
         ["numerically zero"]),
    ],
    ids=["syntax", "missing-basis", "member-not-object", "nan-entry", "infinite-base", "string-base",
         "numeric-string-base", "numeric-string-basis", "bool-base", "bool-basis", "null-base", "null-basis",
         "long-base", "n-fraction", "n-bool", "n-string", "n-zero", "n-huge", "zero-member"],
)
def test_malformed_family_file_exits_2(tmp_path, capsys, text, expected):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = tmp_path / "fam.json"
    fam.write_text(text)
    assert main(["verify", "--matrix", str(mat), "--family", str(fam), "--D", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for fragment in expected:
        assert fragment in err


@pytest.mark.parametrize("bases", ["random", "zero", "mixed"])
def test_family_file_base_points_change_no_output(tmp_path, capsys, bases):
    # the guarantee for an affine member reads its direction space alone, so
    # each output of a file with base points is that of the file without them
    n = 9
    rng = np.random.default_rng(16)
    spans = [rng.standard_normal((j, n)).tolist() for j in (2, 1, 3, 1, 2, 3, 3)]
    spans[5][2] = spans[5][0]  # rank 2
    spans[6][1] = [0.0] * n  # a zero column: rank 2
    points = {
        "random": [rng.standard_normal(n).tolist() for _ in spans],
        "zero": [[0.0] * n for _ in spans],
        "mixed": [rng.standard_normal(n).tolist(), [0.0] * n, [-0.0] * n, None, [1e300] * n, None, [5e-324] * n],
    }[bases]
    store_matrix_csv(sample_matrix(EnsembleSpec.gaussian(), 12, n, 5).matrix, tmp_path / "gamma.csv")

    def outputs(name, with_bases):
        fam, report, log = tmp_path / f"{name}.json", tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        members = [
            {"basis_columns": span, **({"base": point} if with_bases and point is not None else {})}
            for span, point in zip(spans, points)
        ]
        fam.write_text(json.dumps({"n": n, "members": members}))
        cfg = write_config(tmp_path / f"{name}-cfg.json", n=n, k=3, p=len(spans), trials=3,
                           family_kind="user_file", family_path=str(fam))
        assert main(["verify", "--matrix", str(tmp_path / "gamma.csv"), "--family", str(fam), "--D", "8",
                     "--report-csv", str(report)]) == 0
        verify = capsys.readouterr().out
        assert main(["width", "--family", str(fam), "--draws", "300", "--seed", "4"]) == 0
        width = capsys.readouterr().out
        assert main(["trial", "--config", str(cfg), "--output", str(log)]) == 0
        return verify, report.read_bytes(), width, log.read_bytes()

    assert outputs("based", True) == outputs("unbased", False)


def test_verify_report_csv(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = write_axes_family(tmp_path / "fam.json")
    report = tmp_path / "report.csv"
    argv = ["verify", "--matrix", str(mat), "--family", str(fam), "--D", "2", "--report-csv", str(report)]
    assert main(argv) == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "member_index,sigma_min,sigma_max"
    assert lines[1].startswith("0,2,2")
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    # the summary has one destination, standard output
    assert main(argv + ["--summary-out", str(tmp_path / "summary.json")]) == 2
    assert "unrecognized arguments: --summary-out" in capsys.readouterr().err


# ---------------------------------------------------------------- trial/sweep


def test_trial_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out1)]) == 0
    assert main(["trial", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert set(first) == {"trial_index", "m_used", "feasible", "achieved_distortion", "L"}


def test_trial_below_k_writes_valid_json(tmp_path):
    # m < k collapses every member's rank: the achieved distortion is
    # infinite, which the trial log writes as null
    cfg = write_config(tmp_path / "cfg.json", m_override=1, trials=2)
    out = tmp_path / "r.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out)]) == 0
    for line in out.read_text().splitlines():
        record = strict_json(line)
        assert record["m_used"] == 1 and record["feasible"] is False
        assert record["achieved_distortion"] is None and record["L"] is None


def test_env_seed_never_overrides_a_seed_flag(tmp_path, monkeypatch):
    # SUBEMBED_SEED is read by no command: neither a seed flag nor a
    # config's seed is overridden, and every command writes the same bytes
    points = tmp_path / "pts.csv"
    store_matrix_csv(np.random.default_rng(2).standard_normal((20, 5)), points)
    fam = write_axes_family(tmp_path / "fam.json")
    cfg = write_config(tmp_path / "cfg.json")
    commands = {
        "trial": ["trial", "--config", str(cfg), "--output"],
        "sweep": ["sweep", "--config", str(cfg), "--m-values", "2,4,8", "--output"],
        "gen-matrix": ["gen-matrix", "--ensemble", "gaussian", "--m", "4", "--n", "3", "--seed", "7", "--output"],
        "embed-points": ["embed-points", "--points", str(points), "--D", "6", "--ensemble", "gaussian",
                         "--seed", "7", "--summary-out", str(tmp_path / "summary.json"), "--matrix-out"],
        "width": ["width", "--family", str(fam), "--draws", "100", "--seed", "7", "--output"],
    }

    def written(tag):
        out = {}
        for name, argv in commands.items():
            assert main(argv + [str(tmp_path / f"{name}-{tag}")]) == 0
            out[name] = (tmp_path / f"{name}-{tag}").read_bytes()
        return out

    unset = written("unset")
    monkeypatch.setenv("SUBEMBED_SEED", "12345")
    assert written("set") == unset


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started."""
    started = []
    real = subembed.harness.ProcessPoolExecutor

    class CountedPool(real):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(subembed.harness, "ProcessPoolExecutor", CountedPool)
    return started


def test_pool_class_is_the_standard_one():
    import concurrent.futures

    assert subembed.harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


def _run_python(code, *options):
    src = os.path.dirname(os.path.dirname(os.path.abspath(subembed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, *options, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_process_pool():
    loaded = _run_python(
        "import json, sys, subembed.cli; "
        "print(json.dumps([m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses') if m in sys.modules]))"
    )
    assert loaded == []


def test_family_file_commands_and_haar_builds_do_not_load_numpy_ma(tmp_path):
    from subembed import SubspaceFamily, random_subspace, store_family_json

    fam = tmp_path / "fam.json"
    # mixed member dimensions: the grouping by dimension runs on more than one group
    members = (random_subspace(6, k, s) for s, k in enumerate([2, 1, 3, 1]))
    store_family_json(SubspaceFamily.from_subspaces(members), fam)
    mat = tmp_path / "m.csv"
    store_matrix_csv(sample_matrix(EnsembleSpec.gaussian(), 5, 6, 3), mat)
    code = f"""
import json, sys
import numpy
if "numpy.ma" in sys.modules:
    print(json.dumps("numpy loads numpy.ma itself"))
    raise SystemExit(0)
from subembed import EnsembleSpec, ExperimentConfig, build_family
from subembed.cli import main
loaded = []
for argv in (["verify", "--matrix", {str(mat)!r}, "--family", {str(fam)!r}, "--D", "50"],
             ["width", "--family", {str(fam)!r}, "--seed", "1", "--draws", "50",
              "--output", {str(tmp_path / "w.json")!r}]):
    assert main(argv) == 0
    loaded.append("numpy.ma" in sys.modules)
build_family(ExperimentConfig(n=6, k=2, p=5, D=4.0, ensemble=EnsembleSpec.gaussian()), 0)
loaded.append("numpy.ma" in sys.modules)
print(json.dumps(loaded))
"""
    loaded = _run_python(code)
    if isinstance(loaded, str):
        pytest.skip(loaded)
    assert loaded == [False, False, False]


def test_trial_parallel_flag_matches_serial_bytes(tmp_path, pools):
    cfg = write_config(tmp_path / "cfg.json", trials=6)
    logs = []
    for par in ("1", "2", "3"):
        out = tmp_path / f"p{par}.jsonl"
        assert main(["trial", "--config", str(cfg), "--parallelism", par, "--output", str(out)]) == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1] == logs[2]
    assert pools == [2, 3]


def test_default_trial_run_starts_no_process_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a default trial run must not start a process pool")

    monkeypatch.setattr(subembed.harness, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["trial", "--config", str(cfg), "--output", str(tmp_path / "out.jsonl")]) == 0


@pytest.mark.parametrize("parallelism", [0, -1])
def test_parallelism_below_one_exits_2(tmp_path, capsys, parallelism):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    for command in (["trial"], ["sweep", "--m-values", "2,4"]):
        argv = command + ["--config", str(cfg), "--parallelism", str(parallelism), "--output", str(out)]
        assert main(argv) == 2, argv
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "width", "haar", "k_sparse", "embed-points"])
def test_requests_beyond_the_element_budget_exit_2(tmp_path, capsys, command):
    # sweep: a trial's map of m*n = 1.2e10 entries; width: 10^12 draws held
    # at once; haar and k_sparse: families of p*n*k = 2e8 numbers, whose
    # trials (m = 270 and 44) fit; embed-points: 14143 points in R^1 give
    # N(N-1)/2 = 100005153 pairs
    if command == "embed-points":
        (tmp_path / "pts.csv").write_text("14143,1\n" + "".join(f"{i}\n" for i in range(14143)))
    argv = {
        "sweep": ["sweep", "--config", str(write_config(tmp_path / "cfg.json")), "--m-values", "4,1000000000"],
        "width": ["width", "--family", str(write_axes_family(tmp_path / "fam.json")),
                  "--draws", "1000000000000", "--seed", "1"],
        "haar": ["trial", "--config", str(write_config(tmp_path / "haar.json", n=20_000, k=50, p=200))],
        "k_sparse": ["trial", "--config", str(write_config(
            tmp_path / "sparse.json", family_kind="k_sparse", n=10_000, k=2, p=10_000))],
        "embed-points": ["embed-points", "--points", str(tmp_path / "pts.csv"), "--D", "6.0",
                         "--ensemble", "gaussian", "--seed", "3"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--summary-out" if command == "embed-points" else "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the element budget" in err
    if command in ("haar", "k_sparse"):
        assert err.startswith("error: p*n*k = 200000000 ")
    assert not out.exists()


ENTRIES_BUDGET = "a trial's certification entries M*(n + 1) + s (M = max m, s = grid size)"


def test_certification_entries_beyond_the_element_budget_exit_2(tmp_path, capsys, monkeypatch):
    # under a budget of 10^5 numbers the family (7600 numbers) fits, and so
    # does a sweep over m = 1..300, whose screen stores no intervals: 300*21
    # + 300 = 6600 numbers a trial. A sweep up to m = 4900 samples maps of
    # 98000 numbers, which fit, but with their 4900 row squares and two
    # Frobenius norms they do not: refused before any map is sampled
    monkeypatch.setattr(subembed.stats, "DEFAULT_MAX_ELEMENTS", 10**5)
    cfg = write_config(tmp_path / "cfg.json", family_kind="k_sparse", n=20, k=2, p=190)
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(cfg), "--output", str(out), "--m-values"]
    assert main(argv + [",".join(map(str, range(1, 301)))]) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 302  # header, 300 rows, minimal-m footer
    out.unlink()

    def no_sampling(*args, **kwargs):
        raise AssertionError("maps sampled before the budget check")

    monkeypatch.setattr(subembed.harness, "_sample_maps", no_sampling)
    capsys.readouterr()
    assert main(argv + ["4,4900"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {ENTRIES_BUDGET} = 102902 exceeds the element budget 100000\n"
    assert not out.exists()


def test_verify_products_beyond_the_element_budget_exit_0(tmp_path, capsys, monkeypatch):
    # under a budget of 10^5 numbers the matrix and family fit, and so does
    # verify's certification: it forms the (members, m, k) products, 28 *
    # 2000 * 2 = 112000 numbers, a chunk at a time, and prints what it
    # prints under the default budget
    store_matrix_csv(np.ones((2000, 8)), tmp_path / "gamma.csv")
    store_family_json(k_sparse_family(8, 2, 28), tmp_path / "fam.json")
    argv = ["verify", "--matrix", str(tmp_path / "gamma.csv"), "--family", str(tmp_path / "fam.json"), "--D", "4.0"]
    assert main(argv + ["--report-csv", str(tmp_path / "default.csv")]) == 0
    default = capsys.readouterr()
    monkeypatch.setattr(subembed.stats, "DEFAULT_MAX_ELEMENTS", 10**5)
    assert main(argv + ["--report-csv", str(tmp_path / "small.csv")]) == 0
    assert capsys.readouterr() == default
    assert (tmp_path / "small.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


@pytest.mark.parametrize(
    "command,budget",
    [("trial", 10**5), ("sweep", 10**5), ("trial-paper-sized", None), ("sweep-long-grid", None)],
)
def test_certification_budget_is_checked_before_any_map_is_sampled(tmp_path, capsys, monkeypatch, command, budget):
    # a trial's certification entries are known from the config, so an
    # oversized one is refused before its family is built or its maps are
    # drawn: under a budget of 10^5, an 8 x 12500 map (10^5 numbers, which
    # fit) with its 12500 row squares and s = 1 or 2 Frobenius norms; under
    # the default one, a map of 1562400 x 64 numbers (800 MB) with its
    # 1562400 row squares and one norm, and a sweep over the 25000 values of
    # m up to 1538461 on the 2016 k_sparse members of n=64, k=2, whose map
    # and row squares, 1538461*65 = 99999965 numbers, fit, and whose 25000
    # norms do not
    def no_sampling(*args, **kwargs):
        raise AssertionError("maps sampled before the budget check")

    def no_build(*args, **kwargs):
        raise AssertionError("family built before the budget check")

    monkeypatch.setattr(subembed.harness, "_sample_maps", no_sampling)
    monkeypatch.setattr(subembed.harness, "build_family", no_build)
    if budget is not None:
        monkeypatch.setattr(subembed.stats, "DEFAULT_MAX_ELEMENTS", budget)
    sizes = {"n": 64, "k": 2, "p": 2016} if budget is None else {"n": 8, "k": 2, "p": 28, "m_override": 12500}
    if command == "trial-paper-sized":
        sizes["m_override"] = 1562400
    cfg = write_config(tmp_path / "cfg.json", family_kind="k_sparse", **sizes)
    grid = {"sweep": "4,12500", "sweep-long-grid": ",".join(map(str, range(1538461 - 24999, 1538462)))}
    argv = ["sweep", "--config", str(cfg), "--m-values", grid[command]] if command in grid else [
        "trial", "--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ENTRIES_BUDGET} = ") and "exceeds the element budget" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_single_trial_starts_no_process_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool of one worker must not be started")

    monkeypatch.setattr(subembed.harness, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path / "cfg.json", trials=1)
    out = tmp_path / "out"
    assert main(["trial", "--config", str(cfg), "--parallelism", "2", "--output", str(out)]) == 0
    assert main([
        "sweep", "--config", str(cfg), "--m-values", "2,4", "--parallelism", "2", "--output", str(out),
    ]) == 0


def test_sweep_csv_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", family_kind="k_sparse", trials=6)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = ["sweep", "--config", str(cfg), "--m-values", "1,4,8,12", "--target-rate", "0.8"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "m,trials,successes,success_rate,mean_achieved_distortion"
    assert len(lines) == 6  # header + 4 rows + minimal-m footer
    assert lines[-1].startswith("# minimal_m")


@pytest.mark.parametrize("grid, token", [("1,x", "x"), ("2.5,4", "2.5"), ("2,4.0", "4.0")])
def test_sweep_m_values_must_be_integer_tokens(tmp_path, capsys, grid, token):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--m-values", grid, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: m_values must be integers: invalid literal for int() with base 10: '{token}'\n"
    assert not out.exists()


def test_sweep_parallel_flag_matches_serial_bytes(tmp_path, pools):
    inputs = {
        "k_sparse": {"family_kind": "k_sparse"},
        "haar_random": {"family_kind": "haar_random"},
        "annealed": {"family_kind": "haar_random", "fixed_family": False},
    }
    for name, overrides in inputs.items():
        cfg = write_config(tmp_path / f"{name}.json", trials=6, **overrides)
        outs = []
        for par in ("1", "2", "3"):
            out = tmp_path / f"{name}-p{par}.csv"
            assert main([
                "sweep", "--config", str(cfg), "--m-values", "1,4,8,12",
                "--parallelism", par, "--output", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
    assert pools == [2, 3, 2, 3, 2, 3]


# ---------------------------------------------------------------- embed/width


def test_embed_points_outputs(tmp_path, capsys):
    pts = np.random.default_rng(0).standard_normal((8, 10))
    pts_path = tmp_path / "pts.csv"
    store_matrix_csv(pts, pts_path)
    mat_out = tmp_path / "gamma.csv"
    sum_out = tmp_path / "summary.json"
    code = main([
        "embed-points", "--points", str(pts_path), "--D", "6.0",
        "--ensemble", "gaussian", "--seed", "3",
        "--matrix-out", str(mat_out), "--summary-out", str(sum_out),
    ])
    assert code == 0
    summary = json.loads(sum_out.read_text())
    assert summary["p"] == 28 and summary["n_points"] == 8
    gamma = load_matrix_csv(mat_out)
    assert gamma.m == summary["m"] and gamma.n == 10
    capsys.readouterr()


def _embed(tmp_path, points, tag):
    pts_path = tmp_path / f"{tag}.csv"
    store_matrix_csv(np.asarray(points, dtype=float), pts_path)
    outs = tmp_path / f"{tag}-gamma.csv", tmp_path / f"{tag}-summary.json"
    code = main([
        "embed-points", "--points", str(pts_path), "--D", "6.0", "--ensemble", "gaussian", "--seed", "3",
        "--matrix-out", str(outs[0]), "--summary-out", str(outs[1]),
    ])
    return code, outs


def test_embed_points_far_apart_points_are_distinct(tmp_path, capsys):
    # the squares of these coordinates overflow, their distance does not
    code, (_, summary) = _embed(tmp_path, [[1e200, 0.0], [-1e200, 0.0]], "far")
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["p"] == 1 and payload["feasible"] and payload["achieved_distortion"] == 1.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "points, code, err",
    [
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], 0, "warning: skipped 2 duplicate point pair(s)\n"),
        ([[1.0, 2.0]] * 3, 2,
         "warning: skipped 3 duplicate point pair(s)\nerror: all points coincide; nothing to embed\n"),
    ],
    ids=["two-duplicate-pairs", "all-coincide"],
)
def test_embed_points_writes_each_warning_as_one_line(tmp_path, capsys, points, code, err):
    # no path, line number or source line of the library, whatever the filters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _embed(tmp_path, points, "dup")[0] == code
    assert capsys.readouterr().err == err


def test_embed_points_p_times_m_may_exceed_the_element_budget(tmp_path, capsys):
    # 2300 points: 2,643,850 pairs at m = 47 would be 1.2e8 products, over
    # the default element budget, but the exact kernel only ever holds the
    # products of one batch of gathered pairs
    points = np.random.default_rng(23).standard_normal((2300, 2))
    code, (_, summary) = _embed(tmp_path, points, "many")
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["p"] == 2300 * 2299 // 2 and payload["m"] == 47
    assert payload["p"] * payload["m"] > subembed.stats.DEFAULT_MAX_ELEMENTS
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "points, what",
    [
        ([[1.7e308, 0.0], [-1.7e308, 0.0]], "a distance between two points"),
        ([[1.7e308, 1.7e308], [1.7e308, 0.0]], "a point's norm"),
    ],
)
def test_embed_points_beyond_the_float_range_exit_2(tmp_path, capsys, points, what):
    code, outs = _embed(tmp_path, points, "huge")
    assert code == 2
    assert capsys.readouterr().err == f"error: {what} exceeds the float64 range\n"
    assert not any(out.exists() for out in outs)


def test_embed_points_norms_keep_their_bits_below_overflow(tmp_path, monkeypatch):
    # ordinary inputs give the bytes of plain np.linalg.norm row norms
    rng = np.random.default_rng(0)
    inputs = {"plain": rng.standard_normal((8, 10)), "large": 1e150 * rng.standard_normal((6, 3))}
    for tag, points in inputs.items():
        code, outs = _embed(tmp_path, points, tag)
        assert code == 0
        written = [out.read_bytes() for out in outs]
        with monkeypatch.context() as patched:
            patched.setattr(subembed.distortion, "_row_norms", lambda rows, what: np.linalg.norm(rows, axis=1))
            code, outs = _embed(tmp_path, points, tag + "-plain")
        assert code == 0
        assert [out.read_bytes() for out in outs] == written


def test_width_subcommand(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    members = [
        {"base": [0.0] * 16, "basis_columns": [[1.0 if r == c else 0.0 for r in range(16)] for c in range(4)]}
    ]
    fam_path.write_text(json.dumps({"n": 16, "members": members}))
    assert main(["width", "--family", str(fam_path), "--draws", "5000", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mean", "std_error", "n_draws", "upper_bound_formula"}
    assert payload["n_draws"] == 5000
    assert abs(payload["mean"] - 1.88) < 0.1
    assert payload["upper_bound_formula"] == pytest.approx(6.0)  # 3*(sqrt(ln 1) + 2)


# ---------------------------------------------------------------- constants


def test_constants_gaussian(capsys):
    assert main(["constants", "--ensemble", "gaussian"]) == 0
    out = capsys.readouterr().out
    assert "alpha=0.7979" in out and "beta=1.6330" in out


def test_constants_iid_reports_closed_form_alpha(capsys):
    # sqrt(2/3), Ball's bound on the density of a unit marginal, the same at every run
    for _ in range(2):
        assert main(["constants", "--ensemble", "iid_bounded"]) == 0
        assert capsys.readouterr().out == "alpha=0.8165\nbeta=13.8564\n"


def test_constants_takes_no_seed(capsys):
    assert main(["constants", "--ensemble", "iid_bounded", "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _run_cli_to(stdout, *argv, stderr=subprocess.PIPE, unbuffered=False):
    # stdout block-buffered and stderr line-buffered, as by default: the
    # flush at exit then holds whatever a failed flush left behind
    src = os.path.dirname(os.path.dirname(os.path.abspath(subembed.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "subembed.cli", *argv], env=dict(env, PYTHONPATH=src),
                          stdout=stdout, stderr=stderr, text=True, timeout=120)


@pytest.mark.parametrize("command", ["constants", "trial", "verify"])
@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
def test_a_failed_standard_output_write_exits_2_in_one_line(tmp_path, command, sink):
    # a full device, or a pipe whose reader has gone, is a failed output: one
    # line, exit 2, and no second error from the interpreter's flush at exit
    fam = tmp_path / "fam.json"
    fam.write_text('{"n": 2, "members": [{"basis_columns": [[1, 0]]}]}')
    mat = tmp_path / "m.csv"
    mat.write_text("1,2\n1,0\n")
    argv = {
        "constants": ["constants", "--ensemble", "gaussian"],
        "trial": ["trial", "--config", str(write_config(tmp_path / "cfg.json"))],
        "verify": ["verify", "--matrix", str(mat), "--family", str(fam), "--D", "2"],
    }[command]
    if sink == "full-device":
        with open("/dev/full", "w", encoding="utf-8") as full:
            result = _run_cli_to(full, *argv)
        reason = os.strerror(errno.ENOSPC)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = _run_cli_to(write_end, *argv)
        finally:
            os.close(write_end)
        reason = os.strerror(errno.EPIPE)
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write standard output: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", ["error-line", "warning", "usage"])
def test_an_unwritable_standard_error_exits_2(tmp_path, case, unbuffered):
    # every write to stderr is flushed where it is made: on a full device the
    # run exits 2, not 120 from the interpreter's flush at exit, nor 1 from a
    # traceback it cannot print; argparse's usage message is flushed too
    points = tmp_path / "duplicates.csv"
    points.write_text("4,2\n0,0\n0,0\n1,0\n1,0\n")
    argv = {
        "error-line": ["verify", "--matrix", str(tmp_path / "missing.csv"), "--family", "x", "--D", "2"],
        "warning": ["embed-points", "--points", str(points), "--D", "8", "--ensemble", "gaussian", "--seed", "1"],
        "usage": ["verify", "--summary-out", "x"],
    }[case]
    with open("/dev/full", "w", encoding="utf-8") as full:
        result = _run_cli_to(subprocess.PIPE, *argv, stderr=full, unbuffered=unbuffered)
    assert result.returncode == 2 and result.stdout == ""


# ---------------------------------------------------------------- errors


def test_malformed_config_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4,\n "k": }')
    assert main(["trial", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_count_as_text_mode_reads_them(tmp_path, capsys, end):
    # the readers decode bytes themselves and still count a CRLF or a lone CR
    # as one line end, as open() in text mode does
    bad, mat = tmp_path / "bad.json", tmp_path / "m.csv"
    bad.write_bytes(end.join(['{"n": 4,', "", ' "k": }']).encode())
    mat.write_bytes(end.join(["2,2", "1,0", "0,x", ""]).encode())
    assert main(["trial", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: malformed JSON at line 3, column 7: Expecting value\n"
    assert main(["embed-points", "--points", str(mat), "--D", "8", "--ensemble", "gaussian", "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {mat}: could not convert string 'x' to float64 at row 1, column 2.\n"


@pytest.mark.parametrize("command", ["verify", "width", "trial", "sweep"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # arrays nested 5000 deep make json.loads raise RecursionError, not
    # JSONDecodeError: a family file's basis and a config's n both exit 2
    # with one error line, and no output is written
    nested = "[" * 5000 + "1" + "]" * 5000
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = tmp_path / "fam.json"
    fam.write_text('{"n": 2, "members": [{"basis_columns": %s}]}' % nested)
    cfg = write_config(tmp_path / "cfg.json", n="nested")
    cfg.write_text(cfg.read_text().replace('"nested"', nested))
    out = tmp_path / "out"
    argv = {
        "verify": ["verify", "--matrix", str(mat), "--family", str(fam), "--D", "2", "--report-csv", str(out)],
        "width": ["width", "--family", str(fam), "--seed", "1", "--output", str(out)],
        "trial": ["trial", "--config", str(cfg), "--output", str(out)],
        "sweep": ["sweep", "--config", str(cfg), "--m-values", "2,4", "--output", str(out)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("D", ["nan", "inf", "1"])
def test_distortion_outside_its_domain_exits_2(tmp_path, capsys, D):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = write_axes_family(tmp_path / "fam.json")
    pts = tmp_path / "pts.csv"
    store_matrix_csv(np.eye(3), pts)
    cfg = write_config(tmp_path / "cfg.json", D=float(D))
    runs = [
        ["verify", "--matrix", str(mat), "--family", str(fam), "--D", D],
        ["embed-points", "--points", str(pts), "--D", D, "--ensemble", "gaussian", "--seed", "1"],
        ["trial", "--config", str(cfg)],
        ["sweep", "--config", str(cfg), "--m-values", "2,4"],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "D must be finite and > 1" in captured.err, argv


@pytest.mark.parametrize("command", ["verify", "embed-points"])
def test_distortion_is_checked_before_any_input_is_read(tmp_path, capsys, monkeypatch, command):
    # --D 1 exits 2 naming D, and neither the matrix, the family nor the
    # points file is loaded
    def no_load(*args, **kwargs):
        raise AssertionError("an input was loaded before --D was checked")

    for loader in ("load_matrix_csv", "load_family_json"):
        monkeypatch.setattr(subembed.cli, loader, no_load)
    argv = {
        "verify": ["verify", "--matrix", "m.csv", "--family", "fam.json", "--D", "1"],
        "embed-points": ["embed-points", "--points", "pts.csv", "--D", "1", "--ensemble", "gaussian", "--seed", "1"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: D must be finite and > 1, got 1.0\n"


@pytest.mark.parametrize(
    "key,value,code",
    [
        ("n", "abc", 2),
        ("seed", "x", 2),
        ("D", "eight", 2),
        ("n", 12.7, 2),
        ("m_override", 2.5, 2),
        ("trials", True, 2),
        ("fixed_family", "false", 2),
        ("fixed_family", None, 2),
        ("family_path", 5, 2),
        pytest.param("D", 10**400, 2, id="D-beyond-float-2"),
        ("D", 8, 0),
        ("m_override", None, 0),
        ("fixed_family", False, 0),
    ],
)
def test_config_values_must_have_their_json_type(tmp_path, capsys, key, value, code):
    cfg = write_config(tmp_path / "cfg.json", **{key: value})
    out = tmp_path / "out.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out)]) == code
    if code:
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()


# one mistyped value for each ExperimentConfig field; family_path's is a file
# descriptor, set in the test
MISTYPED_FIELDS = {
    "n": list(range(200_000)), "k": "2", "p": True, "D": "8", "ensemble": "gaussian", "family_kind": 5,
    "trials": [5], "seed": 1.5, "m_override": 2.5, "family_path": None, "fixed_family": "false",
}


@pytest.mark.parametrize("field", MISTYPED_FIELDS)
def test_the_config_record_checks_each_field_as_the_cli_reports_it(tmp_path, capsys, field):
    # the library refuses a mistyped field in one short line, and a config
    # file holding the same value exits 2 with that line after its path; a
    # family_path given as an int would be read as a file descriptor, and closed
    assert set(MISTYPED_FIELDS) == set(subembed.ExperimentConfig._fields)
    values = dict(n=12, k=2, p=4, D=4.0, ensemble=EnsembleSpec.gaussian(), family_kind="haar_random", trials=5, seed=9)
    fd = os.open(write_axes_family(tmp_path / "fam.json", n=12), os.O_RDONLY)
    try:
        value = fd if field == "family_path" else MISTYPED_FIELDS[field]
        extra = {"family_kind": "user_file"} if field == "family_path" else {}
        with pytest.raises(subembed.InputError) as info:
            subembed.run_trials(subembed.ExperimentConfig(**{**values, **extra, field: value}))
        message = str(info.value)
        assert message.startswith(f"config key {field!r} must be ") and len(message) <= 80
        os.fstat(fd)
    finally:
        os.close(fd)
    if field != "ensemble":  # a file's ensemble is a descriptor object, read by EnsembleSpec.from_json_dict
        cfg = write_config(tmp_path / "cfg.json", **extra, **{field: value})
        assert main(["trial", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize("value", [2, "two", None])
def test_parallelism_is_no_config_key(tmp_path, capsys, value):
    # --parallelism alone sets the worker count: a config naming it is refused
    cfg = write_config(tmp_path / "cfg.json", parallelism=value)
    out = tmp_path / "out.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: ['parallelism']\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "raw,quoted",
    [
        ("[" * 900 + "1" + "]" * 900, "got an array of length 1"),
        ("[" + ",".join(["7"] * 200_000) + "]", "got an array of length 200000"),
        ('{"a": ' * 900 + "1" + "}" * 900, "got an object of length 1"),
        ('"' + "x" * 100_000 + '"', 'got the string "' + "x" * 36 + "..."),
        ("9" * 5000, "JSON number too long to parse"),
    ],
    ids=["nested-900", "list-200000", "object-900", "string-100000", "digits-5000"],
)
@pytest.mark.parametrize("where", ["config", "family"])
def test_mistyped_n_is_quoted_in_one_short_line(tmp_path, capsys, raw, quoted, where):
    # a config's or a family file's "n" nested 900 deep, a list of 200,000
    # integers, a long string or an integer beyond Python's 4300 digits
    # exits 2 with one error line naming its JSON type, not its whole text
    if where == "config":
        path = write_config(tmp_path / "cfg.json")
        path.write_text(path.read_text().replace('"n": 12', '"n": ' + raw))
        argv = ["trial", "--config", str(path)]
    else:
        path = tmp_path / "fam.json"
        path.write_text('{"n": ' + raw + ', "members": []}')
        argv = ["width", "--family", str(path), "--seed", "1"]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert quoted in captured.err and len(captured.err) < 200
    assert not out.exists()


def test_long_n_beside_a_member_is_cut_in_one_short_line(tmp_path, capsys):
    # an "n" of 4001 digits parses, under Python's 4300-digit limit, and no
    # member matches it: the error line quotes its first digits only
    path = tmp_path / "fam.json"
    path.write_text('{"n": ' + "1" * 4001 + ', "members": [{"basis_columns": [[1, 0]]}]}')
    assert main(["width", "--family", str(path), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == f"error: {path}: member 0 does not match ambient dimension " + "1" * 37 + "...\n"


@pytest.mark.parametrize(
    "value", ["x", True, 10**400, math.nan, math.inf], ids=["string", "bool", "beyond-float", "nan", "inf"]
)
@pytest.mark.parametrize("key", ["density_bound", "entry_psi2"])
def test_ensemble_numbers_must_be_finite_json_numbers(tmp_path, capsys, key, value):
    # the ensembles take no numbers: the one bounded law sampled is fixed, so
    # a config that still names a former setting is refused whatever its value
    cfg = write_config(tmp_path / "cfg.json", ensemble={"kind": "iid_bounded", key: value})
    out = tmp_path / "out.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out)]) == 2
    assert f"unknown ensemble keys: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()
    if isinstance(value, float):
        flag = "--" + key.replace("_", "-")
        for argv in (
            ["constants", "--ensemble", "iid_bounded"],
            ["gen-matrix", "--ensemble", "iid_bounded", "--m", "2", "--n", "3", "--seed", "1"],
            ["embed-points", "--points", str(out), "--D", "8", "--ensemble", "iid_bounded", "--seed", "1"],
        ):
            assert main([*argv, flag, str(value)]) == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", typo_key=1)
    assert main(["trial", "--config", str(cfg)]) == 2
    assert "typo_key" in capsys.readouterr().err



@pytest.mark.parametrize("case", ["ensemble-kind-list", "config-keys", "ensemble-keys", "long-key"])
def test_long_config_errors_are_one_short_line(tmp_path, capsys, case):
    # a kind given as a list of 200,000 items, 100,000 unknown keys in the
    # config or its ensemble, or one unknown key of 100,000 characters exits 2
    # with one line naming a few of them, each cut short
    keys = {f"key{i:06d}": 0 for i in range(100_000)}
    overrides, quoted = {
        "ensemble-kind-list": ({"ensemble": {"kind": list(range(200_000))}}, "got an array of length 200000"),
        "config-keys": (keys, "unknown config keys: ['key000000', 'key000001', 'key000002'] and 99997 more"),
        "ensemble-keys": ({"ensemble": {"kind": "gaussian", **keys}},
                          "unknown ensemble keys: ['key000000', 'key000001', 'key000002'] and 99997 more"),
        "long-key": ({"x" * 100_000: 1}, "unknown config keys: ['" + "x" * 37 + "...']"),
    }[case]
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert quoted in captured.err and len(captured.err) < 200
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "width"])
@pytest.mark.parametrize("key", ["base", "basis_columns"])
def test_integer_entries_beyond_float_range_exit_2(tmp_path, capsys, command, key):
    # an integer that no float holds reads as 1e400 does: non-finite
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    member = {"base": [0, 0], "basis_columns": [[1, 0]]}
    member[key] = [0, 10**400] if key == "base" else [[1, 10**400]]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 2, "members": [member]}))
    argv = {
        "verify": ["verify", "--matrix", str(mat), "--family", str(fam), "--D", "2"],
        "width": ["width", "--family", str(fam), "--seed", "1"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {fam}: member 0 has non-finite entries\n"


def test_family_nested_beyond_the_c_stack_exits_2(tmp_path):
    # orjson sets no nesting limit of its own and overflows the C stack on
    # objects nested 100,000 deep; such a file goes to json, which refuses it
    # in one line (a child process, so that a crash fails only this test)
    fam = tmp_path / "fam.json"
    deep = '{"a":' * 100_000 + "1" + "}" * 100_000
    fam.write_text('{"n": 2, "members": [{"basis_columns": [[1, 0]]}], "x": %s}' % deep)
    src = os.path.dirname(os.path.dirname(os.path.abspath(subembed.__file__)))
    code = f"from subembed.cli import main; raise SystemExit(main(['width', '--family', {str(fam)!r}, '--seed', '1']))"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: {fam}: JSON nested too deeply to parse\n"


def test_file_writing_commands_name_their_encoding(tmp_path):
    # every text file is opened as UTF-8 by name: with warn_default_encoding,
    # an open() left to the locale's encoding warns, and as an error the
    # warning would end the command in a traceback
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    points = tmp_path / "points.csv"
    points.write_text("3,2\n0,0\n1,0\n0,2\n")
    fam, cfg = write_axes_family(tmp_path / "fam.json"), write_config(tmp_path / "cfg.json")
    out = {name: str(tmp_path / name) for name in
           ("r.csv", "t.jsonl", "sw.csv", "w.json", "g.csv", "e.json", "gm.csv", "family.json")}
    commands = [
        ["verify", "--matrix", str(mat), "--family", str(fam), "--D", "8", "--report-csv", out["r.csv"]],
        ["trial", "--config", str(cfg), "--output", out["t.jsonl"]],
        ["sweep", "--config", str(cfg), "--m-values", "2,6", "--output", out["sw.csv"]],
        ["width", "--family", str(fam), "--seed", "1", "--draws", "10", "--output", out["w.json"]],
        ["embed-points", "--points", str(points), "--D", "8", "--ensemble", "gaussian", "--seed", "1",
         "--matrix-out", out["g.csv"], "--summary-out", out["e.json"]],
        ["gen-matrix", "--ensemble", "gaussian", "--m", "3", "--n", "4", "--seed", "1", "--output", out["gm.csv"]],
    ]
    code = (
        "import json, subembed, subembed.cli; "
        f"codes = [subembed.cli.main(argv) for argv in {commands!r}]; "
        f"subembed.store_family_json(subembed.k_sparse_family(4, 2, 3), {out['family.json']!r}); "
        "print(json.dumps(codes))"
    )
    codes = _run_python(code, "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert codes == [0] * len(commands)
    assert all(os.path.getsize(path) > 0 for path in out.values())


def test_cli_import_loads_no_orjson(tmp_path):
    # orjson is imported on the first family file read, not with the CLI
    fam = write_axes_family(tmp_path / "fam.json")
    loaded = _run_python(
        "import json, sys, subembed.cli; before = 'orjson' in sys.modules; "
        f"subembed.cli.main(['width', '--family', {str(fam)!r}, '--seed', '1', '--draws', '10', "
        f"'--output', {str(tmp_path / 'w.json')!r}]); "
        "print(json.dumps([before, 'orjson' in sys.modules]))"
    )
    assert loaded == [False, True]


def test_user_file_runs_match_serial_bytes(tmp_path, pools):
    # each worker reads the family file itself: numbers in every printed form
    # load to the same bits in the pool as in one process
    rng = np.random.default_rng(12)
    n = 7
    columns = [rng.standard_normal((j, n)) for j in (2, 1, 3, 2)]
    forms = [repr, "{:.20e}".format, "{:.25g}".format]
    members = []
    for i, c in enumerate(columns):
        rows = (", ".join(forms[(i + r) % 3](x * 1e20) for x in row.tolist()) for r, row in enumerate(c))
        text = ", ".join("[%s]" % row for row in rows)
        members.append('{"base": [%s], "basis_columns": [%s]}' % (", ".join(["-0.0"] * n), text))
    fam = tmp_path / "fam.json"
    fam.write_text('{"n": %d, "members": [%s]}' % (n, ", ".join(members)))
    cfg = write_config(tmp_path / "cfg.json", n=n, k=3, p=4, trials=5, family_kind="user_file", family_path=str(fam))
    outputs = []
    for par in ("1", "2"):
        trial, sweep = tmp_path / f"t{par}.jsonl", tmp_path / f"s{par}.csv"
        assert main(["trial", "--config", str(cfg), "--parallelism", par, "--output", str(trial)]) == 0
        assert main(["sweep", "--config", str(cfg), "--m-values", "2,6,12", "--parallelism", par,
                     "--output", str(sweep)]) == 0
        outputs.append((trial.read_bytes(), sweep.read_bytes()))
    assert outputs[0] == outputs[1]
    assert pools == [2, 2]

@pytest.mark.parametrize(
    "case",
    ["family-dir", "config-dir", "matrix-dir", "family-utf16", "config-utf16", "matrix-utf16",
     "output-dir", "output-missing-dir", "summary-out-dir"],
)
def test_unusable_paths_exit_2(tmp_path, capsys, case):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = write_axes_family(tmp_path / "fam.json")
    cfg = write_config(tmp_path / "cfg.json")
    folder = tmp_path / "folder"
    folder.mkdir()
    utf16 = tmp_path / "utf16"
    utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    missing = tmp_path / "no" / "x.csv"
    gen = ["gen-matrix", "--ensemble", "gaussian", "--m", "2", "--n", "2", "--seed", "1", "--output"]
    argv, named = {
        "family-dir": (["verify", "--matrix", str(mat), "--family", str(folder), "--D", "2"], folder),
        "config-dir": (["trial", "--config", str(folder)], folder),
        "matrix-dir": (["verify", "--matrix", str(folder), "--family", str(fam), "--D", "2"], folder),
        "family-utf16": (["width", "--family", str(utf16), "--seed", "1"], utf16),
        "config-utf16": (["sweep", "--config", str(utf16), "--m-values", "2"], utf16),
        "matrix-utf16": (["verify", "--matrix", str(utf16), "--family", str(fam), "--D", "2"], utf16),
        "output-dir": (gen + [str(folder)], folder),
        "output-missing-dir": (gen + [str(missing)], missing),
        "summary-out-dir": (["embed-points", "--points", str(mat), "--D", "8", "--ensemble", "gaussian",
                             "--seed", "1", "--summary-out", str(folder)], folder),
    }[case]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
    assert ".tmp." not in err
    # no temporary file is left beside the output
    assert sorted(tmp_path.iterdir()) == before and list(folder.iterdir()) == []



# (case, command, the file its error names, the error after that file's path)
MALFORMED_INPUTS = [
    ("ensemble-kind", "trial", "cfg.json",
     'ensemble kind must be one of gaussian|sphere|iid_bounded, got the string "cauchy"'),
    ("family-n-string", "width", "fam.json", 'family file \'n\' must be an integer >= 1, got the string "3"'),
    ("family-member-dimension", "width", "fam.json", "member 1 does not match ambient dimension 2"),
    ("family-no-members", "width", "fam.json", "a family needs at least one member"),
    ("family-zero-member", "verify", "fam.json", "member 1: all spanning vectors are numerically zero"),
    ("family-n-not-config-n", "trial", "fam.json", "family file ambient dim 2 != config n 3"),
    ("family-truncated", "width", "fam.json", "malformed JSON at line 1, column 22: Expecting value"),
    ("matrix-header", "verify", "m.csv", "header must be 'm,n'"),
    ("matrix-field", "embed-points", "m.csv", "could not convert string 'x' to float64 at row 1, column 2."),
]


@pytest.mark.parametrize("case,command,named,message", MALFORMED_INPUTS, ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_file_errors_start_with_its_path(tmp_path, capsys, case, command, named, message):
    # an error about the content of a config, family or matrix file exits 2
    # with one line that starts with that file's path, and names it nowhere else
    mat, fam, cfg = tmp_path / "m.csv", tmp_path / "fam.json", tmp_path / "cfg.json"
    mat.write_text("2,2\n2,0\n0,1\n")
    write_axes_family(fam)
    write_config(cfg, n=3, k=1, p=2, trials=1, family_kind="user_file", family_path=str(fam))
    if case == "ensemble-kind":
        write_config(cfg, ensemble={"kind": "cauchy"})
    elif case == "matrix-header":
        mat.write_text("2;2\n2,0\n0,1\n")
    elif case == "matrix-field":
        mat.write_text("2,2\n2,0\n0,x\n")
    elif case != "family-n-not-config-n":
        fam.write_text({
            "family-n-string": '{"n": "3", "members": [{"basis_columns": [[1, 0, 0]]}]}',
            "family-member-dimension": '{"n": 2, "members": [{"basis_columns": [[1, 0]]}, {"basis_columns": [[1]]}]}',
            "family-no-members": '{"n": 2, "members": []}',
            "family-zero-member": '{"n": 2, "members": [{"basis_columns": [[1, 0]]}, {"basis_columns": [[0, 0]]}]}',
            "family-truncated": '{"n": 2, "members": [',
        }[case])
    argv = {
        "trial": ["trial", "--config", str(cfg)],
        "width": ["width", "--family", str(fam), "--seed", "1"],
        "verify": ["verify", "--matrix", str(mat), "--family", str(fam), "--D", "2"],
        "embed-points": ["embed-points", "--points", str(mat), "--D", "8", "--ensemble", "gaussian", "--seed", "1"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    path = str(tmp_path / named)
    assert captured.out == "" and captured.err == f"error: {path}: {message}\n"
    assert captured.err.count(path) == 1


def test_environment_and_flag_errors_name_no_file(tmp_path, capsys, monkeypatch):
    # the command line is no input file: its errors name none; no command
    # reads the environment, so a malformed SUBEMBED_SEED is no error at all
    cfg = write_config(tmp_path / "cfg.json")
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    monkeypatch.setenv("SUBEMBED_SEED", "x")
    assert main(["trial", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["sweep", "--config", str(cfg), "--m-values", "2,x"]) == 2
    assert capsys.readouterr().err == "error: m_values must be integers: invalid literal for int() with base 10: 'x'\n"
    assert main(["verify", "--matrix", str(mat), "--family", str(mat), "--D", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) not in err


def test_missing_files_exit_2(tmp_path, capsys):
    assert main(["trial", "--config", str(tmp_path / "nope.json")]) == 2
    assert main(["verify", "--matrix", str(tmp_path / "no.csv"), "--family", "f", "--D", "2"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_no_stray_files_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", trials=2)
    out = tmp_path / "out.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out.jsonl"]


def test_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(os.path.abspath(subembed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "subembed.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: subembed")


# ---------------------------------------------------------------- process exit

# gc.freeze wrapped so that its calls are counted, and a handler registered
# before the CLI, which therefore runs after every handler the CLI registers
_FREEZE_PROBE = """
import atexit, gc, json
calls = []
freeze = gc.freeze

def counted():
    calls.append(1)
    freeze()

gc.freeze = counted
atexit.register(lambda: print(json.dumps([gc.get_freeze_count() > 0, len(calls)])))
"""


def test_main_freezes_the_heap_once_at_exit():
    # the interpreter's shutdown collections then skip the import-time heap
    code = _FREEZE_PROBE + """
from subembed.cli import main
for _ in range(2):
    assert main(["constants", "--ensemble", "gaussian"]) == 0
"""
    assert _run_python(code) == [True, 1]


def test_cli_import_freezes_nothing_at_exit():
    assert _run_python(_FREEZE_PROBE + "import subembed.cli") == [False, 0]


# the CLI in a child process that writes, at its exit, the pids of the pool
# workers it started to the file named by its first argument
_RECORDING_CHILD = """
import atexit, json, sys
from multiprocessing.process import BaseProcess
started = []
start = BaseProcess.start

def recorded(self):
    start(self)
    started.append(self.pid)

def report(path=sys.argv[1]):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(started, fh)

BaseProcess.start = recorded
atexit.register(report)
from subembed.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["trial", "--config", "cfg.json", "--parallelism", "2", "--output", "trials.jsonl"], 0, ""),
        (["sweep", "--config", "cfg.json", "--m-values", "2,4,7"], 0, ""),
        (["embed-points", "--points", "dup.csv", "--D", "8", "--ensemble", "gaussian", "--seed", "1",
          "--matrix-out", "gamma.csv"], 0, "warning: skipped 2 duplicate point pair(s)\n"),
        (["trial", "--config", "bad.json", "--output", "trials.jsonl"], 2,
         "error: bad.json: config key 'n' must be an integer, got the string \"eight\"\n"),
    ],
    ids=["trial-parallel", "sweep", "embed-duplicates", "bad-config"],
)
def test_a_cli_process_writes_what_main_in_process_writes(tmp_path, capsys, monkeypatch, argv, code, err):
    # the same relative arguments, once in a child process, which exits
    # through the interpreter's shutdown, and once through main in this one
    folders = {side: tmp_path / side for side in ("child", "in-process")}
    for folder in folders.values():
        folder.mkdir()
        write_config(folder / "cfg.json", trials=6)
        write_config(folder / "bad.json", n="eight")
        (folder / "dup.csv").write_text("4,2\n0,0\n0,0\n1,0\n1,0\n")
    workers = tmp_path / "workers.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(subembed.__file__)))
    child = subprocess.run([sys.executable, "-c", _RECORDING_CHILD, str(workers), *argv], cwd=folders["child"],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(folders["in-process"])
    assert main(argv) == child.returncode == code
    captured = capsys.readouterr()
    assert (child.stdout, child.stderr) == (captured.out, captured.err)
    assert captured.err == err
    files = {side: {p.name: p.read_bytes() for p in folder.iterdir()} for side, folder in folders.items()}
    assert files["child"] == files["in-process"]
    # the child joined every pool worker it started before it exited
    pids = json.loads(workers.read_text())
    assert bool(pids) == ("--parallelism" in argv)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
