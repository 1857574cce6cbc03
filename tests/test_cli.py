import json
import os
import subprocess
import sys

import numpy as np
import pytest

import subembed
import subembed.harness
from subembed import EnsembleSpec, sample_matrix
from subembed.cli import load_matrix_csv, main, store_matrix_csv


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
    summary = json.loads(capsys.readouterr().out)
    assert summary["feasible"] is False and summary["L"] is None
    assert summary["family_sigma_max"] == 0.0


@pytest.mark.parametrize(
    "text,expected",
    [
        ('{"n": 2,\n "members": [}', ["line 2", "column"]),
        ('{"n": 2, "members": [{"base": [0, 0]}]}', ["member 0", "basis_columns"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, 0]]}, [[0, 1]]]}', ["member 1", "object"]),
        ('{"n": 2, "members": [{"basis_columns": [[1, NaN]]}]}', ["member 0", "non-finite"]),
        ('{"n": 2, "members": [{"base": [0, Infinity], "basis_columns": [[1, 0]]}]}',
         ["member 0", "non-finite"]),
    ],
    ids=["syntax", "missing-basis", "member-not-object", "nan-entry", "infinite-base"],
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


def test_verify_report_csv(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    mat.write_text("2,2\n2,0\n0,1\n")
    fam = write_axes_family(tmp_path / "fam.json")
    report = tmp_path / "report.csv"
    summary_path = tmp_path / "summary.json"
    code = main([
        "verify", "--matrix", str(mat), "--family", str(fam), "--D", "2",
        "--report-csv", str(report), "--summary-out", str(summary_path),
    ])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "member_index,sigma_min,sigma_max"
    assert lines[1].startswith("0,2,2")
    assert json.loads(summary_path.read_text())["feasible"] is True
    capsys.readouterr()


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


def test_trial_env_seed_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    base, overridden = tmp_path / "base.jsonl", tmp_path / "env.jsonl"
    assert main(["trial", "--config", str(cfg), "--output", str(base)]) == 0
    monkeypatch.setenv("SUBEMBED_SEED", "12345")
    assert main(["trial", "--config", str(cfg), "--output", str(overridden)]) == 0
    assert base.read_bytes() != overridden.read_bytes()
    monkeypatch.setenv("SUBEMBED_SEED", "oops")
    assert main(["trial", "--config", str(cfg), "--output", str(overridden)]) == 2


def test_trial_parallel_flag_matches_serial_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", trials=6)
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert main(["trial", "--config", str(cfg), "--parallelism", "1", "--output", str(serial)]) == 0
    assert main(["trial", "--config", str(cfg), "--parallelism", "2", "--output", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_default_trial_run_starts_no_process_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a default trial run must not start a process pool")

    monkeypatch.setattr(subembed.harness, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["trial", "--config", str(cfg), "--output", str(tmp_path / "out.jsonl")]) == 0


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


def test_sweep_parallel_flag_matches_serial_bytes(tmp_path):
    for kind in ("k_sparse", "haar_random"):
        cfg = write_config(tmp_path / f"{kind}.json", family_kind=kind, trials=6)
        outs = []
        for par in ("1", "2"):
            out = tmp_path / f"{kind}-p{par}.csv"
            assert main([
                "sweep", "--config", str(cfg), "--m-values", "1,4,8,12",
                "--parallelism", par, "--output", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


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


def test_constants_iid_reports_empirical_alpha(capsys):
    assert main(["constants", "--ensemble", "iid_bounded"]) == 0
    out = capsys.readouterr().out
    assert "(empirical)" in out and "beta=13.8564" in out


# ---------------------------------------------------------------- errors


def test_malformed_config_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4,\n "k": }')
    assert main(["trial", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


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


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", typo_key=1)
    assert main(["trial", "--config", str(cfg)]) == 2
    assert "typo_key" in capsys.readouterr().err


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
