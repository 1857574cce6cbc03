"""Command-line interface: config ingestion, subcommand dispatch, artifacts.

Subcommands: gen-matrix | verify | trial | sweep | embed-points | width |
constants. All randomness flows from a single seed: the config key of
trial and sweep, or the --seed flag of gen-matrix, embed-points and width.
No environment variable changes an output. Outputs are CSV/JSON only and
are written atomically, so reruns with the same seed produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import math
import os
import sys
import warnings

import numpy as np

from .distortion import DistortionReport, choose_scale, family_distortion
from .ensembles import EnsembleSpec, RandomMatrix, sample_matrix, theoretical_constants
from .errors import InputError, SubembedError, describe_keys, naming, parse_json, read_text
from .geometry import _checked, load_family_json
from .harness import ExperimentConfig, metric_embed, run_trials, sweep_m
from .stats import check_distortion, gaussian_width_mc, width_upper_bound

# the keys a config file may leave out; it must name every other ExperimentConfig field
_CONFIG_OPTIONAL = {"family_path", "m_override", "fixed_family"}
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)  # json.dumps would build one each call


def load_matrix_csv(path) -> RandomMatrix:
    """Read the matrix CSV format: header line "m,n", then row-major rows."""
    with naming(path):
        lines = [line.strip() for line in read_text(path).split("\n") if line.strip()]
        if not lines:
            raise InputError("empty matrix file")
        header = lines[0].split(",")
        if len(header) != 2:
            raise InputError("header must be 'm,n'")
        try:
            m, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise InputError(f"non-integer header: {exc}") from exc
        if m < 1 or n < 1:
            raise InputError(f"header needs m >= 1 and n >= 1, got {m},{n}")
        body = lines[1:]
        if len(body) != m:
            raise InputError(f"header says {m} rows, body has {len(body)}")
        # every shape check comes before the parse, whose size the header sets
        for i, line in enumerate(body):
            fields = line.count(",") + 1
            if fields != n:
                raise InputError(f"row {i} has {fields} fields, expected {n}")
        try:
            # numpy's message names the 0-based row and the 1-based column
            rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise InputError(f"row {bad[0]}: entries must be finite")
    rows.setflags(write=False)
    return _checked(RandomMatrix, matrix=rows)


def format_matrix_csv(matrix: np.ndarray) -> str:
    m, n = matrix.shape
    row = ",".join(["%.17g"] * n)
    return "\n".join([f"{m},{n}", *(row % tuple(values) for values in matrix.tolist())]) + "\n"


def store_matrix_csv(matrix, path) -> None:
    """Write the matrix CSV format with 17 significant digits (round-trip exact)."""
    mat = matrix.matrix if isinstance(matrix, RandomMatrix) else np.asarray(matrix, dtype=float)
    _atomic_write(path, format_matrix_csv(mat))


def _atomic_write(path, text: str) -> None:
    """Write through a temporary file beside path; on any failure the
    temporary file is removed, and an OSError is reported against path."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _write_standard(name: str, text: str) -> None:
    """Write text to sys.stdout or sys.stderr, as name says, and flush it. A
    failed write (a full device, a pipe its reader closed) is reported like a
    failed output file, and the stream is pointed at os.devnull so that the
    flush at exit succeeds."""
    stream = getattr(sys, name)
    try:
        if text:  # even a write of "" fails on an unwritable stream
            stream.write(text)
        stream.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # a stream with no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        what = "output" if name == "stdout" else "error"
        raise InputError(f"cannot write standard {what}: {exc.strerror}") from exc


def _emit(text: str, output_path) -> None:
    if output_path:
        _atomic_write(output_path, text)
    else:
        _write_standard("stdout", text)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config JSON file.

    The schema is closed: unknown keys are rejected. ExperimentConfig checks
    every value, naming the file. The file alone sets the config.
    """
    with naming(path):
        payload = parse_json(read_text(path))
        if not isinstance(payload, dict):
            raise InputError("config must be a JSON object")
        keys = set(ExperimentConfig._fields) | _CONFIG_OPTIONAL
        unknown = set(payload) - keys
        if unknown:
            raise InputError(f"unknown config keys: {describe_keys(unknown)}")
        missing = keys - _CONFIG_OPTIONAL - set(payload)
        if missing:
            raise InputError(f"missing config keys: {sorted(missing)}")
        return ExperimentConfig(**dict(payload, ensemble=EnsembleSpec.from_json_dict(payload["ensemble"])))


def _parse_ensemble_flag(args) -> EnsembleSpec:
    return EnsembleSpec.from_json_dict({"kind": args.ensemble})


def _json_line(payload: dict) -> str:
    """One JSON object with sorted keys and a newline. RFC 8259 JSON has no
    Infinity or NaN, so a non-finite float is written as null."""
    clean = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in payload.items()}
    return _JSON.encode(clean) + "\n"


def _summary_json(report: DistortionReport, scale) -> str:
    summary = {
        "family_sigma_min": report.family_sigma_min,
        "family_sigma_max": report.family_sigma_max,
        "achieved_distortion": report.achieved_distortion,
        "feasible": scale.feasible,
        "L": scale.L,
        "D": scale.D,
    }
    return _json_line(summary)


def _report_csv(report: DistortionReport) -> str:
    rows = (f"{i},{lo:.17g},{hi:.17g}" for i, (lo, hi) in enumerate(report.per_subspace))
    return "\n".join(["member_index,sigma_min,sigma_max", *rows]) + "\n"


def _cmd_gen_matrix(args) -> int:
    spec = _parse_ensemble_flag(args)
    gamma = sample_matrix(spec, args.m, args.n, args.seed)
    _emit(format_matrix_csv(gamma.matrix), args.output)
    return 0


def _cmd_verify(args) -> int:
    check_distortion(args.D)  # before any input is read
    gamma = load_matrix_csv(args.matrix)
    family = load_family_json(args.family)
    report = family_distortion(gamma, family)
    scale = choose_scale(report, args.D)
    if args.report_csv:
        _atomic_write(args.report_csv, _report_csv(report))
    _write_standard("stdout", _summary_json(report, scale))
    return 1 if args.require_feasible and not scale.feasible else 0


def _cmd_trial(args) -> int:
    results = run_trials(load_config(args.config), parallelism=args.parallelism)
    text = "".join(_json_line(r.to_json_dict()) for r in results)
    _emit(text, args.output)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    try:
        m_values = [int(tok) for tok in args.m_values.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"m_values must be integers: {exc}") from exc
    result = sweep_m(config, m_values, args.target_rate, parallelism=args.parallelism)
    lines = ["m,trials,successes,success_rate,mean_achieved_distortion"]
    for e in result.entries:
        lines.append(f"{e.m},{e.trials},{e.successes},{e.success_rate:.17g},{e.mean_achieved_distortion:.17g}")
    reached = "not reached" if result.minimal_m is None else result.minimal_m
    lines.append(f"# minimal_m at target_rate={args.target_rate:g}: {reached}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_embed_points(args) -> int:
    check_distortion(args.D)  # before any input is read
    points = load_matrix_csv(args.points).matrix
    spec = _parse_ensemble_flag(args)
    # each warning as one line of its own, not in the warnings module's
    # format, which quotes the library's path and source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            gamma, p, achieved, scale = metric_embed(points, args.D, spec, args.seed)
        finally:
            for warning in caught:
                _write_standard("stderr", f"warning: {warning.message}\n")
    if args.matrix_out:
        store_matrix_csv(gamma, args.matrix_out)
    summary = {
        "n_points": points.shape[0],
        "p": p,
        "m": gamma.m,
        "feasible": scale.feasible,
        "L": scale.L,
        "D": scale.D,
        "achieved_distortion": achieved,
    }
    _emit(_json_line(summary), args.summary_out)
    return 0


def _cmd_width(args) -> int:
    family = load_family_json(args.family)
    estimate = gaussian_width_mc(family, args.draws, args.seed)
    out = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "n_draws": estimate.n_draws,
        "upper_bound_formula": width_upper_bound(family.max_dim, family.size),
    }
    _emit(_json_line(out), args.output)
    return 0


def _cmd_constants(args) -> int:
    constants = theoretical_constants(_parse_ensemble_flag(args))
    _write_standard("stdout", f"alpha={constants.alpha:.4f}\nbeta={constants.beta:.4f}\n")
    return 0


def _add_ensemble_flags(sub) -> None:
    sub.add_argument("--ensemble", required=True, choices=["gaussian", "sphere", "iid_bounded"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subembed",
        description="Large-distortion random embeddings of subspace families",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-matrix", help="sample a random matrix to CSV")
    _add_ensemble_flags(gen)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=_cmd_gen_matrix)

    verify = subs.add_parser("verify", help="certify a matrix against a family file")
    verify.add_argument("--matrix", required=True)
    verify.add_argument("--family", required=True)
    verify.add_argument("--D", type=float, required=True)
    verify.add_argument("--require-feasible", action="store_true")
    verify.add_argument("--report-csv", default=None)
    verify.set_defaults(func=_cmd_verify)

    trial = subs.add_parser("trial", help="run embedding trials from a config")
    trial.add_argument("--config", required=True)
    trial.add_argument("--output", default=None)
    trial.add_argument("--parallelism", type=int, default=1)
    trial.set_defaults(func=_cmd_trial)

    sweep = subs.add_parser("sweep", help="success rate across target dimensions m")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--m-values", required=True, help="comma-separated increasing list")
    sweep.add_argument("--target-rate", type=float, default=0.9)
    sweep.add_argument("--output", default=None)
    sweep.add_argument("--parallelism", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    embed = subs.add_parser("embed-points", help="embed an N-point set at distortion D")
    embed.add_argument("--points", required=True, help="points in matrix CSV format")
    embed.add_argument("--D", type=float, required=True)
    _add_ensemble_flags(embed)
    embed.add_argument("--seed", type=int, required=True)
    embed.add_argument("--matrix-out", default=None)
    embed.add_argument("--summary-out", default=None)
    embed.set_defaults(func=_cmd_embed_points)

    width = subs.add_parser("width", help="Monte Carlo Gaussian width of a family")
    width.add_argument("--family", required=True)
    width.add_argument("--draws", type=int, default=10_000)
    width.add_argument("--seed", type=int, required=True)
    width.add_argument("--output", default=None)
    width.set_defaults(func=_cmd_width)

    constants = subs.add_parser("constants", help="ensemble admissibility constants")
    _add_ensemble_flags(constants)
    constants.set_defaults(func=_cmd_constants)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse ignores a failed write of its help or usage; these
            # flushes report it, where the interpreter's flush at exit exits 120
            _write_standard("stdout", "")
            _write_standard("stderr", "")
            return int(exc.code) if exc.code is not None else 0
        return args.func(args)
    except SubembedError as exc:
        message = str(exc)
    with contextlib.suppress(InputError):  # standard error is unwritable: the exit code alone reports
        _write_standard("stderr", f"error: {message}\n")
    return 2


def main(argv=None) -> int:
    # The interpreter's last cyclic collections at exit would walk the ~21,000
    # objects that numpy, argparse and the package made at import, about
    # 15 ms of a small sweep; frozen, they are skipped. Every output is
    # written and closed before main returns, and objects in reference
    # cycles were never promised a finalizer at exit. Registered once
    # however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    return dispatch(sys.argv[1:] if argv is None else argv)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
