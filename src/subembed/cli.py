"""Command-line interface: config ingestion, subcommand dispatch, artifacts.

Subcommands: gen-matrix | verify | trial | sweep | embed-points | width |
constants. All randomness flows from a single seed (config key, --seed
flag, or the SUBEMBED_SEED environment variable, which wins); outputs are
CSV/JSON only and are written atomically, so reruns with the same seed
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .distortion import DistortionReport, choose_scale, family_distortion
from .ensembles import EnsembleSpec, RandomMatrix, sample_matrix, theoretical_constants
from .errors import InputError, SubembedError
from .geometry import load_family_json
from .harness import ExperimentConfig, metric_embed, run_trials, sweep_m
from .stats import gaussian_width_mc, width_upper_bound

_CONFIG_REQUIRED = {"n", "k", "p", "D", "ensemble", "family_kind", "trials", "seed"}
_CONFIG_OPTIONAL = {"family_path", "m_override", "parallelism", "fixed_family"}


def load_matrix_csv(path) -> RandomMatrix:
    """Read the matrix CSV format: header line "m,n", then row-major rows."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise InputError(f"{path}: empty matrix file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise InputError(f"{path}: header must be 'm,n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InputError(f"{path}: non-integer header: {exc}") from exc
    body = lines[1:]
    if len(body) != m:
        raise InputError(f"{path}: header says {m} rows, body has {len(body)}")
    rows = np.empty((m, n))
    for i, line in enumerate(body):
        fields = line.split(",")
        if len(fields) != n:
            raise InputError(f"{path}: row {i} has {len(fields)} fields, expected {n}")
        try:
            rows[i] = [float(f) for f in fields]
        except ValueError as exc:
            raise InputError(f"{path}: row {i}: {exc}") from exc
    return RandomMatrix(matrix=rows)


def format_matrix_csv(matrix: np.ndarray) -> str:
    m, n = matrix.shape
    lines = [f"{m},{n}"]
    for row in matrix:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def store_matrix_csv(matrix, path) -> None:
    """Write the matrix CSV format with 17 significant digits (round-trip exact)."""
    mat = matrix.matrix if isinstance(matrix, RandomMatrix) else np.asarray(matrix, dtype=float)
    _atomic_write(path, format_matrix_csv(mat))


def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(text: str, output_path) -> None:
    if output_path:
        _atomic_write(output_path, text)
    else:
        sys.stdout.write(text)


def load_config(path) -> tuple[ExperimentConfig, int | None]:
    """Parse and validate a config JSON file; returns (config, parallelism).

    The schema is closed: unknown keys are rejected. SUBEMBED_SEED in the
    environment overrides the config seed.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = set(payload) - _CONFIG_REQUIRED - _CONFIG_OPTIONAL
    if unknown:
        raise InputError(f"{path}: unknown config keys: {sorted(unknown)}")
    missing = _CONFIG_REQUIRED - set(payload)
    if missing:
        raise InputError(f"{path}: missing config keys: {sorted(missing)}")
    seed = int(payload["seed"])
    env_seed = os.environ.get("SUBEMBED_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise InputError(f"SUBEMBED_SEED must be an integer, got {env_seed!r}") from exc
    config = ExperimentConfig(
        n=int(payload["n"]),
        k=int(payload["k"]),
        p=int(payload["p"]),
        D=float(payload["D"]),
        ensemble=EnsembleSpec.from_json_dict(payload["ensemble"]),
        family_kind=str(payload["family_kind"]),
        trials=int(payload["trials"]),
        seed=seed,
        m_override=int(payload["m_override"]) if payload.get("m_override") is not None else None,
        family_path=payload.get("family_path"),
        fixed_family=bool(payload.get("fixed_family", True)),
    )
    parallelism = int(payload["parallelism"]) if payload.get("parallelism") is not None else None
    return config, parallelism


def _parse_ensemble_flag(args) -> EnsembleSpec:
    payload = {"kind": args.ensemble}
    if args.ensemble == "iid_bounded":
        if getattr(args, "density_bound", None) is not None:
            payload["density_bound"] = args.density_bound
        if getattr(args, "entry_psi2", None) is not None:
            payload["entry_psi2"] = args.entry_psi2
    return EnsembleSpec.from_json_dict(payload)


def _summary_json(report: DistortionReport, scale) -> str:
    summary = {
        "family_sigma_min": report.family_sigma_min,
        "family_sigma_max": report.family_sigma_max,
        "achieved_distortion": report.achieved_distortion,
        "feasible": scale.feasible,
        "L": scale.L,
        "D": scale.D,
    }
    return json.dumps(summary, sort_keys=True) + "\n"


def _report_csv(report: DistortionReport) -> str:
    lines = ["member_index,sigma_min,sigma_max"]
    for i, (lo, hi) in enumerate(report.per_subspace):
        lines.append(f"{i},{lo:.17g},{hi:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_gen_matrix(args) -> int:
    spec = _parse_ensemble_flag(args)
    gamma = sample_matrix(spec, args.m, args.n, args.seed)
    _emit(format_matrix_csv(gamma.matrix), args.output)
    return 0


def _cmd_verify(args) -> int:
    gamma = load_matrix_csv(args.matrix)
    family = load_family_json(args.family)
    report = family_distortion(gamma, family)
    scale = choose_scale(report, args.D)
    if args.report_csv:
        _atomic_write(args.report_csv, _report_csv(report))
    _emit(_summary_json(report, scale), args.summary_out)
    if args.summary_out:
        sys.stdout.write(_summary_json(report, scale))
    if args.require_feasible and not scale.feasible:
        return 1
    return 0


def _cmd_trial(args) -> int:
    config, parallelism = load_config(args.config)
    if args.parallelism is not None:
        parallelism = args.parallelism
    results = run_trials(config, parallelism=parallelism or 1)
    text = "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in results)
    _emit(text, args.output)
    return 0


def _cmd_sweep(args) -> int:
    config, parallelism = load_config(args.config)
    if args.parallelism is not None:
        parallelism = args.parallelism
    m_values = [int(tok) for tok in args.m_values.split(",") if tok]
    result = sweep_m(config, m_values, args.target_rate, parallelism=parallelism or 1)
    lines = ["m,trials,successes,success_rate,mean_achieved_distortion"]
    for e in result.entries:
        lines.append(
            f"{e.m},{e.trials},{e.successes},{e.success_rate:.17g},{e.mean_achieved_distortion:.17g}"
        )
    footer = f"# minimal_m at target_rate={args.target_rate:g}: "
    footer += str(result.minimal_m) if result.minimal_m is not None else "not reached"
    lines.append(footer)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_embed_points(args) -> int:
    points = load_matrix_csv(args.points).matrix
    spec = _parse_ensemble_flag(args)
    gamma, scale, report = metric_embed(points, args.D, spec, args.seed)
    if args.matrix_out:
        store_matrix_csv(gamma, args.matrix_out)
    summary = {
        "n_points": points.shape[0],
        "p": len(report.per_subspace),
        "m": gamma.m,
        "feasible": scale.feasible,
        "L": scale.L,
        "D": scale.D,
        "achieved_distortion": report.achieved_distortion,
    }
    _emit(json.dumps(summary, sort_keys=True) + "\n", args.summary_out)
    return 0


def _cmd_width(args) -> int:
    family = load_family_json(args.family)
    estimate = gaussian_width_mc(family, args.draws, args.seed)
    k = family.max_dim
    p = family.size
    out = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "n_draws": estimate.n_draws,
        "upper_bound_formula": width_upper_bound(k, p, 0.0),
    }
    _emit(json.dumps(out, sort_keys=True) + "\n", args.output)
    return 0


def _cmd_constants(args) -> int:
    spec = _parse_ensemble_flag(args)
    constants = theoretical_constants(spec, seed=args.seed)
    sys.stdout.write(f"alpha={constants.alpha:.4f} ({constants.alpha_source})\n")
    sys.stdout.write(f"beta={constants.beta:.4f} ({constants.beta_source})\n")
    return 0


def _add_ensemble_flags(sub) -> None:
    sub.add_argument(
        "--ensemble", required=True, choices=["gaussian", "sphere", "iid_bounded"]
    )
    sub.add_argument("--density-bound", dest="density_bound", type=float, default=None)
    sub.add_argument("--entry-psi2", dest="entry_psi2", type=float, default=None)


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
    verify.add_argument("--summary-out", default=None)
    verify.add_argument("--report-csv", default=None)
    verify.set_defaults(func=_cmd_verify)

    trial = subs.add_parser("trial", help="run embedding trials from a config")
    trial.add_argument("--config", required=True)
    trial.add_argument("--output", default=None)
    trial.add_argument("--parallelism", type=int, default=None)
    trial.set_defaults(func=_cmd_trial)

    sweep = subs.add_parser("sweep", help="success rate across target dimensions m")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--m-values", required=True, help="comma-separated increasing list")
    sweep.add_argument("--target-rate", type=float, default=0.9)
    sweep.add_argument("--output", default=None)
    sweep.add_argument("--parallelism", type=int, default=None)
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
    constants.add_argument("--seed", type=int, default=0)
    constants.set_defaults(func=_cmd_constants)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file not found: {exc.filename}\n")
        return 2
    except SubembedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
