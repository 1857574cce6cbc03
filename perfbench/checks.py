"""Output checks for the CLI commands the workloads run.

Each check takes the bytes one invocation wrote and returns a list of
problems (empty when the output is right). The checks parse every output
and recompute what can be recomputed from the benchmark's own inputs with
plain numpy. They compare against no stored hashes, so a deliberate change
of the library's random streams does not fail them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .inputs import required_m

REL_TOL = 1e-9
_TRIAL_KEYS = {"trial_index", "m_used", "feasible", "achieved_distortion", "L"}
_SWEEP_HEADER = "m,trials,successes,success_rate,mean_achieved_distortion"
_SUMMARY_KEYS = {"family_sigma_min", "family_sigma_max", "achieved_distortion", "feasible", "L", "D"}
_EMBED_KEYS = {"n_points", "p", "m", "feasible", "L", "D", "achieved_distortion"}
_WIDTH_KEYS = {"mean", "std_error", "n_draws", "upper_bound_formula"}


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def parse_matrix_csv(text: str) -> np.ndarray:
    """Parse the CLI's matrix CSV; raises ValueError on any malformed line."""
    lines = text.splitlines()
    m, n = (int(tok) for tok in lines[0].split(","))
    if len(lines) != m + 1:
        raise ValueError(f"header says {m} rows, body has {len(lines) - 1}")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    if any(len(row) != n for row in rows):
        raise ValueError(f"a row does not have {n} columns")
    return np.array(rows, dtype=float).reshape(m, n)


def _scale_errors(feasible, L, smin: float, smax: float, D: float, where: str) -> list[str]:
    """feasible must hold exactly when smax <= D*smin, and L must equal smax.

    smin/smax are the benchmark's recomputed extremes; within REL_TOL of the
    boundary either verdict is accepted, since the two computations round
    differently.
    """
    errors = []
    if abs(smax - D * smin) > REL_TOL * smax:
        if feasible is not (smax <= D * smin):
            errors.append(f"{where}: feasible={feasible} but sigma_max={smax!r}, D*sigma_min={D * smin!r}")
    if feasible:
        if not isinstance(L, float) or not _close(L, smax):
            errors.append(f"{where}: L={L!r} but sigma_max={smax!r}")
    elif L is not None:
        errors.append(f"{where}: infeasible but L={L!r}")
    return errors


def check_trial_log(text: str, sizes: dict) -> list[str]:
    """JSONL trial log: one well-formed line per trial, in trial order."""
    lines = text.splitlines()
    if len(lines) != sizes["trials"]:
        return [f"trial log has {len(lines)} lines, expected {sizes['trials']}"]
    m = required_m(sizes["k"], sizes["p"], sizes["D"])
    D = sizes["D"]
    errors = []
    for t, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"trial line {t}: {exc}")
            continue
        if not isinstance(rec, dict) or set(rec) != _TRIAL_KEYS:
            errors.append(f"trial line {t}: keys {sorted(rec) if isinstance(rec, dict) else rec!r}")
            continue
        if rec["trial_index"] != t or rec["m_used"] != m:
            errors.append(f"trial line {t}: trial_index={rec['trial_index']} m_used={rec['m_used']}")
        achieved = rec["achieved_distortion"]
        if rec["feasible"] is True:
            if not (isinstance(rec["L"], float) and rec["L"] > 0.0 and achieved <= D * (1 + 1e-12)):
                errors.append(f"trial line {t}: feasible with L={rec['L']!r}, achieved={achieved!r}")
        elif rec["feasible"] is False:
            if rec["L"] is not None or not achieved >= D * (1 - 1e-12):
                errors.append(f"trial line {t}: infeasible with L={rec['L']!r}, achieved={achieved!r}")
        else:
            errors.append(f"trial line {t}: feasible={rec['feasible']!r}")
    return errors[:20]


def check_sweep_csv(text: str, sizes: dict) -> list[str]:
    """Sweep CSV: header, one row per m in the grid, footer naming minimal m."""
    lines = text.splitlines()
    grid = sizes["m_values"]
    trials = sizes["trials"]
    if len(lines) != len(grid) + 2 or lines[0] != _SWEEP_HEADER:
        return [f"sweep csv has {len(lines)} lines / header {lines[:1]!r}"]
    errors = []
    for m, line in zip(grid, lines[1:-1]):
        fields = line.split(",")
        try:
            row_m, row_trials, successes = int(fields[0]), int(fields[1]), int(fields[2])
            rate, mean = float(fields[3]), float(fields[4])
        except (ValueError, IndexError) as exc:
            errors.append(f"sweep row {line!r}: {exc}")
            continue
        if len(fields) != 5 or row_m != m or row_trials != trials or not 0 <= successes <= trials:
            errors.append(f"sweep row {line!r}: expected m={m}, trials={trials}")
        elif rate != successes / trials:
            errors.append(f"sweep row {line!r}: success_rate != successes/trials")
        elif not mean >= 1.0:
            errors.append(f"sweep row {line!r}: mean achieved distortion below 1")
    prefix = f"# minimal_m at target_rate={sizes['target_rate']:g}: "
    footer = lines[-1]
    if not footer.startswith(prefix):
        errors.append(f"sweep footer {footer!r}")
    else:
        value = footer[len(prefix):]
        if value != "not reached" and (not value.isdigit() or int(value) not in grid):
            errors.append(f"sweep footer names m={value!r}, not in the grid")
    return errors


def check_embed(points: np.ndarray, matrix_text: str, summary_text: str, sizes: dict) -> list[str]:
    """Recompute every pairwise direction's stretch from the written matrix.

    Each member of the metric family is the unit direction of a point pair,
    so sigma(Gamma @ B) is the norm of Gamma applied to that direction; the
    family extremes must match the summary's L and achieved distortion.
    """
    try:
        gamma = parse_matrix_csv(matrix_text)
        summary = json.loads(summary_text)
    except (ValueError, IndexError) as exc:
        return [f"embed outputs do not parse: {exc}"]
    if not isinstance(summary, dict) or set(summary) != _EMBED_KEYS:
        return [f"embed summary keys {sorted(summary) if isinstance(summary, dict) else summary!r}"]
    N, n = points.shape
    p = N * (N - 1) // 2
    D = sizes["D"]
    errors = []
    if summary["n_points"] != N or summary["p"] != p or summary["D"] != D:
        errors.append(f"embed summary n_points/p/D = {summary['n_points']}/{summary['p']}/{summary['D']}")
    if gamma.shape != (required_m(1, p, D), n) or summary["m"] != gamma.shape[0]:
        errors.append(f"embed matrix shape {gamma.shape}, summary m={summary['m']}")
        return errors
    i, j = np.triu_indices(N, k=1)
    diffs = points[i] - points[j]
    dirs = diffs / np.linalg.norm(diffs, axis=1, keepdims=True)
    sigma = np.linalg.norm(dirs @ gamma.T, axis=1)
    smin, smax = float(sigma.min()), float(sigma.max())
    if not _close(summary["achieved_distortion"], smax / smin):
        errors.append(f"embed achieved_distortion={summary['achieved_distortion']!r}, recomputed {smax / smin!r}")
    errors.extend(_scale_errors(summary["feasible"], summary["L"], smin, smax, D, "embed summary"))
    return errors


def check_verify(
    bases: np.ndarray, gamma: np.ndarray, report_text: str, summary_text: str, sizes: dict, sample
) -> list[str]:
    """Per-member report against svd(Gamma @ B) on a sample of members, and
    the summary against the report's own extremes."""
    lines = report_text.splitlines()
    p = bases.shape[0]
    if len(lines) != p + 1 or lines[0] != "member_index,sigma_min,sigma_max":
        return [f"verify report has {len(lines)} lines / header {lines[:1]!r}"]
    try:
        rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        summary = json.loads(summary_text)
    except ValueError as exc:
        return [f"verify outputs do not parse: {exc}"]
    if rows.shape != (p, 3) or not np.array_equal(rows[:, 0], np.arange(p)):
        return ["verify report rows are not member_index,sigma_min,sigma_max in order"]
    if not isinstance(summary, dict) or set(summary) != _SUMMARY_KEYS:
        return [f"verify summary keys {sorted(summary) if isinstance(summary, dict) else summary!r}"]
    errors = []
    for l in sample:
        s = np.linalg.svd(gamma @ bases[l], compute_uv=False)
        if not (_close(rows[l, 1], s[-1]) and _close(rows[l, 2], s[0])):
            errors.append(f"verify member {l}: report ({rows[l, 1]!r}, {rows[l, 2]!r}), svd ({s[-1]!r}, {s[0]!r})")
    smin, smax = float(rows[:, 1].min()), float(rows[:, 2].max())
    if summary["family_sigma_min"] != smin or summary["family_sigma_max"] != smax:
        errors.append("verify summary extremes differ from the report's")
    if summary["D"] != sizes["D"] or not _close(summary["achieved_distortion"], smax / smin):
        errors.append(f"verify summary D/achieved = {summary['D']!r}/{summary['achieved_distortion']!r}")
    errors.extend(_scale_errors(summary["feasible"], summary["L"], smin, smax, sizes["D"], "verify summary"))
    return errors


def check_width(text: str, sizes: dict) -> list[str]:
    """Width JSON: keys, draw count, and the closed-form bound for (k, p)."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"width output does not parse: {exc}"]
    if not isinstance(out, dict) or set(out) != _WIDTH_KEYS:
        return [f"width keys {sorted(out) if isinstance(out, dict) else out!r}"]
    bound = 3.0 * (math.sqrt(math.log(sizes["p"])) + math.sqrt(sizes["k"]))
    errors = []
    if out["n_draws"] != sizes["draws"] or not _close(out["upper_bound_formula"], bound):
        errors.append(f"width n_draws/bound = {out['n_draws']}/{out['upper_bound_formula']!r}")
    if not (0.0 < out["mean"] <= bound and 0.0 < out["std_error"] < out["mean"]):
        errors.append(f"width mean/std_error = {out['mean']!r}/{out['std_error']!r}")
    return errors
