"""Seeded input generator for the benchmark workloads.

Uses plain numpy and never imports ``subembed``: a change to the library's
random streams must not change what the benchmark feeds it. Every file is a
pure function of (workload sizes, seed).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# one child stream per input file, so resizing one input leaves the others alone
_CONFIG_STREAM = 0
_POINTS_STREAM = 1
_FAMILY_STREAM = 2
_MATRIX_STREAM = 3
_CLI_SEED_STREAM = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), stream]))


def _seed_value(seed: int, stream: int) -> int:
    return int(_rng(seed, stream).integers(0, 2**31 - 1))


def required_m(k: int, p: int, D: float) -> int:
    """The paper's target dimension ceil(5(k + ln p / ln D)), restated here."""
    value = 5.0 * (k + math.log(p) / math.log(D))
    nearest = round(value)
    return int(nearest) if abs(value - nearest) < 1e-9 else int(math.ceil(value))


def matrix_csv(mat: np.ndarray) -> str:
    """The CLI's matrix/points CSV: an "m,n" header, then rows at 17 digits."""
    lines = [f"{mat.shape[0]},{mat.shape[1]}"]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in mat)
    return "\n".join(lines) + "\n"


def haar_bases(seed: int, n: int, k: int, p: int) -> np.ndarray:
    """p orthonormal n x k bases (QR of Gaussian matrices), shape (p, n, k)."""
    gauss = _rng(seed, _FAMILY_STREAM).standard_normal((p, n, k))
    q, r = np.linalg.qr(gauss)
    # fix column signs so the basis is a function of the draw, not of LAPACK
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def family_json(bases: np.ndarray) -> str:
    """The family file format with zero base points; columns stored as lists."""
    p, n, _ = bases.shape
    members = [
        {"base": [0.0] * n, "basis_columns": bases[i].T.tolist()} for i in range(p)
    ]
    return json.dumps({"n": n, "members": members})


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def generate(kind: str, sizes: dict, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload kind into out_dir.

    Returns a dict of input file paths plus the scalar values (seeds,
    sizes) the workload's command lines and checks need.
    """
    os.makedirs(out_dir, exist_ok=True)
    out = {"cli_seed": _seed_value(seed, _CLI_SEED_STREAM)}
    if kind in ("trial", "sweep"):
        config = {
            "n": sizes["n"],
            "k": sizes["k"],
            "p": sizes["p"],
            "D": sizes["D"],
            "ensemble": {"kind": "gaussian"},
            "family_kind": sizes["family_kind"],
            "trials": sizes["trials"],
            "seed": _seed_value(seed, _CONFIG_STREAM),
            "m_override": None,
            "family_path": None,
            "fixed_family": True,
        }
        out["config"] = _write(os.path.join(out_dir, "config.json"), json.dumps(config, indent=1) + "\n")
    elif kind == "embed":
        points = _rng(seed, _POINTS_STREAM).standard_normal((sizes["points"], sizes["n"]))
        out["points"] = _write(os.path.join(out_dir, "points.csv"), matrix_csv(points))
    elif kind == "verify_width":
        n, k, p = sizes["n"], sizes["k"], sizes["p"]
        m = required_m(k, p, sizes["D"])
        out["family"] = _write(os.path.join(out_dir, "family.json"), family_json(haar_bases(seed, n, k, p)))
        gamma = _rng(seed, _MATRIX_STREAM).standard_normal((m, n))
        out["matrix"] = _write(os.path.join(out_dir, "matrix.csv"), matrix_csv(gamma))
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return out
