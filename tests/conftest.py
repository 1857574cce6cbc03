import numpy as np
import pytest

from subembed import EnsembleSpec, derive_seed, sample_matrix

ENSEMBLE_KINDS = ("gaussian", "sphere_scaled", "iid_bounded")


@pytest.fixture(scope="session")
def bulk_rows():
    """100k rows per (ensemble kind, ambient dim), sampled through the row API."""
    out = {}
    for ki, kind in enumerate(ENSEMBLE_KINDS):
        spec = EnsembleSpec(kind=kind)
        for n in (2, 8, 32):
            out[(kind, n)] = sample_matrix(spec, 100_000, n, derive_seed(505, ki, n)).matrix
    return out


@pytest.fixture(scope="session")
def concentration_rows():
    """Larger samples (200k rows) for the concentration margins, by (kind, n).

    Ambient dimension 8, and 2 as well for iid_bounded, whose worst
    direction (e1 + e2)/sqrt(2) exists from n = 2. Not 2 for sphere_scaled:
    its coordinate density diverges at the support edge for n = 2, so the
    constant-2 concentration property only holds from n = 3 up (at n = 3
    the coordinate is exactly uniform).
    """
    out = {}
    for ki, (kind, n) in enumerate((("gaussian", 8), ("sphere_scaled", 8), ("iid_bounded", 2), ("iid_bounded", 8))):
        out[(kind, n)] = sample_matrix(EnsembleSpec(kind=kind), 200_000, n, derive_seed(707, ki)).matrix
    return out


def unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    dirs = rng.standard_normal((count, n))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
