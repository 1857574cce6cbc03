"""Experiment harness: embedding trials, phase-transition sweeps over m,
n-point metric embeddings, and the tightness/lower-bound study.

Every trial is a pure function of (config, trial_index): the family, the
sampled map and all Monte Carlo draws derive their seeds from the single
config seed, so trials can run in any order or in parallel without
changing results.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .distortion import DistortionReport, ScaleChoice, choose_scale, family_distortion
from .ensembles import EnsembleSpec, RandomMatrix, sample_matrix
from .errors import InputError
from .geometry import (
    SubspaceFamily,
    grassmann_distance,
    load_family_json,
    random_subspace,
    sparse_subspace,
)
from .seeding import derive_seed, rng_from
from .stats import WidthEstimate, check_distortion, gaussian_width_mc, required_m

FAMILY_KINDS = ("haar_random", "k_sparse", "user_file")

# seed-stream labels; distinct first path components keep streams disjoint
_FAMILY_STREAM = 1
_GAMMA_STREAM = 2
_STUDY_SWEEP_STREAM = 4
_STUDY_WIDTH_STREAM = 5
_PAIR_STREAM = 6


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment: geometry sizes, ensemble, trial count, seed.

    ``fixed_family`` selects quenched statistics (one family, fresh maps per
    trial, the faithful reading of the embedding guarantee) over annealed
    ones (fresh family per trial); it only affects haar_random families.
    """

    n: int
    k: int
    p: int
    D: float
    ensemble: EnsembleSpec
    family_kind: str = "haar_random"
    trials: int = 100
    seed: int = 0
    m_override: int | None = None
    family_path: str | None = None
    fixed_family: bool = True

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise InputError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.p < 1:
            raise InputError("p must be >= 1")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        check_distortion(self.D)
        if self.family_kind not in FAMILY_KINDS:
            raise InputError(f"family_kind must be one of {FAMILY_KINDS}")
        if self.family_kind == "user_file" and not self.family_path:
            raise InputError("family_kind user_file requires family_path")
        if self.m_override is not None and self.m_override < 1:
            raise InputError("m_override must be >= 1")

    @property
    def m(self) -> int:
        return self.m_override if self.m_override is not None else required_m(self.k, self.p, self.D)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial of the embedding event."""

    trial_index: int
    m_used: int
    feasible: bool
    achieved_distortion: float
    L: float | None

    def to_json_dict(self) -> dict:
        return {
            "trial_index": self.trial_index,
            "m_used": self.m_used,
            "feasible": self.feasible,
            "achieved_distortion": self.achieved_distortion,
            "L": self.L,
        }


@dataclass(frozen=True)
class SweepEntry:
    m: int
    trials: int
    successes: int
    success_rate: float
    mean_achieved_distortion: float


@dataclass(frozen=True)
class SweepResult:
    """Success rates over an increasing grid of target dimensions m."""

    entries: tuple[SweepEntry, ...]
    target_rate: float
    smoothed_rates: tuple[float, ...]
    minimal_m: int | None


@dataclass(frozen=True)
class LowerBoundRow:
    requested_p: int
    family_size: int
    minimal_m: int | None
    width: WidthEstimate
    sweep: SweepResult


def k_sparse_family(n: int, k: int, p: int) -> SubspaceFamily:
    """The first min(p, C(n, k)) coordinate subspaces span{e_i : i in support}.

    Distinct coordinate k-subsets are pairwise at Grassmann distance
    sqrt(2); requests beyond C(n, k) are capped at the full collection,
    since duplicate members would not enlarge the union being embedded.
    """
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if p < 1:
        raise InputError("p must be >= 1")
    count = min(p, math.comb(n, k))
    supports = islice(combinations(range(n), k), count)
    return SubspaceFamily.from_subspaces(sparse_subspace(n, s) for s in supports)


def build_family(config: ExperimentConfig, trial_index: int) -> SubspaceFamily:
    """The family a given trial embeds; fresh per trial only in annealed haar mode."""
    if config.family_kind == "k_sparse":
        return k_sparse_family(config.n, config.k, config.p)
    if config.family_kind == "user_file":
        family = load_family_json(config.family_path)
        if family.ambient_dim != config.n:
            raise InputError(
                f"family file ambient dim {family.ambient_dim} != config n {config.n}"
            )
        if family.size != config.p:
            raise InputError(f"family file has {family.size} members, config says p={config.p}")
        if family.max_dim > config.k:
            raise InputError(f"family file max dim {family.max_dim} exceeds config k {config.k}")
        return family
    if config.fixed_family:
        fam_seed = derive_seed(config.seed, _FAMILY_STREAM)
    else:
        fam_seed = derive_seed(config.seed, _FAMILY_STREAM, trial_index)
    return SubspaceFamily.from_subspaces(
        random_subspace(config.n, config.k, derive_seed(fam_seed, l)) for l in range(config.p)
    )


def run_trial(
    config: ExperimentConfig, trial_index: int, _family: SubspaceFamily | None = None
) -> TrialResult:
    """Sample a map, certify its distortion over the family, pick the scale."""
    family = build_family(config, trial_index) if _family is None else _family
    m = config.m
    gamma = sample_matrix(
        config.ensemble, m, config.n, derive_seed(config.seed, _GAMMA_STREAM, trial_index)
    )
    report = family_distortion(gamma, family)
    scale = choose_scale(report, config.D)
    return TrialResult(
        trial_index=trial_index,
        m_used=m,
        feasible=scale.feasible,
        achieved_distortion=report.achieved_distortion,
        L=scale.L,
    )


def _shared_family(config: ExperimentConfig) -> SubspaceFamily | None:
    """The one family every trial of a run embeds; None in annealed haar
    mode, where each trial builds its own."""
    if config.family_kind == "haar_random" and not config.fixed_family:
        return None
    return build_family(config, 0)


# A pool worker's shared family, keyed by config: built on the worker's
# first task and kept for its later ones, so each worker process builds it
# at most once per run. Only worker tasks fill it; the parent never does.
_worker_families: dict[ExperimentConfig, SubspaceFamily | None] = {}


def _worker_family(config: ExperimentConfig) -> SubspaceFamily | None:
    if config not in _worker_families:
        _worker_families.clear()
        _worker_families[config] = _shared_family(config)
    return _worker_families[config]


def run_trials(config: ExperimentConfig, parallelism: int = 1) -> list[TrialResult]:
    """All config.trials trials, optionally across processes; order-stable."""
    indices = range(config.trials)
    if parallelism <= 1:
        shared = _shared_family(config)
        return [run_trial(config, t, _family=shared) for t in indices]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        chunk = max(1, config.trials // (parallelism * 4))
        return list(pool.map(_trial_worker, [(config, t) for t in indices], chunksize=chunk))


def _trial_worker(args) -> TrialResult:
    config, trial_index = args
    return run_trial(config, trial_index, _family=_worker_family(config))


def _sweep_trial(
    config: ExperimentConfig, m_values, trial_index: int, _family: SubspaceFamily | None = None
) -> list[tuple[bool, float]]:
    """Outcomes at every m for one trial, reusing one tall sample's prefixes."""
    family = build_family(config, trial_index) if _family is None else _family
    m_max = max(m_values)
    gamma_seed = derive_seed(config.seed, _GAMMA_STREAM, trial_index)
    tall = sample_matrix(config.ensemble, m_max, config.n, gamma_seed)
    out = []
    for m in m_values:
        gamma = RandomMatrix(tall.matrix[:m], ensemble=config.ensemble, seed=gamma_seed)
        report = family_distortion(gamma, family)
        scale = choose_scale(report, config.D)
        out.append((scale.feasible, report.achieved_distortion))
    return out


def _sweep_worker(args) -> list[tuple[bool, float]]:
    config, m_values, trial_index = args
    return _sweep_trial(config, m_values, trial_index, _family=_worker_family(config))


def _pav_nondecreasing(values, weights) -> list[float]:
    # pool-adjacent-violators; merges blocks until the sequence is monotone
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([float(v), float(w), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    out: list[float] = []
    for v, _, count in blocks:
        out.extend([v] * count)
    return out


def sweep_m(
    config: ExperimentConfig,
    m_values,
    target_rate: float,
    parallelism: int = 1,
) -> SweepResult:
    """Success rate per m over config.trials trials, plus the minimal m
    whose isotonically smoothed rate reaches target_rate.

    mean_achieved_distortion averages the finite achieved values at each m
    (infinite on full rank collapse).
    """
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise InputError("m_values must be nonempty")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise InputError("m_values must be strictly increasing")
    if not 0.0 < target_rate < 1.0:
        raise InputError("target_rate must lie in (0, 1)")
    if parallelism <= 1:
        shared = _shared_family(config)
        per_trial = [_sweep_trial(config, m_values, t, _family=shared) for t in range(config.trials)]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            chunk = max(1, config.trials // (parallelism * 4))
            per_trial = list(
                pool.map(
                    _sweep_worker,
                    [(config, m_values, t) for t in range(config.trials)],
                    chunksize=chunk,
                )
            )
    entries = []
    for j, m in enumerate(m_values):
        outcomes = [per_trial[t][j] for t in range(config.trials)]
        successes = sum(1 for ok, _ in outcomes if ok)
        finite = [d for _, d in outcomes if math.isfinite(d)]
        mean_achieved = float(np.mean(finite)) if finite else math.inf
        entries.append(
            SweepEntry(
                m=m,
                trials=config.trials,
                successes=successes,
                success_rate=successes / config.trials,
                mean_achieved_distortion=mean_achieved,
            )
        )
    smoothed = _pav_nondecreasing(
        [e.success_rate for e in entries], [float(e.trials) for e in entries]
    )
    minimal_m = None
    for entry, rate in zip(entries, smoothed):
        if rate >= target_rate - 1e-12:
            minimal_m = entry.m
            break
    return SweepResult(
        entries=tuple(entries),
        target_rate=float(target_rate),
        smoothed_rates=tuple(smoothed),
        minimal_m=minimal_m,
    )


def metric_embed(
    points, D: float, ensemble: EnsembleSpec, seed: int
) -> tuple[RandomMatrix, ScaleChoice, DistortionReport]:
    """Embed an N-point set with pairwise distances distorted by at most D.

    Builds the N(N-1)/2 one-dimensional direction subspaces span{x_i - x_j},
    targets m = required_m(1, p, D) dimensions, and certifies the result;
    when feasible, every pairwise distance is preserved up to the factor D
    at scale L. Duplicate points are skipped with a warning.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InputError("need at least 2 points, given as an N x n array")
    n = pts.shape[1]
    scale_ref = max(1.0, float(np.linalg.norm(pts, axis=1).max()))
    # pairs (i, j), i < j, in the order of combinations(range(N), 2)
    i, j = np.triu_indices(pts.shape[0], k=1)
    diffs = pts[i] - pts[j]
    norms = np.linalg.norm(diffs, axis=1)
    keep = norms > 1e-12 * scale_ref
    skipped = int(keep.size - keep.sum())
    if skipped:
        warnings.warn(f"skipped {skipped} duplicate point pair(s)")
        diffs, norms = diffs[keep], norms[keep]
    if not norms.size:
        raise InputError("all points coincide; nothing to embed")
    diffs /= norms[:, None]
    # each unit direction is its own orthonormal 1-column basis
    family = SubspaceFamily.from_stack(diffs[:, :, None])
    del diffs  # from_stack keeps its own copy
    p = family.size
    m = required_m(1, p, D)
    gamma = sample_matrix(ensemble, m, n, derive_seed(seed, _GAMMA_STREAM))
    report = family_distortion(gamma, family)
    scale = choose_scale(report, D)
    return gamma, scale, report


def verify_pointwise(
    gamma: RandomMatrix,
    family: SubspaceFamily,
    L: float,
    D: float,
    n_pairs: int = 10_000,
    seed: int = 0,
    rel_slack: float = 1e-9,
) -> int:
    """Count violations of (L/D)||x-y|| <= ||Gamma(x-y)|| <= L||x-y|| over
    random pairs x, y drawn inside random members.

    Within a member, x - y lies in the direction subspace, so base points
    never enter. rel_slack absorbs floating-point rounding at the singular
    extremes; certification makes the mathematical inequality exact.
    """
    rng = rng_from(seed, _PAIR_STREAM)
    member_idx = rng.integers(0, family.size, n_pairs)
    violations = 0
    for l in range(family.size):
        count = int(np.sum(member_idx == l))
        if count == 0:
            continue
        basis = family.members[l].direction.basis
        k = basis.shape[1]
        coeffs = rng.standard_normal((count, k)) - rng.standard_normal((count, k))
        diffs = coeffs @ basis.T
        norms = np.linalg.norm(diffs, axis=1)
        keep = norms > 0.0
        mapped = np.linalg.norm(gamma.matrix @ diffs[keep].T, axis=0)
        lower = (L / D) * norms[keep] * (1.0 - rel_slack)
        upper = L * norms[keep] * (1.0 + rel_slack)
        violations += int(np.sum((mapped < lower) | (mapped > upper)))
    return violations


def lower_bound_study(
    n: int,
    k: int,
    D: float,
    delta: float,
    p_values,
    ensemble: EnsembleSpec,
    seed: int,
    trials: int = 40,
    target_rate: float = 0.9,
    m_values=None,
    width_draws: int = 4000,
    parallelism: int = 1,
) -> list[LowerBoundRow]:
    """Measured minimal m and Gaussian width across family sizes p.

    Families are k-sparse coordinate subspaces, whose pairwise Grassmann
    separation is checked against delta before use (any offending pair is
    reported). Minimal m comes from sweep_m at target_rate; width from
    gaussian_width_mc. Minimal m is expected to grow with p and k, and to
    shrink as D grows.
    """
    rows = []
    for idx, p in enumerate(p_values):
        family = k_sparse_family(n, k, int(p))
        for i, j in combinations(range(family.size), 2):
            sep = grassmann_distance(family.members[i].direction, family.members[j].direction)
            if sep < delta - 1e-12:
                raise InputError(
                    f"members {i} and {j} have Grassmann separation {sep:.6f} < delta={delta}"
                )
        config = ExperimentConfig(
            n=n,
            k=k,
            p=family.size,
            D=D,
            ensemble=ensemble,
            family_kind="k_sparse",
            trials=trials,
            seed=derive_seed(seed, _STUDY_SWEEP_STREAM, idx),
        )
        grid = m_values if m_values is not None else range(max(1, k - 1), config.m + 1)
        sweep = sweep_m(config, list(grid), target_rate, parallelism=parallelism)
        width = gaussian_width_mc(family, width_draws, derive_seed(seed, _STUDY_WIDTH_STREAM, idx))
        rows.append(
            LowerBoundRow(
                requested_p=int(p),
                family_size=family.size,
                minimal_m=sweep.minimal_m,
                width=width,
                sweep=sweep,
            )
        )
    return rows
