"""Experiment harness: embedding trials, phase-transition sweeps over m,
and n-point metric embeddings.

Every trial is a pure function of (config, trial_index): a run embeds one
family, built from the config alone, and the sampled maps and all Monte
Carlo draws derive their seeds from the single config seed, so trials can
run in any order or in parallel without changing results. One executor,
``_trial_range``, runs every range of consecutive trials with one family
build: a serial run is one range, a pooled run one range per worker
process, and ``run_trial`` a range of one.
Every certificate is computed in ``distortion`` as a family's extremes
(sigma_min, sigma_max), which meet D only in ``distortion._scale``: the
harness samples the maps, sizes blocks by ``_certify_entries``, carries
each (trial, m)'s extremes and decides them at D when it reports.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from functools import partial
from itertools import combinations, islice

import numpy as np

from . import stats
from .distortion import ScaleChoice, _achieved, _certify_entries, _certify_points, _grid_extremes, _scale
from .ensembles import EnsembleSpec, RandomMatrix, _sample_maps, sample_matrix
from .errors import InputError, Record, _integer, describe_value, naming
from .geometry import SubspaceFamily, _checked, _family, _orthonormal_stacks, load_family_json
from .seeding import derive_seed, derive_seeds, rng_from
from .stats import _check_budget, check_distortion, required_m

# not called here; perfbench/tracing.py wraps these names in this module
from .distortion import choose_scale, family_distortion  # noqa: F401
from .geometry import random_subspace, sparse_subspace  # noqa: F401
from .stats import gaussian_width_mc  # noqa: F401

FAMILY_KINDS = ("haar_random", "k_sparse", "user_file")

# seed-stream labels; distinct first path components keep streams disjoint
_FAMILY_STREAM = 1
_GAMMA_STREAM = 2

# numbers a block of trials may hold at once besides its family (its maps
# and one screen tile, see _block_size), or a twelfth of the family's p*n*k
# numbers when that is more. 3 MB of blocks leave a small run's peak memory
# within a few percent of the interpreter's own; at paper scale the family
# sets the size of a process, and a block of a twelfth of it adds at most
# about 8% to it.
# Blocks are sized from the config alone: building the family in the parent
# to size them would initialise BLAS before a pool forks, which raised a
# pooled run's peak memory by a tenth.
_BLOCK_ENTRIES = 3 << 17
_BLOCK_FAMILY_SHARE = 12


# each ExperimentConfig field's type, as its messages name it; a bool is no
# number, None an absent m_override or family_path, a path object a path
_FIELD_TYPES = {
    **dict.fromkeys(("n", "k", "p", "trials", "seed", "m_override"), (numbers.Integral, "an integer")),
    "D": (numbers.Real, "a number"),
    "fixed_family": (bool, "true or false"),
    "family_path": ((str, os.PathLike), "a string"),
    "family_kind": (str, "a string"),
    "ensemble": (EnsembleSpec, "an EnsembleSpec"),
}


class ExperimentConfig(Record):
    """Inputs of one experiment: geometry sizes, ensemble, trial count, seed.

    Statistics are quenched, the faithful reading of the embedding
    guarantee: every trial embeds the run's one family with a fresh map.
    ``fixed_family`` has one legal value, True; False, which once drew a
    fresh family per trial, is refused.
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
    family_path: str | os.PathLike | None = None
    fixed_family: bool = True

    def __post_init__(self):
        # the one check of each field's type and range; ints stored as int, D as float
        for name, (kind, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and name in ("m_override", "family_path"):
                continue
            if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
                raise InputError(f"config key {name!r} must be {what}, got {describe_value(value)}")
            if kind is numbers.Integral:
                object.__setattr__(self, name, int(value))
        if not self.fixed_family:
            raise InputError("config key 'fixed_family' must be true: annealed trials were removed")
        try:
            object.__setattr__(self, "D", float(self.D))
        except OverflowError as exc:
            raise InputError("config key 'D' is beyond float range") from exc
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


class TrialResult(Record):
    """Outcome of one trial of the embedding event."""

    trial_index: int
    m_used: int
    feasible: bool
    achieved_distortion: float
    L: float | None

    def to_json_dict(self) -> dict:
        # the fields are immutable scalars, so a shallow copy suffices
        return dict(vars(self))


class SweepEntry(Record):
    m: int
    trials: int
    successes: int
    success_rate: float
    mean_achieved_distortion: float


class SweepResult(Record):
    """Success rates over an increasing grid of target dimensions m."""

    entries: tuple[SweepEntry, ...]
    target_rate: float
    smoothed_rates: tuple[float, ...]
    minimal_m: int | None


def k_sparse_family(n: int, k: int, p: int) -> SubspaceFamily:
    """The first min(p, C(n, k)) coordinate subspaces span{e_i : i in support}.

    Distinct coordinate k-subsets are pairwise at Grassmann distance
    sqrt(2); requests beyond C(n, k) are capped at the full collection,
    since duplicate members would not enlarge the union being embedded.
    """
    n, k, p = (_integer(value, f"{name} must be an integer") for name, value in (("n", n), ("k", k), ("p", p)))
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if p < 1:
        raise InputError("p must be >= 1")
    # each member holds n*k numbers; checked first, so math.comb stays small
    _check_budget("n*k", n * k)
    p = min(p, math.comb(n, k))
    _check_budget("p*n*k", p * n * k)
    supports = np.array(list(islice(combinations(range(n), k), p)))
    # column j of member c's basis is the coordinate vector e_{supports[c, j]}
    bases = np.zeros((p, n, k))
    bases[np.arange(p)[:, None], supports, np.arange(k)] = 1.0
    return _family(((np.arange(p), bases),))


def build_family(config: ExperimentConfig) -> SubspaceFamily:
    """The one family every trial of the config embeds."""
    if config.family_kind == "k_sparse":
        return k_sparse_family(config.n, config.k, config.p)
    if config.family_kind == "user_file":
        family = load_family_json(config.family_path)  # which names the file in its own errors
        with naming(config.family_path):
            if family.ambient_dim != config.n:
                raise InputError(f"family file ambient dim {family.ambient_dim} != config n {config.n}")
            if family.size != config.p:
                raise InputError(f"family file has {family.size} members, config says p={config.p}")
            if family.max_dim > config.k:
                raise InputError(f"family file max dim {family.max_dim} exceeds config k {config.k}")
        return family
    fam_seed = derive_seed(config.seed, _FAMILY_STREAM)
    # member l is random_subspace(n, k, derive_seed(fam_seed, l)), orthonormalized in one batch
    _check_budget("p*n*k", config.p * config.n * config.k)
    draws = np.empty((config.p, config.n, config.k))
    for seed, draw in zip(derive_seeds(fam_seed, config.p), draws):
        rng_from(seed).standard_normal(out=draw)
    return _family(_orthonormal_stacks(((np.arange(config.p), draws),)))


def _block_size(config: ExperimentConfig, rows: int, grid: int) -> int:
    """Trials per block when each trial samples a map of this many rows and
    is certified at grid values of m: as many as keep the block within its
    budget, and at least one. Raises ResourceError when one trial holds more
    than the element budget allows.

    Besides the family, a block holds ``_certify_entries``: per trial its
    map, the map's row squares and its Frobenius norms, and one transient
    tile with its Grams, intervals and masks. The budget is _BLOCK_ENTRIES,
    or the family's p*n*k numbers over _BLOCK_FAMILY_SHARE when that is more."""
    n, k, p = config.n, config.k, config.p
    per_trial, tile = _certify_entries(n, k, p, rows, grid)
    _check_budget("a trial's certification entries M*(n + 1) + s (M = max m, s = grid size)", per_trial)
    budget = max(_BLOCK_ENTRIES, p * n * k // _BLOCK_FAMILY_SHARE) - tile
    return max(1, budget // per_trial)


def _block_extremes(config: ExperimentConfig, trials: range, family: SubspaceFamily, m_values) -> np.ndarray:
    """Consecutive trials embedding one family at every m of the strictly
    increasing m_values: a (2, s, T) array of each (trial, m)'s family
    sigma_min and sigma_max.

    Every row seed of the block comes from one vectorized derivation and
    every map from one sampling pass, with max(m_values) rows (rows never
    depend on m). ``_grid_extremes`` then certifies all maps over the whole
    grid at once, bit for bit as for each trial run alone at each m.
    Besides the family, the block holds what ``_block_size`` counts.
    """
    seeds = derive_seeds(derive_seed(config.seed, _GAMMA_STREAM), len(trials), start=trials.start)
    maps = _sample_maps(config.ensemble, seeds, max(m_values), config.n)
    return np.array(_grid_extremes(maps, family, m_values))


def _trial_range(config: ExperimentConfig, m_values, trials: range) -> np.ndarray:
    """The (2, s, T) extremes of a nonempty range of consecutive trials at
    every m of m_values, in trial order. The config's family is built once
    and the trials certified in blocks of _block_size, sized (and checked)
    from the config by what a block holds."""
    size = _block_size(config, max(m_values), len(m_values))
    family = build_family(config)
    blocks = [
        _block_extremes(config, range(lo, min(lo + size, trials.stop)), family, m_values)
        for lo in range(trials.start, trials.stop, size)
    ]
    return np.concatenate(blocks, axis=2)


def _trial_result(D: float, t: int, m: int, sigma_min: float, sigma_max: float) -> TrialResult:
    """Trial t's result at m, decided at D from its family extremes."""
    scale = _scale(sigma_min, sigma_max, D)
    # the fields are already valid, so the result skips __init__
    return _checked(TrialResult, trial_index=t, m_used=m, feasible=scale.feasible,
                    achieved_distortion=_achieved(sigma_min, sigma_max), L=scale.L)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """Sample a map, certify its distortion over the family, pick the scale."""
    m = config.m
    sigma_min, sigma_max = _trial_range(config, (m,), range(trial_index, trial_index + 1))[:, 0, 0].tolist()
    return _trial_result(config.D, trial_index, m, sigma_min, sigma_max)


def __getattr__(name):
    # ProcessPoolExecutor is imported on first use: concurrent.futures.process
    # loads multiprocessing, which only pooled runs need. It is bound into the
    # module globals, where a test or a tracer may replace it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _map_trials(config: ExperimentConfig, m_values, parallelism: int) -> np.ndarray:
    """The (2, s, T) extremes of every trial at each m in m_values, in trial
    order: one range of all trials when serial, or min(parallelism, trials)
    consecutive ranges of near-equal length, one per worker process."""
    parallelism = _integer(parallelism, "parallelism must be an integer")
    if parallelism < 1:
        raise InputError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, config.trials)
    if workers == 1:
        return _trial_range(config, m_values, range(config.trials))
    ranges = [range(w * config.trials // workers, (w + 1) * config.trials // workers) for w in range(workers)]
    # looked up on the module, so that the first pool imports the class
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(partial(_trial_range, config, m_values), ranges)), axis=2)


def run_trials(config: ExperimentConfig, parallelism: int = 1) -> list[TrialResult]:
    """All config.trials trials, optionally across processes; order-stable."""
    m = config.m
    lo, hi = _map_trials(config, (m,), parallelism)[:, 0].tolist()
    return [_trial_result(config.D, t, m, *extremes) for t, extremes in enumerate(zip(lo, hi))]


def _pav_nondecreasing(values, weights) -> list[float]:
    # pool-adjacent-violators; merges blocks until the sequence is monotone
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([float(v), float(w), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    return [v for v, _, count in blocks for _ in range(count)]


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
    try:
        m_values = tuple(_integer(m, "m_values must be integers") for m in m_values)
    except TypeError as exc:
        raise InputError(f"m_values must be integers: {exc}") from exc
    if not m_values:
        raise InputError("m_values must be nonempty")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise InputError("m_values must be strictly increasing")
    if m_values[0] < 1:
        raise InputError(f"every m must be >= 1, got m={m_values[0]}")
    if isinstance(target_rate, bool) or not isinstance(target_rate, numbers.Real):
        raise InputError(f"target_rate must be a number, got {describe_value(target_rate)}")
    if not 0.0 < target_rate < 1.0:
        raise InputError("target_rate must lie in (0, 1)")
    entries = []
    for m, lo, hi in zip(m_values, *_map_trials(config, m_values, parallelism).tolist()):
        successes = sum(_scale(a, b, config.D).feasible for a, b in zip(lo, hi))
        finite = [achieved for achieved in map(_achieved, lo, hi) if math.isfinite(achieved)]
        mean_achieved = float(np.mean(finite)) if finite else math.inf
        entries.append(SweepEntry(m, config.trials, successes, successes / config.trials, mean_achieved))
    smoothed = _pav_nondecreasing([e.success_rate for e in entries], [float(e.trials) for e in entries])
    minimal_m = next((e.m for e, rate in zip(entries, smoothed) if rate >= target_rate - 1e-12), None)
    return SweepResult(tuple(entries), float(target_rate), tuple(smoothed), minimal_m)


def metric_embed(
    points, D: float, ensemble: EnsembleSpec, seed: int
) -> tuple[RandomMatrix, int, float, ScaleChoice]:
    """Embed an N-point set with pairwise distances distorted by at most D.

    Certifies a map to m = required_m(1, p, D) dimensions on the p <= N(N-1)/2
    directions span{x_i - x_j}, and returns the map, p, its achieved
    distortion and the scale choice; when feasible, every pairwise distance
    is preserved up to the factor D at scale L. Duplicate points are skipped
    with a warning. No (pairs, n) or (pairs, m) array is formed: the pairs
    are walked in row chunks (``distortion._certify_points``), which count p
    as they certify. Rows never depend on m, so the map is sampled once, for
    every pair, and walked again on its first m rows only when duplicates
    lower m.
    """
    check_distortion(D)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InputError("need at least 2 points, given as an N x n array")
    if not np.isfinite(pts).all():
        raise InputError("points must be finite")
    N, n = pts.shape
    pairs = N * (N - 1) // 2
    _check_budget("N(N-1)/2", pairs)
    # at most the rows the budget allows; points without coordinates all
    # coincide, and are walked with none of the map's columns
    rows = max(1, min(required_m(1, pairs, D), stats.DEFAULT_MAX_ELEMENTS // max(n, 1)))
    gamma = sample_matrix(ensemble, rows, max(n, 1), derive_seed(seed, _GAMMA_STREAM))
    p, sigma_min, sigma_max = _certify_points(pts, gamma.matrix[:, :n])
    skipped = pairs - p
    if skipped:
        warnings.warn(f"skipped {skipped} duplicate point pair(s)")
    if not p:
        raise InputError("all points coincide; nothing to embed")
    m = required_m(1, p, D)
    _check_budget("m*n", m * n)  # more rows than the budget allowed
    if m < rows:
        gamma = _checked(RandomMatrix, matrix=gamma.matrix[:m])
        _, sigma_min, sigma_max = _certify_points(pts, gamma.matrix)
    return gamma, p, _achieved(sigma_min, sigma_max), _scale(sigma_min, sigma_max, D)
