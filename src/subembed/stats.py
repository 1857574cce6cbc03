"""Estimators and closed-form bounds used throughout the package.

Covers empirical epsilon-concentration, Monte Carlo Gaussian width, the
width bound, the embedding dimension formula and its success-probability
bound.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import InputError, Record, ResourceError, _cut, _integer, describe_value
from .geometry import SubspaceFamily
from .seeding import rng_from

#: default cap on the numbers a sampled or built array holds: a matrix's m*n
#: entries, the Gaussian width's draws, or a built family's bases
DEFAULT_MAX_ELEMENTS = 100_000_000
#: Gaussian-width draws per row block: the (n_draws, n) draws are never held whole
WIDTH_BLOCK_ROWS = 512
#: numbers in one column tile of bases, and in its product with a row block;
#: certification holds a tile's copy and its product within it together
WIDTH_TILE_ENTRIES = 1 << 18
# a tile over a family may hold this share of its numbers when that is more
# than WIDTH_TILE_ENTRIES: the screen's GEMM packs a block's tall map operand
# once per tile, and at n=1024, k=8, p=2000 a block of 10 maps ran its GEMMs
# 1.4 times slower against 144-column tiles than 576-column ones.
_SCREEN_FAMILY_SHARE = 32


def _check_budget(what: str, count: int) -> None:
    """Raise ResourceError if an array of ``count`` numbers, ``what`` naming
    the product, would exceed DEFAULT_MAX_ELEMENTS; called before allocating it."""
    if count > DEFAULT_MAX_ELEMENTS:
        raise ResourceError(f"{what} = {count} exceeds the element budget {DEFAULT_MAX_ELEMENTS}")


class ConcentrationEstimate(Record):
    """Empirical epsilon-concentration: max over centers L of P(|X - L| < eps)."""

    epsilon: float
    value: float
    sample_count: int


class WidthEstimate(Record):
    """Monte Carlo mean of max_{x in S} <g, x> over standard Gaussian g."""

    mean: float
    std_error: float
    n_draws: int


def concentration_estimate(samples, epsilon: float) -> ConcentrationEstimate:
    """Exact sliding-window maximum of P(|X - L| < eps) over all centers L."""
    if epsilon <= 0.0:
        raise InputError("epsilon must be positive")
    x = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    if x.size == 0:
        raise InputError("concentration_estimate needs a non-empty sample")
    # points x_i..x_j fit in an open window of width 2*eps iff x_j - x_i < 2*eps
    counts = np.searchsorted(x, x + 2.0 * epsilon, side="left") - np.arange(x.size)
    return ConcentrationEstimate(
        epsilon=float(epsilon), value=float(counts.max()) / x.size, sample_count=x.size
    )


def gaussian_width_mc(family: SubspaceFamily, n_draws: int, seed: int) -> WidthEstimate:
    """Monte Carlo Gaussian width of S = union of (W_l intersect S^{n-1}).

    The max of <g, x> over unit x in W_l is the projection norm ||P_l g||,
    so each draw contributes max_l ||B_l^T g||. The n_draws values are
    held at once, so more than DEFAULT_MAX_ELEMENTS draws raise
    ResourceError.
    """
    n_draws = _integer(n_draws, "n_draws must be an integer")
    if n_draws < 2:
        raise InputError("n_draws must be >= 2")
    _check_budget("n_draws", n_draws)
    vals = _width_draws(family, n_draws, seed)
    mean = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(n_draws))
    return WidthEstimate(mean=mean, std_error=std_error, n_draws=n_draws)


def _width_draws(family: SubspaceFamily, n_draws: int, seed: int) -> np.ndarray:
    """max_l ||B_l^T g|| for each of the n_draws rows g of rng_from(seed).

    The rows are drawn in consecutive blocks of one stream, and each stack
    is read as n x (count*k) column tiles of whole members, so a block costs
    one wide GEMM per tile. The squares are summed over each member's k
    columns, as np.linalg.norm sums them, and the largest sum is kept; one
    sqrt at the end gives the largest norm exactly, since sqrt is monotone
    and correctly rounded.
    """
    n = family.ambient_dim
    rng = rng_from(seed)
    vals = np.zeros(n_draws)
    for start in range(0, n_draws, WIDTH_BLOCK_ROWS):
        g = rng.standard_normal((min(WIDTH_BLOCK_ROWS, n_draws - start), n))
        best = vals[start : start + len(g)]
        for _, _, bases in _column_tiles(family):
            prod = g @ bases.transpose(1, 0, 2).reshape(n, -1)
            np.square(prod, out=prod)
            sq_norms = np.add.reduce(prod.reshape(len(g), -1, bases.shape[2]), axis=2)
            np.maximum(best, sq_norms.max(axis=1), out=best)
    return np.sqrt(vals, out=vals)


def _tile_entries(numbers: int) -> int:
    """The numbers a column tile may hold over a family of this many numbers."""
    return max(WIDTH_TILE_ENTRIES, numbers // _SCREEN_FAMILY_SHARE)


def _column_tiles(family: SubspaceFamily, per_column: int | None = None, numbers: int = 0):
    """(stack position, first member, slice) for the (count, n, k) stack
    slices read as tiles of whole members: at most _tile_entries(numbers) //
    per_column columns of the n x (count*k) bases a tile, or one member, for
    a family of that many numbers. per_column is the numbers a column costs;
    by default max(n, WIDTH_BLOCK_ROWS), which keeps a tile and its product
    with a block of draws each within WIDTH_TILE_ENTRIES."""
    if per_column is None:
        per_column = max(family.ambient_dim, WIDTH_BLOCK_ROWS)
    for g, (_, bases) in enumerate(family.stacks):
        step = max(1, _tile_entries(numbers) // (per_column * bases.shape[2]))
        for start in range(0, len(bases), step):
            yield g, start, bases[start : start + step]


def _counts(k, p) -> tuple[int, int]:
    """A member dimension k and a member count p as Python ints; InputError
    unless each is an integer >= 1."""
    k, p = _integer(k, "k must be an integer"), _integer(p, "p must be an integer")
    if k < 1 or p < 1:
        raise InputError("need k >= 1 and p >= 1")
    return k, p


def width_upper_bound(k: int, p: int) -> float:
    """Closed-form width bound 3(sqrt(ln p) + sqrt(k)) for p subspaces of
    dimension at most k."""
    k, p = _counts(k, p)
    return 3.0 * (math.sqrt(math.log(p)) + math.sqrt(k))


def check_distortion(D: float) -> None:
    """Raise InputError unless the distortion budget D is a real number,
    finite as a float, and > 1.

    The one domain of D for configs, scale choice, the dimension formula
    and the success bound: D = 1 asks for an isometry, and NaN or infinity
    would pass silently through the comparisons they feed.
    """
    if isinstance(D, bool) or not isinstance(D, numbers.Real):
        raise InputError(f"D must be a number, got {describe_value(D)}")
    # exact comparisons: NaN, infinity and an integer beyond float range all fail
    if not 1.0 < D <= sys.float_info.max:
        raise InputError(f"D must be finite and > 1, got {_cut(str(D))}")


def required_m(k: int, p: int, D: float) -> int:
    """Target dimension 5(k + ln p / ln D), rounded up to an integer."""
    k, p = _counts(k, p)
    check_distortion(D)
    value = 5.0 * (k + math.log(p) / math.log(D))
    nearest = round(value)
    # snap values within 1e-9 of an integer so ratios like ln(100)/ln(10)
    # cannot tip the ceiling by one through floating-point noise
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(value))


def success_prob_bound(D: float, m: int) -> float:
    """Lower bound 1 - 2 D^(-m/5) on the embedding success probability, clamped to [0, 1]."""
    check_distortion(D)
    m = _integer(m, "m must be an integer")
    if m < 1:
        raise InputError("m must be >= 1")
    return max(0.0, 1.0 - 2.0 * D ** (-m / 5.0))
