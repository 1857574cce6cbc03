"""Test oracles: checks of the certificate, geometric helpers the proofs use,
and the paper's lemma and tightness checks. The library never calls them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from subembed import (
    DimensionError,
    EnsembleSpec,
    ExperimentConfig,
    InputError,
    RandomMatrix,
    ResourceError,
    Subspace,
    SubspaceFamily,
    SweepResult,
    WidthEstimate,
    gaussian_width_mc,
    k_sparse_family,
    orthonormalize,
    random_subspace,
    sweep_m,
)
from subembed.distortion import _row_norms, _svd_extremes
from subembed.ensembles import _HALF_PI, _LN2, _SERIES, _SQRT_HALF, _sample_rows
from subembed.errors import Record
from subembed.geometry import _family
from subembed.harness import _FAMILY_STREAM
from subembed.seeding import derive_seed, normalize_seed, rng_from, uniforms

# seed-stream labels, disjoint from the library's (1: families, 2: maps)
_STUDY_SWEEP_STREAM = 4
_STUDY_WIDTH_STREAM = 5
_PAIR_STREAM = 6

#: tail checks use this many binomial std errors of slack
TAIL_SLACK_SE = 3.0


# ---------------------------------------------------------------- geometry


def projector(subspace: Subspace) -> np.ndarray:
    """The n x n orthogonal projector onto the subspace."""
    return subspace.basis @ subspace.basis.T


def grassmann_distance(v: Subspace, w: Subspace) -> float:
    """max over unit x in V of the distance to the unit sphere of W.

    Equals sqrt(2 - 2*cos(theta)) = 2*sin(theta/2) for the largest
    principal angle theta of V against W (theta = pi/2 when dim V exceeds
    dim W). Computed from sin(theta), the top singular value of the
    W-orthogonal part of V's basis, which stays accurate for nearly
    contained subspaces. Asymmetric when the dimensions differ: the
    maximum runs over the first argument.
    """
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError("subspaces live in different ambient spaces")
    residual = v.basis - w.basis @ (w.basis.T @ v.basis)
    sines = np.linalg.svd(residual, compute_uv=False)
    sine = min(1.0, float(sines[0]))
    return 2.0 * math.sin(0.5 * math.asin(sine))


def write_affine_family(path, family: SubspaceFamily, points) -> None:
    """A family file of the family's members, each with a "base" entry:
    member l gets points[l], or no "base" where points[l] is None. The
    loader checks every base and drops it, so the file must load to the
    stacks of the same file without its bases."""
    members = []
    for member, point in zip(family.members, points):
        entry = {"basis_columns": member.basis.T.tolist()}
        if point is not None:
            entry["base"] = np.asarray(point, dtype=float).tolist()
        members.append(entry)
    with open(path, "w") as fh:
        json.dump({"n": family.ambient_dim, "members": members}, fh)


def build_metric_family(points) -> SubspaceFamily:
    """The direction family metric_embed certifies, built one pair at a time:
    span{x_i - x_j} for i < j in combinations order, duplicates skipped."""
    dirs = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i] - points[j]
            norm = np.linalg.norm(d)
            if norm > 1e-12:
                dirs.append(Subspace((d / norm).reshape(-1, 1)))
    return SubspaceFamily.from_subspaces(dirs)


def batched_metric_family(points) -> SubspaceFamily:
    """The direction family metric_embed certifies, built as one batch: the
    triu_indices differences, their _row_norms, the 1e-12 * scale_ref
    duplicate mask and the division. metric_embed must certify exactly this
    family; build_metric_family normalizes each pair alone, so its bits may
    differ."""
    pts = np.asarray(points, dtype=float)
    scale_ref = max(1.0, float(_row_norms(pts, "a point's norm").max()))
    i, j = np.triu_indices(len(pts), k=1)
    with np.errstate(over="ignore"):
        diffs = pts[i] - pts[j]
    norms = _row_norms(diffs, "a distance between two points")
    keep = norms > 1e-12 * scale_ref
    diffs, norms = diffs[keep], norms[keep]
    diffs /= norms[:, None]
    return _family(((np.arange(len(diffs)), diffs[:, :, None]),))


def per_member_haar_family(config: ExperimentConfig) -> SubspaceFamily:
    """The haar_random family of a config, built one member at a time:
    member l is random_subspace(n, k, derive_seed(fam_seed, l)), from the
    family seed derive_seed(config.seed, _FAMILY_STREAM). build_family
    orthonormalizes the same draws in one batch and must match this bit for
    bit."""
    fam_seed = derive_seed(config.seed, _FAMILY_STREAM)
    return SubspaceFamily.from_subspaces(
        random_subspace(config.n, config.k, derive_seed(fam_seed, l)) for l in range(config.p)
    )


def cross_family(family: SubspaceFamily, cardinality_budget: int = 100_000) -> SubspaceFamily:
    """All pairwise spans span(W_l, W_l') for l <= l', each of dimension <= 2k.

    Applying the embedding theorem to this family controls distances between
    points in *different* members of the original one.
    """
    p = family.size
    count = p * (p + 1) // 2
    if count > cardinality_budget:
        raise ResourceError(f"cross family has {count} members, budget is {cardinality_budget}")
    directions = family.members
    spans = []
    for l in range(p):
        for lp in range(l, p):
            if l == lp:
                spans.append(directions[l])
            else:
                spans.append(Subspace(orthonormalize(np.hstack([directions[l].basis, directions[lp].basis]))))
    return SubspaceFamily.from_subspaces(spans)


# ---------------------------------------------------------------- seeding

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64's output function on a Python int in [0, 2^64): the
    formula ``seeding._splitmix64_array`` must equal elementwise."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed_reference(seed: int, *path: int) -> int:
    """``seeding.derive_seed`` in Python ints: per index, the mixed parent
    xored with the mixed index, mixed again; the empty path gives the
    normalized seed."""
    out = normalize_seed(seed)
    for index in path:
        out = splitmix64(splitmix64(out) ^ splitmix64(normalize_seed(index)))
    return out


# ---------------------------------------------------------------- sampling


def sample_row(spec: EnsembleSpec, n: int, seed: int) -> np.ndarray:
    """One draw of the ensemble's n-dimensional row, deterministic in (spec, n, seed).

    The one-row case of ``sample_matrix``: row i of ``sample_matrix(spec,
    m, n, seed)`` equals ``sample_row(spec, n, derive_seed(seed, i))``.
    """
    if n < 1:
        raise DimensionError("n must be >= 1")
    return _sample_rows(spec, np.array([normalize_seed(seed)], dtype=np.uint64), n)[0]


def gaussian_rows_reference(seeds: np.ndarray, n: int, attempt: int = 0) -> np.ndarray:
    """``ensembles._gaussian_rows`` written as plain expressions, every
    series run from its highest coefficient (the cos and sin series from
    their leading zero): the reference its in-place form must equal bit for
    bit."""
    width = 2 * ((n + 1) // 2)
    u = uniforms(seeds, width, start=attempt * width)
    mant, expo = np.frexp(1.0 - u[:, 0::2])
    low = mant < _SQRT_HALF
    mant = np.ldexp(mant, low.view(np.int8))
    expo -= low
    s = (mant - 1.0) / (mant + 1.0)
    quarters = 4.0 * u[:, 1::2]
    q = np.floor(quarters)
    t = (quarters - q - 0.5) * _HALF_PI
    args = np.stack([s * s, t * t, t * t])
    series = np.empty_like(args)
    series[...] = _SERIES[0]
    for coeff in _SERIES[1:]:
        series = series * args + coeff
    radius = np.copysign(np.sqrt(-2.0 * (expo * _LN2 + 2.0 * s * series[0])), 1.5 - q)
    cos, sin = series[1], t * series[2]
    odd = np.fmod(q, 2.0) == 1.0
    rows = np.empty((len(seeds), width))
    rows[:, 0::2] = radius * np.where(odd, sin, cos)
    rows[:, 1::2] = radius * np.where(odd, cos, sin)
    return rows[:, :n]


# ---------------------------------------------------------------- certificate


def subspace_extremes(gamma: RandomMatrix, w: Subspace) -> tuple[float, float]:
    """(sigma_min, sigma_max) of Gamma restricted to W, from the library's
    broadcast product and SVD on a one-map, one-basis stack, so bit for bit
    the member's entry in family_distortion's report.

    These equal min/max of ||Gamma x|| over unit x in W. When m < dim(W)
    the restriction has a kernel, so sigma_min is 0.
    """
    if w.ambient_dim != gamma.n:
        raise DimensionError(f"subspace ambient dim {w.ambient_dim} != matrix cols {gamma.n}")
    lo, hi = _svd_extremes(gamma.matrix[None, None] @ w.basis[None, None])
    return float(lo[0, 0]), float(hi[0, 0])


def broadcast_products(maps: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The (T, count, m, k) products of each map of a (T, m, n) stack with
    each basis of a (count, n, k) stack, all formed at once by one broadcast
    matmul: the reference the library's chunked exact products must match
    bit for bit."""
    return maps[:, None] @ bases[None]


def broadcast_extremes(maps: np.ndarray, family: SubspaceFamily) -> tuple[np.ndarray, np.ndarray]:
    """(T, p) arrays of each map's sigma_min and sigma_max on every member,
    from the broadcast products of each dimension stack and one batched SVD."""
    lo = np.empty((len(maps), family.size))
    hi = np.empty_like(lo)
    for indices, bases in family.stacks:
        lo[:, indices], hi[:, indices] = _svd_extremes(broadcast_products(maps, bases))
    return lo, hi


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
        basis = family.members[l].basis
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


# ---------------------------------------------------------------- paper lemmas


class ConcentrationEstimate(Record):
    """Empirical epsilon-concentration: max over centers L of P(|X - L| < eps)."""

    epsilon: float
    value: float
    sample_count: int


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


@dataclass(frozen=True)
class Psi2Estimate:
    """Empirical psi_2 norm: smallest C with mean exp(X^2/C^2) <= 2."""

    value: float
    sample_count: int
    method: str = "bisection_on_empirical_mgf"


def psi2_estimate(samples, rel_tol: float = 1e-4) -> Psi2Estimate:
    """Estimate the psi_2 norm of a sample by bisection on the empirical MGF.

    Samples are normalized by their max absolute value so the result scales
    exactly with the data under power-of-two rescaling. The bracket
    [max|X|/sqrt(ln(2N)), 10*max|X|] always straddles the empirical root.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size == 0:
        raise InputError("psi2_estimate needs a non-empty sample")
    peak = float(np.abs(x).max())
    if peak == 0.0:
        return Psi2Estimate(value=0.0, sample_count=x.size)
    y2 = np.square(x / peak)

    def excess(c: float) -> float:
        return float(np.mean(np.exp(y2 / (c * c)))) - 2.0

    lo = 1.0 / math.sqrt(math.log(2.0 * x.size))
    hi = 10.0
    while excess(lo) < 0.0:
        lo *= 0.5
    while excess(hi) > 0.0:
        hi *= 2.0
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return Psi2Estimate(value=peak * (0.5 * (lo + hi)), sample_count=x.size)


def small_ball_bound(alpha: float, m: int, lam: float) -> float:
    """Bound on P(sum_i X_i^2 <= lam*m) for m entries with densities <= alpha.

    Returns min(1, (6*alpha)^m * lam^(m/2)).
    """
    if alpha <= 0.0 or lam <= 0.0:
        raise InputError("alpha and lam must be positive")
    if m < 1:
        raise InputError("m must be >= 1")
    try:
        direct = (6.0 * alpha) ** m * lam ** (0.5 * m)
    except OverflowError:
        direct = math.nan
    if math.isfinite(direct):
        return min(1.0, direct)
    # extreme magnitudes: evaluate in log space instead
    log_val = m * math.log(6.0 * alpha) + 0.5 * m * math.log(lam)
    return min(1.0, math.exp(min(700.0, log_val)))


def psi2_tail_check(samples, beta: float, ts=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0)) -> bool:
    """Whether empirical tails obey P(|X| > t) <= 2 exp(-t^2/beta^2).

    Checked at each t with TAIL_SLACK_SE binomial standard errors of slack.
    """
    if beta <= 0.0:
        raise InputError("beta must be positive")
    x = np.abs(np.asarray(samples, dtype=float).reshape(-1))
    if x.size == 0:
        raise InputError("psi2_tail_check needs a non-empty sample")
    n = x.size
    for t in ts:
        p_hat = float(np.mean(x > t))
        bound = 2.0 * math.exp(-(t * t) / (beta * beta))
        slack = TAIL_SLACK_SE * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
        if p_hat > bound + slack:
            return False
    return True


# ---------------------------------------------------------------- exact laws


def chi2_sf(x, m: int) -> np.ndarray:
    """P(chi^2_m > x) elementwise, in closed form: exp(-x/2) times a finite
    series for even m, and erfc(sqrt(x/2)) plus such a term for odd m. It is
    the upper tail itself, not 1 - CDF, so it keeps its relative accuracy
    where it is tiny."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    total = np.zeros_like(x)
    if m % 2 == 0:
        # sum over i < m/2 of (x/2)^i / i!
        term = np.ones_like(x)
        for i in range(m // 2):
            total += term
            term = term * half / (i + 1)
        return np.exp(-half) * total
    # sqrt(2/pi) exp(-x/2) times the sum over 1 <= i <= (m-1)/2 of x^(i-1/2) / (2i-1)!!
    term = np.sqrt(x)
    for i in range(1, (m + 1) // 2):
        total += term
        term = term * x / (2 * i + 1)
    erfc = np.frompyfunc(math.erfc, 1, 1)(np.sqrt(half)).astype(float)
    return erfc + math.sqrt(2.0 / math.pi) * np.exp(-half) * total


def coordinate_lines_failure(m: int, p: int, D: float, intervals: int = 4000) -> float:
    """The exact probability that a Gaussian map of m rows is infeasible at D
    on p coordinate lines (a k_sparse family at k = 1).

    A line's squared length under the map is its column's squared norm, so
    the p of them are iid chi^2_m, and the map is feasible iff the largest is
    at most D^2 times the smallest. With S chi^2_m's upper tail and f its
    density, the smallest at x has density p f(x) S(x)^(p-1), so

        P(infeasible) = p * integral of f(x) [S(x)^(p-1) - (S(x) - S(D^2 x))^(p-1)] dx.

    Formed as this difference, not as 1 - P(feasible), it keeps its accuracy
    where infeasibility is rare. x = u^2 turns f(x) dx into chi_m's density
    u^(m-1) exp(-u^2/2) / (2^(m/2-1) Gamma(m/2)), smooth in u, which
    Simpson's rule integrates over [0, sqrt(m) + 10].
    """
    u = np.linspace(0.0, math.sqrt(m) + 10.0, intervals + 1)
    x = u * u
    density = np.exp((m - 1) * np.log(u, where=u > 0, out=np.full_like(u, -np.inf)) - 0.5 * x
                     - (0.5 * m - 1.0) * math.log(2.0) - math.lgamma(0.5 * m))
    tail, far = chi2_sf(x, m), chi2_sf(D * D * x, m)
    # S^(p-1) - (S - S_far)^(p-1) = S^(p-1) (1 - (1 - S_far/S)^(p-1)); S_far <= S
    # but for rounding where both are near 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tail > 0.0, np.minimum(far / tail, 1.0), 0.0)
        gap = -np.expm1((p - 1) * np.log1p(-ratio))
    integrand = p * density * tail ** (p - 1) * gap
    weights = np.ones(intervals + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return float((u[1] - u[0]) / 3.0 * (weights @ integrand))


def binomial_two_sided_p(successes: int, trials: int, prob: float) -> float:
    """The exact two-sided binomial p-value of a count: the probability under
    Binomial(trials, prob) of every count no likelier than the observed one
    (the rule of scipy's binomtest, with its relative tolerance of 1e-7 on
    ties). No normal approximation, which misleads in the tails."""
    if not 0.0 < prob < 1.0:
        raise InputError(f"prob must lie in (0, 1), got {prob}")
    k = np.arange(trials + 1)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((trials - k[:-1]) / k[1:]))))
    pmf = np.exp(log_choose + k * math.log(prob) + (trials - k) * math.log1p(-prob))
    return float(min(1.0, pmf[pmf <= pmf[successes] * (1.0 + 1e-7)].sum()))


@dataclass(frozen=True)
class LowerBoundRow:
    requested_p: int
    family_size: int
    minimal_m: int | None
    width: WidthEstimate
    sweep: SweepResult


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
            sep = grassmann_distance(family.members[i], family.members[j])
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
