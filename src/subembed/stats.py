"""Estimators and closed-form bounds used throughout the package.

Covers empirical psi_2 (subgaussian) norms, epsilon-concentration,
small-ball probabilities, Monte Carlo Gaussian width, the embedding
dimension formula and its success-probability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import SubspaceFamily, reduce_affine
from .seeding import rng_from

#: tail checks and Monte Carlo comparisons use this many binomial std errors
TAIL_SLACK_SE = 3.0


@dataclass(frozen=True)
class Psi2Estimate:
    """Empirical psi_2 norm: smallest C with mean exp(X^2/C^2) <= 2."""

    value: float
    sample_count: int
    method: str = "bisection_on_empirical_mgf"


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Empirical epsilon-concentration: max over centers L of P(|X - L| < eps)."""

    epsilon: float
    value: float
    sample_count: int


@dataclass(frozen=True)
class WidthEstimate:
    """Monte Carlo mean of max_{x in S} <g, x> over standard Gaussian g."""

    mean: float
    std_error: float
    n_draws: int


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


def gaussian_width_mc(family: SubspaceFamily, n_draws: int, seed: int) -> WidthEstimate:
    """Monte Carlo Gaussian width of S = union of (W_l intersect S^{n-1}).

    The max of <g, x> over unit x in W_l is the projection norm ||P_l g||,
    so each draw contributes max_l ||B_l^T g||. Affine members are reduced
    to their directions first.
    """
    if n_draws < 2:
        raise InputError("n_draws must be >= 2")
    reduced = family if family.is_linear else reduce_affine(family)
    n = reduced.ambient_dim
    rng = rng_from(seed)
    vals = np.full(n_draws, -np.inf)
    g = rng.standard_normal((n_draws, n))
    for member in reduced.members:
        proj = np.linalg.norm(g @ member.direction.basis, axis=1)
        np.maximum(vals, proj, out=vals)
    mean = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(n_draws))
    return WidthEstimate(mean=mean, std_error=std_error, n_draws=n_draws)


def width_upper_bound(k: int, p: int, r: float = 0.0, n: int | None = None) -> float:
    """Closed-form width bound 3(sqrt(ln p) + sqrt(k) + r(sqrt(ln p) + sqrt(n-k))).

    The r > 0 variant covers the r-fattened union and needs the ambient
    dimension n; with r = 0 the n term vanishes and n may be omitted.
    """
    if k < 1 or p < 1:
        raise InputError("need k >= 1 and p >= 1")
    if not 0.0 <= r < 1.0:
        raise InputError("need 0 <= r < 1")
    root_ln_p = math.sqrt(math.log(p))
    if r == 0.0:
        return 3.0 * (root_ln_p + math.sqrt(k))
    if n is None:
        raise InputError("n is required when r > 0")
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    return 3.0 * (root_ln_p + math.sqrt(k) + r * (root_ln_p + math.sqrt(n - k)))


def check_distortion(D: float) -> None:
    """Raise InputError unless the distortion budget D is finite and > 1.

    The one domain of D for configs, scale choice, the dimension formula
    and the success bound: D = 1 asks for an isometry, and NaN or infinity
    would pass silently through the comparisons they feed.
    """
    if not (math.isfinite(D) and D > 1.0):
        raise InputError(f"D must be finite and > 1, got {D}")


def required_m(k: int, p: int, D: float) -> int:
    """Target dimension 5(k + ln p / ln D), rounded up to an integer."""
    if k < 1 or p < 1:
        raise InputError("need k >= 1 and p >= 1")
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
    if m < 1:
        raise InputError("m must be >= 1")
    return max(0.0, 1.0 - 2.0 * D ** (-m / 5.0))
