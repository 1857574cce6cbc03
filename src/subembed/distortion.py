"""Exact distortion certification for linear maps over subspace families.

Because every member carries an orthonormal basis B, the extremes of
||Gamma x|| over unit x in the member are exactly the extreme singular
values of Gamma @ B; no net or sampling argument is needed to certify the
two-sided bound (L/D)||x-y|| <= ||Gamma(x-y)|| <= L||x-y||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import RandomMatrix
from .errors import DimensionError
from .geometry import SubspaceFamily
from .stats import _check_budget, check_distortion


@dataclass(frozen=True)
class DistortionReport:
    """Per-member singular extremes and the family-level distortion."""

    per_subspace: tuple[tuple[float, float], ...]
    family_sigma_min: float
    family_sigma_max: float
    achieved_distortion: float  # max/min, +inf on rank collapse

    @property
    def rank_collapse(self) -> bool:
        return not self.family_sigma_min > 0.0


@dataclass(frozen=True)
class ScaleChoice:
    """Whether a scale L makes the two-sided bound hold at distortion D."""

    feasible: bool
    D: float
    L: float | None = None


def _products(maps: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The (T, count, m, k) products of each map of a (T, m, n) stack with
    each basis of a (count, n, k) stack, checked against the element budget
    before they are formed."""
    _check_budget("T*count*m*k", len(maps) * len(bases) * maps.shape[1] * bases.shape[2])
    return maps[:, None] @ bases[None]


def _svd_extremes(products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_min and sigma_max of each m x k matrix of a stack of products,
    one LAPACK SVD per matrix; sigma_min is 0 when m < k."""
    s = np.linalg.svd(products, compute_uv=False)
    m, k = products.shape[-2:]
    lo = np.zeros(s.shape[:-1]) if m < k else s[..., -1]
    return lo, s[..., 0]


# The screen's slack on a squared singular value. The Gram G and the SVD read
# the same computed product P (m x k), so with sigma_max = ||P||_2 each
# eigenvalue of G = fl(P^T P) lies within (m*k + 3*c(k)) * eps * sigma_max^2
# of the square of the SVD's matching value:
# - G's accumulation adds at most m*k*eps*sigma_max^2: its entries are dot
#   products of length m of columns with norms at most sigma_max;
# - eigvalsh is backward stable, to c(k)*eps*||G||;
# - the SVD's values lie within c(k)*eps*sigma_max of P's, 2*c(k)*eps*
#   sigma_max^2 once squared (Weyl; LAPACK Users' Guide, "Error bounds for
#   the singular value decomposition").
# LAPACK's c(k) grows modestly with k. Taking c(k) <= k and m*k <= 2^20
# (_SCREEN_MAX_MK), the sum is at most 2^22 * eps = 2^-30 sigma_max^2, and
# _SCREEN_TAU = 2^-26 (about 6.7e7 eps) leaves a factor of 16 for LAPACK's
# constants and the rounding of the comparisons; larger products are not
# screened. _SCREEN_FLOOR covers, with room, the absolute error of a Gram
# whose entries underflow to subnormal numbers (at most m*k * 2^-1074).
_SCREEN_TAU = 2.0**-26
_SCREEN_MAX_MK = 1 << 20
_SCREEN_FLOOR = 2.0**-1000


def _candidates(products: np.ndarray) -> np.ndarray:
    """(T, count) mask of the pairs of a stack of products whose Gram
    eigenvalue interval can reach their map's family minimum of sigma_min
    or maximum of sigma_max; every pair when m*k is beyond the slack's range
    or a Gram entry or eigenvalue is not finite.

    The Gram P^T P has P's squared singular values as its eigenvalues, so a
    pair whose interval cannot reach its map's smallest upper bound on
    sigma_min^2 (or largest lower bound on sigma_max^2) holds neither
    extreme. When m < k, sigma_min is 0 and only sigma_max is screened.
    """
    m, k = products.shape[-2:]
    every = np.ones(products.shape[:2], dtype=bool)
    if m * k > _SCREEN_MAX_MK:
        return every
    # an overflowing Gram keeps every pair, and the SVD path warns on its own
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(products, -1, -2) @ products
    if not np.isfinite(gram).all():
        return every
    eig = np.linalg.eigvalsh(gram)
    if not np.isfinite(eig).all():
        return every
    top = eig[..., -1]
    slack = _SCREEN_TAU * np.abs(top) + _SCREEN_FLOOR
    keep = top + slack >= (top - slack).max(axis=1, keepdims=True)
    if m >= k:
        bottom = eig[..., 0]
        keep |= bottom - slack <= (bottom + slack).min(axis=1, keepdims=True)
    return keep


def _screened_extremes(maps: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T,) arrays of each map's minimum sigma_min and maximum sigma_max over
    a (count, n, k) stack of bases, bit for bit the min and max of
    ``_svd_extremes(_products(maps, bases))`` along its members.

    The Gram of each product only chooses which pairs get the exact SVD
    (``_candidates``); it never decides a value. numpy runs one LAPACK SVD
    per matrix, so a gathered pair's values are those of the whole stack.
    """
    products = _products(maps, bases)
    keep = _candidates(products)
    # row-major order: each map's pairs are consecutive, and every map keeps
    # at least the pair with the largest lower bound on sigma_max^2
    rows, cols = np.nonzero(keep)
    # every pair kept (alike members, say points on a line): a view, not a copy
    gathered = products.reshape(-1, *products.shape[2:]) if keep.all() else products[rows, cols]
    lo, hi = _svd_extremes(gathered)
    starts = np.searchsorted(rows, np.arange(len(maps)))
    return np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)


def _family_extremes(maps: np.ndarray, family: SubspaceFamily) -> tuple[np.ndarray, np.ndarray]:
    """(T, p) arrays of each map's sigma_min and sigma_max on every member of
    the family: per dimension group of its stacked bases, one broadcast
    product and one batched SVD.

    numpy runs one GEMM and one LAPACK SVD per (map, basis) pair, of the
    pair's own shape, so a pair's extremes are bit for bit the same in any
    stack. When m < k each restriction has a kernel, so sigma_min is 0.
    """
    lo = np.empty((len(maps), family.size))
    hi = np.empty_like(lo)
    for indices, bases in family.stacks:
        lo[:, indices], hi[:, indices] = _svd_extremes(_products(maps, bases))
    return lo, hi


def _achieved(sigma_min: float, sigma_max: float) -> float:
    """The smallest D some scale achieves, from the family's extremes:
    max/min, +inf on rank collapse."""
    return sigma_max / sigma_min if sigma_min > 0.0 else math.inf


def _scale(sigma_min: float, sigma_max: float, D: float) -> ScaleChoice:
    """``choose_scale`` on the family's extremes, D already checked."""
    feasible = sigma_min > 0.0 and sigma_max <= D * sigma_min
    return ScaleChoice(feasible=feasible, D=float(D), L=sigma_max if feasible else None)


def _certify_maps(maps: np.ndarray, family: SubspaceFamily, D: float) -> list[tuple[float, ScaleChoice]]:
    """(achieved_distortion, choose_scale at D) for each map of a (T, m, n)
    stack over the family, bit for bit what ``family_distortion`` and
    ``choose_scale`` give for that map alone, without building the
    per-member extremes into a report. D already checked."""
    lo = np.full(len(maps), np.inf)
    hi = np.full(len(maps), -np.inf)
    for _, bases in family.stacks:
        stack_lo, stack_hi = _screened_extremes(maps, bases)
        lo, hi = np.minimum(lo, stack_lo), np.maximum(hi, stack_hi)
    extremes = zip(lo.tolist(), hi.tolist())
    return [(_achieved(sigma_min, sigma_max), _scale(sigma_min, sigma_max, D)) for sigma_min, sigma_max in extremes]


def family_distortion(gamma: RandomMatrix, family: SubspaceFamily) -> DistortionReport:
    """Aggregate subspace extremes over the family.

    The one-map case of ``_family_extremes``. achieved_distortion is the
    smallest D for which some scale L satisfies the two-sided bound on
    every member; base points are irrelevant since only direction
    subspaces enter.
    """
    if family.ambient_dim != gamma.n:
        raise DimensionError(f"family ambient dim {family.ambient_dim} != matrix cols {gamma.n}")
    (lo,), (hi,) = _family_extremes(gamma.matrix[None], family)
    family_min = float(lo.min())
    family_max = float(hi.max())
    return DistortionReport(
        per_subspace=tuple(zip(lo.tolist(), hi.tolist())),
        family_sigma_min=family_min,
        family_sigma_max=family_max,
        achieved_distortion=_achieved(family_min, family_max),
    )


def choose_scale(report: DistortionReport, D: float) -> ScaleChoice:
    """Pick the scale L = family_sigma_max when distortion D is achievable.

    Feasibility means family_sigma_min > 0 and family_sigma_max <=
    D * family_sigma_min; then L/D <= family_sigma_min, so both sides of
    the bound hold for every member. A map with a kernel on some member
    (in particular the zero map) is never feasible. Any L in
    [family_sigma_max, D * family_sigma_min] would work; the lower
    endpoint is used for determinism. D must be finite and > 1.
    """
    check_distortion(D)
    return _scale(report.family_sigma_min, report.family_sigma_max, D)
