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
from .geometry import Subspace, SubspaceFamily
from .stats import check_distortion


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


def _stack_extremes(maps: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, count) arrays of sigma_min and sigma_max: each map of a (T, m, n)
    stack restricted to each basis of a (count, n, k) stack, from one
    broadcast product and one batched SVD.

    numpy runs one GEMM and one LAPACK SVD per (map, basis) pair, of the
    pair's own shape, so a pair's extremes are bit for bit the same in any
    stack. When m < k each restriction has a kernel, so sigma_min is 0.
    """
    s = np.linalg.svd(maps[:, None] @ bases[None], compute_uv=False)
    lo = np.zeros(s.shape[:2]) if maps.shape[1] < bases.shape[2] else s[..., -1]
    return lo, s[..., 0]


def _family_extremes(maps: np.ndarray, family: SubspaceFamily) -> tuple[np.ndarray, np.ndarray]:
    """(T, p) arrays of each map's per-member extremes over the family: one
    ``_stack_extremes`` call per dimension group of its stacked bases."""
    lo = np.empty((len(maps), family.size))
    hi = np.empty_like(lo)
    for indices, bases in family.stacks:
        lo[:, indices], hi[:, indices] = _stack_extremes(maps, bases)
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
    lo, hi = _family_extremes(maps, family)
    extremes = zip(lo.min(axis=1).tolist(), hi.max(axis=1).tolist())
    return [(_achieved(sigma_min, sigma_max), _scale(sigma_min, sigma_max, D)) for sigma_min, sigma_max in extremes]


def subspace_extremes(gamma: RandomMatrix, w: Subspace) -> tuple[float, float]:
    """(sigma_min, sigma_max) of Gamma restricted to W.

    These equal min/max of ||Gamma x|| over unit x in W. When m < dim(W)
    the restriction has a kernel, so sigma_min is 0.
    """
    if w.ambient_dim != gamma.n:
        raise DimensionError(f"subspace ambient dim {w.ambient_dim} != matrix cols {gamma.n}")
    lo, hi = _stack_extremes(gamma.matrix[None], w.basis[None])
    return float(lo[0, 0]), float(hi[0, 0])


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
