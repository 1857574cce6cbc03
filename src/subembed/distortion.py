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
from .errors import DimensionError, InputError
from .geometry import Subspace, SubspaceFamily


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


def _stack_extremes(mat: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_min, sigma_max) arrays of mat restricted to each basis of a
    (count, n, k) stack: one product and one batched SVD.

    When m < k each restriction has a kernel, so sigma_min is 0.
    """
    s = np.linalg.svd(mat @ bases, compute_uv=False)
    lo = np.zeros(len(s)) if mat.shape[0] < bases.shape[2] else s[:, -1]
    return lo, s[:, 0]


def subspace_extremes(gamma: RandomMatrix, w: Subspace) -> tuple[float, float]:
    """(sigma_min, sigma_max) of Gamma restricted to W.

    These equal min/max of ||Gamma x|| over unit x in W. When m < dim(W)
    the restriction has a kernel, so sigma_min is 0.
    """
    if w.ambient_dim != gamma.n:
        raise DimensionError(f"subspace ambient dim {w.ambient_dim} != matrix cols {gamma.n}")
    lo, hi = _stack_extremes(gamma.matrix, w.basis[None])
    return float(lo[0]), float(hi[0])


def family_distortion(gamma: RandomMatrix, family: SubspaceFamily) -> DistortionReport:
    """Aggregate subspace extremes over the family.

    Each dimension group of the family's stacked bases is certified by one
    kernel call. achieved_distortion is the smallest D for which some scale
    L satisfies the two-sided bound on every member; base points are
    irrelevant since only direction subspaces enter.
    """
    if family.ambient_dim != gamma.n:
        raise DimensionError(f"family ambient dim {family.ambient_dim} != matrix cols {gamma.n}")
    lo = np.empty(family.size)
    hi = np.empty(family.size)
    for indices, bases in family.stacks:
        lo[indices], hi[indices] = _stack_extremes(gamma.matrix, bases)
    family_min = float(lo.min())
    family_max = float(hi.max())
    achieved = family_max / family_min if family_min > 0.0 else math.inf
    return DistortionReport(
        per_subspace=tuple(zip(lo.tolist(), hi.tolist())),
        family_sigma_min=family_min,
        family_sigma_max=family_max,
        achieved_distortion=achieved,
    )


def choose_scale(report: DistortionReport, D: float) -> ScaleChoice:
    """Pick the scale L = family_sigma_max when distortion D is achievable.

    Feasibility means family_sigma_min > 0 and family_sigma_max <=
    D * family_sigma_min; then L/D <= family_sigma_min, so both sides of
    the bound hold for every member. A map with a kernel on some member
    (in particular the zero map) is never feasible. Any L in
    [family_sigma_max, D * family_sigma_min] would work; the lower
    endpoint is used for determinism.
    """
    if D < 1.0:
        raise InputError("D must be >= 1")
    feasible = (
        report.family_sigma_min > 0.0
        and report.family_sigma_max <= D * report.family_sigma_min
    )
    return ScaleChoice(feasible=feasible, D=float(D), L=report.family_sigma_max if feasible else None)
