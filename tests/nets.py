"""Epsilon-nets on the unit sphere S^{k-1}: test oracles for the net
arguments of the proofs. The certificate itself never uses nets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subembed import DimensionError, InputError, ResourceError
from subembed.seeding import rng_from


@dataclass(frozen=True)
class EpsilonNet:
    """Finite subset of S^{k-1} within distance epsilon of every sphere point."""

    epsilon: float
    points: np.ndarray  # N x k unit rows

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise InputError("epsilon must lie in (0, 1]")
        points = np.array(self.points, dtype=float, copy=True)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cardinality_bound(self) -> float:
        return (3.0 / self.epsilon) ** self.dim


def _unit_rows(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    pts = rng.standard_normal((count, k))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows rather than dividing by ~0
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        pts[bad] = rng.standard_normal((int(bad.sum()), k))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return pts / norms


def covering_defect(net_points: np.ndarray, probes: np.ndarray) -> float:
    """Largest distance from a probe to its nearest net point."""
    worst = 0.0
    for start in range(0, probes.shape[0], 4096):
        chunk = probes[start : start + 4096]
        d2 = np.maximum(0.0, 2.0 - 2.0 * (chunk @ net_points.T))
        worst = max(worst, float(np.sqrt(d2.min(axis=1).max())))
    return worst


def _greedy_pack(points: list[np.ndarray], candidates: np.ndarray, epsilon: float) -> int:
    """Add candidates at distance >= epsilon from all kept points; returns how many."""
    added = 0
    eps2 = epsilon * epsilon
    for cand in candidates:
        if not points:
            points.append(cand)
            added += 1
            continue
        kept = np.asarray(points)
        d2 = 2.0 - 2.0 * (kept @ cand)
        if d2.min() >= eps2:
            points.append(cand)
            added += 1
    return added


def epsilon_net(
    k: int,
    epsilon: float,
    seed: int,
    cardinality_budget: int = 100_000,
    probes: int = 100_000,
) -> EpsilonNet:
    """Build an epsilon-net on S^{k-1} by randomized maximal packing.

    Random unit vectors are kept greedily whenever they sit at distance
    >= epsilon from all kept points; probe rounds then hunt for uncovered
    sphere points, which are themselves legal packing points and get added,
    until a full round finds no gap. A maximal epsilon-packing is an
    epsilon-net, and the packing property keeps the size below
    (3/epsilon)^k throughout. A final independent round of ``probes``
    random points checks the covering radius; on failure the construction
    is re-seeded, up to three times.
    """
    if k < 1:
        raise DimensionError("k must be >= 1")
    if not 0.0 < epsilon <= 1.0:
        raise InputError("epsilon must lie in (0, 1]")
    bound = (3.0 / epsilon) ** k
    if bound > cardinality_budget:
        raise ResourceError(
            f"net cardinality bound (3/eps)^k = {bound:.3e} exceeds budget {cardinality_budget}"
        )
    eps2 = epsilon * epsilon
    last_defect = None
    for attempt in range(4):
        rng = rng_from(seed, attempt)
        points: list[np.ndarray] = []
        stale = 0
        while stale < 4:
            added = _greedy_pack(points, _unit_rows(rng, 512, k), epsilon)
            stale = stale + 1 if added == 0 else 0
        # saturation: keep adding probe points that expose gaps until a
        # whole round comes back covered
        for _ in range(200):
            kept = np.asarray(points)
            probe_pts = _unit_rows(rng, 20_000, k)
            d2 = np.maximum(0.0, 2.0 - 2.0 * (probe_pts @ kept.T)).min(axis=1)
            gaps = probe_pts[d2 > eps2]
            if gaps.shape[0] == 0:
                break
            _greedy_pack(points, gaps, epsilon)
        kept = np.asarray(points)
        last_defect = covering_defect(kept, _unit_rows(rng, probes, k))
        if last_defect <= epsilon * (1.0 + 1e-12):
            return EpsilonNet(epsilon=epsilon, points=kept)
    raise ResourceError(
        f"covering check failed after 4 attempts (defect {last_defect:.4f} > eps {epsilon})"
    )
