import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subembed import (
    DimensionError,
    EnsembleSpec,
    InputError,
    RandomMatrix,
    Subspace,
    SubspaceFamily,
    choose_scale,
    derive_seed,
    family_distortion,
    random_subspace,
    sample_matrix,
    sparse_subspace,
    subspace_extremes,
)
from subembed.distortion import DistortionReport, _certify_maps, _family_extremes

from nets import epsilon_net


def sampled_range(gamma, subspace, count=100_000, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((count, subspace.dim))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    vals = np.linalg.norm(coeffs @ (gamma.matrix @ subspace.basis).T, axis=1)
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------- extremes


def test_extremes_diagonal_and_identity():
    full = Subspace(np.eye(2))
    assert subspace_extremes(RandomMatrix(np.diag([2.0, 1.0])), full) == (1.0, 2.0)
    assert subspace_extremes(RandomMatrix(np.eye(2)), full) == (1.0, 1.0)
    with pytest.raises(DimensionError):
        subspace_extremes(RandomMatrix(np.eye(2)), Subspace(np.eye(3)[:, :1]))


def test_extremes_sandwich_sampled_values():
    for i in range(5):
        gamma = sample_matrix(EnsembleSpec.gaussian(), 8, 16, 300 + i)
        w = random_subspace(16, 3, 400 + i)
        smin, smax = subspace_extremes(gamma, w)
        lo, hi = sampled_range(gamma, w, seed=i)
        assert smin * (1 - 1e-10) <= lo and hi <= smax * (1 + 1e-10)
        assert hi >= 0.99 * smax and lo <= 1.01 * smin


def test_extremes_kernel_when_m_below_k():
    gamma = sample_matrix(EnsembleSpec.gaussian(), 2, 8, 5)
    w = random_subspace(8, 3, 6)
    smin, smax = subspace_extremes(gamma, w)
    assert smin == 0.0 and smax > 0.0


# ---------------------------------------------------------------- family report


def test_family_identity_map():
    fam = SubspaceFamily.from_subspaces([random_subspace(4, 2, seed=i) for i in range(3)])
    report = family_distortion(RandomMatrix(np.eye(4)), fam)
    assert report.achieved_distortion == pytest.approx(1.0, abs=1e-12)
    assert report.family_sigma_min == pytest.approx(1.0, abs=1e-12)


def test_family_diagonal_axes():
    fam = SubspaceFamily.from_subspaces([sparse_subspace(2, (0,)), sparse_subspace(2, (1,))])
    report = family_distortion(RandomMatrix(np.diag([2.0, 1.0])), fam)
    assert report.per_subspace == ((2.0, 2.0), (1.0, 1.0))
    assert report.achieved_distortion == 2.0


def test_family_report_matches_brute_force():
    gamma = sample_matrix(EnsembleSpec.gaussian(), 32, 32, 88)
    fam = SubspaceFamily.from_subspaces([random_subspace(32, 2, seed=500 + i) for i in range(4)])
    report = family_distortion(gamma, fam)
    for member, (smin, smax) in zip(fam.members, report.per_subspace):
        lo, hi = sampled_range(gamma, member.direction, seed=7)
        assert lo == pytest.approx(smin, rel=0.01)
        assert hi == pytest.approx(smax, rel=0.01)
    assert report.family_sigma_min == min(lo for lo, _ in report.per_subspace)
    assert report.family_sigma_max == max(hi for _, hi in report.per_subspace)


def test_family_mixed_dimensions_path():
    gamma = sample_matrix(EnsembleSpec.gaussian(), 6, 9, 13)
    subs = [random_subspace(9, 1, seed=1), random_subspace(9, 3, seed=2)]
    fam = SubspaceFamily.from_subspaces(subs)
    report = family_distortion(gamma, fam)
    for sub, pair in zip(subs, report.per_subspace):
        assert pair == subspace_extremes(gamma, sub)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(5, 9),
    m=st.integers(1, 7),
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_kernel_matches_per_member_svd(n, m, dims, seed):
    # mixed dimensions in any order, including members with m < k
    gamma = sample_matrix(EnsembleSpec.gaussian(), m, n, seed)
    subs = [random_subspace(n, k, derive_seed(seed, i)) for i, k in enumerate(dims)]
    report = family_distortion(gamma, SubspaceFamily.from_subspaces(subs))
    assert len(report.per_subspace) == len(subs)
    for sub, (lo, hi) in zip(subs, report.per_subspace):
        s = np.linalg.svd(gamma.matrix @ sub.basis, compute_uv=False)
        assert hi == pytest.approx(s[0], rel=1e-12)
        if m < sub.dim:
            assert lo == 0.0
        else:
            assert lo == pytest.approx(s[-1], rel=1e-12)
        assert (lo, hi) == subspace_extremes(gamma, sub)
    assert report.family_sigma_min == min(lo for lo, _ in report.per_subspace)
    assert report.family_sigma_max == max(hi for _, hi in report.per_subspace)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(4, 9),
    m=st.integers(1, 7),
    maps=st.integers(1, 6),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_of_maps_certifies_like_each_map_alone(n, m, maps, dims, seed):
    # one broadcast product and batched SVD per stack give each map's
    # extremes bit for bit, mixed dimensions and m < k included
    gammas = [sample_matrix(EnsembleSpec.gaussian(), m, n, derive_seed(seed, t)) for t in range(maps)]
    subs = [random_subspace(n, k, derive_seed(seed, 99, i)) for i, k in enumerate(dims)]
    lo, hi = _family_extremes(np.stack([g.matrix for g in gammas]), SubspaceFamily.from_subspaces(subs))
    assert lo.shape == hi.shape == (maps, len(dims))
    for t, gamma in enumerate(gammas):
        for i, sub in enumerate(subs):
            s = np.linalg.svd(gamma.matrix @ sub.basis, compute_uv=False)
            assert (lo[t, i], hi[t, i]) == (0.0 if m < sub.dim else s[-1], s[0])
    # each map's outcome is the one family_distortion and choose_scale give it alone
    fam = SubspaceFamily.from_subspaces(subs)
    outcomes = _certify_maps(np.stack([g.matrix for g in gammas]), fam, 3.0)
    reports = [family_distortion(gamma, fam) for gamma in gammas]
    assert outcomes == [(r.achieved_distortion, choose_scale(r, 3.0)) for r in reports]


def test_family_rank_collapse_flag():
    gamma = sample_matrix(EnsembleSpec.gaussian(), 1, 6, 3)  # m < k forces a kernel
    fam = SubspaceFamily.from_subspaces([random_subspace(6, 2, seed=4)])
    report = family_distortion(gamma, fam)
    assert math.isinf(report.achieved_distortion)
    assert report.rank_collapse


# ---------------------------------------------------------------- scale choice


def test_choose_scale_examples():
    report = DistortionReport(((1.0, 2.0),), 1.0, 2.0, 2.0)
    scale = choose_scale(report, 2.0)
    assert scale.feasible and scale.L == 2.0

    boundary = DistortionReport(((0.5, 2.0),), 0.5, 2.0, 4.0)
    scale2 = choose_scale(boundary, 4.0)
    assert scale2.feasible and scale2.L == 2.0 and scale2.L / scale2.D == 0.5

    tight = DistortionReport(((1.0, 3.0),), 1.0, 3.0, 3.0)
    assert not choose_scale(tight, 2.0).feasible

    # the zero map satisfies sigma_max <= D * sigma_min, but embeds nothing
    zero = family_distortion(RandomMatrix(np.zeros((3, 4))), SubspaceFamily.from_subspaces(
        [random_subspace(4, 2, seed=1)]
    ))
    assert zero.family_sigma_max == 0.0 and zero.rank_collapse
    degenerate = choose_scale(zero, 8.0)
    assert not degenerate.feasible and degenerate.L is None
    for D in (0.5, 1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            choose_scale(report, D)


# ---------------------------------------------------------------- invariances


def test_scaling_covariance():
    gamma = sample_matrix(EnsembleSpec.gaussian(), 8, 10, 60)
    fam = SubspaceFamily.from_subspaces([random_subspace(10, 2, seed=61 + i) for i in range(3)])
    base = family_distortion(gamma, fam)
    doubled = family_distortion(RandomMatrix(2.0 * gamma.matrix), fam)
    assert doubled.achieved_distortion == base.achieved_distortion  # exact for 2^j
    assert choose_scale(doubled, 4.0).L == 2.0 * choose_scale(base, 4.0).L
    scaled = family_distortion(RandomMatrix(3.7 * gamma.matrix), fam)
    assert scaled.achieved_distortion == pytest.approx(base.achieved_distortion, rel=1e-12)


def test_rotation_invariance():
    rng = np.random.default_rng(70)
    gamma = sample_matrix(EnsembleSpec.gaussian(), 6, 8, 71)
    fam = SubspaceFamily.from_subspaces([random_subspace(8, 2, seed=72 + i) for i in range(3)])
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    rotated_gamma = RandomMatrix(gamma.matrix @ q)
    rotated_fam = SubspaceFamily.from_subspaces(
        [Subspace(q.T @ m.direction.basis) for m in fam.members]
    )
    a = family_distortion(gamma, fam)
    b = family_distortion(rotated_gamma, rotated_fam)
    assert b.achieved_distortion == pytest.approx(a.achieved_distortion, abs=1e-8)
    assert b.family_sigma_max == pytest.approx(a.family_sigma_max, abs=1e-8)


def test_net_consistency_on_member_sphere():
    # min over an eps-net of ||Gamma x|| sits in [sigma_min, sigma_min + eps*sigma_max]
    gamma = sample_matrix(EnsembleSpec.gaussian(), 10, 12, 44)
    w = random_subspace(12, 3, 45)
    smin, smax = subspace_extremes(gamma, w)
    for eps in (0.3, 0.5):
        net = epsilon_net(3, eps, seed=46)
        vals = np.linalg.norm(net.points @ (gamma.matrix @ w.basis).T, axis=1)
        assert vals.min() >= smin - 1e-12
        assert vals.min() <= smin + eps * smax
