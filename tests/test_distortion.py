import math
import tracemalloc
from itertools import combinations

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
    k_sparse_family,
    random_subspace,
    sample_matrix,
    sparse_subspace,
)
import subembed.distortion as distortion
import subembed.stats as stats
from subembed.distortion import (
    DistortionReport,
    _certify_maps,
    _family_extremes,
    _grid_extremes,
    _svd_extremes,
)
from subembed.ensembles import KINDS

from nets import epsilon_net
from oracles import broadcast_extremes, broadcast_products, subspace_extremes


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
        lo, hi = sampled_range(gamma, member, seed=7)
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
    [outcomes] = _certify_maps(np.stack([g.matrix for g in gammas]), fam, 3.0)
    reports = [family_distortion(gamma, fam) for gamma in gammas]
    assert outcomes == [(r.achieved_distortion, choose_scale(r, 3.0)) for r in reports]


# ---------------------------------------------------------------- Gram screen


def assert_screen_is_exact(maps, family, D=3.0):
    # per map, _certify_maps gives what family_distortion and choose_scale
    # do; at every m from 1 to the maps' rows, screened as one grid, each
    # map's extremes are the min and max of every pair's
    outcomes = _certify_maps(maps, family, D)
    reports = [family_distortion(RandomMatrix(gamma), family) for gamma in maps]
    assert outcomes == [[(r.achieved_distortion, choose_scale(r, D)) for r in reports]]
    grid = range(1, maps.shape[1] + 1)
    screened_lo, screened_hi = _grid_extremes(maps, family, grid)
    for j, m in enumerate(grid):
        lo, hi = _family_extremes(maps[:, :m], family)
        assert np.array_equal(screened_lo[j], lo.min(axis=1))
        assert np.array_equal(screened_hi[j], hi.max(axis=1))


def gathered_pairs(monkeypatch):
    """Count the (map, member) pairs that reach the SVD."""
    counts = []
    svd_extremes = distortion._svd_extremes

    def counting(products):
        counts.append(math.prod(products.shape[:-2]))
        return svd_extremes(products)

    monkeypatch.setattr(distortion, "_svd_extremes", counting)
    return counts


def overflowing_twin_columns(gamma):
    """gamma with columns 0 and 1 equal, each of squared norm 1e308."""
    twin = gamma.copy()
    twin[:, :2] = math.sqrt(1e308 / len(twin))
    return twin


def coordinate_family(n, dims=(1, 2)):
    """Every coordinate subspace of the given dimensions: a mixed family."""
    return SubspaceFamily.from_subspaces(
        [sparse_subspace(n, support) for k in dims for support in combinations(range(n), k)]
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 10),
    m=st.integers(1, 9),
    maps=st.integers(1, 5),
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=12),
    repeats=st.integers(0, 4),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_matches_full_reduction(n, m, maps, dims, repeats, kind, seed):
    # random maps of each ensemble on mixed-dimension families, m < k
    # included; repeated members tie exactly, so their pairs share every
    # interval
    gammas = np.stack([sample_matrix(EnsembleSpec(kind), m, n, derive_seed(seed, t)).matrix for t in range(maps)])
    subs = [random_subspace(n, min(k, n), derive_seed(seed, 99, i)) for i, k in enumerate(dims)]
    assert_screen_is_exact(gammas, SubspaceFamily.from_subspaces(subs + subs[:repeats]))


def test_screen_every_member_tied(monkeypatch):
    # an isometry on coordinate subspaces: every singular value is 1, so every
    # pair's interval reaches both extremes and every pair is a candidate
    family = k_sparse_family(6, 2, 15)
    maps = np.stack([np.eye(8, 6), np.eye(8, 6)[::-1], 2.0 * np.eye(8, 6)])
    counts = gathered_pairs(monkeypatch)
    assert_screen_is_exact(maps, family)
    assert counts[0] == len(maps) * family.size


@pytest.mark.parametrize(
    "case",
    [
        "rank-deficient",
        "scales-2^200",
        "subnormal-gram",
        "gram-overflow",
        "eigenvalue-overflow",
        "eigenvalue-overflow-wide",
        "zero-map",
    ],
)
def test_screen_adversarial_cases(case):
    rng = np.random.default_rng(17)
    n = 6
    family = coordinate_family(n, dims=(1, 2, 3))
    gaussian = rng.standard_normal((7, n))
    if case == "rank-deficient":
        # zero columns give members a kernel; a rank-one map gives all but
        # the one-dimensional members one
        killed = gaussian.copy()
        killed[:, :2] = 0.0
        rank_one = np.outer(rng.standard_normal(7), rng.standard_normal(n))
        maps = np.stack([killed, rank_one, gaussian])
    elif case == "scales-2^200":
        # members of one map whose scales differ by 2^400, and maps 2^400 apart
        spread = gaussian * 2.0 ** np.array([-200, -120, -40, 40, 120, 200])
        maps = np.stack([spread, spread[:, ::-1], gaussian * 2.0**200, gaussian * 2.0**-200])
    elif case == "subnormal-gram":
        # products near 2^-530: the Gram's entries fall to subnormal numbers
        maps = np.stack([gaussian * 2.0**-530, gaussian * 2.0 ** np.array([-530, -537, -540, 0, -535, -600])])
    elif case == "gram-overflow":
        # the Gram of 2^600-sized products overflows, and every pair is kept
        maps = np.stack([gaussian * 2.0**600, gaussian])
    elif case == "eigenvalue-overflow":
        # equal columns e0, e1 of squared norm a = 1e308: members holding both
        # have a finite Gram with the block [[a, a], [a, a]], whose
        # eigenvalue 2a overflows
        maps = np.stack([overflowing_twin_columns(gaussian), gaussian])
    elif case == "eigenvalue-overflow-wide":
        # the same with m = 1 < k, where only sigma_max is screened
        maps = np.stack([overflowing_twin_columns(gaussian[:1]), gaussian[:1]])
    else:
        maps = np.stack([np.zeros((7, n)), gaussian])
    assert_screen_is_exact(maps, family)


def test_screen_subnormal_gram_keeps_the_smaller_pair():
    # in units u = 2^-537, e0's squared norm is 1.1 u^2 and e1's 1.4 u^2, but
    # each square rounds to a whole subnormal u^2, so e0's Gram reads 2 u^2
    # and e1's 1 u^2: only the absolute floor of the slack keeps e0
    u = 2.0**-537
    gamma = np.array([[math.sqrt(0.55) * u, math.sqrt(1.4) * u, 1.0], [math.sqrt(0.55) * u, 0.0, 0.5]])
    family = coordinate_family(3, dims=(1,))
    _, bases = family.stacks[0]
    assert (np.swapaxes(gamma @ bases, 1, 2) @ (gamma @ bases))[:2, 0, 0].tolist() == [2 * u * u, u * u]
    assert_screen_is_exact(gamma[None], family)
    assert family_distortion(RandomMatrix(gamma), family).family_sigma_min < math.sqrt(1.2) * u


def test_screen_subnormal_map_keeps_the_smaller_pair():
    # a map whose every entry is near u = 2^-537, so that its Frobenius norm
    # is a few u and the slack's delta term, near 2^-1120, rounds to 0. Each
    # square rounds to a whole subnormal u^2: e0's squared norm, 1.1 u^2,
    # reads 2 u^2, e1's 1.4 and e2's 1.25 read 1 u^2, and e3's 3.4 reads 4 u^2.
    # e0 holds sigma_min, yet its Gram is neither the largest nor the
    # smallest: only the absolute floor of the slack keeps it
    u = 2.0**-537
    gamma = u * np.sqrt([[0.55, 1.4, 1.0, 1.7], [0.55, 0.0, 0.25, 1.7]])
    family = coordinate_family(4, dims=(1,))
    _, bases = family.stacks[0]
    grams = (np.swapaxes(gamma @ bases, 1, 2) @ (gamma @ bases))[:, 0, 0]
    assert grams.tolist() == [2 * u * u, u * u, u * u, 4 * u * u]
    assert_screen_is_exact(gamma[None], family)
    assert family_distortion(RandomMatrix(gamma), family).family_sigma_min < math.sqrt(1.2) * u


def test_screen_gram_overflow_keeps_every_pair(monkeypatch):
    family = coordinate_family(5)
    maps = np.stack([np.random.default_rng(3).standard_normal((6, 5)) * 2.0**600])
    counts = gathered_pairs(monkeypatch)
    _certify_maps(maps, family, 3.0)
    assert counts == [5, 10]


def test_screen_eigenvalue_overflow_keeps_every_pair_of_its_map(monkeypatch):
    # the twin columns' squares, 2e308 together, overflow the map's
    # Frobenius norm, so its slack is inf and every pair of it is kept; the
    # two-dimensional stack also holds {e0, e1}, whose finite Gram has an
    # overflowing eigenvalue
    family = coordinate_family(5)
    gamma = overflowing_twin_columns(np.random.default_rng(3).standard_normal((6, 5)))
    assert_screen_is_exact(gamma[None], family)
    counts = gathered_pairs(monkeypatch)
    _certify_maps(gamma[None], family, 3.0)
    assert counts == [5, 10]


def test_screen_keeps_every_pair_beyond_its_size_range(monkeypatch):
    # products larger than the slack's range are not screened
    family = coordinate_family(5)
    maps = np.stack([np.random.default_rng(3).standard_normal((6, 5))])
    monkeypatch.setattr(distortion, "_SCREEN_MAX_MK", 5)
    assert_screen_is_exact(maps, family)
    counts = gathered_pairs(monkeypatch)
    _certify_maps(maps, family, 3.0)
    assert counts == [5, 10]


def test_screen_runs_the_svd_on_few_pairs(monkeypatch):
    # random maps of every ensemble have no near ties, so each map keeps
    # about one pair per extreme
    family = k_sparse_family(32, 2, 496)
    counts = gathered_pairs(monkeypatch)
    for kind in KINDS:
        maps = np.stack([sample_matrix(EnsembleSpec(kind), 12, 32, 40 + t).matrix for t in range(3)])
        counts.clear()
        _certify_maps(maps, family, 8.0)
        assert sum(counts) <= 4 * len(maps), kind


@pytest.mark.parametrize("m,k", [(7, 3), (2, 5), (40, 8), (1, 1)])
def test_screen_gathered_svd_rows_are_the_whole_stacks(m, k):
    # the assumption the screen rests on: numpy's SVD of a gathered subset of
    # a stack equals those rows of the SVD of the whole stack, bit for bit
    rng = np.random.default_rng(m * 100 + k)
    maps = rng.standard_normal((3, m, 12))
    bases = np.stack([np.linalg.qr(rng.standard_normal((12, k)))[0] for _ in range(50)])
    products = maps[:, None] @ bases[None]
    whole = np.linalg.svd(products, compute_uv=False)
    rows, cols = np.nonzero(rng.random(products.shape[:2]) < 0.2)
    assert np.array_equal(np.linalg.svd(products[rows, cols], compute_uv=False), whole[rows, cols])
    assert np.array_equal(np.linalg.svd(products[2:, 7:8], compute_uv=False), whole[2:, 7:8])


# ---------------------------------------------------------------- wide screen over a grid


@pytest.mark.parametrize(
    "n,dims,m",
    [(12, (1,), 5), (12, (2,), 7), (256, (8,), 40), (12, (5,), 3), (12, (1, 3, 2), 4)],
    ids=["k=1", "k=2", "n=256-k=8", "m<k", "mixed"],
)
def test_wide_screen_gathered_products_are_the_broadcast_products(n, dims, m):
    # the assumption the exact products of the kept pairs rest on: numpy
    # runs one GEMM of the pair's own shape per matrix, so a map broadcast
    # over its run of gathered bases gives, bit for bit, each pair's product
    # in the broadcast stack, matrix-vector shapes (k = 1) and m < k included
    rng = np.random.default_rng(n * 100 + m)
    maps = rng.standard_normal((3, m + 4, n))
    family = SubspaceFamily.from_subspaces(
        [random_subspace(n, k, derive_seed(m, i)) for i, k in enumerate(dims * 7)]
    )
    for _, bases in family.stacks:
        whole = broadcast_products(maps[:, :m], bases)
        keep = rng.random(whole.shape[:2]) < 0.3
        rows, cols = np.nonzero(keep)
        chunks = list(distortion._kept_products(maps[:, :m], bases, keep))
        assert np.array_equal(np.concatenate([i for i, _, _ in chunks]), rows)
        assert np.array_equal(np.concatenate([j for _, j, _ in chunks]), cols)
        assert np.array_equal(np.concatenate([products for _, _, products in chunks]), whole[rows, cols])


@pytest.mark.parametrize("entries", [1, 700, 1 << 16])
@pytest.mark.parametrize("kept", ["every", "ties", "some"])
def test_kept_products_in_chunks_equal_one_gather(monkeypatch, entries, kept):
    # a chunk holds whole pairs, at least one, counted as n*k + m*k numbers
    # a pair: chunks of 1, 6 and every pair of (m, n, k) = (6, 30, 3) give,
    # in row-major order, the bits of the broadcast products of all kept
    # pairs, with every pair kept (a map's run of five pairs then crosses
    # chunk boundaries) and with tied members
    monkeypatch.setattr(distortion, "WIDTH_TILE_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    maps = rng.standard_normal((4, 9, 30))
    bases = np.stack([np.linalg.qr(rng.standard_normal((30, 3)))[0] for _ in range(5)])
    if kept == "ties":
        bases = bases[[0, 1, 0, 1, 0]]
    keep = np.ones((4, 5), dtype=bool) if kept != "some" else rng.random((4, 5)) < 0.4
    rows, cols = np.nonzero(keep)
    chunks = list(distortion._kept_products(maps[:, :6], bases, keep))
    assert [len(i) for i, _, _ in chunks][:-1] == [max(1, entries // (30 * 3 + 6 * 3))] * (len(chunks) - 1)
    if kept != "some" and entries < 1 << 16:
        assert any(a[-1] == b[0] for (a, _, _), (b, _, _) in zip(chunks, chunks[1:]))
    assert np.array_equal(np.concatenate([i for i, _, _ in chunks]), rows)
    assert np.array_equal(np.concatenate([j for _, j, _ in chunks]), cols)
    whole = broadcast_products(maps[:, :6], bases)
    assert np.array_equal(np.concatenate([products for _, _, products in chunks]), whole[rows, cols])
    family = SubspaceFamily.from_stack(bases)
    chunked = distortion._grid_extremes(maps, family, (2, 3, 6, 9))
    monkeypatch.setattr(distortion, "WIDTH_TILE_ENTRIES", 1 << 30)
    whole = distortion._grid_extremes(maps, family, (2, 3, 6, 9))
    assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))


@pytest.mark.parametrize("entries", [1, 700, 1 << 16])
@pytest.mark.parametrize(
    "n,dims,m,maps",
    [(12, (1,), 5, 3), (12, (5,), 3, 2), (12, (1, 3, 2), 4, 4), (256, (8,), 40, 2)],
    ids=["k=1", "m<k", "mixed", "n=256-k=8"],
)
def test_family_extremes_are_the_broadcast_extremes(monkeypatch, entries, n, dims, m, maps):
    # every pair through _kept_products, in chunks of one pair, of a few
    # pairs or of whole stacks, gives each (map, member) pair the extremes of
    # one broadcast product and batched SVD, bit for bit
    monkeypatch.setattr(distortion, "WIDTH_TILE_ENTRIES", entries)
    rng = np.random.default_rng(n * 100 + m)
    gammas = rng.standard_normal((maps, m, n))
    family = SubspaceFamily.from_subspaces(
        [random_subspace(n, k, derive_seed(m, i)) for i, k in enumerate(dims * 5)]
    )
    lo, hi = _family_extremes(gammas, family)
    expected_lo, expected_hi = broadcast_extremes(gammas, family)
    assert np.array_equal(lo, expected_lo) and np.array_equal(hi, expected_hi)
    if m < max(dims):
        assert not lo[:, [i for i, k in enumerate(dims * 5) if k > m]].any()


def test_family_distortion_holds_a_fraction_of_its_products():
    # a tall map (n = m = 256, k = 8) over 500 members: the p*m*k products
    # are 8.2 MB, but family_distortion forms them a chunk at a time
    rng = np.random.default_rng(5)
    n, m, k, p = 256, 256, 8, 500
    family = SubspaceFamily.from_stack(np.linalg.qr(rng.standard_normal((p, n, k)))[0])
    gamma = RandomMatrix(rng.standard_normal((m, n)))
    family_distortion(gamma, family)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        family_distortion(gamma, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * m * k * 8 / 4


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 10),
    maps=st.integers(1, 4),
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=10),
    repeats=st.integers(0, 3),
    grid=st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_certification_matches_each_m_alone(n, maps, dims, repeats, grid, seed):
    # one wide product per tile and Grams grown along the grid decide, at
    # every m, what family_distortion and choose_scale decide for each map's
    # first m rows alone: grids that start below k, repeated members (exact
    # ties), mixed dimensions and blocks of several maps
    gammas = np.stack(
        [sample_matrix(EnsembleSpec.gaussian(), grid[-1], n, derive_seed(seed, t)).matrix for t in range(maps)]
    )
    subs = [random_subspace(n, min(k, n), derive_seed(seed, 99, i)) for i, k in enumerate(dims)]
    family = SubspaceFamily.from_subspaces(subs + subs[:repeats])
    outcomes = _certify_maps(gammas, family, 3.0, grid)
    assert len(outcomes) == len(grid)
    for m, at_m in zip(grid, outcomes):
        reports = [family_distortion(RandomMatrix(gamma[:m]), family) for gamma in gammas]
        assert at_m == [(r.achieved_distortion, choose_scale(r, 3.0)) for r in reports]


@pytest.mark.parametrize("kind", ["haar", "k_sparse"])
def test_negative_zero_entries_certify_like_positive_zeros(kind):
    # a GEMM may turn a map entry of -0.0 into +0.0 where a gather keeps it:
    # a map whose zero entries are -0.0 certifies as the same map with +0.0
    # does, bit for bit (repr tells the zeros apart), through the screen and
    # through family_distortion, with zero rows, zero columns (rank collapse
    # on the coordinate members through them) and a grid that starts below k
    n, k, grid = 10, 3, (2, 3, 6, 9)
    if kind == "haar":
        family = SubspaceFamily.from_subspaces(random_subspace(n, k, derive_seed(61, i)) for i in range(30))
    else:
        family = k_sparse_family(n, k, 30)
    rng = np.random.default_rng(61)
    for case in range(15):
        maps = rng.standard_normal((3, grid[-1], n))
        maps[rng.random(maps.shape) < 0.4] = 0.0
        maps[0, case % grid[-1]] = 0.0
        maps[1, :, case % n] = 0.0
        negative = np.where(maps == 0.0, -0.0, maps)
        assert np.signbit(negative[maps == 0.0]).all() and not np.signbit(maps[maps == 0.0]).any()
        assert repr(_certify_maps(maps, family, 4.0, grid)) == repr(_certify_maps(negative, family, 4.0, grid))
        for plus, minus in zip(maps, negative):
            assert repr(family_distortion(RandomMatrix(plus), family)) == repr(
                family_distortion(RandomMatrix(minus), family)
            )


def test_grid_screen_across_column_tiles(monkeypatch):
    # tiles of one to three members: each stack's bounds are assembled from
    # several wide products, and a stack's guard spans all of its tiles
    rng = np.random.default_rng(41)
    n, maps = 9, rng.standard_normal((3, 7, 9))
    family = coordinate_family(n, dims=(1, 2, 3))
    monkeypatch.setattr(stats, "WIDTH_TILE_ENTRIES", 3 * (n + 3 * 7) * 3)
    assert sum(1 for _ in stats._column_tiles(family, n + 3 * 7)) > 3 * len(family.stacks)
    assert_screen_is_exact(maps, family)
    assert_screen_is_exact(np.stack([overflowing_twin_columns(maps[0]), maps[1]]), family)


def record_screen(monkeypatch):
    """Record, in walk order, each tile's (maps, tile, delta) arguments, k,
    the finite mask of its Grams and what _tile_bounds returns for it; and
    each _kept_products call as (m, k, keep): one a tile and m."""
    tiles, kept = [], []
    real_grams, real_tile, real_kept = distortion._gram_extremes, distortion._tile_bounds, distortion._kept_products

    def recorded_grams(wide, m_values):
        bottom, top, finite = real_grams(wide, m_values)
        tiles.append([wide.shape[3], finite.copy()])
        return bottom, top, finite

    def recorded_tile(maps, tile, delta, m_values):
        bounds = real_tile(maps, tile, delta, m_values)
        tiles[-1][:0] = [(maps, tile, delta.copy())]
        tiles[-1].extend(bound.copy() for bound in bounds)
        return bounds

    def recorded_kept(maps, bases, keep):
        kept.append((maps.shape[1], bases.shape[2], keep.copy()))
        return real_kept(maps, bases, keep)

    monkeypatch.setattr(distortion, "_gram_extremes", recorded_grams)
    monkeypatch.setattr(distortion, "_tile_bounds", recorded_tile)
    monkeypatch.setattr(distortion, "_kept_products", recorded_kept)
    return tiles, kept


def tiled_mixed_family(monkeypatch):
    """Nine-dimensional coordinate members, eight of dimension one and seven
    of dimension two, and two maps of six rows, screened over the grid (2,
    4, 6) in tiles of four one-dimensional or two two-dimensional members."""
    n = 9
    pairs = [(1, 2), (2, 3), (3, 5), (0, 4), (5, 6), (6, 7), (1, 8)]
    family = SubspaceFamily.from_subspaces(
        [sparse_subspace(n, (i,)) for i in range(1, n)] + [sparse_subspace(n, pair) for pair in pairs]
    )
    # a column costs n + T*(M + s*(k + 4)) = 57 numbers
    monkeypatch.setattr(stats, "WIDTH_TILE_ENTRIES", 2 * 57 * 2)
    return np.random.default_rng(47).standard_normal((2, 6, n)), family, (2, 4, 6)


def assert_exact_at_every_m(lo, hi, maps, family, grid):
    for j, m in enumerate(grid):
        exact_lo, exact_hi = _family_extremes(maps[:, :m], family)
        assert np.array_equal(lo[j], exact_lo.min(axis=1))
        assert np.array_equal(hi[j], exact_hi.max(axis=1))


@pytest.mark.parametrize("flag", ["size-range", "gram-overflow"])
def test_flagged_stack_across_tiles_adds_nothing_and_keeps_every_pair(monkeypatch, flag):
    # the two-dimensional stack spans four tiles of two members and is
    # flagged at the grid's top m only: by the slack's size range, (6 + 3)*2
    # > 17, or by one tile whose Grams overflow there, that of the one member
    # holding e0, which the last row alone makes huge; that row's square also
    # overflows both maps' Frobenius norms, so there every tile's slack is
    # inf and every pair is kept
    maps, family, grid = tiled_mixed_family(monkeypatch)
    if flag == "size-range":
        monkeypatch.setattr(distortion, "_SCREEN_MAX_MK", 17)
    else:
        maps[:, 5, 0] = 1e155  # its square overflows
    real_tile = distortion._tile_bounds
    tiles, kept = record_screen(monkeypatch)
    lo, hi = distortion._grid_extremes(maps, family, grid)
    ones = [tile for tile in tiles if tile[1] == 1]
    twos = [tile for tile in tiles if tile[1] == 2]
    assert len(ones) == 2 and len(twos) == 4
    assert [bool(finite[-1]) for _, _, finite, *_ in twos].count(False) == (1 if flag == "gram-overflow" else 0)
    # below the top m every tile counts, and at the top m every
    # two-dimensional tile keeps every pair
    for _, _, _, below, above, floor, ceiling in tiles:
        assert all(np.isfinite(bound[:2]).all() for bound in (below, above, floor, ceiling))
    for _, _, _, below, above, _, _ in twos:
        assert np.isneginf(below[2]).all() and np.isposinf(above[2]).all()
    if flag == "size-range":
        # at the top m, the two-dimensional tiles add nothing, though their
        # ceilings, unflagged, lie below those of the rest
        assert all(np.isneginf(floor[2]).all() and np.isposinf(ceiling[2]).all() for *_, floor, ceiling in twos)
        monkeypatch.setattr(distortion, "_SCREEN_MAX_MK", 1 << 20)
        unflagged = [real_tile(*args, np.array(grid))[3][2] for args, *_ in twos]
        assert (np.min(unflagged, axis=0) < np.min([ceiling[2] for *_, ceiling in ones], axis=0)).all()
        assert all(np.isfinite(np.stack(tile[3:5])).all() for tile in ones)
    else:
        for _, _, _, below, above, floor, ceiling in tiles:
            assert np.isneginf(below[2]).all() and np.isposinf(above[2]).all()
            assert np.isneginf(floor[2]).all() and np.isposinf(ceiling[2]).all()
    # every pair of the flagged stack is kept at the top m (and, on the
    # overflow, every pair of every stack), and the extremes are exact at
    # every m
    stack_keeps = {
        (k, m): np.concatenate([keep for m_kept, k_kept, keep in kept if (m_kept, k_kept) == (m, k)], axis=1)
        for k in (1, 2)
        for m in grid
    }
    assert [stack_keeps[2, m].all() for m in grid] == [False, False, True]
    assert [stack_keeps[1, m].all() for m in grid] == [False, False, flag == "gram-overflow"]
    assert_exact_at_every_m(lo, hi, maps, family, grid)


def test_flagged_tile_keeps_every_pair_of_its_maps_and_no_more(monkeypatch):
    # a block of one map whose last row makes e0's products huge, so that
    # the Grams of the one tile holding e0 overflow at the top m, and an
    # ordinary map. There the huge map keeps every pair, its slack being
    # inf; the ordinary map keeps every pair of the flagged tile and, in
    # every other tile, only the pairs whose interval reaches its running
    # floor or ceiling, folded tile by tile
    maps, family, grid = tiled_mixed_family(monkeypatch)
    maps[0, 5, 0] = 1e155
    tiles, kept = record_screen(monkeypatch)
    lo, hi = distortion._grid_extremes(maps, family, grid)
    top = [keep for m, _, keep in kept if m == grid[-1]]
    assert len(top) == len(tiles)
    floor, ceiling = -math.inf, math.inf
    for (_, _, finite, below, above, tile_floor, tile_ceiling), keep in zip(tiles, top):
        floor, ceiling = max(floor, tile_floor[2, 1]), min(ceiling, tile_ceiling[2, 1])
        assert keep[0].all()
        if finite[-1]:
            assert np.array_equal(keep[1], (above[2, 1] >= floor) | (below[2, 1] <= ceiling))
        else:
            assert keep[1].all() and np.isneginf(tile_floor[2, 1]) and np.isposinf(tile_ceiling[2, 1])
    assert [bool(finite[-1]) for _, _, finite, *_ in tiles].count(False) == 1
    assert sum(keep[1].sum() for keep in top) < sum(keep.shape[1] for keep in top)
    assert_exact_at_every_m(lo, hi, maps, family, grid)


def test_one_pass_screen_with_the_extremes_in_the_last_tile(monkeypatch):
    # columns whose norms grow along the family, so that each tile of two
    # one-dimensional members holds the largest norm so far and the early
    # running floors are weak; the last tile holds both the largest column
    # and the smallest. Each tile's larger pair reaches the running floor,
    # and the smallest column of the first tile and of the last reach the
    # running ceiling: 8 pairs a map, all exact
    n = 12
    family = coordinate_family(n, dims=(1,))
    rng = np.random.default_rng(53)
    maps = rng.standard_normal((2, 7, n))
    maps /= np.linalg.norm(maps, axis=1, keepdims=True)
    maps *= np.append(1.1 ** np.arange(n - 1), 0.5)
    # one m: a column costs n + T*(M + s*(k + 4)) = 36 numbers
    monkeypatch.setattr(stats, "WIDTH_TILE_ENTRIES", 2 * 36)
    assert sum(1 for _ in stats._column_tiles(family, 36)) == 6
    counts = gathered_pairs(monkeypatch)
    lo, hi = distortion._grid_extremes(maps, family, (7,))
    assert sum(counts) == 8 * len(maps)
    assert_exact_at_every_m(lo, hi, maps, family, (7,))
    assert_screen_is_exact(maps, family)


def test_screen_keeps_both_pairs_of_a_near_tie(monkeypatch):
    # columns 0 and 1 hold the map's largest norm, their squares 1e-10
    # relative apart: inside the slack's 2^-26 (about 1.5e-8) relative, but
    # beyond it narrowed 2^10-fold. Both tied pairs reach the SVD, beside
    # the pair of the smallest column
    family = coordinate_family(4, dims=(1,))
    gamma = np.random.default_rng(59).standard_normal((6, 4))
    gamma /= np.linalg.norm(gamma, axis=0)
    gamma *= np.array([2.0, 2.0 * math.sqrt(1.0 - 1e-10), 1.0, 0.5])
    tiles, kept = record_screen(monkeypatch)
    _certify_maps(gamma[None], family, 3.0)
    [(_, _, keep)] = kept
    assert keep.tolist() == [[True, True, False, True]]
    assert_screen_is_exact(gamma[None], family)


def kernel_directions(gamma, count, rng, tilt):
    """count unit vectors near gamma's kernel: random kernel directions
    tilted by tilt[i] towards gamma's top right singular vector."""
    _, _, vt = np.linalg.svd(gamma)
    mixed = rng.standard_normal((count, len(vt) - len(gamma))) @ vt[len(gamma) :]
    mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
    tilted = np.sqrt(1.0 - tilt[:, None] ** 2) * mixed + tilt[:, None] * vt[0]
    return tilted / np.linalg.norm(tilted, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "case",
    ["cancellation-large-n", "tied-large-n", "scales-2^200-large-n", "subnormal-large-n", "column-squares-overflow"],
)
def test_wide_screen_adversarial_cases(case):
    # where the wide and the per-pair products differ most: long dot
    # products (n = 300) that cancel to nearly nothing for members near the
    # map's kernel, exact ties, scales 2^400 apart and subnormal Grams; and a
    # map column whose squares overflow, beside a stack that never touches
    # it; at every m of the grid 1..m the extremes are exact
    rng = np.random.default_rng(23)
    n = 300
    gamma = rng.standard_normal((6, n))
    if case == "column-squares-overflow":
        family = SubspaceFamily.from_subspaces(
            [sparse_subspace(5, (0,)), sparse_subspace(5, (4,))]
            + [sparse_subspace(5, support) for support in combinations(range(1, 5), 2)]
        )
        huge = np.random.default_rng(4).standard_normal((3, 6, 5))
        huge[0, :, 0], huge[1, :, 0], huge[2, :, 1] = 1e160, -1e300, 1e200
        for one in huge:
            assert_screen_is_exact(one[None], family)
        maps = huge
    elif case == "cancellation-large-n":
        # one-dimensional members whose images are 1e-16 to 1e-12 of the map,
        # and two-dimensional members holding one of them
        ones = kernel_directions(gamma, 40, rng, 10.0 ** rng.uniform(-16, -12, 40))
        twos = [np.stack([ones[i], rng.standard_normal(n)], axis=1) for i in range(0, 40, 4)]
        family = SubspaceFamily.from_subspaces(
            [Subspace(d[:, None]) for d in ones] + [Subspace(np.linalg.qr(t)[0]) for t in twos]
        )
        maps = np.stack([gamma, -0.5 * gamma])
    elif case == "tied-large-n":
        # an isometry on the first six coordinates and zero beyond: every
        # coordinate member of those reads 1, every other 0
        family = coordinate_family(n, dims=(1,))
        maps = np.stack([np.eye(6, n), 3.0 * np.eye(6, n)[::-1]])
    elif case == "scales-2^200-large-n":
        scales = 2.0 ** np.repeat(np.array([-200, -100, 0, 100, 200]), n // 5)
        family = SubspaceFamily.from_subspaces([random_subspace(n, k, 70 + i) for i, k in enumerate((1, 2, 1, 3) * 4)])
        maps = np.stack([gamma * scales, gamma * scales[::-1]])
    else:
        family = SubspaceFamily.from_subspaces([random_subspace(n, k, 90 + i) for i, k in enumerate((1, 2) * 8)])
        maps = np.stack([gamma * 2.0**-530, gamma * 2.0**-537])
    assert_screen_is_exact(maps, family)


def test_wide_screen_slack_covers_the_wide_product_error(monkeypatch):
    # the wide product may differ from a pair's own product by up to
    # 2*gamma_n |gamma_r|.|b_i| an entry. Moving each entry of a basis by n*eps/2
    # of its magnitude stays within that, with the GEMM's own rounding; here
    # the move is aimed so that the member in the map's kernel, which holds
    # sigma_min, looks larger than a second member does. Without the slack's
    # delta term the screen would drop the member and get sigma_min wrong.
    rng = np.random.default_rng(29)
    n, eps = 256, np.finfo(float).eps
    gamma = rng.standard_normal((6, n))
    _, sv, vt = np.linalg.svd(gamma)
    kernel = vt[6:8]
    aim = 0.5 * n * eps * np.abs(kernel[0]) * np.sign(vt[0])
    seen = np.linalg.norm(gamma @ (kernel[0] + aim))
    # the second member's image is half of what the screen sees of the first
    tilt = 0.5 * seen / sv[0]
    second = np.sqrt(1.0 - tilt**2) * kernel[1] + tilt * vt[0]
    others = np.linalg.qr(rng.standard_normal((n, 6)))[0].T
    family = SubspaceFamily.from_stack(np.concatenate([kernel[:1], second[None], others])[:, :, None])
    shift = np.zeros((family.size, n, 1))
    shift[0, :, 0] = aim
    real = distortion._column_tiles

    def moved(family, *sizes):
        for g, start, tile in real(family, *sizes):
            yield g, start, tile + shift[start : start + len(tile)]

    monkeypatch.setattr(distortion, "_column_tiles", moved)
    exact = family_distortion(RandomMatrix(gamma), family)
    assert exact.family_sigma_min == exact.per_subspace[0][0]
    assert seen > 1.5 * exact.per_subspace[1][0] > 1.5 * exact.per_subspace[0][0]
    assert_screen_is_exact(gamma[None], family)


def test_screen_slack_is_k_times_the_one_column_bound_in_each_stack(monkeypatch):
    # each of a pair's k columns differs from its wide-product column by at
    # most 2*n*eps*||Gamma_m||_F + n*sqrt(m)*2^-1074, so a stack of
    # k-dimensional members takes k times that as its delta, per map and m
    n, grid = 24, np.array([3, 7, 12, 20])
    maps = np.random.default_rng(41).standard_normal((3, grid[-1], n)) * np.array([1.0, 1e-3, 1e3])[:, None, None]
    family = SubspaceFamily.from_subspaces(
        random_subspace(n, k, derive_seed(41, i)) for i, k in enumerate((1, 2, 3) * 4)
    )
    seen = []
    real = distortion._tile_bounds

    def capture(maps, tile, delta, *rest):
        seen.append((tile.shape[2], delta.copy()))
        return real(maps, tile, delta, *rest)

    monkeypatch.setattr(distortion, "_tile_bounds", capture)
    distortion._grid_extremes(maps, family, grid)
    assert sorted({k for k, _ in seen}) == [1, 2, 3]
    frobenius = np.array([[math.sqrt(math.fsum((gamma[:m] ** 2).ravel())) for gamma in maps] for m in grid])
    one_column = 2 * n * np.finfo(float).eps * frobenius + n * np.sqrt(grid)[:, None] * 2.0**-1074
    for k, delta in seen:
        assert delta.shape == (len(grid), len(maps), 1)
        np.testing.assert_allclose(delta[:, :, 0], k * one_column, rtol=1e-13, atol=0)


def test_grid_screen_counts_its_growth_steps_in_the_size_range(monkeypatch):
    # a Gram grown over s values of the grid rounds in up to m + s steps, so
    # its range is (m + s)*k <= _SCREEN_MAX_MK: on the grid (2, 4, 6), m*k
    # stays within a range of 7, but (6 + 3)*1 does not, and the last m
    # keeps every pair
    family = coordinate_family(5, dims=(1,))
    maps = np.random.default_rng(3).standard_normal((1, 6, 5))
    monkeypatch.setattr(distortion, "_SCREEN_MAX_MK", 7)
    counts = gathered_pairs(monkeypatch)
    outcomes = _certify_maps(maps, family, 3.0, (2, 4, 6))
    assert counts[0] < 5 and counts[1] < 5 and counts[2:] == [5]
    assert outcomes[2] == [
        (r.achieved_distortion, choose_scale(r, 3.0)) for r in [family_distortion(RandomMatrix(maps[0]), family)]
    ]


# ---------------------------------------------------------------- certificate boundary


def ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


@pytest.mark.parametrize("D", [8.0, 3.0, 1.5, 1.0000001])
@pytest.mark.parametrize("steps", [-2, -1, 0, 1, 2])
def test_boundary_diagonal_maps_at_D_and_nearby_ulps(D, steps):
    # a diagonal map with entries from 1 to exactly D +- steps ULPs, on every
    # coordinate subspace of dimension 1 and 2: its restrictions are
    # diagonal, their singular values exact, and the certificate must read
    # feasible exactly when the distortion is at most D
    achieved = ulps_from(D, steps)
    n = 5
    diagonal = np.zeros((n + 2, n))
    diagonal[np.arange(n), np.arange(n)] = np.linspace(1.0, achieved, n)[[3, 0, 4, 1, 2]]
    maps = np.stack([diagonal, -diagonal[::-1]])
    family = coordinate_family(n)
    report = family_distortion(RandomMatrix(diagonal), family)
    assert (report.family_sigma_min, report.family_sigma_max) == (1.0, achieved)
    assert report.achieved_distortion == achieved
    scale = choose_scale(report, D)
    assert scale.feasible is (steps <= 0)
    assert scale.L == (achieved if steps <= 0 else None)
    assert _certify_maps(maps, family, D) == [[(achieved, scale)] * 2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    j=st.integers(-60, 60),
    m=st.integers(1, 8),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    D=st.sampled_from([1.5, 3.0, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_boundary_scaling_by_power_of_two_scales_L_exactly(j, m, dims, D, seed):
    maps = np.stack([sample_matrix(EnsembleSpec.gaussian(), m, 8, derive_seed(seed, t)).matrix for t in range(3)])
    family = SubspaceFamily.from_subspaces(
        [random_subspace(8, k, derive_seed(seed, 7, i)) for i, k in enumerate(dims)]
    )
    [base] = _certify_maps(maps, family, D)
    [scaled] = _certify_maps(maps * 2.0**j, family, D)
    for (achieved, scale), (scaled_achieved, scaled_scale) in zip(base, scaled):
        assert scaled_achieved == achieved
        assert scaled_scale.feasible == scale.feasible
        assert scaled_scale.L == (None if scale.L is None else scale.L * 2.0**j)


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
        [Subspace(q.T @ m.basis) for m in fam.members]
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
