import math

import numpy as np
import pytest

from subembed import (
    EnsembleSpec,
    InputError,
    ResourceError,
    Subspace,
    SubspaceFamily,
    family_distortion,
    gaussian_width_mc,
    k_sparse_family,
    load_family_json,
    required_m,
    sample_matrix,
    success_prob_bound,
    width_upper_bound,
)
from subembed import stats
from subembed.geometry import random_subspace
from subembed.seeding import derive_seed, rng_from

from oracles import concentration_estimate, psi2_estimate, psi2_tail_check, small_ball_bound, write_affine_family

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------- psi2


def test_psi2_gaussian_matches_closed_form():
    # E exp(X^2/C^2) = (1 - 2/C^2)^(-1/2) = 2 at C^2 = 8/3
    x = np.random.default_rng(0).standard_normal(1_000_000)
    assert psi2_estimate(x).value == pytest.approx(math.sqrt(8 / 3), rel=0.05)


def test_psi2_zero_sample_and_errors():
    assert psi2_estimate(np.zeros(5000)).value == 0.0
    with pytest.raises(InputError):
        psi2_estimate([])


def test_psi2_uniform_below_bounded_value_bound():
    x = np.random.default_rng(1).uniform(-SQRT3, SQRT3, 1_000_000)
    assert psi2_estimate(x).value <= 2 * SQRT3


def test_psi2_homogeneity():
    x = np.random.default_rng(2).standard_normal(20_000)
    base = psi2_estimate(x).value
    # power-of-two scalings are exact in floating point
    assert psi2_estimate(2.0 * x).value == 2.0 * base
    assert psi2_estimate(0.25 * x).value == 0.25 * base
    assert psi2_estimate(3.0 * x).value == pytest.approx(3.0 * base, rel=1e-9)


# ---------------------------------------------------------------- concentration


def test_concentration_point_mass():
    assert concentration_estimate(np.full(2000, 5.0), 0.1).value == 1.0


def test_concentration_uniform_window():
    x = np.random.default_rng(3).uniform(0.0, 1.0, 100_000)
    se = math.sqrt(0.25 / x.size)
    assert abs(concentration_estimate(x, 0.25).value - 0.5) <= 3 * se + 0.01


def test_concentration_normal_small_eps():
    x = np.random.default_rng(4).standard_normal(1_000_000)
    value = concentration_estimate(x, 0.1).value
    truth = math.erf(0.1 / math.sqrt(2))  # 2*Phi(0.1) - 1
    assert value == pytest.approx(truth, abs=3 * math.sqrt(truth * (1 - truth) / x.size) + 1e-3)
    assert value <= math.sqrt(2 / math.pi) * 0.1 * 1.05


def test_concentration_monotone_in_eps_and_bounded():
    x = np.random.default_rng(5).standard_normal(50_000)
    values = [concentration_estimate(x, eps).value for eps in (0.05, 0.1, 0.3, 1.0, 4.0)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)
    with pytest.raises(InputError):
        concentration_estimate(x, 0.0)


# ---------------------------------------------------------------- small ball


def test_small_ball_exact_values():
    assert small_ball_bound(0.5, 1, 1 / 36) == pytest.approx(0.5, abs=1e-15)
    assert small_ball_bound(0.5, 2, 1 / 9) == 1.0  # clamped
    assert small_ball_bound(1 / (2 * SQRT3), 3, 0.1) == pytest.approx(0.16431677, abs=1e-6)


def test_small_ball_monotonicity():
    base = small_ball_bound(0.4, 4, 0.02)
    assert small_ball_bound(0.5, 4, 0.02) > base
    assert small_ball_bound(0.4, 4, 0.03) > base
    # for lam < (6 alpha)^-2 the bound decreases in m
    lam = 0.9 * (6 * 0.4) ** -2
    assert small_ball_bound(0.4, 5, lam) < small_ball_bound(0.4, 4, lam)
    with pytest.raises(InputError):
        small_ball_bound(-1.0, 3, 0.1)


# ---------------------------------------------------------------- tail check


def test_psi2_tail_check_cases():
    x = np.random.default_rng(6).standard_normal(200_000)
    assert psi2_tail_check(x, math.sqrt(8 / 3))
    # at t=1 the bound 2 exp(-4) ~ 0.037 is far below the true tail 0.317
    assert not psi2_tail_check(x, 0.5)
    assert psi2_tail_check(np.zeros(20_000), 1.0)


# ---------------------------------------------------------------- gaussian width


def test_width_full_r4():
    fam = SubspaceFamily.from_subspaces([Subspace(np.eye(4))])
    est = gaussian_width_mc(fam, 20_000, seed=123)
    chi4_mean = math.sqrt(2) * math.gamma(2.5) / math.gamma(2)
    assert abs(est.mean - chi4_mean) <= 3 * est.std_error


def test_width_single_line():
    fam = SubspaceFamily.from_subspaces([Subspace(np.eye(3)[:, :1])])
    est = gaussian_width_mc(fam, 20_000, seed=124)
    assert abs(est.mean - math.sqrt(2 / math.pi)) <= 3 * est.std_error


def test_width_draw_budget():
    # the draws are held at once, so their count is checked before any is made
    fam = SubspaceFamily.from_subspaces([Subspace(np.eye(3)[:, :1])])
    with pytest.raises(ResourceError, match=f"element budget {stats.DEFAULT_MAX_ELEMENTS}"):
        gaussian_width_mc(fam, stats.DEFAULT_MAX_ELEMENTS + 1, seed=1)


def test_width_reads_bases_only_and_matches_member_loop(tmp_path):
    rng = np.random.default_rng(8)
    linear = SubspaceFamily.from_subspaces(random_subspace(7, k, seed=i) for i, k in enumerate((1, 3, 2, 3)))
    write_affine_family(tmp_path / "affine.json", linear, rng.standard_normal((4, 7)))
    write_affine_family(tmp_path / "linear.json", linear, [None] * 4)
    fam = load_family_json(tmp_path / "affine.json")
    est = gaussian_width_mc(fam, 500, seed=9)
    assert est == gaussian_width_mc(load_family_json(tmp_path / "linear.json"), 500, seed=9)
    # reference: the per-member loop in member order, bit for bit
    g = rng_from(9).standard_normal((500, 7))
    vals = np.max([np.linalg.norm(g @ m.basis, axis=1) for m in fam.members], axis=0)
    assert est.mean == float(vals.mean())
    assert est.std_error == float(vals.std(ddof=1) / math.sqrt(500))


def member_loop_draws(family, n_draws, seed):
    """The reference: each member's projection norms, one member at a time
    in member order, maximized per draw; also returns the draws."""
    g = rng_from(seed).standard_normal((n_draws, family.ambient_dim))
    return np.max([np.linalg.norm(g @ m.basis, axis=1) for m in family.members], axis=0), g


def tiled_family(rng, n, signed_coordinates):
    """Members of dimension 1, 3, 8 and 9, each stack one member longer than
    a column tile holds: 3 does not divide the tile's column budget, and 8
    or more columns take numpy's pairwise-summation path, which sums 8
    squares as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) where 7 or fewer are
    summed in order; perfbench's verify-width family has members of dimension 8."""
    per_tile = {k: stats.WIDTH_TILE_ENTRIES // (max(n, stats.WIDTH_BLOCK_ROWS) * k) for k in (1, 3, 8, 9)}
    assert per_tile[3] * 3 * max(n, stats.WIDTH_BLOCK_ROWS) != stats.WIDTH_TILE_ENTRIES
    members = []
    for k, count in per_tile.items():
        for _ in range(count + 1):
            if signed_coordinates:
                basis = np.zeros((n, k))
                basis[rng.choice(n, size=k, replace=False), np.arange(k)] = rng.choice([-1.0, 1.0], size=k)
            else:
                basis = np.linalg.qr(rng.standard_normal((n, k)))[0]
            members.append(Subspace(basis))
    members = [members[i] for i in rng.permutation(len(members))]
    fam = SubspaceFamily.from_subspaces(members)
    assert sum(1 for _ in stats._column_tiles(fam)) == 2 * len(fam.stacks)
    # a larger budget widens the tiles (the screen's share of a large family); a smaller one does not
    # (the screen's share of a family of `numbers` numbers is the default budget)
    per_column, numbers = max(n, stats.WIDTH_BLOCK_ROWS), stats._SCREEN_FAMILY_SHARE * stats.WIDTH_TILE_ENTRIES
    assert sum(1 for _ in stats._column_tiles(fam, per_column, 2 * numbers)) == len(fam.stacks)
    assert sum(1 for _ in stats._column_tiles(fam, per_column, numbers // 2)) == 2 * len(fam.stacks)
    return fam


def test_tiled_width_equals_member_loop_bit_for_bit():
    # a signed coordinate basis makes every entry of g @ B one term g_i or
    # -g_i, exact in any summation order, so any BLAS must give the loop's
    # products; the test then pins the tiling, blocking, sums and maxima
    n, seed = 40, 21
    fam = tiled_family(np.random.default_rng(6), n, signed_coordinates=True)
    n_draws = 2 * stats.WIDTH_BLOCK_ROWS + 77
    ref, _ = member_loop_draws(fam, n_draws, seed)
    vals = stats._width_draws(fam, n_draws, seed)
    assert np.array_equal(vals, ref)
    est = gaussian_width_mc(fam, n_draws, seed)
    assert est.mean == float(ref.mean())
    assert est.std_error == float(ref.std(ddof=1) / math.sqrt(n_draws))


def test_tiled_width_matches_member_loop_on_haar_bases():
    # BLAS may order the n-term dot products of a wide GEMM differently from
    # those of a narrow one, so each product entry may move by up to
    # n * eps * ||g|| (unit basis columns); a member norm, by sqrt(k) times that
    n, seed = 40, 22
    fam = tiled_family(np.random.default_rng(7), n, signed_coordinates=False)
    n_draws = 2 * stats.WIDTH_BLOCK_ROWS + 77
    ref, g = member_loop_draws(fam, n_draws, seed)
    vals = stats._width_draws(fam, n_draws, seed)
    tol = math.sqrt(fam.max_dim) * n * np.finfo(float).eps * np.linalg.norm(g, axis=1)
    assert np.all(np.abs(vals - ref) <= tol)


def test_width_draws_come_in_row_blocks_of_one_stream(monkeypatch):
    shapes = []

    class Recording:
        def __init__(self, seed):
            self.rng = rng_from(seed)

        def standard_normal(self, shape):
            shapes.append(shape)
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(stats, "rng_from", Recording)
    fam = k_sparse_family(6, 2, 15)
    n_draws = 2 * stats.WIDTH_BLOCK_ROWS + 3
    stats._width_draws(fam, n_draws, 5)
    assert shapes == [(stats.WIDTH_BLOCK_ROWS, 6), (stats.WIDTH_BLOCK_ROWS, 6), (3, 6)]


def test_width_below_closed_form_bound():
    for (n, k, p, seed) in [(6, 2, 4, 1), (16, 3, 64, 2)]:
        fam = k_sparse_family(n, k, p)
        est = gaussian_width_mc(fam, 5_000, seed=seed)
        assert est.mean <= width_upper_bound(k, fam.size) + 3 * est.std_error


def test_width_upper_bound_values():
    assert width_upper_bound(1, 1) == 3.0
    assert width_upper_bound(4, 16) == pytest.approx(10.9953, abs=1e-3)
    with pytest.raises(InputError):
        width_upper_bound(0, 16)


# ---------------------------------------------------------------- formulas


def test_required_m_values():
    assert required_m(10, 100, 10.0) == 60
    assert required_m(1, 1, 2.0) == 5
    assert required_m(4, 16, 8.0) == 27
    for D in (1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            required_m(4, 16, D)


def test_success_prob_bound_values():
    assert success_prob_bound(10.0, 60) == pytest.approx(1 - 2e-12, abs=1e-15)
    assert success_prob_bound(2.0, 1) == 0.0
    assert success_prob_bound(8.0, 27) == pytest.approx(0.999973, abs=1e-5)
    for D in (0.5, 1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            success_prob_bound(D, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: required_m(1, 2.5, 4.0),
        lambda: required_m(True, 10**400, 4.0),
        lambda: required_m("4", 2, 4.0),
        lambda: required_m(4, "x" * 100_000, 4.0),
        lambda: width_upper_bound("2", 3),
        lambda: width_upper_bound(2, 3.0),
        lambda: success_prob_bound(4.0, "5"),
        lambda: success_prob_bound(4.0, 5.0),
    ],
    ids=["p-float", "k-bool", "k-string", "p-long-string", "width-k-string", "width-p-float", "m-string", "m-float"],
)
def test_formulas_take_integer_counts_only(call):
    with pytest.raises(InputError) as info:
        call()
    assert "must be an integer" in str(info.value) and len(str(info.value)) < 200


def test_formulas_keep_their_values_for_every_integer_type():
    assert required_m(1, 10**400, 4.0) == 3327
    assert required_m(np.int64(4), np.int64(16), 8.0) == 27
    assert width_upper_bound(np.int32(4), 16) == width_upper_bound(4, 16)
    assert success_prob_bound(8.0, np.int64(27)) == success_prob_bound(8.0, 27)


# ------------------------------------------------- ensemble-level implications


def test_empirical_beta_and_alpha_floor_all_ensembles():
    # beta >= 1 and, through concentration at eps = 2, alpha >= 3/8
    rng = np.random.default_rng(1)
    gauss = rng.standard_normal(400_000)
    g8 = rng.standard_normal((400_000, 8))
    sphere = math.sqrt(8) * g8[:, 0] / np.linalg.norm(g8, axis=1)
    unif = rng.uniform(-SQRT3, SQRT3, 400_000)
    for name, samples in (("gaussian", gauss), ("sphere", sphere), ("uniform", unif)):
        assert psi2_estimate(samples).value >= 0.97, name
        c2 = concentration_estimate(samples, 2.0).value
        # Chebyshev: P(|X| <= 2) >= 3/4, so C_2 >= 3/4 and alpha = C_2/2 >= 3/8
        assert c2 >= 0.75 * 0.98, name
        assert c2 / 2.0 >= (3 / 8) * 0.98, name


def test_expected_max_energy_at_least_m():
    # family max of ||Gamma x||^2 dominates any fixed direction, whose mean is m
    n, m, k, p, trials = 16, 6, 2, 4, 300
    fam = SubspaceFamily.from_subspaces([random_subspace(n, k, seed=900 + l) for l in range(p)])
    for kind in ("gaussian", "sphere_scaled", "iid_bounded"):
        spec = EnsembleSpec(kind=kind)
        vals = []
        for t in range(trials):
            gamma = sample_matrix(spec, m, n, derive_seed(33, t))
            vals.append(family_distortion(gamma, fam).family_sigma_max ** 2)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(trials))
        assert mean >= m - 3 * se, kind
