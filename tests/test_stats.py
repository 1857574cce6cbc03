import math

import numpy as np
import pytest

from subembed import (
    EnsembleSpec,
    InputError,
    Subspace,
    SubspaceFamily,
    concentration_estimate,
    family_distortion,
    gaussian_width_mc,
    k_sparse_family,
    psi2_estimate,
    psi2_tail_check,
    required_m,
    sample_matrix,
    small_ball_bound,
    success_prob_bound,
    width_upper_bound,
)
from subembed.geometry import random_subspace
from subembed.seeding import derive_seed

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


def test_width_below_closed_form_bound():
    for (n, k, p, seed) in [(6, 2, 4, 1), (16, 3, 64, 2)]:
        fam = k_sparse_family(n, k, p)
        est = gaussian_width_mc(fam, 5_000, seed=seed)
        assert est.mean <= width_upper_bound(k, fam.size, 0.0) + 3 * est.std_error


def test_width_upper_bound_values():
    assert width_upper_bound(1, 1, 0.0) == 3.0
    assert width_upper_bound(4, 16, 0.0) == pytest.approx(10.9953, abs=1e-3)
    k, p = 3, 10
    assert width_upper_bound(k, p, 0.5, n=k) == pytest.approx(
        3 * (1.5 * math.sqrt(math.log(p)) + math.sqrt(k))
    )
    with pytest.raises(InputError):
        width_upper_bound(3, 10, 1.0, n=8)
    with pytest.raises(InputError):
        width_upper_bound(3, 10, 0.5)  # r > 0 needs n


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
