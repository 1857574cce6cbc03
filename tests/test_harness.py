import math
import warnings

import numpy as np
import pytest

from subembed import (
    EnsembleSpec,
    ExperimentConfig,
    InputError,
    build_family,
    derive_seed,
    family_distortion,
    gaussian_width_mc,
    k_sparse_family,
    lower_bound_study,
    metric_embed,
    required_m,
    run_trial,
    run_trials,
    sample_matrix,
    store_family_json,
    sweep_m,
    verify_pointwise,
)

GAUSS = EnsembleSpec.gaussian()


def small_config(**overrides):
    kwargs = dict(
        n=12, k=2, p=4, D=4.0, ensemble=GAUSS, family_kind="haar_random", trials=6, seed=99
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(InputError):
        small_config(k=0)
    with pytest.raises(InputError):
        small_config(k=13)
    for D in (1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            small_config(D=D)
    with pytest.raises(InputError):
        small_config(trials=0)
    with pytest.raises(InputError):
        small_config(family_kind="exotic")
    with pytest.raises(InputError):
        small_config(family_kind="user_file")  # needs family_path
    with pytest.raises(InputError):
        small_config(m_override=0)


def test_config_m_property():
    assert small_config().m == required_m(2, 4, 4.0)
    assert small_config(m_override=9).m == 9


# ---------------------------------------------------------------- families


def test_k_sparse_family_caps_at_total_combinations():
    fam = k_sparse_family(20, 2, 500)
    assert fam.size == math.comb(20, 2)
    assert k_sparse_family(20, 2, 5).size == 5


def test_quenched_family_is_trial_independent():
    cfg = small_config(fixed_family=True)
    fam0 = build_family(cfg, 0)
    fam3 = build_family(cfg, 3)
    for a, b in zip(fam0.members, fam3.members):
        assert np.array_equal(a.direction.basis, b.direction.basis)


def test_annealed_family_changes_per_trial():
    cfg = small_config(fixed_family=False)
    fam0 = build_family(cfg, 0)
    fam1 = build_family(cfg, 1)
    assert not np.allclose(fam0.members[0].direction.basis, fam1.members[0].direction.basis)


def test_user_file_family_checks(tmp_path):
    fam = k_sparse_family(6, 2, 3)
    path = tmp_path / "fam.json"
    store_family_json(fam, path)
    cfg = small_config(n=6, k=2, p=3, family_kind="user_file", family_path=str(path))
    loaded = build_family(cfg, 0)
    assert loaded.size == 3
    bad = small_config(n=6, k=2, p=5, family_kind="user_file", family_path=str(path))
    with pytest.raises(InputError):
        build_family(bad, 0)


# ---------------------------------------------------------------- trials


def test_run_trial_deterministic():
    cfg = small_config()
    a = run_trial(cfg, 2)
    b = run_trial(cfg, 2)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.feasible == (a.achieved_distortion <= cfg.D)


def test_run_trial_full_space_reduces_to_condition_number():
    cfg = ExperimentConfig(
        n=6, k=6, p=1, D=4.0, ensemble=GAUSS, family_kind="haar_random", trials=1, seed=3, m_override=6
    )
    for t in range(20):
        result = run_trial(cfg, t)
        gamma = sample_matrix(GAUSS, 6, 6, derive_seed(cfg.seed, 2, t))
        cond = float(np.linalg.cond(gamma.matrix))
        assert result.feasible == (cond <= cfg.D)
        assert result.achieved_distortion == pytest.approx(cond, rel=1e-10)


def test_run_trials_parallel_matches_serial():
    cfg = small_config(trials=8)
    serial = [r.to_json_dict() for r in run_trials(cfg, parallelism=1)]
    parallel = [r.to_json_dict() for r in run_trials(cfg, parallelism=2)]
    assert serial == parallel


def test_trial_results_invariant_under_member_permutation(tmp_path):
    fam = k_sparse_family(8, 2, 4)
    permuted = type(fam)(tuple(fam.members[i] for i in (2, 0, 3, 1)))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    store_family_json(fam, p1)
    store_family_json(permuted, p2)
    r1 = run_trial(small_config(n=8, p=4, family_kind="user_file", family_path=str(p1)), 0)
    r2 = run_trial(small_config(n=8, p=4, family_kind="user_file", family_path=str(p2)), 0)
    assert r1.to_json_dict() == r2.to_json_dict()


# ---------------------------------------------------------------- sweeps


def test_pool_worker_builds_the_shared_family_once(monkeypatch):
    from subembed import harness

    builds = []
    real = harness.build_family

    def counted(config, trial_index):
        builds.append(trial_index)
        return real(config, trial_index)

    monkeypatch.setattr(harness, "build_family", counted)
    monkeypatch.setattr(harness, "_worker_families", {})
    fixed = small_config(trials=3)
    first = [harness._trial_worker((fixed, t)) for t in range(3)]
    assert builds == [0]
    assert first == run_trials(fixed)
    sweeps = [harness._sweep_worker((fixed, [2, 4], t)) for t in range(3)]
    assert builds == [0, 0]  # the serial run_trials above built its own
    assert sweeps == [harness._sweep_trial(fixed, [2, 4], t) for t in range(3)]
    builds.clear()
    annealed = small_config(trials=3, fixed_family=False)
    for t in range(3):
        harness._trial_worker((annealed, t))
    assert builds == [0, 1, 2]  # a fresh family per trial


def test_sweep_matches_individual_trials():
    cfg = small_config(trials=4, family_kind="k_sparse")
    m_values = [2, 4, 7]
    sweep = sweep_m(cfg, m_values, 0.5)
    for j, m in enumerate(m_values):
        cfg_m = small_config(trials=4, family_kind="k_sparse", m_override=m)
        successes = sum(run_trial(cfg_m, t).feasible for t in range(cfg.trials))
        assert sweep.entries[j].successes == successes


def test_sweep_validation_and_smoothing():
    cfg = small_config(trials=4)
    with pytest.raises(InputError):
        sweep_m(cfg, [], 0.5)
    with pytest.raises(InputError):
        sweep_m(cfg, [3, 3], 0.5)
    with pytest.raises(InputError):
        sweep_m(cfg, [2, 4], 1.5)
    sweep = sweep_m(cfg, [1, 3, 5, 8, 11], 0.9)
    assert all(a <= b + 1e-12 for a, b in zip(sweep.smoothed_rates, sweep.smoothed_rates[1:]))


def test_sweep_rank_deficiency_below_k():
    # a k-dim subspace cannot embed injectively into fewer than k dims
    cfg = ExperimentConfig(
        n=20, k=2, p=1, D=4.0, ensemble=GAUSS, family_kind="k_sparse", trials=10, seed=5
    )
    sweep = sweep_m(cfg, [1], 0.9)
    assert sweep.entries[0].success_rate == 0.0
    assert math.isinf(sweep.entries[0].mean_achieved_distortion)


def test_sweep_reaches_paper_bound_at_required_m():
    # at m >= 5(k + ln p / ln D) the success rate should clear the
    # theorem-level floor max(0.95, bound - 3 se)
    cfg = small_config(trials=40, family_kind="k_sparse")
    m_req = cfg.m
    sweep = sweep_m(cfg, [m_req - 1, m_req], 0.9)
    rate = sweep.entries[-1].success_rate
    from subembed import success_prob_bound

    bound = success_prob_bound(cfg.D, m_req)
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / cfg.trials)
    assert rate >= max(0.95, bound - 3 * se)


def test_sweep_minimal_m_grows_when_D_shrinks():
    grid = list(range(2, 21))
    res4 = sweep_m(
        ExperimentConfig(n=20, k=3, p=100, D=4.0, ensemble=GAUSS, family_kind="k_sparse", trials=40, seed=21),
        grid,
        0.9,
    )
    res2 = sweep_m(
        ExperimentConfig(n=20, k=3, p=100, D=2.0, ensemble=GAUSS, family_kind="k_sparse", trials=40, seed=21),
        grid,
        0.9,
    )
    assert res4.minimal_m is not None
    # at D=2 the target rate is not reached anywhere on a grid that already
    # suffices for D=4, so its minimal m is strictly larger
    assert res2.minimal_m is None or res2.minimal_m > res4.minimal_m


# ---------------------------------------------------------------- metric embed


def test_metric_embed_two_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    gamma, scale, report = metric_embed(pts, 2.0, GAUSS, seed=4)
    assert len(report.per_subspace) == 1
    assert gamma.m == 5  # required_m(1, 1, D) = 5
    assert scale.feasible
    assert report.achieved_distortion == 1.0  # single direction: smin == smax


def test_metric_embed_duplicate_points_warn():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma, scale, report = metric_embed(pts, 3.0, GAUSS, seed=4)
    assert any("duplicate" in str(w.message) for w in caught)
    assert len(report.per_subspace) == 2  # one of the three pairs is degenerate


def test_metric_embed_pair_count_and_m():
    pts = np.random.default_rng(11).standard_normal((32, 24))
    gamma, scale, report = metric_embed(pts, 12.01, GAUSS, seed=7)
    assert len(report.per_subspace) == 32 * 31 // 2 == 496
    assert gamma.m == 18
    if scale.feasible:
        fam = build_metric_family(pts)
        assert verify_pointwise(gamma, fam, scale.L, 12.01, n_pairs=2000, seed=1) == 0


def test_metric_embed_matches_pair_loop_reference():
    pts = np.random.default_rng(12).standard_normal((20, 7))
    pts[5] = pts[2]  # one duplicate pair, skipped
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma, scale, report = metric_embed(pts, 8.0, GAUSS, seed=5)
    assert any("skipped 1 duplicate" in str(w.message) for w in caught)
    reference = family_distortion(gamma, build_metric_family(pts))
    assert len(report.per_subspace) == len(reference.per_subspace) == 20 * 19 // 2 - 1
    for (lo, hi), (ref_lo, ref_hi) in zip(report.per_subspace, reference.per_subspace):
        assert lo == pytest.approx(ref_lo, rel=1e-13)
        assert hi == pytest.approx(ref_hi, rel=1e-13)


def build_metric_family(pts):
    from subembed import Subspace, SubspaceFamily

    dirs = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i] - pts[j]
            norm = np.linalg.norm(d)
            if norm > 1e-12:
                dirs.append(Subspace((d / norm).reshape(-1, 1)))
    return SubspaceFamily.from_subspaces(dirs)


# ---------------------------------------------------------------- pointwise


def test_verify_pointwise_zero_violations_on_feasible_trial():
    cfg = small_config(n=16, k=3, p=4, trials=1, m_override=14)
    fam = build_family(cfg, 0)
    gamma = sample_matrix(cfg.ensemble, 14, 16, derive_seed(cfg.seed, 2, 0))
    report = family_distortion(gamma, fam)
    from subembed import choose_scale

    scale = choose_scale(report, cfg.D)
    assert scale.feasible
    assert verify_pointwise(gamma, fam, scale.L, cfg.D, n_pairs=10_000, seed=8) == 0


# ---------------------------------------------------------------- lower bound


def test_lower_bound_study_monotone_in_p():
    rows = lower_bound_study(
        12, 2, 4.0, 1.4, (2, 8, 32), GAUSS, seed=5, trials=30, m_values=range(1, 13), width_draws=3000
    )
    minimal = [r.minimal_m for r in rows]
    assert all(m is not None for m in minimal)
    assert all(a <= b for a, b in zip(minimal, minimal[1:]))
    widths = [r.width.mean for r in rows]
    assert all(a <= b for a, b in zip(widths, widths[1:]))


def test_lower_bound_study_monotone_in_k():
    out = {}
    for k in (2, 3):
        rows = lower_bound_study(12, k, 4.0, 1.4, (8,), GAUSS, seed=5, trials=30, m_values=range(1, 15))
        out[k] = rows[0].minimal_m
    assert out[2] <= out[3]


def test_lower_bound_study_p_one_bracket():
    rows = lower_bound_study(12, 3, 4.0, 1.4, (1,), GAUSS, seed=9, trials=30, m_values=range(1, 16))
    assert 3 <= rows[0].minimal_m <= required_m(3, 1, 4.0)


def test_lower_bound_study_rejects_insufficient_separation():
    with pytest.raises(InputError) as err:
        lower_bound_study(12, 2, 4.0, 1.5, (4,), GAUSS, seed=5, trials=5, m_values=[4])
    assert "members 0 and 1" in str(err.value)


def test_width_trend_matches_formula_ratio():
    # width ratio across p follows (sqrt(k) + sqrt(ln p)) within 25%
    w1 = gaussian_width_mc(k_sparse_family(16, 3, 4), 20_000, 31).mean
    w2 = gaussian_width_mc(k_sparse_family(16, 3, 256), 20_000, 32).mean
    formula = (math.sqrt(3) + math.sqrt(math.log(256))) / (math.sqrt(3) + math.sqrt(math.log(4)))
    assert abs((w2 / w1) / formula - 1.0) <= 0.25


# ------------------------------------------------- ensemble uniformity


def test_success_rates_agree_across_ensembles_in_regime():
    # the guarantee is ensemble-uniform once m >= 5(k + ln p / ln D); compare
    # there (below that threshold finite-scale ensembles genuinely differ)
    trials = 60
    rates = {}
    for kind in ("gaussian", "sphere_scaled", "iid_bounded"):
        cfg = ExperimentConfig(
            n=64, k=4, p=16, D=8.0, ensemble=EnsembleSpec(kind=kind),
            family_kind="haar_random", trials=trials, seed=13,
        )
        results = run_trials(cfg)
        rates[kind] = sum(r.feasible for r in results) / trials
    values = sorted(rates.values())
    worst_se = math.sqrt(0.25 / trials)
    assert values[-1] - values[0] <= 3 * math.sqrt(2) * worst_se, rates
