import math
import tracemalloc
import warnings
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subembed import (
    EnsembleSpec,
    ExperimentConfig,
    InputError,
    ResourceError,
    SubspaceFamily,
    TrialResult,
    build_family,
    choose_scale,
    derive_seed,
    family_distortion,
    gaussian_width_mc,
    k_sparse_family,
    metric_embed,
    random_subspace,
    required_m,
    run_trial,
    run_trials,
    sample_matrix,
    sparse_subspace,
    store_family_json,
    sweep_m,
)
import subembed.distortion as distortion
import subembed.harness as harness
import subembed.stats as stats

from oracles import (
    batched_metric_family,
    build_metric_family,
    lower_bound_study,
    per_member_haar_family,
    verify_pointwise,
    write_affine_family,
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


def test_config_fields_must_have_their_types():
    # a float would run as its floor (seed 1.5 as seed 1) or end in a bare TypeError
    for key, value, quoted in (("m_override", 2.5, "number 2.5"), ("n", 12.5, "number 12.5"),
                               ("trials", 2.5, "number 2.5"), ("seed", 1.5, "number 1.5"), ("p", True, "literal true")):
        with pytest.raises(InputError, match=f"^config key '{key}' must be an integer, got the {quoted}$"):
            small_config(**{key: value})
    with pytest.raises(InputError, match="^config key 'fixed_family' must be true or false, got the string"):
        small_config(fixed_family="false")
    # numpy integers pass, and run as the equal Python ints
    sizes = dict(n=12, k=2, p=4, trials=3, seed=99, m_override=5)
    cfg = small_config(**{key: np.int64(value) for key, value in sizes.items()})
    assert cfg == small_config(**sizes)
    assert all(type(getattr(cfg, key)) is int for key in sizes)
    assert run_trials(cfg) == run_trials(small_config(**sizes))


def test_config_m_property():
    assert small_config().m == required_m(2, 4, 4.0)
    assert small_config(m_override=9).m == 9


# ---------------------------------------------------------------- families


def test_k_sparse_family_caps_at_total_combinations():
    fam = k_sparse_family(20, 2, 500)
    assert fam.size == math.comb(20, 2)
    assert k_sparse_family(20, 2, 5).size == 5


@pytest.mark.parametrize("p", [5, math.comb(7, 3), 500])
def test_k_sparse_family_stack_equals_sparse_subspace_bases(p):
    fam = k_sparse_family(7, 3, p)
    assert "members" not in vars(fam)  # no member object is built until .members is read
    supports = list(islice(combinations(range(7), 3), p))
    (indices, bases), = fam.stacks
    assert indices.tolist() == list(range(len(supports)))
    assert np.array_equal(bases, np.stack([sparse_subspace(7, s).basis for s in supports]))


def test_k_sparse_family_in_a_large_ambient_space():
    # 3.2 MB of bases; cutting them from an n x n identity would take 298 GiB
    cfg = small_config(family_kind="k_sparse", n=200_000, k=1, p=2, trials=1)
    (indices, bases), = build_family(cfg, 0).stacks
    assert indices.tolist() == [0, 1] and bases.shape == (2, 200_000, 1)
    assert np.flatnonzero(bases).tolist() == [0, 200_001] and bases.sum() == 2.0
    assert run_trial(cfg, 0).m_used == cfg.m


def test_k_sparse_member_beyond_the_budget_is_refused_before_counting(monkeypatch):
    # each member holds n*k numbers; C(2*10^6, 10^6) alone took 26.6 s to compute
    def no_comb(*args):
        raise AssertionError("math.comb ran on an oversized request")

    monkeypatch.setattr(math, "comb", no_comb)
    with pytest.raises(ResourceError, match=r"n\*k = 2000000000000 exceeds the element budget"):
        k_sparse_family(2 * 10**6, 10**6, 5)


# (1024, 8, 300) spans three batched-SVD chunks
@pytest.mark.parametrize("n, k, p", [(12, 2, 4), (9, 9, 3), (64, 4, 16), (256, 8, 200), (1024, 8, 300)])
@pytest.mark.parametrize("fixed", [True, False])
def test_haar_build_matches_per_member_reference(n, k, p, fixed):
    cfg = small_config(n=n, k=k, p=p, fixed_family=fixed)
    for t in (0, 2):
        fam, ref = build_family(cfg, t), per_member_haar_family(cfg, t)
        assert len(fam.stacks) == len(ref.stacks) == 1
        (indices, bases), (ref_indices, ref_bases) = fam.stacks[0], ref.stacks[0]
        assert np.array_equal(indices, ref_indices) and np.array_equal(bases, ref_bases)


@pytest.mark.parametrize("fixed", [True, False])
def test_haar_family_file_matches_per_member_reference(tmp_path, fixed):
    cfg = small_config(n=64, k=4, p=16, fixed_family=fixed)
    store_family_json(build_family(cfg, 1), tmp_path / "fam.json")
    store_family_json(per_member_haar_family(cfg, 1), tmp_path / "ref.json")
    assert (tmp_path / "fam.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_quenched_family_is_trial_independent():
    cfg = small_config(fixed_family=True)
    fam0 = build_family(cfg, 0)
    fam3 = build_family(cfg, 3)
    for a, b in zip(fam0.members, fam3.members):
        assert np.array_equal(a.basis, b.basis)


def test_annealed_family_changes_per_trial():
    cfg = small_config(fixed_family=False)
    fam0 = build_family(cfg, 0)
    fam1 = build_family(cfg, 1)
    assert not np.allclose(fam0.members[0].basis, fam1.members[0].basis)


def test_user_file_family_checks(tmp_path):
    fam = k_sparse_family(6, 2, 3)
    path = tmp_path / "fam.json"
    store_family_json(fam, path)
    cfg = small_config(n=6, k=2, p=3, family_kind="user_file", family_path=str(path))
    loaded = build_family(cfg, 0)
    assert loaded.size == 3
    # a path object is a family_path too
    assert build_family(small_config(n=6, k=2, p=3, family_kind="user_file", family_path=path), 0).size == 3
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
    permuted = SubspaceFamily.from_subspaces(fam.members[i] for i in (2, 0, 3, 1))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    store_family_json(fam, p1)
    store_family_json(permuted, p2)
    r1 = run_trial(small_config(n=8, p=4, family_kind="user_file", family_path=str(p1)), 0)
    r2 = run_trial(small_config(n=8, p=4, family_kind="user_file", family_path=str(p2)), 0)
    assert r1.to_json_dict() == r2.to_json_dict()


# ---------------------------------------------------------------- sweeps


def block_budget(config, trials, rows, grid):
    """The _BLOCK_ENTRIES that makes blocks of exactly this many trials."""
    per_trial, tile = distortion._certify_entries(config.n, config.k, config.p, rows, grid)
    return tile + trials * per_trial


def test_trial_range_builds_a_fixed_family_once_per_range(monkeypatch):
    builds = []
    real = harness.build_family

    def counted(config, trial_index):
        builds.append(trial_index)
        return real(config, trial_index)

    monkeypatch.setattr(harness, "build_family", counted)
    fixed = small_config(trials=3)
    # blocks of one trial, at every grid below
    budget = min(block_budget(fixed, 1, fixed.m, 1), block_budget(fixed, 1, 4, 2))
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", budget)
    assert harness._block_size(fixed, fixed.m, 1) == harness._block_size(fixed, 4, 2) == 1
    first = harness._trial_range(fixed, (fixed.m,), range(3))
    assert builds == [0]  # one build for the range's three blocks
    assert [trial[0] for trial in first] == run_trials(fixed)
    sweeps = [harness._trial_range(fixed, (2, 4), block) for block in (range(0, 2), range(2, 3))]
    assert builds == [0, 0, 0, 2]  # the serial run_trials above built its own
    assert [trial for block in sweeps for trial in block] == [
        harness._block_results(fixed, range(t, t + 1), real(fixed, t), (2, 4))[0] for t in range(3)
    ]
    builds.clear()
    annealed = small_config(trials=3, fixed_family=False)
    results = harness._trial_range(annealed, (annealed.m,), range(3))
    assert builds == [0, 1, 2]  # a fresh family per trial
    assert results == [
        harness._block_results(annealed, range(t, t + 1), real(annealed, t), (annealed.m,))[0] for t in range(3)
    ]


def reference_trial(config, t, m_values):
    """One trial run alone: its own family, one sample_matrix per m, then
    family_distortion and choose_scale."""
    family = build_family(config, t)
    out = []
    for m in m_values:
        gamma = sample_matrix(config.ensemble, m, config.n, derive_seed(config.seed, 2, t))
        report = family_distortion(gamma, family)
        scale = choose_scale(report, config.D)
        out.append(TrialResult(t, m, scale.feasible, report.achieved_distortion, scale.L))
    return out


def mixed_dimension_file(path, n=9, dims=(2, 1, 3, 1, 2)):
    family = SubspaceFamily.from_subspaces(random_subspace(n, d, derive_seed(70, i)) for i, d in enumerate(dims))
    write_affine_family(path, family, [np.random.default_rng(i).standard_normal(n) for i in range(len(dims))])
    return str(path)


@pytest.mark.parametrize("per_block", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", ["gaussian", "sphere_scaled", "iid_bounded"])
@pytest.mark.parametrize("family", ["fixed", "annealed", "user_file"])
def test_block_core_equals_trials_run_alone(monkeypatch, tmp_path, per_block, kind, family):
    from subembed import harness

    overrides = {
        "fixed": {},
        "annealed": {"fixed_family": False},
        "user_file": {"family_kind": "user_file", "family_path": mixed_dimension_file(tmp_path / "f.json"), "n": 9},
    }[family]
    cfg = small_config(ensemble=EnsembleSpec(kind=kind), trials=7, k=3, p=5, **overrides)
    m_values = (1, 2, 5, 9)  # m < k at the first two
    # a budget that holds per_block trials of these sizes
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", block_budget(cfg, per_block, max(m_values), len(m_values)))
    assert harness._block_size(cfg, max(m_values), len(m_values)) == per_block
    certified = []
    real = harness._certify_maps

    def recorded(maps, family, D, grid=None):
        certified.append(len(maps))
        return real(maps, family, D, grid)

    monkeypatch.setattr(harness, "_certify_maps", recorded)
    expected = [reference_trial(cfg, t, m_values) for t in range(cfg.trials)]
    assert harness._map_trials(cfg, m_values, 1) == expected
    # annealed runs pass _certify_maps one map at a time, since each trial embeds its own family
    size = 1 if family == "annealed" else per_block
    assert certified == [min(size, cfg.trials - lo) for lo in range(0, cfg.trials, size)]
    alone = [reference_trial(cfg, t, (cfg.m,))[0] for t in range(cfg.trials)]
    assert run_trials(cfg) == alone
    assert [run_trial(cfg, t) for t in range(cfg.trials)] == alone  # the range of one


def test_block_size_at_paper_scale_comes_from_the_config(monkeypatch):
    # no family is built to size a block; at n=1024, k=8 the family sets the
    # budget: a twelfth of p*n*k less one tile over the numbers a trial holds,
    # so p=2000 (m=59) gets (1365333 - 512000) // 60476 = 14 trials a block,
    # and p=10^4 (m=63) (6826666 - 2560000) // 64576 = 66
    def no_build(config, trial_index):
        raise AssertionError("a family was built")

    monkeypatch.setattr(harness, "build_family", no_build)
    paper = small_config(n=1024, k=8, p=2000, D=8.0)
    assert distortion._certify_entries(1024, 8, 2000, 59, 1) == (60_476, 512_000)
    assert paper.m == 59 and harness._block_size(paper, 59, 1) == 14
    large = small_config(n=1024, k=8, p=10_000, D=8.0)
    assert distortion._certify_entries(1024, 8, 10_000, 63, 1) == (64_576, 2_560_000)
    assert large.m == 63 and harness._block_size(large, 63, 1) == 66


@pytest.mark.parametrize(
    "sizes, m_values, per_block",
    [
        ({"n": 64, "k": 4, "p": 16}, None, 74),
        ({"n": 256, "k": 8, "p": 500}, None, 9),
        ({"n": 64, "k": 2, "p": 2016, "family_kind": "k_sparse"}, tuple(range(4, 41, 4)), 50),
    ],
    ids=["trials-small", "n=256-k=8-p=500", "sweep-sparse"],
)
def test_block_holds_at_most_its_budget(sizes, m_values, per_block):
    # one block of _block_size trials, its family built beforehand, holds
    # at most the budget's numbers at its peak: at the config's m, and over
    # the sweep's grid of 10 values of m on all C(64, 2) sparse members
    cfg = small_config(D=8.0, trials=100, **sizes)
    m_values = m_values or (cfg.m,)
    family = build_family(cfg, 0)
    size = harness._block_size(cfg, max(m_values), len(m_values))
    assert size == per_block
    budget = max(harness._BLOCK_ENTRIES, cfg.p * cfg.n * cfg.k // harness._BLOCK_FAMILY_SHARE)
    harness._block_results(cfg, range(size), family, m_values)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        harness._block_results(cfg, range(size), family, m_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * budget


def test_sweep_matches_individual_trials():
    cfg = small_config(trials=4, family_kind="k_sparse")
    m_values = [2, 4, 7]
    sweep = sweep_m(cfg, m_values, 0.5)
    for j, m in enumerate(m_values):
        cfg_m = small_config(trials=4, family_kind="k_sparse", m_override=m)
        trials = [run_trial(cfg_m, t) for t in range(cfg.trials)]
        assert sweep.entries[j].successes == sum(r.feasible for r in trials)
        finite = [r.achieved_distortion for r in trials if math.isfinite(r.achieved_distortion)]
        assert sweep.entries[j].mean_achieved_distortion == (float(np.mean(finite)) if finite else math.inf)


def test_sweep_certifies_each_block_once_over_its_whole_grid(monkeypatch):
    # a block's maps are sampled once with max(m) rows and handed, with the
    # whole grid, to one _certify_maps call: blocks of 2, 2 and 1 trials
    cfg = small_config(trials=5, family_kind="k_sparse")
    m_values = (2, 4, 7)
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", block_budget(cfg, 2, 7, len(m_values)))
    calls = []
    real = harness._certify_maps

    def recorded(maps, family, D, grid=None):
        calls.append((maps.shape, grid))
        return real(maps, family, D, grid)

    monkeypatch.setattr(harness, "_certify_maps", recorded)
    sweep = sweep_m(cfg, m_values, 0.5)
    assert calls == [((2, 7, cfg.n), m_values), ((2, 7, cfg.n), m_values), ((1, 7, cfg.n), m_values)]
    monkeypatch.setattr(harness, "_certify_maps", real)
    assert sweep == sweep_m(cfg, m_values, 0.5)


def test_sweep_validation_and_smoothing():
    cfg = small_config(trials=4)
    with pytest.raises(InputError):
        sweep_m(cfg, [], 0.5)
    with pytest.raises(InputError):
        sweep_m(cfg, [3, 3], 0.5)
    with pytest.raises(InputError):
        sweep_m(cfg, [2, 4], 1.5)
    for grid in ([0, 2], [-1, 2]):
        with pytest.raises(InputError, match="m="):
            sweep_m(cfg, grid, 0.5)
    with pytest.raises(InputError, match="integers"):
        sweep_m(cfg, ["1", "x"], 0.5)  # strings are refused, numeric or not
    sweep = sweep_m(cfg, [1, 3, 5, 8, 11], 0.9)
    assert all(a <= b + 1e-12 for a, b in zip(sweep.smoothed_rates, sweep.smoothed_rates[1:]))


def test_m_values_and_parallelism_must_be_integers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a refused parallelism must not start a process pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    cfg = small_config(trials=4)
    # int() would run 2.9 and 4.5 as m=2, 4, and True as m=1
    for grid in ([2.9, 4.5], [2.0, 4], [True, 4], [2, np.float64(4)]):
        with pytest.raises(InputError, match="m_values must be integers"):
            sweep_m(cfg, grid, 0.5)
    for parallelism in (2.5, 2.0, True, "2"):
        with pytest.raises(InputError, match="parallelism must be an integer"):
            run_trials(cfg, parallelism=parallelism)
        with pytest.raises(InputError, match="parallelism must be an integer"):
            sweep_m(cfg, [2, 4], 0.5, parallelism=parallelism)
    assert sweep_m(cfg, [np.int64(2), 4], 0.5, parallelism=np.int64(1)) == sweep_m(cfg, [2, 4], 0.5)


# values that are not real numbers (or an integer no float holds), that are
# not integers, and that are not EnsembleSpecs; an integer beyond any budget
# is a ResourceError, and a seed of any size is valid
LONG = list(range(100_000))
NOT_REAL, NOT_INTEGER, NOT_SPEC = ("4", 10**400, True, LONG), ("4", 2.5, True, LONG), ("gaussian", 4.0, LONG)
FAMILY = k_sparse_family(4, 2, 3)
REPORT = family_distortion(sample_matrix(GAUSS, 6, 4, 1), FAMILY)
MISTYPED_ARGUMENTS = {
    "check_distortion-D": (stats.check_distortion, NOT_REAL),
    "required_m-D": (lambda D: required_m(1, 2, D), NOT_REAL),
    "success_prob_bound-D": (lambda D: stats.success_prob_bound(D, 5), NOT_REAL),
    "choose_scale-D": (lambda D: choose_scale(REPORT, D), NOT_REAL),
    "metric_embed-D": (lambda D: metric_embed(np.eye(3), D, GAUSS, 1), NOT_REAL),
    "ExperimentConfig-D": (lambda D: small_config(D=D), NOT_REAL),
    "derive_seed-seed": (derive_seed, NOT_INTEGER),
    "derive_seed-path": (lambda index: derive_seed(1, index), NOT_INTEGER),
    "sample_matrix-seed": (lambda seed: sample_matrix(GAUSS, 3, 3, seed), NOT_INTEGER),
    "sample_matrix-m": (lambda m: sample_matrix(GAUSS, m, 3, 1), NOT_INTEGER),
    "sample_matrix-n": (lambda n: sample_matrix(GAUSS, 3, n, 1), NOT_INTEGER),
    "sample_matrix-spec": (lambda spec: sample_matrix(spec, 3, 3, 1), NOT_SPEC),
    "gaussian_width_mc-seed": (lambda seed: gaussian_width_mc(FAMILY, 10, seed), NOT_INTEGER),
    "gaussian_width_mc-n_draws": (lambda draws: gaussian_width_mc(FAMILY, draws, 1), NOT_INTEGER),
    "k_sparse_family-n": (lambda n: k_sparse_family(n, 2, 3), ("4", 6.0, True, LONG)),
    "k_sparse_family-k": (lambda k: k_sparse_family(6, k, 3), NOT_INTEGER),
    "k_sparse_family-p": (lambda p: k_sparse_family(6, 2, p), NOT_INTEGER),
    "metric_embed-spec": (lambda spec: metric_embed(np.eye(3), 4.0, spec, 1), NOT_SPEC),
    "sweep_m-target_rate": (lambda rate: sweep_m(small_config(trials=2), [2, 4], rate), ("0.9", True, LONG, 10**400)),
}


@pytest.mark.parametrize("case", MISTYPED_ARGUMENTS)
def test_arguments_of_the_wrong_type_raise_a_short_input_error(case):
    # each ended in a TypeError, ValueError, AttributeError or OverflowError,
    # ran a float or bool seed as an integer, or quoted a long value whole
    call, values = MISTYPED_ARGUMENTS[case]
    for value in values:
        with pytest.raises(InputError) as info:
            call(value)
        assert len(str(info.value)) < 200, value


def test_integer_seeds_of_any_kind_give_the_same_matrix():
    # numpy integers and Python ints beyond 64 bits are seeds; floats and bools are not
    expected = sample_matrix(GAUSS, 3, 4, 7).matrix
    for seed in (np.int64(7), np.uint8(7), 7 + (1 << 64)):
        assert np.array_equal(sample_matrix(GAUSS, 3, 4, seed).matrix, expected)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_runs_match_serial_under_start_method(monkeypatch, method):
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    context = multiprocessing.get_context(method)
    started = []

    class ContextPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, mp_context=context, **kwargs)

    configs = [small_config(trials=5), small_config(trials=5, fixed_family=False)]
    sweep_config = small_config(trials=5, family_kind="k_sparse")
    serial = [repr(run_trials(cfg)) for cfg in configs] + [repr(sweep_m(sweep_config, [1, 3, 8], 0.5))]
    monkeypatch.setattr(harness, "ProcessPoolExecutor", ContextPool)
    pooled = [repr(run_trials(cfg, parallelism=2)) for cfg in configs]
    pooled.append(repr(sweep_m(sweep_config, [1, 3, 8], 0.5, parallelism=3)))
    assert pooled == serial
    assert started == [2, 2, 3]


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
    gamma, p, achieved, scale = metric_embed(pts, 2.0, GAUSS, seed=4)
    assert p == 1
    assert gamma.m == 5  # required_m(1, 1, D) = 5
    assert scale.feasible
    assert achieved == 1.0  # single direction: smin == smax


def test_metric_embed_duplicate_points_warn():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma, p, achieved, scale = metric_embed(pts, 3.0, GAUSS, seed=4)
    assert any("duplicate" in str(w.message) for w in caught)
    assert p == 2  # one of the three pairs is degenerate


def test_metric_embed_points_without_coordinates_coincide():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match="all points coincide"):
            metric_embed(np.zeros((3, 0)), 3.0, GAUSS, seed=4)
    assert [str(w.message) for w in caught] == ["skipped 3 duplicate point pair(s)"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metric_embed_refuses_non_finite_points(bad):
    # a NaN point once passed as a duplicate of every other point
    pts = np.array([[bad, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="points must be finite"):
            metric_embed(pts, 8.0, GAUSS, seed=1)


def test_metric_embed_pair_count_and_m():
    pts = np.random.default_rng(11).standard_normal((32, 24))
    gamma, p, achieved, scale = metric_embed(pts, 12.01, GAUSS, seed=7)
    assert p == 32 * 31 // 2 == 496
    assert gamma.m == 18
    if scale.feasible:
        fam = build_metric_family(pts)
        assert verify_pointwise(gamma, fam, scale.L, 12.01, n_pairs=2000, seed=1) == 0


def test_metric_embed_matches_pair_loop_reference():
    pts = np.random.default_rng(12).standard_normal((20, 7))
    pts[5] = pts[2]  # one duplicate pair, skipped
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma, p, achieved, scale = metric_embed(pts, 8.0, GAUSS, seed=5)
    assert any("skipped 1 duplicate" in str(w.message) for w in caught)
    reference = family_distortion(gamma, build_metric_family(pts))
    assert p == len(reference.per_subspace) == 20 * 19 // 2 - 1
    # the pair loop normalizes each difference alone, so bits may differ
    assert achieved == pytest.approx(reference.achieved_distortion, rel=1e-12)
    assert scale.feasible == choose_scale(reference, 8.0).feasible
    if scale.feasible:
        assert scale.L == pytest.approx(reference.family_sigma_max, rel=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    count=st.integers(2, 12),
    n=st.integers(1, 24),
    repeats=st.integers(0, 3),
    offset=st.sampled_from([0.0, 1e-13, 1e-11, 1e-8]),
    size=st.sampled_from([1e-6, 1.0, 1e6, 1e100]),
    D=st.sampled_from([1.5, 3.0, 8.0, 12.01]),
    seed=st.integers(0, 2**32 - 1),
    far=st.booleans(),
    line=st.booleans(),
)
def test_metric_embed_certifies_like_family_distortion(count, n, repeats, offset, size, D, seed, far, line):
    # metric_embed's pair screen decides as family_distortion and choose_scale
    # on the batched pair family, bit for bit: duplicate and nearly coincident
    # points (offset relative to the set's size), n below and above m, scaled
    # point sets, a cluster offset by 1e8 times its spread, and collinear
    # sets, whose pairs are all gathered
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n)) * size
    if line:
        pts = pts[:, :1] * rng.standard_normal(n) + size * rng.standard_normal(n)
    for r in range(min(repeats, count - 2)):
        pts[count - 1 - r] = pts[0] + offset * size * rng.standard_normal(n)
    if far:
        pts += 1e8 * size * rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gamma, p, achieved, scale = metric_embed(pts, D, GAUSS, seed=seed)
        family = batched_metric_family(pts)
    assert p == family.size and gamma.m == required_m(1, p, D)
    report = family_distortion(gamma, family)
    assert achieved == report.achieved_distortion
    assert scale == choose_scale(report, D)


@pytest.mark.parametrize("shape", ["gaussian", "far-cluster", "line", "near-duplicates", "tiny-duplicates"])
def test_metric_embed_small_chunks_certify_like_one_batch(monkeypatch, shape):
    # one row a chunk and one pair a batch, both sized by WIDTH_TILE_ENTRIES:
    # a pair dropped against the running floor or ceiling of earlier chunks
    # never holds an extreme
    monkeypatch.setattr(distortion, "WIDTH_TILE_ENTRIES", 8)
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((40, 6))
    if shape == "far-cluster":
        pts = 1e8 + 1e-3 * pts
    if shape == "line":
        pts = pts[:, :1] * rng.standard_normal(6)
    if shape == "near-duplicates":
        pts[20:] = pts[:20] + 1e-12 * rng.standard_normal((20, 6))
    if shape == "tiny-duplicates":
        # points of norm 1e-10 near three centres: the pairs within a group
        # are duplicates (below 1e-12), yet measured finely enough that
        # their stretches, spread over every direction, would set the floor
        # and ceiling if they entered them
        pts = 1e-10 * pts[np.arange(40) % 3] + 1e-13 * pts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gamma, p, achieved, scale = metric_embed(pts, 8.0, GAUSS, seed=2)
        family = batched_metric_family(pts)
    report = family_distortion(gamma, family)
    assert p == family.size
    assert achieved == report.achieved_distortion
    assert scale == choose_scale(report, 8.0)


def test_metric_embed_refuses_a_distance_beyond_float_range_that_no_extreme_needs():
    # the pair (0, 1) holds neither extreme, so only its exact norm, taken
    # because its distance bound reaches 2^1023, refuses it
    rng = np.random.default_rng(3)
    pts = np.vstack([[[1.7e308, 0.0], [-1.7e308, 0.0]], 1e306 * rng.standard_normal((30, 2))])
    with pytest.raises(InputError, match="a distance between two points exceeds the float64 range"):
        metric_embed(pts, 8.0, GAUSS, seed=1)


def test_metric_embed_checks_D_before_any_pair_work(monkeypatch):
    # an invalid D once surfaced in required_m, after every pair's difference
    # and norm: 1.09 s and 741 MB for 300 points in R^1024
    calls = []
    monkeypatch.setattr(harness, "sample_matrix", lambda *args: calls.append("sample_matrix"))
    monkeypatch.setattr(distortion, "_row_norms", lambda *args: calls.append("_row_norms"))
    pts = np.random.default_rng(0).standard_normal((300, 1024))
    with pytest.raises(InputError, match="D must be finite and > 1, got 1.0"):
        metric_embed(pts, 1.0, GAUSS, seed=1)
    assert calls == []


def test_metric_embed_samples_within_the_budget_when_duplicates_lower_m(monkeypatch):
    # 11 copies of one point and one other point in R^40: all 66 pairs would
    # need m = 36 and 36*40 numbers, beyond a budget of 1000, but the 11
    # distinct pairs need m = 23, which fits
    monkeypatch.setattr(stats, "DEFAULT_MAX_ELEMENTS", 1000)
    rng = np.random.default_rng(8)
    pts = np.repeat(rng.standard_normal((2, 40)), [11, 1], axis=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma, p, achieved, scale = metric_embed(pts, 2.0, GAUSS, seed=3)
    assert [str(w.message) for w in caught] == ["skipped 55 duplicate point pair(s)"]
    assert (p, gamma.m) == (11, 23)
    assert np.array_equal(gamma.matrix, sample_matrix(GAUSS, 23, 40, derive_seed(3, harness._GAMMA_STREAM)).matrix)
    report = family_distortion(gamma, batched_metric_family(pts))
    assert achieved == report.achieved_distortion and scale == choose_scale(report, 2.0)
    # twelve distinct points need the 36 rows, and are refused after the walk
    with pytest.raises(ResourceError, match="m\\*n = 1440 exceeds the element budget 1000"):
        metric_embed(rng.standard_normal((12, 40)), 2.0, GAUSS, seed=3)


def test_metric_embed_refuses_points_beyond_one_row_of_the_budget_before_the_walk(monkeypatch):
    # points of more coordinates than the budget: not one row of a map fits,
    # so even points that all coincide are refused before any pair is walked
    monkeypatch.setattr(stats, "DEFAULT_MAX_ELEMENTS", 10)
    monkeypatch.setattr(distortion, "_row_norms", lambda *args: pytest.fail("a pair was walked"))
    with pytest.raises(ResourceError, match="m\\*n = 20 exceeds the element budget 10"):
        metric_embed(np.zeros((3, 20)), 2.0, GAUSS, seed=3)


def test_metric_embed_norms_each_pair_at_most_once(monkeypatch):
    # two clusters of spread 1e-7 one unit apart: the distance bounds of the
    # pairs within a cluster straddle the duplicate threshold, and each of
    # them gets its exact norm (a batch of width n + 1) once, in the one walk
    rng = np.random.default_rng(15)
    centres = np.repeat([np.zeros(8), np.eye(8)[0]], 20, axis=0)
    pts = centres + 1e-7 * rng.standard_normal((40, 8)) / math.sqrt(8)
    normed = []
    pair_differences = distortion._pair_differences

    def recording(pts, rows, cols, width):
        if width == pts.shape[1] + 1:
            normed.extend(zip(rows.tolist(), cols.tolist()))
        return pair_differences(pts, rows, cols, width)

    monkeypatch.setattr(distortion, "_pair_differences", recording)
    gamma, p, achieved, scale = metric_embed(pts, 8.0, GAUSS, seed=2)
    assert p == 780 and normed
    assert len(normed) == len(set(normed))
    report = family_distortion(gamma, batched_metric_family(pts))
    assert achieved == report.achieved_distortion and scale == choose_scale(report, 8.0)


@pytest.mark.parametrize(
    "points, limit_mb",
    [
        (lambda: np.random.default_rng(0).standard_normal((400, 512)), 40),
        (lambda: np.arange(600.0)[:, None], 20),
    ],
    ids=["gaussian-400-in-R512", "line-600-in-R1"],
)
def test_metric_embed_memory_stays_bounded(points, limit_mb):
    # no (pairs, n) or (pairs, m) array is formed: the pairs' differences and
    # products once peaked at 626 MB for 400 points in R^512, and at 62 MB for
    # 600 points on a line, whose 179,700 pairs all get the exact kernel
    pts = points()
    tracemalloc.start()
    try:
        metric_embed(pts, 8.0, GAUSS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


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
