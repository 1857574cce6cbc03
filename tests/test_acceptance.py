"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np

from subembed import (
    EnsembleSpec,
    ExperimentConfig,
    Subspace,
    SubspaceFamily,
    derive_seed,
    family_distortion,
    gaussian_width_mc,
    k_sparse_family,
    load_family_json,
    metric_embed,
    random_subspace,
    required_m,
    run_trials,
    sample_matrix,
    sweep_m,
    width_upper_bound,
)
from subembed.cli import main

from oracles import (
    build_metric_family,
    concentration_estimate,
    cross_family,
    psi2_estimate,
    small_ball_bound,
    subspace_extremes,
    verify_pointwise,
    write_affine_family,
)

ALL_KINDS = ("gaussian", "sphere_scaled", "iid_bounded")
SQRT3 = math.sqrt(3.0)


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d}: {status} — {description}{tail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_main_theorem_desk_scale():
    rates, times = {}, {}
    for kind in ALL_KINDS:
        cfg = ExperimentConfig(
            n=64, k=4, p=16, D=8.0, ensemble=EnsembleSpec(kind=kind),
            family_kind="haar_random", trials=200, seed=2026, fixed_family=True,
        )
        assert cfg.m == 27 == required_m(4, 16, 8.0)
        start = time.perf_counter()
        results = run_trials(cfg)
        times[kind] = time.perf_counter() - start
        rates[kind] = sum(r.feasible for r in results) / len(results)
    ok = all(r >= 0.95 for r in rates.values()) and all(t < 120.0 for t in times.values())
    _criterion(
        1,
        "quenched Haar trials at (n=64,k=4,p=16,D=8,m=27): rate >= 0.95 per ensemble",
        ok,
        " ".join(f"{k}={rates[k]:.3f}({times[k]:.1f}s)" for k in ALL_KINDS),
    )


def test_criterion_2_certification_oracle():
    violations = 0
    worst_hi_gap = worst_lo_gap = 0.0
    for i in range(50):
        gamma = sample_matrix(EnsembleSpec.gaussian(), 8, 16, derive_seed(900, i))
        w = random_subspace(16, 3, derive_seed(901, i))
        smin, smax = subspace_extremes(gamma, w)
        rng = np.random.default_rng(derive_seed(902, i))
        coeffs = rng.standard_normal((100_000, 3))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        vals = np.linalg.norm(coeffs @ (gamma.matrix @ w.basis).T, axis=1)
        lo, hi = float(vals.min()), float(vals.max())
        if lo < smin * (1 - 1e-10) or hi > smax * (1 + 1e-10):
            violations += 1
        worst_hi_gap = max(worst_hi_gap, 1 - hi / smax)
        worst_lo_gap = max(worst_lo_gap, lo / smin - 1)
    ok = violations == 0 and worst_hi_gap <= 0.01 and worst_lo_gap <= 0.01
    _criterion(
        2,
        "SVD extremes sandwich sampled values and are approached within 1%",
        ok,
        f"violations={violations} gap_hi={worst_hi_gap:.2e} gap_lo={worst_lo_gap:.2e}",
    )


def test_criterion_3_small_ball_lemma():
    m, lam = 3, 0.1
    draws = np.random.default_rng(99).uniform(-SQRT3, SQRT3, (1_000_000, m))
    empirical = float(np.mean((draws**2).sum(axis=1) <= lam * m))
    # geometric oracle: the ball of radius sqrt(0.3) lies inside the cube
    oracle = (4.0 / 3.0) * math.pi * (lam * m) ** 1.5 / (2 * SQRT3) ** m
    se = math.sqrt(oracle * (1 - oracle) / 1e6)
    bound = small_ball_bound(1 / (2 * SQRT3), m, lam)
    ok = abs(empirical - oracle) <= 3 * se and empirical <= bound and abs(bound - 0.16432) < 1e-4
    _criterion(
        3,
        "empirical small-ball probability matches geometric oracle, below lemma bound",
        ok,
        f"emp={empirical:.6f} oracle={oracle:.6f} bound={bound:.4f}",
    )


def test_criterion_4_constants():
    rng = np.random.default_rng(0)
    psi2_normal = psi2_estimate(rng.standard_normal(1_000_000)).value
    conc = concentration_estimate(np.random.default_rng(4).standard_normal(1_000_000), 0.1).value

    rng2 = np.random.default_rng(1)
    coord_samples = {
        "gaussian": rng2.standard_normal(400_000),
        "sphere_scaled": None,
        "iid_bounded": rng2.uniform(-SQRT3, SQRT3, 400_000),
    }
    g8 = rng2.standard_normal((400_000, 8))
    coord_samples["sphere_scaled"] = math.sqrt(8) * g8[:, 0] / np.linalg.norm(g8, axis=1)

    betas = {k: psi2_estimate(v).value for k, v in coord_samples.items()}
    c2s = {k: concentration_estimate(v, 2.0).value for k, v in coord_samples.items()}
    ok = (
        1.55 <= psi2_normal <= 1.72
        and conc <= 0.0838
        and all(b >= 0.97 for b in betas.values())
        and all(v / 2.0 >= (3 / 8) * 0.98 for v in c2s.values())
    )
    _criterion(
        4,
        "psi2/concentration estimates hit closed forms; beta >= 1, alpha >= 3/8 floors",
        ok,
        f"psi2={psi2_normal:.4f} conc={conc:.4f} betas=" + ",".join(f"{v:.2f}" for v in betas.values()),
    )


def test_criterion_5_width():
    single = SubspaceFamily.from_subspaces([Subspace(np.eye(16)[:, :4])])
    est = gaussian_width_mc(single, 10_000, seed=123)
    fam = k_sparse_family(16, 3, 256)
    est2 = gaussian_width_mc(fam, 10_000, seed=124)
    bound = width_upper_bound(3, 256)
    ok = 1.83 <= est.mean <= 1.93 and est2.mean <= bound and abs(bound - 12.26) < 5e-3
    _criterion(
        5,
        "Monte Carlo width: chi-mean window for R^4; k-sparse family below closed form",
        ok,
        f"r4={est.mean:.4f} sparse={est2.mean:.3f} bound={bound:.2f}",
    )


def test_criterion_6_energy_lower_bound():
    n, m, k, p, trials = 32, 12, 3, 8, 1000
    family = SubspaceFamily.from_subspaces(
        [random_subspace(n, k, derive_seed(123, l)) for l in range(p)]
    )
    means = {}
    for kind in ALL_KINDS:
        spec = EnsembleSpec(kind=kind)
        total = 0.0
        for t in range(trials):
            gamma = sample_matrix(spec, m, n, derive_seed(55, t))
            total += family_distortion(gamma, family).family_sigma_max ** 2
        means[kind] = total / trials
    ok = all(v >= 0.98 * m for v in means.values())
    _criterion(
        6,
        "empirical E max ||Gamma x||^2 >= 0.98 m for all ensembles",
        ok,
        " ".join(f"{k}={v:.1f}" for k, v in means.items()) + f" vs {0.98 * m:.2f}",
    )


def test_criterion_7_metric_embedding():
    spec = EnsembleSpec.gaussian()
    feasible = 0
    total_violations = 0
    for s in range(100):
        points = np.random.default_rng(1000 + s).standard_normal((32, 64))
        gamma, p, _, scale = metric_embed(points, 12.01, spec, seed=s)
        assert gamma.m == 18 and p == 496
        if scale.feasible:
            feasible += 1
            family = build_metric_family(points)
            total_violations += verify_pointwise(
                gamma, family, scale.L, 12.01, n_pairs=10_000, seed=s
            )
    ok = feasible >= 95 and total_violations == 0
    _criterion(
        7,
        "N=32 metric embedding at D=12.01, m=18: feasibility >= 0.95, pointwise clean",
        ok,
        f"feasible={feasible}/100 violations={total_violations}",
    )


def test_criterion_8_tightness_qualitative():
    spec = EnsembleSpec.gaussian()
    minimal = []
    for p in (5, 50, 500):
        cfg = ExperimentConfig(
            n=20, k=2, p=p, D=4.0, ensemble=spec, family_kind="k_sparse", trials=80, seed=11
        )
        sweep = sweep_m(cfg, list(range(1, 17)), 0.9)
        minimal.append(sweep.minimal_m)
    cfg1 = ExperimentConfig(
        n=20, k=2, p=1, D=4.0, ensemble=spec, family_kind="k_sparse", trials=40, seed=5
    )
    rate_below_k = sweep_m(cfg1, [1], 0.9).entries[0].success_rate
    ok = (
        all(m is not None for m in minimal)
        and all(a <= b for a, b in zip(minimal, minimal[1:]))
        and rate_below_k == 0.0
    )
    _criterion(
        8,
        "minimal m nondecreasing over p = 5, 50, 500; success 0 at m = k-1",
        ok,
        f"minimal={minimal} rate(m=k-1)={rate_below_k}",
    )


def test_criterion_9_affine_and_cross_reductions(tmp_path):
    # an affine family file certifies exactly as the same file without its
    # base points: the certificate reads the members' direction spaces alone
    rng = np.random.default_rng(31)
    linear = SubspaceFamily.from_subspaces(random_subspace(12, 3, derive_seed(600, i)) for i in range(5))
    write_affine_family(tmp_path / "affine.json", linear, rng.standard_normal((5, 12)))
    write_affine_family(tmp_path / "linear.json", linear, [None] * 5)
    family = load_family_json(tmp_path / "affine.json")
    gamma = sample_matrix(EnsembleSpec.gaussian(), 9, 12, 17)
    direct = family_distortion(gamma, family)
    reduced = family_distortion(gamma, load_family_json(tmp_path / "linear.json"))
    exact_invariant = (
        direct.per_subspace == reduced.per_subspace
        and direct.achieved_distortion == reduced.achieved_distortion
    )
    crossed = cross_family(family)
    count_ok = crossed.size == 5 * 6 // 2
    dims_ok = all(m.dim <= 2 * 3 for m in crossed.members)
    ok = exact_invariant and count_ok and dims_ok
    _criterion(
        9,
        "family_distortion invariant under base points; cross family dims/count",
        ok,
        f"cross_size={crossed.size} max_dim={max(m.dim for m in crossed.members)}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "n": 16, "k": 2, "p": 4, "D": 4.0, "ensemble": {"kind": "sphere"},
        "family_kind": "k_sparse", "trials": 4, "seed": 31,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    pairs = []
    for name, argv in (
        ("gen-matrix", ["gen-matrix", "--ensemble", "gaussian", "--m", "6", "--n", "8", "--seed", "2"]),
        ("trial", ["trial", "--config", str(cfg)]),
        ("sweep", ["sweep", "--config", str(cfg), "--m-values", "1,3,6,10"]),
    ):
        out_a = tmp_path / f"{name}-a.out"
        out_b = tmp_path / f"{name}-b.out"
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        pairs.append((name, out_a.read_bytes() == out_b.read_bytes()))
    ok = all(same for _, same in pairs)
    _criterion(
        10,
        "subcommands re-run with the same seed produce byte-identical files",
        ok,
        " ".join(f"{n}={'=' if same else '!='}" for n, same in pairs),
    )
