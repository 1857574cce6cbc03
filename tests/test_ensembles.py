import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import subembed
from subembed import (
    ConfigurationError,
    DimensionError,
    EnsembleSpec,
    ResourceError,
    derive_seed,
    sample_matrix,
    theoretical_constants,
)
from subembed import ensembles
from subembed.ensembles import UNIFORM_ENTRY_PSI2, UNIFORM_HALF_WIDTH
from subembed.seeding import derive_seeds
from subembed.stats import DEFAULT_MAX_ELEMENTS

from conftest import ENSEMBLE_KINDS, unit_directions
from oracles import concentration_estimate, gaussian_rows_reference, psi2_tail_check, sample_row

SQRT3 = math.sqrt(3.0)


def test_spec_validation():
    with pytest.raises(ConfigurationError, match='got the string "cauchy"'):
        EnsembleSpec(kind="cauchy")
    # a library caller's long kind is quoted by its type and length
    with pytest.raises(ConfigurationError) as raised:
        EnsembleSpec(kind=list(range(200_000)))
    assert str(raised.value).endswith("got an array of length 200000") and len(str(raised.value)) < 200
    # the one bounded law sampled has no settings to pass
    with pytest.raises(TypeError):
        EnsembleSpec(kind="iid_bounded", density_bound=0.5)


def test_spec_json_round_trip():
    for name, spec in (
        ("gaussian", EnsembleSpec.gaussian()),
        ("sphere", EnsembleSpec.sphere_scaled()),
        ("iid_bounded", EnsembleSpec.iid_bounded()),
    ):
        assert EnsembleSpec.from_json_dict({"kind": name}) == spec
    assert EnsembleSpec.from_json_dict({"kind": "sphere"}).kind == "sphere_scaled"
    with pytest.raises(ConfigurationError):
        EnsembleSpec.from_json_dict({"kind": "gaussian", "weird": 1})
    for kind in ("gaussian", "iid_bounded"):
        with pytest.raises(ConfigurationError, match=r"unknown ensemble keys: \['density_bound'\]"):
            EnsembleSpec.from_json_dict({"kind": kind, "density_bound": 0.5})


@pytest.mark.parametrize(
    "payload, quoted",
    [
        ({"kind": "x" * 100_000}, 'got the string "' + "x" * 36 + "..."),
        ({"kind": ("gaussian",) * 100_000}, "got a Python tuple"),
        ({"kind": object()}, "got a Python object"),
        ({"kind": "gaussian", 1: 0, 2.5: 0, **{"k" * 50: 0}}, "keys: ['1', '2.5', '" + "k" * 37 + "...']"),
        ({"kind": "gaussian", **dict.fromkeys(map(str, range(10, 60)), 0)}, "keys: ['10', '11', '12'] and 47 more"),
    ],
    ids=["long-string", "tuple", "object", "mixed-keys", "many-keys"],
)
def test_descriptor_errors_quote_any_value_short(payload, quoted):
    # library callers may pass any object, not only parsed JSON
    with pytest.raises(ConfigurationError) as info:
        EnsembleSpec.from_json_dict(payload)
    assert quoted in str(info.value) and len(str(info.value)) < 200


@pytest.mark.parametrize("seed", [0, 1, 987654321, -5])
def test_sphere_rows_have_exact_norm(seed):
    row = sample_row(EnsembleSpec.sphere_scaled(), 3, seed)
    assert np.linalg.norm(row) == pytest.approx(SQRT3, abs=1e-12)


def test_iid_rows_stay_in_support():
    for seed in range(20):
        row = sample_row(EnsembleSpec.iid_bounded(), 5, seed)
        assert np.all(np.abs(row) <= SQRT3)


def test_gaussian_unit_variance_across_seeds():
    # one-coordinate rows over 1e5 distinct seeds: cross-seed variance ~ 1
    vals = np.array([sample_row(EnsembleSpec.gaussian(), 1, s)[0] for s in range(100_000)])
    assert vals.var() == pytest.approx(1.0, rel=0.05)


def test_matrix_rows_match_derived_row_seeds():
    spec = EnsembleSpec.gaussian()
    mat = sample_matrix(spec, 2, 2, 1234).matrix
    assert np.array_equal(mat[0], sample_row(spec, 2, derive_seed(1234, 0)))
    assert np.array_equal(mat[1], sample_row(spec, 2, derive_seed(1234, 1)))


def test_matrix_prefix_stability():
    # adding rows never changes earlier rows
    spec = EnsembleSpec.iid_bounded()
    small = sample_matrix(spec, 3, 7, 9).matrix
    tall = sample_matrix(spec, 8, 7, 9).matrix
    assert np.array_equal(tall[:3], small)


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
@pytest.mark.parametrize("n", [1, 4, 7])
def test_rows_and_prefixes_agree_for_every_kind(kind, n):
    spec = EnsembleSpec(kind=kind)
    tall = sample_matrix(spec, 9, n, -31).matrix
    for i in range(9):
        assert np.array_equal(tall[i], sample_row(spec, n, derive_seed(-31, i)))
    assert np.array_equal(sample_matrix(spec, 4, n, -31).matrix, tall[:4])


def test_entries_do_not_depend_on_the_row_length():
    # entry (i, j) is a function of (derive_seed(seed, i), j); Gaussian
    # entries come in Box-Muller pairs, so widths are compared at even n
    for kind, narrow in (("iid_bounded", 3), ("gaussian", 4)):
        spec = EnsembleSpec(kind=kind)
        wide = sample_matrix(spec, 5, 10, 8).matrix
        assert np.array_equal(sample_matrix(spec, 5, narrow, 8).matrix, wide[:, :narrow])


def test_sphere_resample_redraws_only_degenerate_rows(monkeypatch):
    # force the first draw of rows with an even seed to zero; each such row
    # must come from the next block of its own stream, whatever its batch
    real = ensembles._gaussian_rows

    def degenerate_first_block(seeds, n, attempt=0):
        rows = real(seeds, n, attempt)
        if attempt == 0:
            rows[seeds % 2 == 0] = 0.0
        return rows

    monkeypatch.setattr(ensembles, "_gaussian_rows", degenerate_first_block)
    spec = EnsembleSpec.sphere_scaled()
    mat = sample_matrix(spec, 8, 5, 31).matrix
    seeds = derive_seeds(31, 8)
    assert 0 < int(np.sum(seeds % 2 == 0)) < 8
    for i, seed in enumerate(seeds):
        assert np.array_equal(mat[i], sample_row(spec, 5, int(seed)))
        g = real(seeds[i : i + 1], 5, 1 if seed % 2 == 0 else 0)[0]
        assert np.allclose(mat[i], g * (math.sqrt(5) / np.linalg.norm(g)), rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [1, 63, 64])
def test_rows_are_bit_identical_across_steps_and_attempts(monkeypatch, n):
    # the in-place Box-Muller pass gives the plain expressions' bits, at any
    # redraw block of the stream, and a row is the same whatever the step
    # of rows it was sampled in
    seeds = derive_seeds(2718, 300)
    for attempt in (0, 1, 3):
        rows = ensembles._gaussian_rows(seeds, n, attempt)
        assert rows.tobytes() == gaussian_rows_reference(seeds, n, attempt).tobytes()
    for kind in ENSEMBLE_KINDS:
        spec = EnsembleSpec(kind=kind)
        monkeypatch.setattr(ensembles, "_BLOCK_ELEMENTS", 1)  # one row a step
        alone = ensembles._sample_rows(spec, seeds, n)
        for elements in (7 * n, 1 << 14, 1 << 20):
            monkeypatch.setattr(ensembles, "_BLOCK_ELEMENTS", elements)
            assert ensembles._sample_rows(spec, seeds, n).tobytes() == alone.tobytes()


# sha256 of sample_matrix(kind, 4, 131, 2024) as little-endian float64 bytes:
# pins the row streams, which are built from + - * / and sqrt only and so
# must not change with the platform, numpy version or SIMD dispatch level.
# Rows of 131 entries run the vector loops, not only their scalar tails, and
# the sphere norm's pairwise sum past its 128-entry block.
GOLDEN_DIGESTS = {
    "gaussian": "ee9555ff22de47a3ccf6bb6abd650253e046a5793e72ea5fa9210a1d9a91ede6",
    "sphere_scaled": "2db3dd7c636e5343d4879198ec926dd2d7befb7f11a4e2c3ec00ea47995c8a88",
    "iid_bounded": "b58237603359d4cc4fb0f85a3a81dbb58034582fb29fb23537c47b0ef89dc0ac",
}
_DIGEST_SCRIPT = """
import hashlib, json
from subembed import EnsembleSpec, sample_matrix
print(json.dumps({
    kind: hashlib.sha256(
        sample_matrix(EnsembleSpec(kind=kind), 4, 131, 2024).matrix.astype("<f8").tobytes()
    ).hexdigest()
    for kind in ("gaussian", "sphere_scaled", "iid_bounded")
}))
"""


def _digests(**env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(subembed.__file__)))
    return subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True, text=True, timeout=60,
    )


def test_golden_matrix_digests():
    out = _digests()
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == GOLDEN_DIGESTS


def test_digests_do_not_depend_on_simd_dispatch():
    out = _digests(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    if out.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in out.stderr:
        pytest.skip("numpy rejects these CPU feature names")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == GOLDEN_DIGESTS


def test_sphere_matrix_row_norms():
    mat = sample_matrix(EnsembleSpec.sphere_scaled(), 3, 4, 55).matrix
    assert np.allclose(np.linalg.norm(mat, axis=1), 2.0, atol=1e-12)


def test_matrix_determinism_bit_identical():
    for kind in ENSEMBLE_KINDS:
        spec = EnsembleSpec(kind=kind)
        a = sample_matrix(spec, 6, 5, 77).matrix
        b = sample_matrix(spec, 6, 5, 77).matrix
        assert np.array_equal(a, b)


def test_matrix_element_budget():
    # one entry over the budget, refused before anything is allocated
    with pytest.raises(ResourceError, match=f"element budget {DEFAULT_MAX_ELEMENTS}"):
        sample_matrix(EnsembleSpec.gaussian(), DEFAULT_MAX_ELEMENTS + 1, 1, 0)
    with pytest.raises(DimensionError):
        sample_matrix(EnsembleSpec.gaussian(), 0, 3, 0)


def test_expected_map_energy_equals_m():
    # isotropy gives E||Gamma x||^2 = m for unit x; 1000 seeds at m = n = 100
    x = np.zeros(100)
    x[0] = 1.0
    total = 0.0
    for s in range(1000):
        total += float(np.sum((sample_matrix(EnsembleSpec.gaussian(), 100, 100, s).matrix @ x) ** 2))
    assert total / 1000 == pytest.approx(100.0, rel=0.10)


def test_theoretical_constants_closed_forms():
    g = theoretical_constants(EnsembleSpec.gaussian())
    assert g.alpha == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)
    assert g.beta == pytest.approx(math.sqrt(8 / 3), abs=1e-12)

    s = theoretical_constants(EnsembleSpec.sphere_scaled())
    assert (s.alpha, s.beta) == (2.0, 4.0)

    u = theoretical_constants(EnsembleSpec.iid_bounded())
    assert u.alpha == math.sqrt(2 / 3)  # twice Ball's bound 1/sqrt(6) on a marginal's density
    assert u.beta == pytest.approx(8 * SQRT3, abs=1e-12)  # 4 * UNIFORM_ENTRY_PSI2


def test_isotropy_and_centering(bulk_rows):
    rng = np.random.default_rng(2024)
    for kind in ENSEMBLE_KINDS:
        for n in (2, 8, 32):
            rows = bulk_rows[(kind, n)]
            for a in unit_directions(rng, 5, n):
                proj = rows @ a
                assert np.mean(proj**2) == pytest.approx(1.0, abs=0.05), (kind, n)
                assert abs(np.mean(proj)) <= 0.02, (kind, n)


def test_psi2_tails_against_theoretical_beta(bulk_rows):
    rng = np.random.default_rng(11)
    for kind in ENSEMBLE_KINDS:
        beta = theoretical_constants(EnsembleSpec(kind=kind)).beta
        rows = bulk_rows[(kind, 8)]
        directions = np.vstack([np.eye(8)[:1], unit_directions(rng, 2, 8)])
        for a in directions:
            assert psi2_tail_check(rows @ a, beta, ts=(1.0, 2.0, 3.0)), (kind, a)


def test_concentration_bounded_by_alpha(concentration_rows):
    # a coordinate and two random directions of every kind; iid_bounded also
    # on (e1 + e2)/sqrt(2), whose triangular marginal attains Ball's density
    # bound at its peak, so there the estimate reaches alpha * eps but for
    # the peak's slope across the window and the sampling error
    rng = np.random.default_rng(12)
    for (kind, n), rows in concentration_rows.items():
        alpha = theoretical_constants(EnsembleSpec(kind=kind)).alpha
        directions = np.vstack([np.eye(n)[:1], unit_directions(rng, 2, n)])
        tight = kind == "iid_bounded"
        if tight:
            worst = np.zeros(n)
            worst[:2] = math.sqrt(0.5)
            directions = np.vstack([worst, directions])
        for i, a in enumerate(directions):
            samples = rows @ a
            for eps in (0.05, 0.1, 0.2):
                value = concentration_estimate(samples, eps).value
                assert value <= alpha * eps * 1.1, (kind, n, i, eps)
                if tight and i == 0:
                    assert value >= alpha * eps * 0.9, (kind, n, eps)


def test_sphere_alpha_holds_only_from_n_3():
    # alpha = 2 needs a bounded marginal density: at n = 2 the coordinate
    # sqrt(2) cos(theta) follows the arcsine law, whose density is unbounded
    # at +-sqrt(2), while at n = 3 it is uniform on [-sqrt(3), sqrt(3)]
    alpha = theoretical_constants(EnsembleSpec.sphere_scaled()).alpha
    eps = 0.01
    ratios = {}
    for n in (2, 3):
        rows = sample_matrix(EnsembleSpec.sphere_scaled(), 200_000, n, derive_seed(808, n)).matrix
        ratios[n] = concentration_estimate(rows[:, 0], eps).value / eps
    assert ratios[2] > alpha > ratios[3], ratios


def test_iid_entries_use_declared_half_width():
    assert UNIFORM_HALF_WIDTH == pytest.approx(SQRT3)
    assert UNIFORM_ENTRY_PSI2 == pytest.approx(2 * SQRT3)


def test_constants_floor_invariants_enforced():
    from subembed import EnsembleConstants

    with pytest.raises(ConfigurationError):
        EnsembleConstants(alpha=0.2, beta=2.0)
    with pytest.raises(ConfigurationError):
        EnsembleConstants(alpha=1.0, beta=0.9)


def test_random_matrix_rejects_non_finite():
    from subembed import RandomMatrix

    with pytest.raises(ConfigurationError):
        RandomMatrix(np.array([[1.0, np.inf]]))
    with pytest.raises(ConfigurationError):
        RandomMatrix([[math.nan]])
    with pytest.raises(DimensionError):
        RandomMatrix(np.ones(3))


def test_outside_input_is_copied_and_sampled_maps_are_not_copied_again(monkeypatch):
    from subembed import RandomMatrix

    rows = np.ones((2, 3))
    outside = RandomMatrix(rows)
    assert not np.shares_memory(outside.matrix, rows)
    assert not outside.matrix.flags.writeable
    # sampling skips the constructor's copy and checks
    monkeypatch.setattr(RandomMatrix, "__post_init__", lambda self: pytest.fail("sampled map copied"))
    tall = sample_matrix(EnsembleSpec.gaussian(), 6, 4, 17)
    assert not tall.matrix.flags.writeable
    # so a row slice is a read-only view of the sampled memory
    head = tall.matrix[:3]
    assert np.shares_memory(head, tall.matrix)
    assert not head.flags.writeable
    assert np.array_equal(head, sample_matrix(EnsembleSpec.gaussian(), 3, 4, 17).matrix)
