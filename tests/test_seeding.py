import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subembed.seeding import (
    _splitmix64_array,
    derive_seed,
    derive_seeds,
    normalize_seed,
    uniforms,
)

from oracles import derive_seed_reference, splitmix64


def test_normalize_maps_negative_seeds_into_u64():
    assert normalize_seed(-1) == (1 << 64) - 1
    assert normalize_seed(5) == 5
    assert 0 <= normalize_seed(-(12**19)) < (1 << 64)


def test_derive_is_deterministic_and_path_sensitive():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(7, 3) != derive_seed(8, 3)
    # path length matters: (s, 1) and (s, 1, 0) are distinct streams
    assert derive_seed(7, 1) != derive_seed(7, 1, 0)


def test_empty_path_is_identity_on_normalized_seed():
    assert derive_seed(42) == 42
    assert derive_seed(-1) == normalize_seed(-1)


def test_derived_seeds_spread_over_u64():
    vals = {derive_seed(0, i) for i in range(1000)}
    assert len(vals) == 1000
    assert all(0 <= v < (1 << 64) for v in vals)


# ------------------------------------------------------- vectorized streams

U64 = st.integers(0, (1 << 64) - 1)
SEEDS = st.one_of(U64, st.integers(-(1 << 70), 1 << 70))
# the ends of u64, its midpoint, and ints that normalize onto them
EDGES = st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1, -1, -(1 << 63), -(1 << 64), 1 << 64, (1 << 70) - 1])


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(EDGES, SEEDS), path=st.lists(st.one_of(EDGES, SEEDS), max_size=4))
def test_derive_seed_equals_scalar_oracle(seed, path):
    child = derive_seed(seed, *path)
    assert type(child) is int
    assert child == derive_seed_reference(seed, *path)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, count=st.integers(0, 300))
def test_derive_seeds_equals_scalar_derivation(seed, count):
    seeds = derive_seeds(seed, count)
    assert seeds.dtype == np.uint64 and seeds.shape == (count,)
    assert [int(s) for s in seeds] == [derive_seed_reference(seed, i) for i in range(count)]


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, data=st.data())
def test_derive_seeds_at_large_indices(seed, data):
    count = data.draw(st.integers(1, 200_000))
    seeds = derive_seeds(seed, count)
    for i in {0, count - 1, data.draw(st.integers(0, count - 1))}:
        assert int(seeds[i]) == derive_seed_reference(seed, i)


@settings(max_examples=60, deadline=None)
@given(parents=st.lists(U64, max_size=6), count=st.integers(0, 40), start=st.integers(0, 1 << 40))
def test_derive_seeds_of_a_parent_array_equals_scalar_derivation(parents, count, start):
    seeds = derive_seeds(np.array(parents, dtype=np.uint64), count, start=start)
    assert seeds.dtype == np.uint64 and seeds.shape == (len(parents), count)
    for row, parent in zip(seeds, parents):
        assert [int(s) for s in row] == [derive_seed_reference(parent, start + i) for i in range(count)]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, start=st.integers(0, 1 << 40), count=st.integers(1, 30))
def test_trial_row_seeds_from_one_derivation(seed, start, count):
    # the harness derives a block's trial seeds, then all their row seeds, at once
    trial_seeds = derive_seeds(derive_seed(seed, 2), count, start=start)
    assert [int(s) for s in trial_seeds] == [derive_seed_reference(seed, 2, start + t) for t in range(count)]
    rows = derive_seeds(trial_seeds, 3)
    assert [[int(s) for s in r] for r in rows] == [
        [derive_seed_reference(seed, 2, start + t, i) for i in range(3)] for t in range(count)
    ]


@given(values=st.lists(U64, min_size=1, max_size=50))
def test_array_mixer_matches_scalar_mixer_on_all_of_u64(values):
    # every derived seed and uniform goes through this mixer, so this covers
    # indices of any size, including negative ones (mapped to >= 2^63)
    mixed = _splitmix64_array(np.array(values, dtype=np.uint64))
    assert [int(v) for v in mixed] == [splitmix64(v) for v in values]


def _reference_uniform(seed: int, j: int) -> float:
    bits = splitmix64((seed + j * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
    return (bits >> 11) * 2.0**-53


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(U64, min_size=1, max_size=6), count=st.integers(1, 12), start=st.integers(0, 1 << 40))
def test_uniform_entry_is_a_function_of_seed_and_counter(seeds, count, start):
    block = uniforms(np.array(seeds, dtype=np.uint64), count, start=start)
    assert block.shape == (len(seeds), count)
    for i, seed in enumerate(seeds):
        assert block[i].tolist() == [_reference_uniform(seed, start + j) for j in range(count)]
    assert np.all((block >= 0.0) & (block < 1.0))
    # a row does not depend on the other rows of its block
    assert np.array_equal(uniforms(np.array(seeds[-1:], dtype=np.uint64), count, start=start), block[-1:])
