"""Counter-based seed derivation and uniform streams.

All randomness in the package flows from a single 64-bit seed. Derived
streams (matrix rows, trials, families) get their own seeds through a
splitmix64 mix of the parent seed and a counter, so that stream i is
reproducible without generating streams 0..i-1 and independent of how
many streams exist.

Matrix rows go one step further: entry j of a row is the j-th output of
the SplitMix64 generator seeded with the row's seed, computed directly from
(row seed, j) in the spirit of counter-based generators (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). ``derive_seeds``
and ``uniforms`` do this over whole uint64 arrays at once.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# the same constants as 0-d uint64 arrays, so array arithmetic stays in
# uint64 (and wraps modulo 2^64) under both the numpy 1.x and NEP 50
# promotion rules
_U_GAMMA, _U_MIX1, _U_MIX2, _U_30, _U_27, _U_31, _U_11 = (
    np.array(c, dtype=np.uint64) for c in (_GAMMA, _MIX1, _MIX2, 30, 27, 31, 11)
)
_INV_2_53 = 2.0**-53


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK64
    z = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` applied elementwise to a uint64 array."""
    z = x + _U_GAMMA
    z = (z ^ (z >> _U_30)) * _U_MIX1
    z = (z ^ (z >> _U_27)) * _U_MIX2
    return z ^ (z >> _U_31)


def normalize_seed(seed: int) -> int:
    """Map any Python int (possibly negative) onto the 64-bit seed space."""
    return int(seed) & _MASK64


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and a counter path.

    Distinct paths give statistically independent child seeds; the empty
    path returns the normalized seed itself. Used for matrix rows
    (``derive_seed(seed, i)``), trial streams, and family construction.
    """
    out = normalize_seed(seed)
    for index in path:
        out = _splitmix64(_splitmix64(out) ^ _splitmix64(normalize_seed(index)))
    return out


def derive_seeds(seed: int, count: int) -> np.ndarray:
    """``derive_seed(seed, i)`` for i in range(count), as a uint64 array.

    Equal to the scalar version bit for bit.
    """
    head = np.array(_splitmix64(normalize_seed(seed)), dtype=np.uint64)
    return _splitmix64_array(head ^ _splitmix64_array(np.arange(count, dtype=np.uint64)))


def uniforms(seeds: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """A (len(seeds), count) block of doubles in [0, 1), each a multiple of 2^-53.

    Entry (i, j) is output number ``start + j`` of the SplitMix64 generator
    seeded with ``seeds[i]``, that is ``_splitmix64(seeds[i] + (start + j) *
    gamma)`` with its top 53 bits kept: a pure function of (seeds[i],
    start + j), whatever the other seeds and the block's shape.
    """
    counters = np.arange(start, start + count, dtype=np.uint64) * _U_GAMMA
    bits = _splitmix64_array(np.asarray(seeds, dtype=np.uint64)[:, None] + counters)
    return (bits >> _U_11).astype(np.float64) * _INV_2_53


def rng_from(seed: int, *path: int) -> np.random.Generator:
    """A fresh PCG64 generator seeded by ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))
