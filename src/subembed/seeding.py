"""Counter-based seed derivation and uniform streams.

All randomness in the package flows from a single 64-bit seed. Derived
streams (matrix rows, trials, families) get their own seeds through a
splitmix64 mix of the parent seed and a counter, so that stream i is
reproducible without generating streams 0..i-1 and independent of how
many streams exist.

Matrix rows go one step further: entry j of a row is the j-th output of
the SplitMix64 generator seeded with the row's seed, computed directly from
(row seed, j) in the spirit of counter-based generators (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). One uint64 array
kernel, ``_splitmix64_array``, computes every derived seed and uniform:
``derive_seed`` runs it on its path and a one-element running seed,
``derive_seeds`` and ``uniforms`` on whole arrays at once.
"""

from __future__ import annotations

import numpy as np

from .errors import _integer

_MASK64 = (1 << 64) - 1

# SplitMix64's gamma, multipliers and shifts as 0-d uint64 arrays, so array
# arithmetic stays in uint64 (and wraps modulo 2^64) under both the numpy
# 1.x and NEP 50 promotion rules
_U_GAMMA, _U_MIX1, _U_MIX2, _U_30, _U_27, _U_31, _U_11 = (
    np.array(c, dtype=np.uint64)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31, 11)
)
_INV_2_53 = 2.0**-53


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function, elementwise on a uint64 array: add
    the golden gamma, then xor-shift-multiply twice and xor-shift once."""
    z = x + _U_GAMMA
    shifted = np.empty_like(z)
    for shift, mix in ((_U_30, _U_MIX1), (_U_27, _U_MIX2)):
        z ^= np.right_shift(z, shift, out=shifted)
        z *= mix
    z ^= np.right_shift(z, _U_31, out=shifted)
    return z


def normalize_seed(seed: int) -> int:
    """Map any integer (possibly negative) onto the 64-bit seed space; any
    other value, a float or a bool among them, raises InputError."""
    return _integer(seed, "seed must be an integer") & _MASK64


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and a counter path.

    Distinct paths give statistically independent child seeds; the empty
    path returns the normalized seed itself. Used for matrix rows
    (``derive_seed(seed, i)``), trial streams, and family construction.
    """
    out = normalize_seed(seed)
    if not path:
        return out
    # one-element arrays, not derive_seeds: its arange cannot reach 2^64 - 1
    child = np.array([out], dtype=np.uint64)
    for index in _splitmix64_array(np.array([normalize_seed(i) for i in path], dtype=np.uint64)):
        child = _splitmix64_array(_splitmix64_array(child) ^ index)
    return int(child[0])


def derive_seeds(seed, count: int, start: int = 0) -> np.ndarray:
    """``derive_seed(seed, i)`` for i in range(start, start + count), as uint64.

    ``seed`` is one parent seed, giving a (count,) array, or a uint64 array
    of parent seeds, giving ``seed.shape + (count,)``: the children of each
    parent along the last axis. Equal to the scalar version bit for bit.
    """
    parents = seed if isinstance(seed, np.ndarray) else np.array(normalize_seed(seed), dtype=np.uint64)
    head = _splitmix64_array(parents.astype(np.uint64, copy=False))[..., None]
    return _splitmix64_array(head ^ _splitmix64_array(np.arange(start, start + count, dtype=np.uint64)))


def uniforms(seeds: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """A (len(seeds), count) block of doubles in [0, 1), each a multiple of 2^-53.

    Entry (i, j) is output number ``start + j`` of the SplitMix64 generator
    seeded with ``seeds[i]``, that is ``_splitmix64_array`` of ``seeds[i] +
    (start + j) * gamma`` with its top 53 bits kept: a pure function of
    (seeds[i], start + j), whatever the other seeds and the block's shape.
    """
    counters = np.arange(start, start + count, dtype=np.uint64) * _U_GAMMA
    bits = _splitmix64_array(np.asarray(seeds, dtype=np.uint64)[:, None] + counters)
    bits >>= _U_11
    return np.multiply(bits, _INV_2_53, dtype=np.float64)


def rng_from(seed: int, *path: int) -> np.random.Generator:
    """A fresh PCG64 generator seeded by ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))
