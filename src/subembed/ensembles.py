"""Admissible random-row ensembles and their concentration constants.

Three built-in row distributions, each centered and isotropic with a
subgaussian marginal in every direction: i.i.d. standard Gaussian entries,
the uniform sphere vector scaled to norm sqrt(n), and i.i.d. entries
uniform on [-sqrt(3), sqrt(3)].

A matrix is sampled in one vectorized pass over the counter-based uniforms
of ``seeding.uniforms``: entry (i, j) is a fixed transform of uniforms j
(Gaussian: the Box-Muller pair holding j) of the stream seeded by
derive_seed(seed, i). No generator object is built per row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError, Record, _integer, describe_keys, describe_value
from .geometry import _checked
# derive_seed is not called here; it stays importable from this module
# because perfbench/tracing.py wraps it there, alongside rng_from
from .seeding import derive_seed, derive_seeds, normalize_seed, rng_from, uniforms  # noqa: F401
from .stats import _check_budget, concentration_estimate

GAUSSIAN = "gaussian"
SPHERE_SCALED = "sphere_scaled"
IID_BOUNDED = "iid_bounded"
KINDS = (GAUSSIAN, SPHERE_SCALED, IID_BOUNDED)

# the one bounded-entry distribution sampled: uniform on [-sqrt(3), sqrt(3)],
# i.e. mean 0, variance 1, density 1/(2*sqrt(3))
UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_ENTRY_PSI2 = 2.0 * math.sqrt(3.0)  # bounded-variable bound 4^(1/2) * sqrt(3)


class EnsembleSpec(Record):
    """Which row distribution to draw."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"ensemble kind must be one of {'|'.join(KINDS)}, got {describe_value(self.kind)}")

    @classmethod
    def gaussian(cls) -> "EnsembleSpec":
        return cls(kind=GAUSSIAN)

    @classmethod
    def sphere_scaled(cls) -> "EnsembleSpec":
        return cls(kind=SPHERE_SCALED)

    @classmethod
    def iid_bounded(cls) -> "EnsembleSpec":
        return cls(kind=IID_BOUNDED)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "EnsembleSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError("ensemble descriptor must be an object")
        unknown = set(payload) - {"kind"}
        if unknown:
            raise ConfigurationError(f"unknown ensemble keys: {describe_keys(unknown)}")
        kind = payload.get("kind")
        if kind == "sphere":
            kind = SPHERE_SCALED
        if kind not in KINDS:
            raise ConfigurationError(
                f"ensemble kind must be one of gaussian|sphere|iid_bounded, got {describe_value(kind)}"
            )
        return cls(kind=kind)


class EnsembleConstants(Record):
    """Concentration constant alpha and psi_2 constant beta for an ensemble.

    Isotropy forces beta >= 1, and Chebyshev at radius 2 forces
    alpha >= 3/8; both are enforced here.
    """

    alpha: float
    beta: float
    alpha_source: str  # closed_form | empirical
    beta_source: str

    def __post_init__(self):
        if self.beta < 1.0:
            raise ConfigurationError(f"beta must be >= 1, got {self.beta}")
        if self.alpha < 3.0 / 8.0:
            raise ConfigurationError(f"alpha must be >= 3/8, got {self.alpha}")


class RandomMatrix(Record):
    """An m x n map. The constructor copies and checks its input;
    ``sample_matrix`` and ``cli.load_matrix_csv`` skip both and keep their
    own read-only arrays."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float, copy=True)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise DimensionError("matrix must be 2-d with positive dimensions")
        if not np.all(np.isfinite(mat)):
            raise ConfigurationError("matrix entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


# Gaussian entries are built from + - * / and sqrt alone, besides exact
# operations (frexp, ldexp, floor, fmod, copysign, comparisons). numpy's
# log/sin/cos kernels differ in the last bits between SIMD dispatch levels,
# and libm differs between platforms, while these operations are correctly
# rounded everywhere, so a seed gives the same matrix on every machine.
# Each series coefficient is an exact rational rounded once by Python's
# correctly rounded int division.
_LN2 = 0.6931471805599453
_SQRT_HALF = math.sqrt(0.5)
_HALF_PI = math.pi / 2.0
_SERIES_TERMS = 10
# (terms, 3, 1, 1), highest degree first: the series of atanh(s)/s in s^2
# (ten terms for |s| < 0.172), and of cos(t) and sin(t)/t in t^2 (nine terms
# for |t| <= pi/4, with a leading zero)
_SERIES = np.array(
    [
        [1 / (2 * k + 1) for k in range(_SERIES_TERMS)],
        [(-1) ** k / math.factorial(2 * k) for k in range(_SERIES_TERMS - 1)] + [0.0],
        [(-1) ** k / math.factorial(2 * k + 1) for k in range(_SERIES_TERMS - 1)] + [0.0],
    ]
).T[::-1, :, None, None].copy()

# sphere rows shorter than this before scaling are redrawn
_SPHERE_MIN_NORM = 1e-12
# rows are sampled in steps of about this many entries: a Gaussian step
# needs scratch of about 6 times its output, here about 0.8 MB
_BLOCK_ELEMENTS = 1 << 14


def _gaussian_rows(seeds: np.ndarray, n: int, attempt: int = 0) -> np.ndarray:
    """Box-Muller rows: entries 2k and 2k+1 of row i come from uniforms 2k
    and 2k+1 of block ``attempt`` of row i's stream, a block of 2*ceil(n/2)
    uniforms whatever n's parity.

    The radius is sqrt(-2 log(1 - u)): with 1 - u = mant * 2^expo and mant in
    [sqrt(1/2), sqrt(2)), log(mant) = 2 atanh(s), s = (mant - 1)/(mant + 1).
    The uniform point on the circle is taken from the second uniform v: its
    quarter floor(4v) exactly, then t in [-pi/4, pi/4) within the quarter;
    (cos t, sin t) is swapped on odd quarters and negated on the last two,
    which covers the circle once.
    """
    width = 2 * ((n + 1) // 2)
    u = uniforms(seeds, width, start=attempt * width)
    mant, expo = np.frexp(np.subtract(1.0, u[:, 0::2]))
    t = np.multiply(u[:, 1::2], 4.0)
    del u
    low = mant < _SQRT_HALF
    np.ldexp(mant, low.view(np.int8), out=mant)
    expo -= low
    s = mant - 1.0
    mant += 1.0
    s /= mant
    q = np.floor(t)
    t -= q
    t -= 0.5
    t *= _HALF_PI
    # Horner's rule, highest degree first; the cos and sin series start one
    # term later, since 0 * t^2 + c is c for every finite t
    args = np.empty((3,) + t.shape)
    np.multiply(s, s, out=args[0])
    np.multiply(t, t, out=args[1])
    args[2] = args[1]
    series = np.empty_like(args)
    np.multiply(args[0], _SERIES[0, 0], out=series[0])
    series[0] += _SERIES[1, 0]
    series[1:] = _SERIES[1, 1:]
    for coeff in _SERIES[2:]:
        series *= args
        series += coeff
    del args
    # radius = sqrt(-2 (expo ln 2 + 2 s atanh-series)), signed by the quarter
    radius = np.multiply(expo, _LN2)
    s *= 2.0
    s *= series[0]
    radius += s
    radius *= -2.0
    np.sqrt(radius, out=radius)
    odd = (q == 1.0) | (q == 3.0)  # q is 0, 1, 2 or 3
    np.subtract(1.5, q, out=q)
    np.copysign(radius, q, out=radius)
    cos, sin = series[1], series[2]
    sin *= t
    rows = np.empty((len(seeds), width))
    np.multiply(radius, np.where(odd, sin, cos), out=rows[:, 0::2])
    np.multiply(radius, np.where(odd, cos, sin), out=rows[:, 1::2])
    return rows[:, :n]


def _sphere_rows(seeds: np.ndarray, n: int) -> np.ndarray:
    """Gaussian rows scaled to norm sqrt(n). A row whose norm is below
    _SPHERE_MIN_NORM (a measure-zero event) is redrawn from the next block
    of its own stream, so it stays a function of its seed alone."""
    rows = _gaussian_rows(seeds, n)
    norms = np.linalg.norm(rows, axis=1)
    attempt = 0
    while (redo := np.flatnonzero(norms < _SPHERE_MIN_NORM)).size:
        attempt += 1
        rows[redo] = _gaussian_rows(seeds[redo], n, attempt)
        norms[redo] = np.linalg.norm(rows[redo], axis=1)
    return rows * (math.sqrt(n) / norms)[:, None]


def _draw_rows(spec: EnsembleSpec, seeds: np.ndarray, n: int) -> np.ndarray:
    if spec.kind == GAUSSIAN:
        return _gaussian_rows(seeds, n)
    if spec.kind == SPHERE_SCALED:
        return _sphere_rows(seeds, n)
    return UNIFORM_HALF_WIDTH * (2.0 * uniforms(seeds, n) - 1.0)


def _sample_rows(spec: EnsembleSpec, seeds: np.ndarray, n: int) -> np.ndarray:
    """One n-dimensional row per uint64 seed, drawn in steps of about
    _BLOCK_ELEMENTS entries; row i depends only on (spec, n, seeds[i]), and
    its entry j only on (spec, seeds[i], j) (for sphere rows, through the
    row's norm)."""
    rows = np.empty((len(seeds), n))
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, len(seeds), step):
        rows[lo : lo + step] = _draw_rows(spec, seeds[lo : lo + step], n)
    return rows


def _sample_maps(spec: EnsembleSpec, seeds: np.ndarray, m: int, n: int) -> np.ndarray:
    """A (len(seeds), m, n) stack of maps, all rows from one seed derivation
    and one sampling pass: map t is ``sample_matrix(spec, m, n,
    seeds[t]).matrix`` bit for bit, whatever the other seeds."""
    if not isinstance(spec, EnsembleSpec):
        raise InputError(f"spec must be an EnsembleSpec, got {describe_value(spec)}")
    m, n = _integer(m, "m must be an integer"), _integer(n, "n must be an integer")
    if m < 1 or n < 1:
        raise DimensionError("m and n must be >= 1")
    _check_budget("m*n", m * n)
    return _sample_rows(spec, derive_seeds(seeds, m).reshape(-1), n).reshape(len(seeds), m, n)


def sample_matrix(spec: EnsembleSpec, m: int, n: int, seed: int) -> RandomMatrix:
    """m independent rows; row i depends only on (spec, n, derive_seed(seed, i)).

    Entry (i, j) is a fixed transform of the j-th uniforms of the counter
    stream seeded by derive_seed(seed, i) (see ``seeding.uniforms``).
    Adding rows therefore never changes earlier rows, so a block of trials
    samples its maps once, with the largest m, and certifies each m on
    their first m rows.
    """
    rows = _sample_maps(spec, np.array([normalize_seed(seed)], dtype=np.uint64), m, n)[0]
    rows.setflags(write=False)
    return _checked(RandomMatrix, matrix=rows)


def _empirical_directional_alpha(seed: int) -> float:
    """Worst observed concentration ratio C_eps(<X, a>)/eps over sampled directions.

    Used where the composite concentration constant has no numeric closed
    form (the i.i.d.-entry route goes through an unspecified universal
    factor). Directions cover coordinate, diagonal and random cases in a
    few ambient dimensions.
    """
    n_samples = 200_000
    eps_grid = (0.05, 0.1, 0.2)
    worst = 0.0
    for n in (1, 2, 8, 32):
        rng = rng_from(seed, n)
        draws = rng.uniform(-UNIFORM_HALF_WIDTH, UNIFORM_HALF_WIDTH, (n_samples, n))
        directions = [np.eye(n)[0], np.full(n, 1.0 / math.sqrt(n))]
        for _ in range(3 if n > 1 else 0):
            d = rng.standard_normal(n)
            directions.append(d / np.linalg.norm(d))
        for a in directions:
            samples = draws @ a
            for eps in eps_grid:
                est = concentration_estimate(samples, eps)
                worst = max(worst, est.value / eps)
    return worst


def theoretical_constants(spec: EnsembleSpec, seed: int = 0) -> EnsembleConstants:
    """The ensemble's (alpha, beta), closed-form where available.

    gaussian: alpha = sqrt(2/pi), beta = sqrt(8/3). sphere_scaled:
    alpha = 2, beta = 4. iid_bounded: beta = 4 * UNIFORM_ENTRY_PSI2, from the
    psi_2 bound of its uniform entries, in closed form; alpha is an empirical
    directional estimate (see _empirical_directional_alpha), reported with
    source "empirical".
    """
    if spec.kind == GAUSSIAN:
        return EnsembleConstants(
            alpha=math.sqrt(2.0 / math.pi),
            beta=math.sqrt(8.0 / 3.0),
            alpha_source="closed_form",
            beta_source="closed_form",
        )
    if spec.kind == SPHERE_SCALED:
        return EnsembleConstants(alpha=2.0, beta=4.0, alpha_source="closed_form", beta_source="closed_form")
    return EnsembleConstants(
        alpha=_empirical_directional_alpha(seed),
        beta=4.0 * UNIFORM_ENTRY_PSI2,
        alpha_source="empirical",
        beta_source="closed_form",
    )
