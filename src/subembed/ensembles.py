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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, ResourceError
# derive_seed is not called here; it stays importable from this module
# because perfbench/tracing.py wraps it there, alongside rng_from
from .seeding import derive_seed, derive_seeds, normalize_seed, rng_from, uniforms  # noqa: F401
from .stats import concentration_estimate

GAUSSIAN = "gaussian"
SPHERE_SCALED = "sphere_scaled"
IID_BOUNDED = "iid_bounded"
KINDS = (GAUSSIAN, SPHERE_SCALED, IID_BOUNDED)

# the built-in bounded-entry distribution: uniform on [-sqrt(3), sqrt(3)],
# i.e. mean 0, variance 1, density 1/(2*sqrt(3))
UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_DENSITY_BOUND = 1.0 / (2.0 * math.sqrt(3.0))
UNIFORM_ENTRY_PSI2 = 2.0 * math.sqrt(3.0)  # bounded-variable bound 4^(1/2) * sqrt(3)

#: default cap on m*n for sampled matrices (rows x cols)
DEFAULT_MAX_ELEMENTS = 100_000_000


@dataclass(frozen=True)
class EnsembleSpec:
    """Which row distribution to draw, with its admissibility data."""

    kind: str
    entry_distribution: str = "uniform_sqrt3"
    density_bound: float = UNIFORM_DENSITY_BOUND
    entry_psi2: float = UNIFORM_ENTRY_PSI2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == IID_BOUNDED:
            if self.entry_distribution != "uniform_sqrt3":
                raise ConfigurationError(
                    "only the built-in uniform_sqrt3 entry distribution is supported"
                )
            if self.density_bound <= 0.0:
                raise ConfigurationError("density_bound must be positive")
            if self.entry_psi2 <= 0.0:
                raise ConfigurationError("entry_psi2 must be positive")

    @classmethod
    def gaussian(cls) -> "EnsembleSpec":
        return cls(kind=GAUSSIAN)

    @classmethod
    def sphere_scaled(cls) -> "EnsembleSpec":
        return cls(kind=SPHERE_SCALED)

    @classmethod
    def iid_bounded(cls) -> "EnsembleSpec":
        return cls(kind=IID_BOUNDED)

    def to_json_dict(self) -> dict:
        if self.kind == IID_BOUNDED:
            return {
                "kind": "iid_bounded",
                "density_bound": self.density_bound,
                "entry_psi2": self.entry_psi2,
            }
        return {"kind": "sphere" if self.kind == SPHERE_SCALED else self.kind}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "EnsembleSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError("ensemble descriptor must be an object")
        allowed = {"kind", "density_bound", "entry_psi2"}
        unknown = set(payload) - allowed
        if unknown:
            raise ConfigurationError(f"unknown ensemble keys: {sorted(unknown)}")
        kind = payload.get("kind")
        if kind == "sphere":
            kind = SPHERE_SCALED
        if kind not in KINDS:
            raise ConfigurationError(f"ensemble kind must be one of gaussian|sphere|iid_bounded, got {kind!r}")
        kwargs = {}
        if "density_bound" in payload:
            kwargs["density_bound"] = float(payload["density_bound"])
        if "entry_psi2" in payload:
            kwargs["entry_psi2"] = float(payload["entry_psi2"])
        if kind != IID_BOUNDED and kwargs:
            raise ConfigurationError("density_bound/entry_psi2 only apply to iid_bounded")
        return cls(kind=kind, **kwargs)


@dataclass(frozen=True)
class EnsembleConstants:
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


@dataclass(frozen=True)
class RandomMatrix:
    """A sampled m x n map together with its generating seed and ensemble."""

    matrix: np.ndarray
    ensemble: EnsembleSpec | None = None
    seed: int | None = None

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
# rows are sampled in blocks of about this many entries to bound scratch memory
_BLOCK_ELEMENTS = 1 << 16


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
    mant, expo = np.frexp(1.0 - u[:, 0::2])
    low = mant < _SQRT_HALF
    mant = np.ldexp(mant, low.view(np.int8))
    expo -= low
    s = (mant - 1.0) / (mant + 1.0)
    quarters = 4.0 * u[:, 1::2]
    q = np.floor(quarters)
    t = (quarters - q - 0.5) * _HALF_PI
    args = np.empty((3,) + t.shape)
    np.multiply(s, s, out=args[0])
    np.multiply(t, t, out=args[1])
    args[2] = args[1]
    series = np.empty_like(args)
    series[...] = _SERIES[0]
    for coeff in _SERIES[1:]:
        series *= args
        series += coeff
    radius = np.sqrt(-2.0 * (expo * _LN2 + 2.0 * s * series[0]))
    radius = np.copysign(radius, 1.5 - q)
    cos, sin = series[1], t * series[2]
    odd = np.fmod(q, 2.0) == 1.0
    rows = np.empty((len(seeds), width))
    rows[:, 0::2] = radius * np.where(odd, sin, cos)
    rows[:, 1::2] = radius * np.where(odd, cos, sin)
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


def _sample_rows(spec: EnsembleSpec, seeds: np.ndarray, n: int) -> np.ndarray:
    """One n-dimensional row per uint64 seed; row i depends only on
    (spec, n, seeds[i]), and its entry j only on (spec, seeds[i], j)
    (for sphere rows, through the row's norm)."""
    if spec.kind == GAUSSIAN:
        return _gaussian_rows(seeds, n)
    if spec.kind == SPHERE_SCALED:
        return _sphere_rows(seeds, n)
    return UNIFORM_HALF_WIDTH * (2.0 * uniforms(seeds, n) - 1.0)


def sample_row(spec: EnsembleSpec, n: int, seed: int) -> np.ndarray:
    """One draw of the ensemble's n-dimensional row, deterministic in (spec, n, seed).

    The one-row case of ``sample_matrix``: row i of ``sample_matrix(spec,
    m, n, seed)`` equals ``sample_row(spec, n, derive_seed(seed, i))``.
    """
    if n < 1:
        raise DimensionError("n must be >= 1")
    return _sample_rows(spec, np.array([normalize_seed(seed)], dtype=np.uint64), n)[0]


def sample_matrix(
    spec: EnsembleSpec,
    m: int,
    n: int,
    seed: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> RandomMatrix:
    """m independent rows; row i depends only on (spec, n, derive_seed(seed, i)).

    Entry (i, j) is a fixed transform of the j-th uniforms of the counter
    stream seeded by derive_seed(seed, i) (see ``seeding.uniforms``).
    Adding rows therefore never changes earlier rows, which lets sweeps over
    m reuse prefixes of one tall sample.
    """
    if m < 1 or n < 1:
        raise DimensionError("m and n must be >= 1")
    if m * n > max_elements:
        raise ResourceError(f"m*n = {m * n} exceeds the element budget {max_elements}")
    seeds = derive_seeds(seed, m)
    rows = np.empty((m, n))
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, m, step):
        rows[lo : lo + step] = _sample_rows(spec, seeds[lo : lo + step], n)
    return RandomMatrix(matrix=rows, ensemble=spec, seed=seed)


def _empirical_directional_alpha(spec: EnsembleSpec, seed: int) -> float:
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
    alpha = 2, beta = 4. iid_bounded: beta = 4 * entry_psi2 in closed form;
    alpha is an empirical directional estimate (see
    _empirical_directional_alpha), reported with source "empirical".
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
        alpha=_empirical_directional_alpha(spec, seed),
        beta=4.0 * spec.entry_psi2,
        alpha_source="empirical",
        beta_source="closed_form",
    )
