"""Exact distortion certification for linear maps over subspace families.

Because every member carries an orthonormal basis B, the extremes of
||Gamma x|| over unit x in the member are exactly the extreme singular
values of Gamma @ B; no net or sampling argument is needed to certify the
two-sided bound (L/D)||x-y|| <= ||Gamma(x-y)|| <= L||x-y||.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import RandomMatrix
from .errors import DimensionError, InputError, Record
from .geometry import SubspaceFamily, _checked
from .stats import WIDTH_TILE_ENTRIES, _column_tiles, _tile_entries, check_distortion


class DistortionReport(Record):
    """Per-member singular extremes and the family-level distortion."""

    per_subspace: tuple[tuple[float, float], ...]
    family_sigma_min: float
    family_sigma_max: float
    achieved_distortion: float  # max/min, +inf on rank collapse

    @property
    def rank_collapse(self) -> bool:
        return not self.family_sigma_min > 0.0


class ScaleChoice(Record):
    """Whether a scale L makes the two-sided bound hold at distortion D."""

    feasible: bool
    D: float
    L: float | None = None


def _certify_entries(n: int, k: int, p: int, rows: int, grid: int) -> tuple[int, int]:
    """The numbers ``_certify_maps`` holds for maps of this many rows at grid
    values of m over p members of dimension at most k in R^n: per map, its
    rows with their squared norms (rows*(n + 1)) and its Frobenius norms
    (grid); and one transient tile with its Grams, the pairs' intervals,
    masks and chunks of kept pairs (``_grid_extremes``)."""
    return rows * (n + 1) + grid, _tile_entries(p * n * k)


def _svd_extremes(products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_min and sigma_max of each m x k matrix of a stack of products,
    one LAPACK SVD per matrix; sigma_min is 0 when m < k."""
    s = np.linalg.svd(products, compute_uv=False)
    m, k = products.shape[-2:]
    lo = np.zeros(s.shape[:-1]) if m < k else s[..., -1]
    return lo, s[..., 0]


# The screen's slack on a squared singular value. The screen reads a wide
# product P' = fl(Gamma_m W), one GEMM of a map's first m rows with a column
# tile W of bases; the SVD reads each kept pair's own product P = fl(Gamma_m B).
# BLAS may order their n-term dot products differently, so P' and P differ.
# With sigma' a singular value of P' and sigma the SVD's matching value of P,
# each eigenvalue of the screen's Gram G' lies within
#   slack = r + delta*(2*sqrt(|lambda_max| + r) + delta),  r = tau*|lambda_max| + floor,
# of sigma^2, lambda_max being G''s largest computed eigenvalue:
# - tau*|lambda_max| bounds the Gram's own errors. G' is grown along the
#   grid, G'_m = G'_prev + D^T D with D the rows new at m, so it sums m row
#   terms in at most m + s roundings (s the grid values up to m), and its
#   accumulation adds at most (m + s)*k*eps*sigma'^2: its entries are dot
#   products of columns with norms at most sigma'. eigvalsh is backward
#   stable, to c(k)*eps*||G'||; the closed forms used for k <= 2 err by at
#   most 3*eps*lambda_max (k = 1 is exact). The SVD's values lie within
#   c(k)*eps*sigma of P's, 2*c(k)*eps*sigma^2 once squared (Weyl; LAPACK
#   Users' Guide, "Error bounds for the singular value decomposition").
#   LAPACK's c(k) grows modestly with k. Taking c(k) <= k and (m + s)*k <=
#   2^20 (_SCREEN_MAX_MK), the sum is at most 2^22 * eps = 2^-30 sigma^2, and
#   _SCREEN_TAU = 2^-26 (about 6.7e7 eps) leaves a factor of 16 for LAPACK's
#   constants, the rounding of the comparisons and the gap between sigma and
#   sigma'; larger grids are not screened.
# - the floor, _SCREEN_FLOOR, covers with room the absolute error of a Gram
#   whose entries underflow to subnormal numbers (at most m*k * 2^-1074).
# - delta bounds ||P' - P||_F. Each product errs entrywise by at most
#   gamma_n |gamma_r|.|b_i| (Higham, Accuracy and Stability of Numerical
#   Algorithms, ch. 3) plus n * 2^-1075 from underflow, and by Cauchy-Schwarz
#   over the rows, with b_i a unit column, the column c = |Gamma_m||b_i| has
#   ||c||_2 <= ||Gamma_m||_F. By Minkowski, column i of P' - P then has norm
#   at most 2*n*eps*||Gamma_m||_F + n*sqrt(m)*2^-1074, and summing over the k
#   columns gives delta = k*(2*n*eps*||Gamma_m||_F + n*sqrt(m)*2^-1074), one
#   number per map and m in each stack. (2*n*eps is twice the 2*gamma_n the
#   two products need, and ||Gamma_m||_F is summed from squares with
#   m*n*2^-1074 added for squares lost to underflow; a map whose squares
#   overflow reads inf, so every pair of it is kept at that m.) The bound is
#   loose only for a map with a few large columns, and _certify_maps sees
#   only maps sampled by ensembles, whose entries are bounded. Weyl gives
#   |sigma - sigma'| <= delta, so |sigma^2 - sigma'^2| <= delta*(2*sigma' +
#   delta), and sigma'^2 <= |lambda_max| + r.
_SCREEN_TAU = 2.0**-26
_SCREEN_MAX_MK = 1 << 20
_SCREEN_FLOOR = 2.0**-1000
_EPS = float(np.finfo(float).eps)
_TINY = 2.0**-1074


# The point-pair screen's slack (_certify_points). The N points are
# scaled by 2^-e, 2^e above their largest entry, and centred: v_i are the
# centred rows, each entry at most 2 in magnitude, r_i = ||v_i||, and w is a
# pair's true scaled difference x_i - x_j. The screen reads the squared
# distance d2 = g_i + g_j - 2 G_ij from the Gram G of the v_i (g_i = G_ii),
# and the squared image distance e2 = h_i + h_j - 2 H_ij from the Gram H of
# the images Y = fl(V Gamma^T). The exact kernel forms the pair's difference,
# its _row_norms norm nu, the unit vector, its product with Gamma and the SVD
# of that m x 1 column. With u = eps/2, gamma_n = n*u/(1 - n*u) and
# F = ||Gamma||_F (Higham, Accuracy and Stability of Numerical Algorithms,
# ch. 3, for the sums and products):
# - the Gram's cancellation: each entry of G errs by at most gamma_n
#   |v_i|.|v_j|, and the two additions of d2 by 2u(g_i + g_j + 2|G_ij|). The
#   centring rounds each entry of v_i by u, which moves ||v_i - v_j|| off ||w||
#   by at most u(r_i + r_j) and the squared distance by 3u(r_i + r_j)^2. So
#   d2 lies within (n + 12)*eps*(g_i + g_j) of ||w||^2, and e2 within
#   (m + 4)*eps*(h_i + h_j) of ||Y_i - Y_j||^2.
# - the image GEMM's rounding: Y_i errs from Gamma v_i by gamma_n |Gamma||v_i|,
#   and Gamma moves the centring's error by at most F*u*(r_i + r_j), so
#   ||Y_i - Y_j|| lies within (gamma_n + u)*F*(r_i + r_j) of ||Gamma w||.
# - the exact kernel's own rounding: the difference rounds each entry by u,
#   nu errs from ||x_i - x_j|| by gamma_n/2 + 2u relative, and the division by
#   u more, so the unit vector lies within gamma_n/2 + 4u of w/||w|| and its
#   product with Gamma, rounded by gamma_n F more, within (n + 3)*eps*F of
#   Gamma w/||w||. LAPACK gives the column's one singular value to a small
#   multiple of m*eps relative (LAPACK Users' Guide, "Error bounds for the
#   singular value decomposition").
# Every coefficient is at most (n + m + 12)*eps; _pair_tau(n, m) =
# 16*(n + m + 16)*eps leaves a factor of 16 for LAPACK's constant, the
# rounding of F, r_i and the bounds' own few operations. Underflow adds at
# most (n + 1)(m + 1)*2^-1074 to a Gram entry, an image or a product, and
# _SCREEN_FLOOR covers it; the scaling's underflow, at most 2^-1074 an entry,
# is moved by Gamma to F*sqrt(n)*2^-1074, below tau*F*(r_i + r_j) for any pair
# above the duplicate threshold, whose scaled distance exceeds 2^-42. So, in
# units of 2^e, with s = tau*(g_i + g_j) + floor:
#   low = sqrt(max(d2 - s, 0)) <= ||w|| <= high = sqrt(d2 + s),
#   low*(1 - tau) <= nu <= high*(1 + tau),
# and with s' = tau*(h_i + h_j) + floor, b = tau*F*(r_i + r_j) + floor and
# a = tau*F + floor, the pair's exact singular value sigma satisfies
#   ((sqrt(max(e2 - s', 0)) - b)/high - a)*(1 - tau) <= sigma
#                                   <= ((sqrt(e2 + s') + b)/low + a)*(1 + tau).
# A non-finite bound, as from squares beyond the float64 range, bounds
# nothing: such a pair gets its exact norm, or the exact kernel.
def _pair_tau(n: int, m: int) -> float:
    """The point-pair screen's relative slack for N points in R^n and a map
    of m rows."""
    return 16.0 * (n + m + 16) * _EPS


def _row_norms(rows: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.norm of each row. Rows whose squares overflow are normed
    again in units of a power of two near their largest entry, which scales
    exactly; the other norms keep their bits."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
        big = np.isinf(norms)
        exps = np.frexp(np.abs(rows[big]).max(axis=1, initial=0.0))[1]
        norms[big] = np.ldexp(np.linalg.norm(np.ldexp(rows[big], -exps[:, None]), axis=1), exps)
    if np.isinf(norms).any():
        raise InputError(f"{what} exceeds the float64 range")
    return norms


def _pair_differences(pts: np.ndarray, rows: np.ndarray, cols: np.ndarray, width: int):
    """Batches (rows, cols, x_i - x_j, their _row_norms) of the pairs (i, j) =
    (rows, cols), in their order, each batch at most WIDTH_TILE_ENTRIES
    numbers when a pair costs width."""
    step = max(1, WIDTH_TILE_ENTRIES // width)
    for start in range(0, len(rows), step):
        i, j = rows[start : start + step], cols[start : start + step]
        with np.errstate(over="ignore"):
            diffs = pts[i] - pts[j]
        yield i, j, diffs, _row_norms(diffs, "a distance between two points")


def _gram_distances(x: np.ndarray, sq: np.ndarray, a: int, b: int, tau: float):
    """Bounds low <= ||x_i - x_j|| <= high for rows i = a..b-1 of x and its
    rows j = a.., from their Gram and sq, the rows' squared norms: the square
    roots of d2 -+ (tau*(sq_i + sq_j) + _SCREEN_FLOOR), with d2 the squared
    distance the Gram gives and low at least 0 (see _pair_tau)."""
    d2 = x[a:b] @ x[a:].T
    d2 *= -2.0
    d2 += sq[a:b, None]
    d2 += sq[a:]
    slack = tau * (sq[a:b, None] + sq[a:]) + _SCREEN_FLOOR
    return np.sqrt(np.maximum(d2 - slack, 0.0)), np.sqrt(d2 + slack)


def _certify_points(pts: np.ndarray, matrix: np.ndarray, D: float) -> tuple[int, float, ScaleChoice]:
    """(p, achieved_distortion, choose_scale at D), bit for bit, of an m x n
    matrix over the directions of the p pairs of an (N, n) point set more
    than the duplicate threshold, 1e-12 times its largest point norm or 1,
    apart.

    The points are scaled by 2^-e, 2^e above their largest entry, and
    centred. The pairs (i, j), i < j, are walked once, in triu_indices order,
    in row chunks [a, b) whose (b - a, N - a) blocks hold at most
    WIDTH_TILE_ENTRIES numbers (or one row), the budget of
    ``_pair_differences``. Each pair's distance and stretch get intervals
    from the Grams of the points and of their images Y = X Gamma^T (see
    _pair_tau). A pair gets its exact norm when its distance's interval
    cannot place it above or below the threshold (a non-finite bound never
    can), or cannot rule out a norm beyond the float64 range, which raises
    InputError; and the exact SVD kernel only when its stretch's interval
    reaches the running floor or ceiling.
    """
    threshold = 1e-12 * max(1.0, float(_row_norms(pts, "a point's norm").max()))
    # in units of a power of two above the largest entry, so no square overflows
    e = int(np.frexp(max(pts.max(initial=0.0), -pts.min(initial=0.0)))[1])
    centred = np.ldexp(pts, -e)
    centred -= centred.mean(axis=0)
    (N, n), m = pts.shape, len(matrix)
    tau = _pair_tau(n, m)
    images = centred @ matrix.T
    g, h = np.einsum("ij,ij->i", centred, centred), np.einsum("ij,ij->i", images, images)
    r = np.linalg.norm(centred, axis=1)
    with np.errstate(over="ignore"):
        cut, limit = np.ldexp(threshold, -e), np.ldexp(1.0, 1023 - e)
        frobenius = np.linalg.norm(matrix)
        kernel = tau * frobenius + _SCREEN_FLOOR
    p, lo, hi = 0, np.inf, -np.inf
    floor, ceiling = -np.inf, np.inf
    a = 0
    while a < N - 1:
        b = min(N - 1, a + max(1, WIDTH_TILE_ENTRIES // (N - a)))
        with np.errstate(all="ignore"):
            low, high = _gram_distances(centred, g, a, b, tau)
            pairs = np.arange(a, b)[:, None] < np.arange(a, N)
            kept = pairs & (low * (1.0 - tau) > cut) & (high * (1.0 + tau) < limit)
            rows, cols = np.nonzero(pairs & ~kept & ~(high * (1.0 + tau) <= cut))
        # a pair holds its difference and its norm
        for i, j, _, norms in _pair_differences(pts, rows + a, cols + a, n + 1):
            kept[i - a, j - a] = norms > threshold
        p += int(np.count_nonzero(kept))
        with np.errstate(all="ignore"):
            below, above = _gram_distances(images, h, a, b, tau)
            shift = tau * frobenius * (r[a:b, None] + r[a:]) + _SCREEN_FLOOR
            below = ((below - shift) / high - kernel) * (1.0 - tau)
            above = ((above + shift) / low + kernel) * (1.0 + tau)
            bounded = kept & np.isfinite(below) & np.isfinite(above)
            below[~bounded], above[~bounded] = -np.inf, np.inf
        floor, ceiling = max(floor, below.max()), min(ceiling, above.min())
        rows, cols = np.nonzero(kept & _reach(below, above, floor, ceiling))
        del below, above, shift  # before the exact kernel's batches, to lower the peak
        # and its product with the map
        for _, _, units, norms in _pair_differences(pts, rows + a, cols + a, n + 1 + m):
            units /= norms[:, None]
            pair_lo, pair_hi = _svd_extremes(matrix @ units[:, :, None])
            lo, hi = np.minimum(lo, pair_lo.min()), np.maximum(hi, pair_hi.max())
        a = b
    lo, hi = float(lo), float(hi)
    return p, _achieved(lo, hi), _scale(lo, hi, D)


def _gram_extremes(wide: np.ndarray, m_values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The smallest and largest eigenvalue of each (map, member) pair's Gram
    at each m of the strictly increasing grid, as two (s, T, c) arrays, from
    a (T, M, c, k) wide product; and an (s,) mask of the m at which every
    Gram and eigenvalue is finite (a non-finite Gram reads 0).

    Each m's Grams are the last m's grown by the Grams of the rows between
    them. For k <= 2 a Gram is held as its entries and solved in closed
    form, since a GEMM and a LAPACK call per pair cost more than the
    arithmetic at that size; beyond, as a k x k matrix from one small GEMM
    per pair, solved by eigvalsh.
    """
    T, _, c, k = wide.shape
    if k <= 2:
        entries = [(i, j) for i in range(k) for j in range(i, k)]
        grams = np.empty((len(m_values), len(entries), T, c))

        def rows_gram(lo, hi, out):
            for entry, (i, j) in zip(out, entries):
                np.einsum("tdc,tdc->tc", wide[:, lo:hi, :, i], wide[:, lo:hi, :, j], out=entry)

    else:
        pairs = wide.transpose(0, 2, 1, 3)
        grams = np.empty((len(m_values), T, c, k, k))

        def rows_gram(lo, hi, out):
            block = pairs[:, :, lo:hi]
            np.matmul(np.swapaxes(block, -1, -2), block, out=out)

    for g, m in enumerate(m_values):
        rows_gram(m_values[g - 1] if g else 0, m, grams[g])
        if g:
            grams[g] += grams[g - 1]
    finite = np.isfinite(grams.reshape(len(m_values), -1)).all(axis=1)
    grams[~finite] = 0.0
    if k == 1:
        bottom = top = grams[:, 0]
    elif k == 2:
        a, b, d = grams[:, 0], grams[:, 1], grams[:, 2]
        mid = 0.5 * (a + d)
        radius = np.hypot(0.5 * (a - d), b)
        bottom, top = mid - radius, mid + radius
    else:
        eig = np.linalg.eigvalsh(grams)
        bottom, top = eig[..., 0], eig[..., -1]
    finite &= np.isfinite(bottom).all(axis=(1, 2)) & np.isfinite(top).all(axis=(1, 2))
    return bottom, top, finite


# an overflowing norm, Gram or slack keeps every pair, and the SVD path warns on its own
@np.errstate(over="ignore", invalid="ignore")
def _tile_bounds(maps: np.ndarray, tile: np.ndarray, delta: np.ndarray, m_values):
    """(below, above, floor, ceiling) of a (T, M, n) block of maps over a (c,
    n, k) tile of bases at each m of the grid, from one wide GEMM: each
    pair's interval [bottom - slack, top + slack] about its extreme Gram
    eigenvalues, two (s, T, c) arrays, and the tile's largest top - slack
    and smallest bottom + slack, two (s, T) arrays. delta, (s, T, 1), bounds
    the Frobenius distance between the wide product and each pair's own
    product at each m. Where (m + s)*k is beyond the slack's range, or one
    of the tile's Gram entries or eigenvalues is not finite, the tile is
    flagged: its intervals read (-inf, inf) and its floor and ceiling -inf
    and inf. A map's pairs read so too where its squares overflow, as its
    slack is inf there."""
    (T, M, n), (c, _, k) = maps.shape, tile.shape
    # the n x (c*k) tile, copied as its transpose so each member's block stays
    # local; for k = 1 it is a read-only view of the stack
    cols = np.ascontiguousarray(tile.transpose(0, 2, 1)).reshape(c * k, n)
    wide = (maps.reshape(T * M, n) @ cols.T).reshape(T, M, c, k)
    del cols  # before the Grams are formed, to lower the peak
    bottom, top, finite = _gram_extremes(wide, m_values)
    relative = _SCREEN_TAU * np.abs(top) + _SCREEN_FLOOR
    slack = relative + delta * (2.0 * np.sqrt(np.abs(top) + relative) + delta)
    floor = np.subtract(top, slack, out=relative).max(axis=2)
    ceiling = np.add(bottom, slack, out=relative).min(axis=2)
    below, above = np.subtract(bottom, slack, out=relative), np.add(top, slack, out=slack)
    flagged = ~finite | ((m_values + np.arange(1, len(m_values) + 1)) * k > _SCREEN_MAX_MK)
    below[flagged], floor[flagged] = -np.inf, -np.inf
    above[flagged], ceiling[flagged] = np.inf, np.inf
    return below, above, floor, ceiling


def _kept_products(maps: np.ndarray, bases: np.ndarray, keep: np.ndarray):
    """The exact products of the kept (map, basis) pairs of a (T, count)
    mask, in row-major order, as chunks (rows, cols, products): the pairs'
    map and basis indices and their products. A chunk holds whole pairs, at
    most WIDTH_TILE_ENTRIES numbers in its gathered bases and products (n*k
    + m*k a pair), or one pair. Each map is broadcast over its run of kept
    pairs, so no map is copied, and numpy runs one GEMM per pair, of the
    pair's own shape: its product is bit for bit the same in any chunk. A
    run of consecutive members is a slice of the stack, not a gather, and
    over one screen tile the products and one run's bases hold no more than
    the tile's wide product and copy did."""
    rows, cols = np.nonzero(keep)
    (_, m, n), (_, _, k) = maps.shape, bases.shape
    step = max(1, WIDTH_TILE_ENTRIES // (n * k + m * k))
    for lo in range(0, len(rows), step):
        i, j = rows[lo : lo + step], cols[lo : lo + step]
        products = np.empty((len(i), m, k))
        # the chunk's runs of one map, [a, b), as rows never decrease; a
        # run's columns increase, so they are consecutive when they span b - a
        edges = [0, *(np.flatnonzero(i[1:] != i[:-1]) + 1).tolist(), len(i)]
        for a, b in zip(edges[:-1], edges[1:]):
            run = slice(j[a], j[b - 1] + 1) if j[b - 1] - j[a] == b - a - 1 else j[a:b]
            np.matmul(maps[i[a]], bases[run], out=products[a:b])
        yield i, j, products
        del products  # before the next chunk's, to lower the peak


def _reach(below: np.ndarray, above: np.ndarray, floor, ceiling) -> np.ndarray:
    """The pairs that can hold a family extreme, from bounds below <=
    sigma_min and sigma_max <= above on each pair: those whose above reaches
    floor, the largest lower bound of any pair's sigma_max, or whose below
    reaches ceiling, the smallest upper bound of any pair's sigma_min."""
    return (above >= floor) | (below <= ceiling)


def _grid_extremes(maps: np.ndarray, family: SubspaceFamily, m_values) -> tuple[np.ndarray, np.ndarray]:
    """(s, T) arrays of each map's family minimum of sigma_min and maximum of
    sigma_max at each m of the strictly increasing grid, from its first m
    rows: bit for bit the min and max of ``_family_extremes`` of those rows.

    The column tiles are walked once. Each tile's Grams (``_tile_bounds``,
    with each map's Frobenius norm over its first m rows) fold its floor and
    ceiling into the running ones, and its pairs whose interval reaches them
    get their exact product, from the family's own stack, and SVD at once. A
    running floor is never above the final one, nor a running ceiling below
    it, so every pair that can hold its map's family extreme is kept, and
    the Grams never decide a value. When m is below the family's largest
    dimension, sigma_min is 0 and only the maximum is screened.
    """
    maps = np.ascontiguousarray(maps)
    T, M, n = maps.shape
    m_values = np.asarray(m_values)
    s = len(m_values)
    floor = np.full((s, T), -np.inf)
    ceiling = np.full_like(floor, np.inf)
    lo = np.where(m_values[:, None] < family.max_dim, 0.0, ceiling)
    hi = floor.copy()
    # squares that overflow read inf, and keep every pair of their map
    with np.errstate(over="ignore", invalid="ignore"):
        # 2*n*eps*||Gamma_m||_F + n*sqrt(m)*2^-1074 per map and m, (s, T, 1):
        # a stack of k-dimensional members takes k times it as its delta
        squares = np.einsum("tij,tij->ti", maps, maps)
        squares = np.cumsum(squares, axis=1, out=squares)[:, m_values - 1].T
        squares += (m_values * n * _TINY)[:, None]
        delta = (2.0 * n * _EPS * np.sqrt(squares) + (n * _TINY) * np.sqrt(m_values)[:, None])[:, :, None]
    # a tile's transposed copy, its wide product, its Grams, their eigenvalues,
    # the pairs' intervals and masks: at most n + T*(M + s*(k + 4)) numbers a column
    per_column = n + T * (M + s * (family.max_dim + 4))
    for g, start, tile in _column_tiles(family, per_column, sum(bases.size for _, bases in family.stacks)):
        below, above, tile_floor, tile_ceiling = _tile_bounds(maps, tile, tile.shape[2] * delta, m_values)
        np.maximum(floor, tile_floor, out=floor)
        np.minimum(ceiling, tile_ceiling, out=ceiling)
        bases = family.stacks[g][1][start : start + len(tile)]
        for j, m in enumerate(m_values):
            # below max_dim every sigma_min is 0, and no pair is kept for it
            at_m = ceiling[j, :, None] if m >= family.max_dim else -np.inf
            keep = _reach(below[j], above[j], floor[j, :, None], at_m)
            for rows, _, products in _kept_products(maps[:, :m], bases, keep):
                pair_lo, pair_hi = _svd_extremes(products)
                np.minimum.at(lo[j], rows, pair_lo)
                np.maximum.at(hi[j], rows, pair_hi)
    return lo, hi


def _family_extremes(maps: np.ndarray, family: SubspaceFamily) -> tuple[np.ndarray, np.ndarray]:
    """(T, p) arrays of each map's sigma_min and sigma_max on every member of
    the family, from every pair's chunk of ``_kept_products`` and one LAPACK
    SVD per pair, so a pair's extremes are bit for bit the same in any
    stack. When m < k each restriction has a kernel, so sigma_min is 0."""
    lo, hi = np.empty((2, len(maps), family.size))
    for indices, bases in family.stacks:
        for rows, cols, products in _kept_products(maps, bases, np.ones((len(maps), len(bases)), dtype=bool)):
            members = indices[cols]
            lo[rows, members], hi[rows, members] = _svd_extremes(products)
            del products  # before the next chunk's, to lower the peak
    return lo, hi


def _achieved(sigma_min: float, sigma_max: float) -> float:
    """The smallest D some scale achieves, from the family's extremes:
    max/min, +inf on rank collapse."""
    return sigma_max / sigma_min if sigma_min > 0.0 else math.inf


def _scale(sigma_min: float, sigma_max: float, D: float) -> ScaleChoice:
    """``choose_scale`` on the family's extremes, D already checked."""
    feasible = sigma_min > 0.0 and sigma_max <= D * sigma_min
    return _checked(ScaleChoice, feasible=feasible, D=float(D), L=sigma_max if feasible else None)


def _certify_maps(
    maps: np.ndarray, family: SubspaceFamily, D: float, m_values=None
) -> list[list[tuple[float, ScaleChoice]]]:
    """Per m of the strictly increasing m_values (default: the maps' row
    count), (achieved_distortion, choose_scale at D) for each map of a
    (T, M, n) stack over the family, from its first m rows: bit for bit what
    ``family_distortion`` and ``choose_scale`` give for that map alone,
    without building the per-member extremes into a report. D is already
    checked."""
    m_values = (maps.shape[1],) if m_values is None else tuple(m_values)
    lo, hi = _grid_extremes(maps[:, : m_values[-1]], family, m_values)
    return [
        [(_achieved(sigma_min, sigma_max), _scale(sigma_min, sigma_max, D)) for sigma_min, sigma_max in zip(*at_m)]
        for at_m in zip(lo.tolist(), hi.tolist())
    ]


def family_distortion(gamma: RandomMatrix, family: SubspaceFamily) -> DistortionReport:
    """Aggregate subspace extremes over the family.

    The one-map case of ``_family_extremes``. achieved_distortion is the
    smallest D for which some scale L satisfies the two-sided bound on
    every member.
    """
    if family.ambient_dim != gamma.n:
        raise DimensionError(f"family ambient dim {family.ambient_dim} != matrix cols {gamma.n}")
    (lo,), (hi,) = _family_extremes(gamma.matrix[None], family)
    family_min, family_max = float(lo.min()), float(hi.max())
    return DistortionReport(
        per_subspace=tuple(zip(lo.tolist(), hi.tolist())),
        family_sigma_min=family_min,
        family_sigma_max=family_max,
        achieved_distortion=_achieved(family_min, family_max),
    )


def choose_scale(report: DistortionReport, D: float) -> ScaleChoice:
    """Pick the scale L = family_sigma_max when distortion D is achievable.

    Feasibility means family_sigma_min > 0 and family_sigma_max <=
    D * family_sigma_min; then L/D <= family_sigma_min, so both sides of
    the bound hold for every member. A map with a kernel on some member
    (in particular the zero map) is never feasible. Any L in
    [family_sigma_max, D * family_sigma_min] would work; the lower
    endpoint is used for determinism. D must be finite and > 1.
    """
    check_distortion(D)
    return _scale(report.family_sigma_min, report.family_sigma_max, D)
