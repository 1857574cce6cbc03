"""Subspaces, affine subspace families, Grassmann separation, family files.

Subspaces are stored as n x k matrices with orthonormal columns; all
geometric quantities (projections, principal angles, restricted singular
values elsewhere in the package) are computed from that representation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, DimensionError, InputError, ResourceError
from .seeding import rng_from

# numerical-rank cutoff relative to the largest singular value
RANK_RTOL = 1e-10
# tolerance on basis^T basis = I for constructed subspaces
ORTHO_TOL = 1e-10


def _checked(cls, **fields):
    """An instance of a frozen dataclass whose fields the caller has already
    validated, built without running __post_init__ again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n given by an orthonormal column basis."""

    basis: np.ndarray  # n x k, orthonormal columns

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float, copy=True)
        if basis.ndim != 2:
            raise DimensionError("basis must be a 2-d array")
        n, k = basis.shape
        if not 1 <= k <= n:
            raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(k), atol=ORTHO_TOL):
            raise InputError("basis columns are not orthonormal")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The n x n orthogonal projector onto the subspace."""
        return self.basis @ self.basis.T


@dataclass(frozen=True)
class AffineSubspace:
    """A base point plus a direction subspace."""

    base_point: np.ndarray
    direction: Subspace

    def __post_init__(self):
        base = np.array(self.base_point, dtype=float, copy=True).reshape(-1)
        if base.shape[0] != self.direction.ambient_dim:
            raise DimensionError("base point dimension does not match the direction")
        base.setflags(write=False)
        object.__setattr__(self, "base_point", base)

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim

    @property
    def is_linear(self) -> bool:
        return bool(np.all(self.base_point == 0.0))


@dataclass(frozen=True)
class SubspaceFamily:
    """A finite family of affine subspaces sharing one ambient space."""

    members: tuple[AffineSubspace, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise InputError("a family needs at least one member")
        n = members[0].ambient_dim
        for i, member in enumerate(members):
            if member.ambient_dim != n:
                raise DimensionError(f"member {i} has ambient dim {member.ambient_dim}, expected {n}")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_subspaces(cls, subspaces) -> "SubspaceFamily":
        """Wrap linear subspaces as affine members with zero base points."""
        subspaces = list(subspaces)
        return cls(tuple(AffineSubspace(np.zeros(w.ambient_dim), w) for w in subspaces))

    @classmethod
    def from_stack(cls, stack) -> "SubspaceFamily":
        """Linear members from a (p, n, k) stack of orthonormal bases.

        Orthonormality is checked once over the whole stack, with the
        tolerance and error of Subspace. The members are read-only views
        into one copy of the stack and share one zero base point, and the
        stack itself is the family's certification stack.
        """
        bases = np.array(stack, dtype=float)
        if bases.ndim != 3:
            raise DimensionError("stack must be a 3-d array of bases")
        p, n, k = bases.shape
        if p < 1:
            raise InputError("a family needs at least one member")
        if not 1 <= k <= n:
            raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
        gram = np.swapaxes(bases, 1, 2) @ bases
        if not np.allclose(gram, np.eye(k), atol=ORTHO_TOL):
            raise InputError("basis columns are not orthonormal")
        bases.setflags(write=False)
        zero = np.zeros(n)
        zero.setflags(write=False)
        members = tuple(
            _checked(AffineSubspace, base_point=zero, direction=_checked(Subspace, basis=basis))
            for basis in bases
        )
        return _checked(cls, members=members, stacks=((np.arange(p), bases),))

    @cached_property
    def stacks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Members grouped by dimension, ascending: per dimension d, the
        member indices and their (count, n, d) stack of bases. Built on
        first use and kept."""
        dims = np.array([member.dim for member in self.members])
        out = []
        for d in np.unique(dims):
            indices = np.flatnonzero(dims == d)
            bases = np.stack([self.members[i].direction.basis for i in indices])
            bases.setflags(write=False)
            out.append((indices, bases))
        return tuple(out)

    @property
    def ambient_dim(self) -> int:
        return self.members[0].ambient_dim

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def max_dim(self) -> int:
        return max(member.dim for member in self.members)

    @property
    def is_linear(self) -> bool:
        return all(member.is_linear for member in self.members)


def orthonormalize(spanning_vectors: np.ndarray) -> Subspace:
    """Orthonormal basis for the numerical column span of the input.

    Singular values below RANK_RTOL times the largest are treated as zero,
    so rank-deficient inputs come back with their numerical rank.
    """
    mat = np.asarray(spanning_vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise DimensionError("expected an n x j matrix with j >= 1")
    col_norms = np.linalg.norm(mat, axis=0)
    if not np.any(col_norms > 1e-12):
        raise DegenerateInputError("all spanning vectors are numerically zero")
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return Subspace(u[:, :rank])


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    """Haar-distributed k-dimensional subspace of R^n (Gaussian + orthonormalize)."""
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    gauss = rng_from(seed).standard_normal((n, k))
    return orthonormalize(gauss)


def sparse_subspace(n: int, support) -> Subspace:
    """Coordinate subspace span{e_i : i in support}."""
    indices = list(support)
    if len(set(indices)) != len(indices):
        raise InputError("support indices must be distinct")
    if any(not 0 <= i < n for i in indices):
        raise InputError(f"support indices must lie in [0, {n})")
    basis = np.zeros((n, len(indices)))
    for col, i in enumerate(indices):
        basis[i, col] = 1.0
    return Subspace(basis)


def grassmann_distance(v: Subspace, w: Subspace) -> float:
    """max over unit x in V of the distance to the unit sphere of W.

    Equals sqrt(2 - 2*cos(theta)) = 2*sin(theta/2) for the largest
    principal angle theta of V against W (theta = pi/2 when dim V exceeds
    dim W). Computed from sin(theta), the top singular value of the
    W-orthogonal part of V's basis, which stays accurate for nearly
    contained subspaces. Asymmetric when the dimensions differ: the
    maximum runs over the first argument.
    """
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError("subspaces live in different ambient spaces")
    residual = v.basis - w.basis @ (w.basis.T @ v.basis)
    sines = np.linalg.svd(residual, compute_uv=False)
    sine = min(1.0, float(sines[0]))
    return 2.0 * math.sin(0.5 * math.asin(sine))


def reduce_affine(family: SubspaceFamily) -> SubspaceFamily:
    """Drop base points, keeping each member's direction subspace.

    Distortion of a linear map on differences x - y within a member is
    unchanged, since those differences span exactly the direction space.
    """
    return SubspaceFamily(
        tuple(
            AffineSubspace(np.zeros(member.ambient_dim), member.direction)
            for member in family.members
        )
    )


def cross_family(family: SubspaceFamily, cardinality_budget: int = 100_000) -> SubspaceFamily:
    """All pairwise spans span(W_l, W_l') for l <= l', each of dimension <= 2k.

    Applying the embedding theorem to this family controls distances between
    points in *different* members of the original one. Affine members are
    reduced to their directions first.
    """
    reduced = family if family.is_linear else reduce_affine(family)
    p = reduced.size
    count = p * (p + 1) // 2
    if count > cardinality_budget:
        raise ResourceError(f"cross family has {count} members, budget is {cardinality_budget}")
    spans = []
    for l in range(p):
        for lp in range(l, p):
            if l == lp:
                spans.append(reduced.members[l].direction)
            else:
                stacked = np.hstack(
                    [reduced.members[l].direction.basis, reduced.members[lp].direction.basis]
                )
                spans.append(orthonormalize(stacked))
    return SubspaceFamily.from_subspaces(spans)


def store_family_json(family: SubspaceFamily, path) -> None:
    """Write the family file format: {"n": ..., "members": [{"base", "basis_columns"}]}."""
    payload = {
        "n": family.ambient_dim,
        "members": [
            {
                "base": [float(x) for x in member.base_point],
                "basis_columns": [
                    [float(x) for x in member.direction.basis[:, j]]
                    for j in range(member.dim)
                ],
            }
            for member in family.members
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_family_json(path) -> SubspaceFamily:
    """Read a family file; bases are re-orthonormalized on load."""
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict) or "n" not in payload or "members" not in payload:
        raise InputError("family file must be an object with keys 'n' and 'members'")
    if not isinstance(payload["members"], list):
        raise InputError("family file 'members' must be a list")
    try:
        n = int(payload["n"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"family file 'n' must be an integer: {exc}") from exc
    members = []
    for i, entry in enumerate(payload["members"]):
        if not isinstance(entry, dict) or "basis_columns" not in entry:
            raise InputError(f"member {i} must be an object with key 'basis_columns'")
        try:
            base = np.asarray(entry.get("base", np.zeros(n)), dtype=float)
            mat = np.array(entry["basis_columns"], dtype=float).T  # stored as a list of columns
        except (TypeError, ValueError) as exc:
            raise InputError(f"member {i}: entries must be numbers: {exc}") from exc
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(mat))):
            raise InputError(f"member {i} has non-finite entries")
        if mat.ndim != 2 or base.ndim != 1 or mat.shape[0] != n or base.shape[0] != n:
            raise DimensionError(f"member {i} does not match ambient dimension {n}")
        members.append(AffineSubspace(base, orthonormalize(mat)))
    return SubspaceFamily(tuple(members))
