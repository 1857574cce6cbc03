"""Subspaces, families of subspaces, family files.

Subspaces are stored as n x k matrices with orthonormal columns; the
restricted singular values elsewhere in the package are computed from that
representation. A family holds its members' bases only: the guarantee for
an affine member bounds ||Gamma x - Gamma y|| for x, y in the member, and
x - y ranges over its direction subspace, so no base point is kept.
"""

from __future__ import annotations

import gc
import json
import math
import re
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError, DimensionError, InputError, Record, _cut, decode_text, describe_value, naming, parse_json
)
from .seeding import rng_from

# numerical-rank cutoff relative to the largest singular value
RANK_RTOL = 1e-10
# tolerance on basis^T basis = I for constructed subspaces
ORTHO_TOL = 1e-10
# spanning vectors whose norms are all at most this are numerically zero
ZERO_NORM = 1e-12
# numbers of spans per batched SVD when orthonormalizing a family's members
_SVD_CHUNK = 1 << 20
# deepest nesting of a family file that orjson reads; json reads deeper ones
_ORJSON_DEPTH = 64
# every byte but those _scan reads: brackets, quote, backslash and the t and f of true and false
_UNSCANNED = bytes(sorted(set(range(256)) - set(b'[]{}"\\tf')))
_EMPTY_PAIR = re.compile(rb"\[\]|\{\}")


def _checked(cls, **fields):
    """An instance of a Record type whose fields the caller has already
    validated, built without running __init__ or __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_stack(bases: np.ndarray) -> np.ndarray:
    """The given (p, n, k) float stack of bases, made read-only in place,
    checked for p >= 1, 1 <= k <= n and orthonormal columns with one
    batched Gram product. Subspace checks its basis as a one-basis stack."""
    if bases.ndim != 3 or len(bases) < 1:
        raise DimensionError(f"need a nonempty stack of 2-d bases, got shape {bases.shape}")
    _, n, k = bases.shape
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    gram = np.swapaxes(bases, 1, 2) @ bases
    # absolute only: numpy's default rtol would let unit norms drift by 1e-5
    if not np.allclose(gram, np.eye(k), rtol=0.0, atol=ORTHO_TOL):
        raise InputError("basis columns are not orthonormal")
    bases.setflags(write=False)
    return bases


class Subspace(Record):
    """A linear subspace of R^n given by an orthonormal column basis."""

    basis: np.ndarray  # n x k, orthonormal columns

    def __post_init__(self):
        object.__setattr__(self, "basis", _check_stack(np.array([self.basis], dtype=float))[0])

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


class SubspaceFamily(Record):
    """A finite family of subspaces sharing one ambient space.

    The family is its bases: ``stacks`` holds, per member dimension d in
    ascending order, the member indices and their read-only (count, n, d)
    stack of bases. ``members`` are read-only Subspace views into the
    stacks, built on first use and kept. An affine member enters through its
    direction subspace alone, since x - y ranges over that space for x, y in
    the member.
    """

    stacks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __init__(self):
        raise TypeError("build a family with from_stack, from_subspaces or load_family_json")

    @classmethod
    def from_subspaces(cls, subspaces) -> "SubspaceFamily":
        """The given subspaces as members, in order, their bases copied into
        one stack per dimension."""
        return _family(_stacks([w.basis for w in subspaces]))

    @classmethod
    def from_stack(cls, stack) -> "SubspaceFamily":
        """Members from a (p, n, k) stack of orthonormal bases.

        Orthonormality is checked once over the whole stack, with the
        tolerance and error of Subspace. One copy of the stack becomes the
        family's only stack, and no member object is built until
        ``members`` is read.
        """
        bases = np.array(stack, dtype=float, order="C", ndmin=1)  # a scalar fails the shape check
        return _family(((np.arange(len(bases)), bases),))

    @cached_property
    def members(self) -> tuple[Subspace, ...]:
        """Read-only views into the stacks, in member order."""
        members = [None] * self.size
        for indices, bases in self.stacks:
            for i, basis in zip(indices.tolist(), bases):
                members[i] = _checked(Subspace, basis=basis)
        return tuple(members)

    @property
    def ambient_dim(self) -> int:
        return self.stacks[0][1].shape[1]

    @property
    def size(self) -> int:
        return sum(len(indices) for indices, _ in self.stacks)

    @property
    def max_dim(self) -> int:
        return self.stacks[-1][1].shape[2]


def _family(stacks) -> SubspaceFamily:
    """The family that owns the given stacks, built without copying them.

    ``stacks`` are SubspaceFamily.stacks: per dimension d, ascending, the
    member indices and a C-ordered float (count, n, d) stack of bases, each
    checked here once and made read-only.
    """
    return _checked(SubspaceFamily, stacks=tuple((indices, _check_stack(bases)) for indices, bases in stacks))


def _stacks(bases) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per dimension d, ascending, the indices of the given n x d matrices
    and a new C-ordered stack of them: a family's stacks when the matrices
    are its members' bases, in member order. All must share one n."""
    if len(bases) < 1:
        raise InputError("a family needs at least one member")
    ambient, dims = np.array([basis.shape for basis in bases]).T
    bad = np.flatnonzero(ambient != ambient[0])
    if bad.size:
        raise DimensionError(f"member {bad[0]} has ambient dim {ambient[bad[0]]}, expected {ambient[0]}")
    # not np.unique, which imports numpy.ma on numpy 2
    groups = (np.flatnonzero(dims == d) for d in sorted(set(dims.tolist())))
    return tuple((indices, np.array([bases[i] for i in indices], dtype=float)) for indices in groups)


def orthonormalize(spanning_vectors: np.ndarray) -> np.ndarray:
    """An n x r orthonormal basis of the numerical column span of the input.

    Singular values below RANK_RTOL times the largest are treated as zero,
    so rank-deficient inputs come back with their numerical rank.
    """
    mat = np.asarray(spanning_vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise DimensionError("expected an n x j matrix with j >= 1")
    col_norms = np.linalg.norm(mat, axis=0)
    if not np.any(col_norms > ZERO_NORM):
        raise DegenerateInputError("all spanning vectors are numerically zero")
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return u[:, :rank]


def _orthonormal_stacks(groups) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The stacks of orthonormalize(span) for every member, from the
    (indices, spans) groups ``_stacks`` gives for the members' n x j spans.
    Each group's (count, n, j) array is overwritten with its bases.

    numpy's batched SVD runs the same LAPACK routine on each matrix, so a
    full-rank basis is the one orthonormalize returns. The SVDs run over
    chunks of _SVD_CHUNK numbers, each U written back over its own spans,
    so only one chunk's U is held besides the groups. A member the rank
    cutoff would reduce, whose columns may all be numerically zero, or with
    more columns than rows goes through orthonormalize itself, which reduces
    or rejects it, and the members are then regrouped by dimension.
    """
    reduced = {}
    for indices, spans in groups:
        _, n, j = spans.shape
        step = max(1, _SVD_CHUNK // (n * j))
        for lo in range(0, len(spans), step):
            chunk = spans[lo : lo + step]
            u, s, _ = np.linalg.svd(chunk, full_matrices=False)
            # s[0] is at least every column norm and at most sqrt(j) times the largest,
            # so only members under this line (doubled for rounding) can be all zero;
            # with more columns than rows, U is n x n, narrower than the spans
            full = (s[:, -1] > RANK_RTOL * s[:, 0]) & (s[:, 0] > 2.0 * math.sqrt(j) * ZERO_NORM) & (j <= n)
            for c in np.flatnonzero(~full).tolist():
                i = int(indices[lo + c])
                try:
                    reduced[i] = orthonormalize(chunk[c])
                except DegenerateInputError as exc:
                    raise DegenerateInputError(f"member {i}: {exc}") from exc
            chunk[..., : u.shape[2]] = u
    if not reduced:
        return tuple(groups)
    bases = {i: reduced.get(i, basis) for indices, stack in groups for i, basis in zip(indices.tolist(), stack)}
    return _stacks([bases[i] for i in range(len(bases))])


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    """Haar-distributed k-dimensional subspace of R^n (Gaussian + orthonormalize)."""
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    gauss = rng_from(seed).standard_normal((n, k))
    return Subspace(orthonormalize(gauss))


def sparse_subspace(n: int, support) -> Subspace:
    """Coordinate subspace span{e_i : i in support}."""
    indices = list(support)
    if len(set(indices)) != len(indices):
        raise InputError("support indices must be distinct")
    if any(not 0 <= i < n for i in indices):
        raise InputError(f"support indices must lie in [0, {n})")
    basis = np.zeros((n, len(indices)))
    basis[indices, np.arange(len(indices))] = 1.0
    return Subspace(basis)


def store_family_json(family: SubspaceFamily, path) -> None:
    """Write the family file format, {"n": ..., "members": [{"basis_columns"}]},
    in member order. No "base" is written: the loader reads a member
    without one as passing through the origin."""
    columns = [None] * family.size
    for indices, bases in family.stacks:
        for i, basis_columns in zip(indices.tolist(), np.swapaxes(bases, 1, 2).tolist()):
            columns[i] = basis_columns
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": family.ambient_dim, "members": [{"basis_columns": c} for c in columns]}, fh)


def _only_numbers(value) -> bool:
    """Whether a parsed JSON value is a number or nested lists of numbers:
    an int or a float, not a bool, a string or null."""
    if isinstance(value, list):
        return all(map(_only_numbers, value))
    return type(value) in (int, float)


def _member_spans(payload, quotes: int, letters: bool) -> list[np.ndarray]:
    """The members' n x j spans, in member order, from a family file's
    parsed value, its quote count and whether it holds a 't' or an 'f'.

    Every member is validated, its "base" included, which is then dropped:
    no certificate, width or trial reads a base point. Entries must be JSON
    numbers, and an integer beyond float range is refused as 1e400 is.
    numpy's float conversion would take true, false and strings, so their
    types are walked where the file may hold one: true and false hold a 't'
    or an 'f', which no number or key of the format does, and a string adds
    two quotes to the keys' own. A null reads as NaN, which is not finite.
    """
    if not isinstance(payload, dict) or "n" not in payload or "members" not in payload:
        raise InputError("family file must be an object with keys 'n' and 'members'")
    if not isinstance(payload["members"], list):
        raise InputError("family file 'members' must be a list")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"family file 'n' must be an integer >= 1, got {describe_value(n)}")
    keys = len(payload) + sum(len(entry) for entry in payload["members"] if isinstance(entry, dict))
    walk = letters or quotes > 2 * keys
    spans = []
    for i, entry in enumerate(payload["members"]):
        if not isinstance(entry, dict) or "basis_columns" not in entry:
            raise InputError(f"member {i} must be an object with key 'basis_columns'")
        # the entries' types are walked only where the scan, a NaN or an overflow calls for it
        entries = [entry[key] for key in ("basis_columns", "base") if key in entry]
        try:
            mat = np.array(entry["basis_columns"], dtype=float).T  # stored as a list of columns
            base = np.asarray(entry["base"], dtype=float) if "base" in entry else None
        except (TypeError, ValueError) as exc:
            raise InputError(f"member {i}: entries must be numbers: {exc}") from exc
        except OverflowError:  # an integer beyond float range, which reads as 1e400 does
            finite = False
        else:
            finite = np.all(np.isfinite(mat)) and (base is None or np.all(np.isfinite(base)))
        if (walk or not finite) and not _only_numbers(entries):
            raise InputError(f"member {i}: entries must be numbers, not true, false, strings or null")
        if not finite:
            raise InputError(f"member {i} has non-finite entries")
        if mat.ndim != 2 or mat.shape[0] != n or (base is not None and base.shape != (n,)):
            raise DimensionError(f"member {i} does not match ambient dimension {_cut(str(n))}")
        spans.append(mat)
    return spans


def _scan(data: bytes) -> tuple[bool, int, bool]:
    """From a family file's bytes: whether they hold no backslash and nest
    arrays and objects at most _ORJSON_DEPTH deep, their quote count, and
    whether they hold a 't' or an 'f'; facts of the UTF-8 text too, which
    encodes no other character with an ASCII byte. Without a backslash every
    quote opens or closes a string, so the bytes outside strings are every
    other piece between quotes, and their brackets give the nesting. Each
    pass deletes the innermost empty pairs, one level, so brackets that
    vanish within _ORJSON_DEPTH passes nest no deeper.
    """
    kept = data.translate(None, _UNSCANNED)
    pieces = kept.split(b'"')
    brackets = b"".join(pieces[::2]).translate(None, b"tf")
    for _ in range(_ORJSON_DEPTH):
        brackets, emptied = _EMPTY_PAIR.subn(b"", brackets)
        if not emptied:
            break
    return b"\\" not in kept and not brackets, len(pieces) - 1, b"t" in kept or b"f" in kept


def _read_spans(path) -> list[np.ndarray]:
    """A family file's member spans, read by orjson, or by json where
    orjson's reading is refused.

    The file is read once, as bytes, and ``_scan`` passes over them once.
    orjson reads them several times faster than json reads text, checks
    their UTF-8 itself and holds no decoded copy. It refuses NaN, Infinity,
    numbers beyond float range, invalid UTF-8 and lone surrogates, reads an
    integer beyond 64 bits as a float, and sets no nesting limit of its own,
    so deep bytes would overflow the C stack: it reads only bytes that scan
    as shallow. json settles every file that orjson or the member checks
    refuse, parsing the same bytes as strict UTF-8 text, so each exit-2 line
    is json's. A file both read gives the same bits: each rounds a number to
    the nearest float, as float() does with json's integers. A parsed JSON
    value holds no reference cycles, so the collector is paused until the
    parsed value is dropped: its passes over the tree would find nothing.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    shallow, quotes, letters = _scan(data)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if shallow:
            import orjson  # here: its import costs milliseconds that commands reading no family file skip

            try:
                return _member_spans(orjson.loads(data), quotes, letters)
            except (orjson.JSONDecodeError, InputError):
                pass
        text = decode_text(data)
        del data  # the bytes dropped once decoded, and the text once parsed
        payload = parse_json(text)
        del text
        return _member_spans(payload, quotes, letters)
    finally:
        if enabled:
            gc.enable()


def load_family_json(path) -> SubspaceFamily:
    """Read a family file; bases are re-orthonormalized on load.

    The members are validated and their spans read by ``_read_spans``, whose
    parsed file is freed before the spans are stacked per column count. The
    stacks are then orthonormalized in place with batched SVDs, building no
    member objects. Each error names the file.
    """
    with naming(path):
        groups = _stacks(_read_spans(path))  # the groups now hold the only copy of the spans
        return _family(_orthonormal_stacks(groups))
