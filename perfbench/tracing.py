"""Outside-in tracing of the subembed layers.

The tracer replaces public functions in the namespaces where their callers
look them up (``subembed.harness.family_distortion``,
``subembed.ensembles.rng_from``, ``Subspace.__post_init__`` on the class, ...)
with wrappers that record one span per call: id, parent id, name, start,
end, the CLI invocation it belongs to, and a few shape attributes. Spans
stay in memory; ``layer_metrics`` reduces one pass's spans to the per-layer
numbers. Nothing in the library is edited, and ``uninstall`` restores every
replaced attribute.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("seeding", "ensembles", "geometry", "distortion", "stats", "harness", "cli")

IO_SPANS = frozenset({"cli.load_config", "cli.load_matrix_csv", "cli.format_matrix_csv", "cli.store_matrix_csv"})
FAMILY_SPANS = frozenset({
    "harness.build_family",
    "harness.k_sparse_family",
    "geometry.load_family_json",
    "geometry.SubspaceFamily.from_subspaces",
})


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str  # "<layer>.<function>": the module that defines the function
    start: float
    end: float
    invocation: int
    attrs: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first(args, kwargs, name, index):
    return kwargs[name] if name in kwargs else args[index]


# attribute hooks run after the call; each is O(1) so the time it adds to the
# parent span stays negligible
def _rows(args, kwargs, result):
    return _first(args, kwargs, "m", 1)


def _certify(args, kwargs, result):
    gamma = _first(args, kwargs, "gamma", 0)
    return (gamma.m, gamma.n, _first(args, kwargs, "family", 1))


def _width(args, kwargs, result):
    return (_first(args, kwargs, "n_draws", 1), _first(args, kwargs, "family", 0).size)


def _sweep_trials(args, kwargs, result):
    return _first(args, kwargs, "config", 0).trials


def _family_key(args, kwargs, result):
    config = _first(args, kwargs, "config", 0)
    per_trial = config.family_kind == "haar_random" and not config.fixed_family
    return (config, _first(args, kwargs, "trial_index", 1) if per_trial else None)


def _path_key(args, kwargs, result):
    return str(_first(args, kwargs, "path", 0))


def _sizes_key(args, kwargs, result):
    return tuple(args[:3])


def patch_table(sub):
    """(owner, attribute, span name, attribute hook) for every traced call.

    ``sub`` maps module names to the imported ``subembed`` modules.
    """
    cli, harness, ensembles, geometry, stats = (
        sub["cli"], sub["harness"], sub["ensembles"], sub["geometry"], sub["stats"]
    )
    return [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "load_matrix_csv", "cli.load_matrix_csv", None),
        (cli, "format_matrix_csv", "cli.format_matrix_csv", None),
        (cli, "store_matrix_csv", "cli.store_matrix_csv", None),
        (cli, "run_trials", "harness.run_trials", None),
        (cli, "sweep_m", "harness.sweep_m", _sweep_trials),
        (cli, "metric_embed", "harness.metric_embed", None),
        (harness, "run_trial", "harness.run_trial", None),
        (harness, "build_family", "harness.build_family", _family_key),
        (harness, "k_sparse_family", "harness.k_sparse_family", _sizes_key),
        (cli, "family_distortion", "distortion.family_distortion", _certify),
        (harness, "family_distortion", "distortion.family_distortion", _certify),
        (cli, "choose_scale", "distortion.choose_scale", None),
        (harness, "choose_scale", "distortion.choose_scale", None),
        (cli, "sample_matrix", "ensembles.sample_matrix", _rows),
        (harness, "sample_matrix", "ensembles.sample_matrix", _rows),
        (cli, "load_family_json", "geometry.load_family_json", _path_key),
        (harness, "load_family_json", "geometry.load_family_json", _path_key),
        (harness, "random_subspace", "geometry.random_subspace", None),
        (harness, "sparse_subspace", "geometry.sparse_subspace", None),
        (geometry, "orthonormalize", "geometry.orthonormalize", None),
        (geometry.Subspace, "__post_init__", "geometry.Subspace.__post_init__", None),
        (geometry.SubspaceFamily, "from_subspaces", "geometry.SubspaceFamily.from_subspaces", None),
        (cli, "gaussian_width_mc", "stats.gaussian_width_mc", _width),
        (harness, "gaussian_width_mc", "stats.gaussian_width_mc", _width),
        (cli, "width_upper_bound", "stats.width_upper_bound", None),
        (harness, "required_m", "stats.required_m", None),
        (harness, "derive_seed", "seeding.derive_seed", None),
        (ensembles, "derive_seed", "seeding.derive_seed", None),
        (harness, "rng_from", "seeding.rng_from", None),
        (ensembles, "rng_from", "seeding.rng_from", None),
        (geometry, "rng_from", "seeding.rng_from", None),
        (stats, "rng_from", "seeding.rng_from", None),
    ]


class Tracer:
    """Records spans for the calls it has wrapped while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attrs = None if hook is None else hook(args, kwargs, result)
            spans.append(Span(sid, stack[-1], name, start, end, self.invocation, attrs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, table) -> None:
        """Wrap every entry of the table. A probe the library no longer
        offers is an error: skipping it would read as a layer gone quiet."""
        for owner, attr, name, hook in table:
            # the owner's own namespace, so a class's classmethod is found as such
            original = vars(owner).get(attr)
            if original is None:
                self.uninstall()
                raise AttributeError(f"cannot trace {owner.__name__}.{attr}: no such attribute")
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, hook))
            else:
                replacement = self._wrap(original, name, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans}


def outermost(spans, names) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def _svd_flops(a: int, b: int) -> float:
    # singular values only, Golub & Van Loan: 4 a b^2 - 4 b^3 / 3 for a >= b
    a, b = max(a, b), min(a, b)
    return 4.0 * a * b * b - 4.0 * b**3 / 3.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    named = defaultdict(list)
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[s.id]
        named[s.name].append(s)

    def total(name_set):
        return math.fsum(s.duration for s in outermost(spans, name_set))

    out["seeding.rng_from.calls"] = len(named["seeding.rng_from"])

    rows = sum(s.attrs for s in named["ensembles.sample_matrix"])
    out["ensembles.rows_sampled"] = rows
    out["ensembles.us_per_row"] = 1e6 * total({"ensembles.sample_matrix"}) / rows if rows else 0.0

    checks = named["geometry.Subspace.__post_init__"]
    out["geometry.subspaces_built"] = len(checks)
    out["geometry.subspace_check_s"] = total({"geometry.Subspace.__post_init__"})
    builds = outermost(spans, FAMILY_SPANS)
    # builds without a key (from_subspaces has no hook) each count as distinct
    distinct = {(s.invocation, s.name, s.attrs if s.attrs is not None else s.id) for s in builds}
    out["geometry.family_builds"] = len(builds)
    out["geometry.family_reuse_ratio"] = len(distinct) / len(builds) if builds else 0.0
    out["geometry.family_build_s"] = math.fsum(s.duration for s in builds)
    out["geometry.load_family_s"] = total({"geometry.load_family_json"})

    certs = outermost(spans, {"distortion.family_distortion"})
    flops = bytes_ = 0.0
    members = 0
    dims_of: dict[int, list[int]] = {}
    for s in certs:
        m, n, family = s.attrs
        dims = dims_of.get(id(family))
        if dims is None:
            dims = dims_of[id(family)] = [member.dim for member in family.members]
        members += len(dims)
        flops += math.fsum(2.0 * m * n * k + _svd_flops(m, k) for k in dims)
        bytes_ += 8.0 * (m * n + math.fsum(n * k + 2 * m * k + min(m, k) for k in dims))
    certify_s = math.fsum(s.duration for s in certs)
    out["distortion.calls"] = len(certs)
    out["distortion.member_certs"] = members
    out["distortion.certify_s"] = certify_s
    out["distortion.ns_per_member_cert"] = 1e9 * certify_s / members if members else 0.0
    out["distortion.flops_computed"] = flops
    out["distortion.bytes_computed"] = bytes_
    out["distortion.gflops_achieved"] = flops / certify_s / 1e9 if certify_s else 0.0

    widths = outermost(spans, {"stats.gaussian_width_mc"})
    width_s = math.fsum(s.duration for s in widths)
    out["stats.width_s"] = width_s
    draws = sum(d * p for d, p in (s.attrs for s in widths))
    out["stats.width_member_draws_per_s"] = draws / width_s if width_s else 0.0

    out["harness.trials"] = len(named["harness.run_trial"]) + sum(
        s.attrs for s in named["harness.sweep_m"]
    )
    out["cli.io_s"] = total(IO_SPANS)
    return out


def span_records(spans):
    """Spans as JSON-ready rows, attributes dropped."""
    return [[s.id, s.parent, s.name, s.start, s.end, s.invocation] for s in spans]
