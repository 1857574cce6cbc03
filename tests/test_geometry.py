import gc
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subembed.errors
import subembed.geometry
from subembed import (
    DegenerateInputError,
    DimensionError,
    EnsembleSpec,
    InputError,
    ResourceError,
    Subspace,
    SubspaceFamily,
    family_distortion,
    k_sparse_family,
    load_family_json,
    metric_embed,
    orthonormalize,
    random_subspace,
    sample_matrix,
    sparse_subspace,
    store_family_json,
)

from nets import covering_defect, epsilon_net
from oracles import build_metric_family, cross_family, grassmann_distance, projector, write_affine_family

SQRT2 = math.sqrt(2.0)


def sampled_grassmann(v, w, n_v=2000, n_w=20000, seed=0):
    """Brute-force max-min oracle over sampled coefficient spheres."""
    rng = np.random.default_rng(seed)
    cv = rng.standard_normal((n_v, v.dim))
    cv /= np.linalg.norm(cv, axis=1, keepdims=True)
    cw = rng.standard_normal((n_w, w.dim))
    cw /= np.linalg.norm(cw, axis=1, keepdims=True)
    pv = cv @ v.basis.T
    pw = cw @ w.basis.T
    # ||a - b||^2 = 2 - 2 <a, b> on unit vectors
    inner = pv @ pw.T
    dmin = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * inner.max(axis=1)))
    return float(dmin.max())


# ---------------------------------------------------------------- orthonormalize


def test_orthonormalize_scaled_axes():
    mat = np.zeros((3, 2))
    mat[0, 0] = 2.0
    mat[1, 1] = 3.0
    sub = Subspace(orthonormalize(mat))
    assert sub.dim == 2
    assert np.allclose(projector(sub), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_orthonormalize_duplicate_columns_reduce_rank():
    mat = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    sub = Subspace(orthonormalize(mat))
    assert sub.dim == 1
    assert np.allclose(projector(sub), np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_orthonormalize_matches_independent_projector_oracle():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((8, 3))
    sub = Subspace(orthonormalize(mat))
    # independent re-orthonormalization pass: double Gram-Schmidt via QR
    q, _ = np.linalg.qr(mat)
    q, _ = np.linalg.qr(q)
    assert np.allclose(projector(sub), q @ q.T, atol=1e-8)


def test_orthonormalize_degenerate_and_idempotent():
    with pytest.raises(DegenerateInputError):
        orthonormalize(np.zeros((4, 2)))
    rng = np.random.default_rng(4)
    sub = Subspace(orthonormalize(rng.standard_normal((6, 2))))
    again = Subspace(orthonormalize(sub.basis))
    assert np.allclose(projector(sub), projector(again), atol=1e-10)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(InputError):
        Subspace(np.array([[1.0], [1.0]]))
    with pytest.raises(DimensionError):
        Subspace(np.ones((2, 3)))


def test_orthonormality_tolerance_is_absolute():
    # numpy's default rtol=1e-5 let this basis through, and then the map
    # diag(1, 8(1 + 2e-6), 1, 1), whose distortion on span(e0, e1) is
    # 8.000016, certified at 7.999984 as feasible at D = 8
    drifted = np.eye(4)[:, :2] * np.array([1.0 + 4e-6, 1.0])
    with pytest.raises(InputError):
        Subspace(drifted)
    with pytest.raises(InputError):
        SubspaceFamily.from_stack(drifted[None])
    # exact bases are still accepted
    assert k_sparse_family(9, 3, 84).size == 84
    assert random_subspace(40, 7, seed=2).dim == 7
    points = np.random.default_rng(4).standard_normal((30, 16)) * 1e3
    gamma, p, achieved, _ = metric_embed(points, 12.0, EnsembleSpec.gaussian(), seed=3)
    reference = family_distortion(gamma, build_metric_family(points))
    assert p == len(reference.per_subspace) == 30 * 29 // 2
    assert reference.family_sigma_max > 0.0
    assert achieved == pytest.approx(reference.achieved_distortion, rel=1e-12)


def test_stack_constructor_rejects_like_subspace():
    bad = np.array([[1.0], [1.0]])
    with pytest.raises(InputError) as per_member:
        Subspace(bad)
    with pytest.raises(InputError) as stacked:
        SubspaceFamily.from_stack(np.stack([np.eye(2)[:, :1], bad]))
    assert type(stacked.value) is type(per_member.value)
    assert str(stacked.value) == str(per_member.value)
    with pytest.raises(DimensionError):
        SubspaceFamily.from_stack(np.ones((1, 2, 3)))
    with pytest.raises(DimensionError):
        SubspaceFamily.from_stack(np.eye(2))
    with pytest.raises(InputError):
        SubspaceFamily.from_stack(np.zeros((0, 2, 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(1, 5),
    k=st.integers(1, 3),
    noise=st.sampled_from([0.0, 1e-13, 1e-11, 3e-11, 1e-10, 3e-10, 1e-8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_constructor_accepts_what_subspace_accepts(p, k, noise, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, 6, k)))
    stack = q + noise * rng.standard_normal(q.shape)

    def accepted(build):
        try:
            build()
        except InputError:
            return False
        return True

    each = all(accepted(lambda b=b: Subspace(b)) for b in stack)
    assert accepted(lambda: SubspaceFamily.from_stack(stack)) == each


def test_stack_constructor_members_are_read_only_views():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 5, 2)))
    fam = SubspaceFamily.from_stack(q)
    assert fam.size == 4 and fam.ambient_dim == 5 and fam.max_dim == 2
    (indices, bases), = fam.stacks
    assert indices.tolist() == [0, 1, 2, 3] and np.array_equal(bases, q)
    assert not np.shares_memory(bases, q)  # the caller's array is copied once
    for member, b in zip(fam.members, q):
        assert type(member) is Subspace and np.array_equal(member.basis, b)
        assert np.shares_memory(member.basis, bases)
        assert not member.basis.flags.writeable
    gamma = sample_matrix(EnsembleSpec.gaussian(), 3, 5, 8)
    per_member = SubspaceFamily.from_subspaces(Subspace(b) for b in q)
    assert family_distortion(gamma, fam) == family_distortion(gamma, per_member)


def test_family_stacks_group_members_by_dimension():
    dims = [2, 1, 3, 1, 2]
    fam = SubspaceFamily.from_subspaces(random_subspace(6, k, seed=i) for i, k in enumerate(dims))
    assert [bases.shape for _, bases in fam.stacks] == [(2, 6, 1), (2, 6, 2), (1, 6, 3)]
    assert sorted(i for indices, _ in fam.stacks for i in indices.tolist()) == list(range(5))
    for indices, bases in fam.stacks:
        for i, b in zip(indices, bases):
            assert np.array_equal(b, fam.members[i].basis)
    assert fam.stacks is fam.stacks  # built once and kept


@pytest.mark.parametrize("build", ["members", "from_subspaces", "from_stack", "load_family_json"])
def test_members_are_read_only_views_of_the_stacks(tmp_path, build):
    rng = np.random.default_rng(5)
    subs = [random_subspace(6, k, seed=i) for i, k in enumerate([2, 1, 2, 3])]
    if build == "members":  # from another family's member views
        fam = SubspaceFamily.from_subspaces(SubspaceFamily.from_subspaces(subs).members)
    elif build == "from_subspaces":
        fam = SubspaceFamily.from_subspaces(subs)
    elif build == "from_stack":
        fam = SubspaceFamily.from_stack(np.stack([subs[0].basis, subs[2].basis]))
    else:
        linear = SubspaceFamily.from_subspaces(subs)
        write_affine_family(tmp_path / "fam.json", linear, rng.standard_normal((len(subs), 6)))
        fam = load_family_json(tmp_path / "fam.json")
    assert list(vars(fam)) == ["stacks"]  # the family is its stacks; members are built on first access
    assert fam.size == len(fam.members) and fam.members is fam.members and fam.ambient_dim == 6
    for indices, bases in fam.stacks:
        assert not bases.flags.writeable
        for i, b in zip(indices, bases):
            member = fam.members[i]
            assert type(member) is Subspace and member.dim == b.shape[1]
            assert np.array_equal(member.basis, b) and np.shares_memory(member.basis, b)
            assert not member.basis.flags.writeable


# ---------------------------------------------------------------- random/sparse


def test_random_subspace_full_space_is_identity_projector():
    sub = random_subspace(3, 3, seed=5)
    assert np.allclose(projector(sub), np.eye(3), atol=1e-12)


def test_random_subspace_distinct_seeds_are_separated():
    a = random_subspace(8, 2, seed=1)
    b = random_subspace(8, 2, seed=2)
    assert grassmann_distance(a, b) > 0.0
    with pytest.raises(DimensionError):
        random_subspace(4, 5, seed=1)


def test_random_subspace_haar_moment():
    # E ||P_W e_1||^2 = k/n under the rotation-invariant distribution
    vals = [float(np.sum(random_subspace(16, 4, s).basis[0] ** 2)) for s in range(1000)]
    assert np.mean(vals) == pytest.approx(0.25, abs=0.02)


def test_sparse_subspace_basics():
    sub = sparse_subspace(4, (0, 1))
    assert np.allclose(projector(sub), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(sparse_subspace(3, (0, 1, 2)).basis, np.eye(3))
    with pytest.raises(InputError):
        sparse_subspace(4, (1, 1))
    with pytest.raises(InputError):
        sparse_subspace(4, (0, 4))


def test_sparse_subspace_allocates_only_its_columns():
    # a 2-column basis in R^5000 holds 80 kB; cutting it from an n x n
    # identity peaked at 200 MB
    tracemalloc.start()
    try:
        sub = sparse_subspace(5000, (3, 4999))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sub.basis.shape == (5000, 2) and np.flatnonzero(sub.basis).tolist() == [6, 9999]


# ---------------------------------------------------------------- grassmann


def test_grassmann_distance_examples():
    e1 = sparse_subspace(2, (0,))
    e2 = sparse_subspace(2, (1,))
    diag = Subspace(np.array([[1.0], [1.0]]) / SQRT2)
    assert grassmann_distance(e1, e1) == pytest.approx(0.0, abs=1e-12)
    assert grassmann_distance(e1, e2) == pytest.approx(SQRT2, abs=1e-12)
    assert grassmann_distance(sparse_subspace(4, (0,)), sparse_subspace(4, (1,))) == pytest.approx(
        SQRT2, abs=1e-12
    )
    assert grassmann_distance(e1, diag) == pytest.approx(math.sqrt(2 - SQRT2), abs=1e-12)


def test_grassmann_distance_against_sampling_oracle():
    v = random_subspace(6, 2, seed=21)
    w = random_subspace(6, 3, seed=22)
    exact = grassmann_distance(v, w)
    assert abs(sampled_grassmann(v, w) - exact) < 1e-3
    e1 = sparse_subspace(2, (0,))
    diag = Subspace(np.array([[1.0], [1.0]]) / SQRT2)
    assert abs(sampled_grassmann(e1, diag) - math.sqrt(2 - SQRT2)) < 1e-3


def test_grassmann_distance_range_and_containment():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = random_subspace(7, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        w = random_subspace(7, int(rng.integers(1, 4)), seed=int(rng.integers(1e6)))
        d = grassmann_distance(v, w)
        assert 0.0 <= d <= SQRT2 + 1e-12
    big = random_subspace(6, 3, seed=77)
    inside = Subspace(big.basis[:, :2])  # contained subspace
    assert grassmann_distance(inside, big) < 1e-8
    assert grassmann_distance(big, inside) > 0.5
    with pytest.raises(DimensionError):
        grassmann_distance(random_subspace(4, 1, 0), random_subspace(5, 1, 0))


def test_sparse_families_pairwise_sqrt2():
    subs = [sparse_subspace(9, s) for s in ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 1, 3))]
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            assert grassmann_distance(subs[i], subs[j]) == pytest.approx(SQRT2, abs=1e-10)


# ---------------------------------------------------------------- epsilon nets


def test_net_on_s0_is_two_points():
    net = epsilon_net(1, 0.5, seed=3)
    assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]
    assert net.size == 2 <= 6


def test_net_on_circle_at_eps_one():
    # 3 equispaced points suffice (max chord 2 sin(pi/6) = 1); bound is 9
    net = epsilon_net(2, 1.0, seed=3)
    assert net.size <= 9


def test_three_equispaced_points_cover_circle_at_eps_one():
    angles = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    tripod = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = np.random.default_rng(17)
    probes = rng.standard_normal((100_000, 2))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    defect = covering_defect(tripod, probes)
    # worst probe sits midway between net points, at chord 2 sin(pi/6) = 1
    assert defect <= 1.0 + 1e-9
    assert defect >= 0.999


@pytest.mark.parametrize("k,eps", [(2, 0.5), (3, 0.5), (3, 0.3)])
def test_net_covering_oracle_and_cardinality(k, eps):
    net = epsilon_net(k, eps, seed=8)
    assert net.size <= math.floor((3 / eps) ** k)
    rng = np.random.default_rng(99)
    probes = rng.standard_normal((100_000, k))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    assert covering_defect(net.points, probes) <= eps
    assert np.allclose(np.linalg.norm(net.points, axis=1), 1.0, atol=1e-12)


def test_net_budget_and_validation():
    with pytest.raises(ResourceError) as err:
        epsilon_net(25, 0.1, seed=0)
    assert "budget" in str(err.value)
    with pytest.raises(InputError):
        epsilon_net(2, 1.5, seed=0)
    with pytest.raises(InputError):
        epsilon_net(2, 0.0, seed=0)


# ---------------------------------------------------------------- families


def test_base_points_change_no_certificate(tmp_path):
    # an affine member's certificate reads its direction space alone: a file
    # whose members carry base points certifies exactly as one without them
    rng = np.random.default_rng(31)
    fam = SubspaceFamily.from_subspaces(random_subspace(10, 2, seed=100 + i) for i in range(4))
    write_affine_family(tmp_path / "affine.json", fam, rng.standard_normal((4, 10)))
    write_affine_family(tmp_path / "linear.json", fam, [None] * 4)
    gamma = sample_matrix(EnsembleSpec.gaussian(), 6, 10, 17)
    a = family_distortion(gamma, load_family_json(tmp_path / "affine.json"))
    b = family_distortion(gamma, load_family_json(tmp_path / "linear.json"))
    assert a.achieved_distortion == b.achieved_distortion
    assert a.per_subspace == b.per_subspace


def test_cross_family_examples():
    single = SubspaceFamily.from_subspaces([random_subspace(5, 2, seed=1)])
    crossed = cross_family(single)
    assert crossed.size == 1
    assert np.allclose(
        projector(crossed.members[0]), projector(single.members[0]), atol=1e-12
    )

    two = SubspaceFamily.from_subspaces([sparse_subspace(4, (0,)), sparse_subspace(4, (1,))])
    crossed2 = cross_family(two)
    assert crossed2.size == 3
    projectors = [projector(m) for m in crossed2.members]
    target = np.diag([1.0, 1.0, 0.0, 0.0])
    assert any(np.allclose(p, target, atol=1e-10) for p in projectors)


def test_cross_family_dims_and_count_on_random_input():
    k, p = 3, 5
    fam = SubspaceFamily.from_subspaces([random_subspace(12, k, seed=40 + i) for i in range(p)])
    crossed = cross_family(fam)
    assert crossed.size == p * (p + 1) // 2
    for a_idx, member in enumerate(crossed.members):
        assert member.dim <= 2 * k
        # oracle: rank of the stacked spanning set
        assert member.dim == np.linalg.matrix_rank(member.basis)
    with pytest.raises(ResourceError):
        cross_family(fam, cardinality_budget=3)


@pytest.mark.parametrize("build", ["affine_mixed", "linear", "k_sparse"])
def test_store_family_json_matches_the_member_writer(tmp_path, build):
    # the reference writes member by member, in member order, from the views
    # and writes no base, not even one read from the file
    rng = np.random.default_rng(6)
    subs = [random_subspace(7, k, seed=i) for i, k in enumerate([2, 1, 3, 1, 2])]
    if build == "affine_mixed":
        write_affine_family(tmp_path / "in.json", SubspaceFamily.from_subspaces(subs), rng.standard_normal((5, 7)))
        fam = load_family_json(tmp_path / "in.json")
    elif build == "linear":
        fam = SubspaceFamily.from_stack(np.stack([w.basis for w in subs if w.dim == 2]))
    else:
        fam = k_sparse_family(6, 2, 9)
    members = [{"basis_columns": m.basis.T.tolist()} for m in fam.members]
    store_family_json(fam, tmp_path / "fam.json")
    assert (tmp_path / "fam.json").read_text() == json.dumps({"n": fam.ambient_dim, "members": members})


def test_family_json_round_trip(tmp_path):
    fam = SubspaceFamily.from_subspaces((sparse_subspace(4, (0, 2)), random_subspace(4, 1, seed=3)))
    path = tmp_path / "family.json"
    store_family_json(fam, path)
    loaded = load_family_json(path)
    assert loaded.size == fam.size
    for a, b in zip(fam.members, loaded.members):
        assert np.allclose(projector(a), projector(b), atol=1e-12)


def test_family_json_reorthonormalizes_on_load(tmp_path):
    payload = {
        "n": 3,
        "members": [{"base": [0.0, 0.0, 0.0], "basis_columns": [[2.0, 0.0, 0.0], [2.0, 1.0, 0.0]]}],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(payload))
    fam = load_family_json(path)
    basis = fam.members[0].basis
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    assert np.allclose(projector(fam.members[0]), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize(
    "extra",
    [{"x": "a"}, {"x": True}, {"x": {'"': 1}}, {}],
    ids=["string-value", "bool-value", "escaped-quote-key", "numbers-only"],
)
def test_family_file_numbers_load_whatever_else_the_text_holds(tmp_path, extra):
    # the loader walks the entries' types only when the text may hold a
    # true, false or string; numbers load alike either way, and integers,
    # huge ones included, are numbers
    rng = np.random.default_rng(4)
    columns = [rng.standard_normal((2, 5)).tolist(), [[1, 0, 0, 0, 10**30], [0, 2, 0, 0, 0]]]
    members = [{"base": [0] * 5, "basis_columns": c, **extra} for c in columns]
    plain, annotated = tmp_path / "plain.json", tmp_path / "annotated.json"
    plain.write_text(json.dumps({"n": 5, "members": [{"basis_columns": c} for c in columns]}))
    annotated.write_text(json.dumps({"n": 5, "members": members, **extra}))
    expected = load_family_json(plain).stacks
    assert all(
        np.array_equal(i, j) and a.tobytes() == b.tobytes()
        for (i, a), (j, b) in zip(load_family_json(annotated).stacks, expected)
    )


def load_outcome(path):
    """What loading a family file gives: its stacks' bytes, or the error's
    type and text."""
    try:
        stacks = load_family_json(path).stacks
    except InputError as exc:
        return type(exc).__name__, str(exc)
    return [(indices.tobytes(), bases.tobytes()) for indices, bases in stacks]


def json_outcome(path):
    """load_outcome with orjson refusing every file, so json reads each one."""

    def refuse(text):
        raise orjson.JSONDecodeError("refused", "", 0)

    with mock.patch.object(orjson, "loads", refuse):
        return load_outcome(path)


def fast_outcome(path):
    """load_outcome where neither json nor the text decoder may read the
    file's bytes, so that orjson must read them."""
    with mock.patch.object(subembed.geometry, "parse_json", side_effect=AssertionError("json read the file")), \
            mock.patch.object(subembed.geometry, "decode_text", side_effect=AssertionError("the file was decoded")):
        return load_outcome(path)


# a number and the forms a writer may print it in
FLOAT_FORMS = [repr, "{:.17g}".format, "{:.20e}".format, "{:.25g}".format, "{:.3E}".format]
ENTRIES = st.one_of(
    st.builds(lambda x, form: form(x), st.floats(-1e30, 1e30), st.sampled_from(FLOAT_FORMS)),
    st.builds(lambda x, form: form(x), st.floats(-2.3e-308, 2.3e-308), st.sampled_from(FLOAT_FORMS)),  # subnormals
    st.sampled_from(["-0.0", "-0e0", "0.0", "-0", "5e-324", "-4.9406564584124654e-324", "1E+5"]),
    st.builds(lambda digits, sign: sign + str(digits), st.integers(10**19, 10**30 - 1), st.sampled_from(["", "-"])),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 6), p=st.integers(1, 6))
def test_orjson_reading_loads_the_bits_json_loads(tmp_path_factory, data, n, p):
    # mixed dimensions, -0.0, subnormals, exponent forms and integers of 20
    # to 30 digits, with and without base points: orjson's reading gives
    # the stacks json's does, bit for bit, and neither json nor the text
    # decoder is ever called on
    members = []
    for _ in range(p):
        j = data.draw(st.integers(1, n + 1))
        columns = [data.draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(j)]
        member = '"basis_columns": [%s]' % ", ".join("[%s]" % ", ".join(c) for c in columns)
        if data.draw(st.booleans()):
            member += ', "base": [%s]' % ", ".join(data.draw(st.lists(ENTRIES, min_size=n, max_size=n)))
        members.append("{%s}" % member)
    path = tmp_path_factory.mktemp("fam") / "fam.json"
    path.write_text('{"n": %d, "members": [%s]}' % (n, ",\n".join(members)))
    assert fast_outcome(path) == json_outcome(path)


def nested(depth, opener="[", closer="]"):
    return opener * depth + "1" + closer * depth


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "members": [{"basis_columns": [[1, NaN]]}]}',
        '{"n": 2, "members": [{"basis_columns": [[1, 0]], "base": [Infinity, 0]}]}',
        '{"n": 2, "members": [{"basis_columns": [[-Infinity, 1]]}]}',
        '{"n": 2, "members": [{"basis_columns": [[1, 1e400]]}]}',
        '{"n": 2, "members": [{"basis_columns": [[1, 0]], "base": [0, 1%s]}]}' % ("0" * 400),
        '{"n": 2, "members": [{"basis_columns": [[1, -1%s]]}]}' % ("0" * 400),
        '{"n": 2, "members": [{"basis_columns": [[1, 0]], "\\ud800": 1}]}',
        '{"n": 2, "members": [{"basis_columns": [[1, 0]]}], "x": %s}' % nested(1100),
        '{"n": 2, "members": [{"basis_columns": %s}]}' % nested(1100),
        '{"n": 2, "members": [{"basis_columns": [[1, 0]]}], "x": %s}' % nested(990),
        # strings whose brackets, or an escaped quote, would hide the depth from a count
        '{"n": 2, "members": [{"basis_columns": [[1, 0]]}], "x": %s}' % ('["]", ' * 990 + "1" + ', "["]' * 990),
        '{"n": 2, "members": [{"basis_columns": [[1, 0]]}], "x": ["\\"", %s, "\\""]}' % nested(990),
        '\ufeff{"n": 2, "members": [{"basis_columns": [[1, 0]]}]}',
        '{"n": 2, "members": [{"basis_columns": [[1, 0]]}]} []',
        '{"n": 3, "members": [{"basis_columns": [[1, 0]]}], "n": 2, "members": [{"basis_columns": [[0, 1]]}]}',
        '{"n": %d, "members": [{"basis_columns": [[1, 0]]}]}' % 2**70,
        '{"n": 1e2, "members": [{"basis_columns": [[1, 0]]}]}',
        '{"n": true, "members": [{"basis_columns": [[1, 0]]}]}',
        '{"n": 2, "members": [{"basis_columns": [[1, %d]]}]}' % 2**70,
    ],
    ids=["nan", "infinity", "minus-infinity", "1e400", "int-400-digit-base", "int-400-digit-basis",
         "lone-surrogate-key", "nested-1100", "nested-1100-basis", "nested-990", "nested-990-bracket-strings",
         "nested-990-escaped-quotes", "bom", "trailing-data", "duplicate-keys", "n-2**70", "n-1e2", "n-true",
         "entry-2**70"],
)
def test_files_orjson_refuses_load_as_json_reads_them(tmp_path, text):
    # json settles every file orjson refuses or reads differently: each
    # loads to json's stacks or gives json's error text
    path = tmp_path / "fam.json"
    path.write_text(text, encoding="utf-8")
    assert load_outcome(path) == json_outcome(path)


# a family file whose second member takes the extra bytes given
FAMILY_BYTES = b'{"n": 2, "members": [{"basis_columns": [[1, 0.5]]}, {"base": [0, -1], "basis_columns": [[3, 4]]%s}]}'


@pytest.mark.parametrize(
    "data,fast",
    [
        (FAMILY_BYTES % ', "clé ключ": 1'.encode(), True),
        (FAMILY_BYTES % b', "tf": 1', True),
        (FAMILY_BYTES % b', "flag": true, "x": [false, [true]]', True),
        (FAMILY_BYTES % b', "cl\\u00e9": 1', False),
        ((FAMILY_BYTES % b"").replace(b", ", b",\r\n "), True),
    ],
    ids=["non-ascii-key", "t-f-only-in-a-key", "true-false-outside-strings", "backslash-only-in-a-key", "crlf"],
)
def test_family_bytes_load_the_stacks_json_loads(tmp_path, data, fast):
    # non-ASCII keys, a 't' or 'f' in a key or in true and false, a
    # backslash and CRLF line ends leave the stacks as json reads them, and
    # only a backslash keeps the file from orjson
    path, plain = tmp_path / "fam.json", tmp_path / "plain.json"
    path.write_bytes(data)
    plain.write_bytes(FAMILY_BYTES % b"")
    expected = load_outcome(plain)
    assert load_outcome(path) == json_outcome(path) == expected
    if fast:
        assert fast_outcome(path) == expected


@pytest.mark.parametrize(
    "data,error",
    [
        (FAMILY_BYTES % b', "cl\\u00e9": 1', None),
        (FAMILY_BYTES % (b', "x": ' + nested(62).encode()), None),
        ((FAMILY_BYTES % b"").replace(b"0.5", b'"0.5"'),
         "member 0: entries must be numbers, not true, false, strings or null"),
        ((FAMILY_BYTES % b', "cl\\u00e9": 1').replace(b"0.5", b"NaN"), "member 0 has non-finite entries"),
        ((FAMILY_BYTES % (b', "x": ' + nested(62).encode()))[:-1],
         "malformed JSON at line 1, column 230: Expecting ',' delimiter"),
    ],
    ids=["backslash-in-a-key", "nested-65", "string-entry", "nan-beside-a-backslash", "nested-65-truncated"],
)
def test_a_family_file_json_settles_is_opened_once(tmp_path, data, error):
    # orjson refuses a backslash and nesting 65 deep (the "x" list in the
    # second member, 62 deep itself), and the member checks a string entry:
    # json then parses the bytes already read, not the file again
    path, plain = tmp_path / "fam.json", tmp_path / "plain.json"
    path.write_bytes(data)
    plain.write_bytes(FAMILY_BYTES % b"")
    opened, real_open = [], open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", counted):
        outcome = load_outcome(path)
    assert opened.count(str(path)) == 1
    assert outcome == (load_outcome(plain) if error is None else ("InputError", f"{path}: {error}"))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_family_load_pauses_the_collector_and_restores_its_state(tmp_path, enabled):
    # the collector is off while a parsed file is checked, by orjson's reading
    # and json's alike, and left as it was after a load and an exit-2 load
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_bytes(FAMILY_BYTES % b"")
    bad.write_bytes((FAMILY_BYTES % b"").replace(b"0.5", b'"0.5"'))
    collecting, member_spans = [], subembed.geometry._member_spans

    def spans(*args):
        collecting.append(gc.isenabled())
        return member_spans(*args)

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with mock.patch.object(subembed.geometry, "_member_spans", spans):
            load_family_json(good)
            assert gc.isenabled() is enabled
            with pytest.raises(InputError):
                load_family_json(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert collecting == [False] * 3  # the good file once, the bad one by orjson and then by json


@pytest.mark.parametrize(
    "data",
    [
        FAMILY_BYTES % b', "k\xff": 1',
        (FAMILY_BYTES % b"").replace(b"0.5", b"0.5\xc3"),
        (FAMILY_BYTES % b"").replace(b"[[3, 4]]", b"[[3,\x80 4]]"),
        FAMILY_BYTES % b', "\xed\xa0\x80": 1',
    ],
    ids=["invalid-in-a-key", "invalid-in-a-number", "lone-continuation-byte", "encoded-surrogate"],
)
def test_family_bytes_that_are_not_utf8_exit_as_json_reads_them(tmp_path, data):
    # orjson checks the bytes it is given, and json's strict decoding names
    # the first bad byte
    path = tmp_path / "fam.json"
    path.write_bytes(data)
    outcome = load_outcome(path)
    assert outcome == json_outcome(path)
    assert outcome[0] == "InputError" and outcome[1].startswith(f"{path}: not UTF-8 text")


@pytest.mark.parametrize("key", ["basis_columns", "base"])
def test_integers_beyond_float_range_are_non_finite_entries(tmp_path, key):
    member = {"basis_columns": [[1, 0]], "base": [0, 0]}
    member[key] = [[1, 10**400]] if key == "basis_columns" else [0, -(10**400)]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"n": 2, "members": [{"basis_columns": [[0, 1]]}, member]}))
    assert load_outcome(path) == ("InputError", f"{path}: member 1 has non-finite entries")
    # a string beside the overflow is still named as a non-number
    member[key] = [[1, 10**400, "x"]] if key == "basis_columns" else [0, "x", 10**400]
    path.write_text(json.dumps({"n": 2, "members": [member]}))
    assert load_outcome(path)[1].startswith(f"{path}: member 0: entries must be numbers")


def per_member_load(payload):
    """The reference load: orthonormalize each member on its own, then group
    the bases by dimension in member order; base points are not read."""
    bases = [orthonormalize(np.array(m["basis_columns"], dtype=float).T) for m in payload["members"]]
    dims = np.array([b.shape[1] for b in bases])
    stacks = []
    for d in sorted(set(dims.tolist())):
        indices = np.flatnonzero(dims == d)
        stacks.append((indices, np.stack([bases[i] for i in indices])))
    return stacks


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_load_matches_per_member_orthonormalize(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 12
    widths = rng.permutation([1] * 5 + [2] * 9 + [3] * 8 + [4] * 3 + [5] * 2)
    members = [
        {
            "base": (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)).tolist(),
            "basis_columns": (rng.standard_normal((j, n)) * 10.0 ** rng.integers(-3, 4)).tolist(),
        }
        for j in widths.tolist()
    ]
    three = [i for i, j in enumerate(widths) if j == 3]
    members[three[0]]["basis_columns"][2] = members[three[0]]["basis_columns"][0]  # rank 2
    members[three[1]]["basis_columns"][1] = [0.0] * n  # a zero column: rank 2
    one = [i for i, j in enumerate(widths) if j == 1]
    members[one[0]]["basis_columns"] = [[0.0] * (n - 1) + [1.5e-12]]  # tiny, not zero: kept
    members[one[1]]["base"] = [-0.0] * n
    del members[one[2]]["base"]  # absent: the origin
    # more spanning vectors than n: orthonormalized to a basis of all of R^n
    members.append({"basis_columns": rng.standard_normal((n + 1, n)).tolist()})
    payload = {"n": n, "members": members}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(payload))
    fam = load_family_json(path)
    stacks = per_member_load(payload)
    assert [b.shape for _, b in fam.stacks] == [b.shape for _, b in stacks]
    assert fam.stacks[1][1].shape[0] == 9 + 2  # the two rank-2 members joined the 2-d stack
    assert fam.stacks[-1][1].shape == (1, n, n)
    for (indices, bases), (ref_indices, ref_bases) in zip(fam.stacks, stacks):
        assert np.array_equal(indices, ref_indices)
        assert bases.tobytes() == ref_bases.tobytes()  # bit for bit
    # the bases are checked and dropped: the file without them loads the same bits
    for member in members:
        member.pop("base", None)
    path.write_text(json.dumps(payload))
    unbased = load_family_json(path)
    for (indices, bases), (ref_indices, ref_bases) in zip(fam.stacks, unbased.stacks):
        assert np.array_equal(indices, ref_indices) and bases.tobytes() == ref_bases.tobytes()


@pytest.mark.parametrize(
    "columns", [[[0.0, 0.0, 0.0]], [[5e-13, 0.0, 0.0]], [[8e-13, 0.0, 0.0], [0.0, 0.0, 8e-13]]]
)
def test_load_rejects_numerically_zero_members(tmp_path, columns):
    path = tmp_path / "fam.json"
    members = [{"basis_columns": [[1.0, 0.0, 0.0]]}, {"basis_columns": columns}]
    path.write_text(json.dumps({"n": 3, "members": members}))
    with pytest.raises(DegenerateInputError) as err:
        load_family_json(path)
    assert str(err.value) == f"{path}: member 1: all spanning vectors are numerically zero"


def test_family_validation():
    with pytest.raises(InputError):
        SubspaceFamily.from_subspaces(())
    # no public constructor: a family is built from stacks, subspaces or a file
    with pytest.raises(TypeError):
        SubspaceFamily()
    with pytest.raises(DimensionError):
        SubspaceFamily.from_subspaces([sparse_subspace(3, (0,)), sparse_subspace(4, (0,))])
