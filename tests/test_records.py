"""Semantics shared by the package's record types (``errors.Record``)."""

import pickle

import pytest

from subembed.distortion import DistortionReport, ScaleChoice
from subembed.ensembles import EnsembleConstants, EnsembleSpec, RandomMatrix
from subembed.geometry import Subspace, SubspaceFamily, _checked
from subembed.harness import ExperimentConfig, SweepEntry, SweepResult, TrialResult
from subembed.stats import ConcentrationEstimate, WidthEstimate

# each record built from its required fields, and its repr with every field
# in declaration order; arrays hold one entry, so that == on them is a plain
# truth value and records holding them compare like the others
RECORDS = [
    (lambda: DistortionReport(((1.0, 2.0),), 1.0, 2.0, 2.0),
     "DistortionReport(per_subspace=((1.0, 2.0),), family_sigma_min=1.0, family_sigma_max=2.0, "
     "achieved_distortion=2.0)"),
    (lambda: ScaleChoice(False, 4.0), "ScaleChoice(feasible=False, D=4.0, L=None)"),
    (lambda: EnsembleSpec(kind="gaussian"), "EnsembleSpec(kind='gaussian')"),
    (lambda: EnsembleConstants(2.0, 4.0, "closed_form", "closed_form"),
     "EnsembleConstants(alpha=2.0, beta=4.0, alpha_source='closed_form', beta_source='closed_form')"),
    (lambda: RandomMatrix([[2.0]]), "RandomMatrix(matrix=array([[2.]]))"),
    (lambda: Subspace(basis=[[1.0]]), "Subspace(basis=array([[1.]]))"),
    (lambda: SubspaceFamily.from_stack([[[1.0]]]), "SubspaceFamily(stacks=((array([0]), array([[[1.]]])),))"),
    (lambda: ExperimentConfig(n=2, k=1, p=1, D=4.0, ensemble=EnsembleSpec.gaussian()),
     "ExperimentConfig(n=2, k=1, p=1, D=4.0, ensemble=EnsembleSpec(kind='gaussian'), family_kind='haar_random', "
     "trials=100, seed=0, m_override=None, family_path=None, fixed_family=True)"),
    (lambda: TrialResult(0, 5, True, 1.5, 2.0),
     "TrialResult(trial_index=0, m_used=5, feasible=True, achieved_distortion=1.5, L=2.0)"),
    (lambda: SweepEntry(5, 2, 1, 0.5, 1.5),
     "SweepEntry(m=5, trials=2, successes=1, success_rate=0.5, mean_achieved_distortion=1.5)"),
    (lambda: SweepResult((SweepEntry(5, 2, 1, 0.5, 1.5),), 0.5, (0.5,), None),
     "SweepResult(entries=(SweepEntry(m=5, trials=2, successes=1, success_rate=0.5, mean_achieved_distortion=1.5),), "
     "target_rate=0.5, smoothed_rates=(0.5,), minimal_m=None)"),
    (lambda: ConcentrationEstimate(0.1, 0.5, 10), "ConcentrationEstimate(epsilon=0.1, value=0.5, sample_count=10)"),
    (lambda: WidthEstimate(1.0, 0.1, 100), "WidthEstimate(mean=1.0, std_error=0.1, n_draws=100)"),
]


def _hash(record):
    try:
        return hash(record)
    except TypeError:  # a field holds an array
        return None


@pytest.mark.parametrize("build, expected_repr", RECORDS, ids=[r.split("(")[0] for _, r in RECORDS])
def test_record_semantics(build, expected_repr, monkeypatch):
    record, same = build(), build()
    cls = type(record)
    assert repr(record) == expected_repr

    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1

    assert record == same and not record != same
    assert _hash(record) == _hash(same)
    assert _hash(record) is None or _hash(record) == hash(tuple(vars(record).values()))
    twin = _checked(type(cls.__name__, (cls,), {}), **vars(record))
    assert twin._fields == cls._fields and repr(twin) == repr(record)
    assert record != twin and twin != record

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == expected_repr

    # construction looks __post_init__ up on the class at call time, and
    # _checked skips it
    calls = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self), raising=False)
    checked = _checked(cls, **vars(record))
    assert calls == [] and checked == record and vars(checked) == vars(record)
    if cls is not SubspaceFamily:  # built only by its classmethods
        assert cls(*vars(record).values()) == record and len(calls) == 1


def test_record_init_binds_like_a_signature():
    full = ScaleChoice(True, 4.0, 2.0)
    assert ScaleChoice(True, D=4.0, L=2.0) == ScaleChoice(L=2.0, D=4.0, feasible=True) == full
    assert list(vars(ScaleChoice(L=2.0, D=4.0, feasible=True))) == ["feasible", "D", "L"]
    for args, kwargs in [((True, 4.0, 2.0, 1.0), {}), ((True,), {}), ((True,), {"feasible": False, "D": 4.0}),
                         ((True, 4.0), {"scale": 2.0})]:
        with pytest.raises(TypeError, match=rf"^ScaleChoice\(\) takes the fields feasible, D, L: got {len(args)} by "):
            ScaleChoice(*args, **kwargs)
    with pytest.raises(TypeError, match="from_stack, from_subspaces or load_family_json"):
        SubspaceFamily()
