"""The value types: plain classes with the constructor, `repr`, equality,
hashing and immutability of frozen dataclasses, and a start-up that loads
neither `dataclasses` nor, for `check`, the report layer."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import complykit
from complykit._value import Value
from complykit.decisions import PayoffMatrix, StrategyChoice
from complykit.fairness import (
    ConfusionCounts,
    MetricInfo,
    MetricValue,
    Record,
)
from complykit.ingest import BoundGroups, CompositionAudit, Dataset, RunManifest
from complykit.intervals import Interval
from complykit.policy import (
    ContextFinding,
    DecisionSpec,
    Diagnostic,
    FavorableSpec,
    MetricConstraint,
    ModelSpec,
    PolicyDocument,
    ProtectedSpec,
)
from complykit.report import ComplianceReport, ConstraintVerdict
from conftest import SCENARIO1_POLICY

matrix = PayoffMatrix(["a", "b"], ["s"], [[1], [2.5]])

# (value, its repr): the reprs were recorded when these classes were frozen
# dataclasses (`MetricValue` a mutable one), so they are the format that
# `dataclasses` writes. A test id numbers its sample, so each sample keeps
# its index.
REPRS = [
    (matrix,
     "PayoffMatrix(actions=('a', 'b'), states=('s',), values=((1.0,), "
     '(2.5,)))'),
    (StrategyChoice("wald", 1, "b", 2.5, (1.0, 2.5)),
     "StrategyChoice(criterion='wald', action_index=1, "
     "action_label='b', value=2.5, scores=(1.0, 2.5), "
     'regret_matrix=None, hurwicz_lambda=None)'),
    (StrategyChoice("savage", 0, "a", 0.0, (0.0,), regret_matrix=((0.0,),)),
     "StrategyChoice(criterion='savage', action_index=0, "
     "action_label='a', value=0.0, scores=(0.0,), "
     'regret_matrix=((0.0,),), hurwicz_lambda=None)'),
    (Record("privileged", 1, 0),
     "Record(group='privileged', predicted=1, actual=0, score=None, "
     'legitimate=None)'),
    (Record("unprivileged", 0, 1, 0.25, "x"),
     "Record(group='unprivileged', predicted=0, actual=1, score=0.25, "
     "legitimate='x')"),
    (ConfusionCounts(tp=60, fp=24, tn=70, fn=11),
     'ConfusionCounts(tp=60, fp=24, tn=70, fn=11)'),
    (ConfusionCounts(),
     'ConfusionCounts(tp=0, fp=0, tn=0, fn=0)'),
    (MetricValue("equalized_odds", 0.5, trace={"components": {
        "tpr_gap": MetricValue("tpr_gap", None, "no positives")}}),
     "MetricValue(metric_id='equalized_odds', value=0.5, reason=None, "
     "trace={'components': {'tpr_gap': MetricValue(metric_id='tpr_gap', "
     "value=None, reason='no positives', trace={})}})"),
    (MetricValue("equal_opportunity", -0.125, trace={"a": 1}),
     "MetricValue(metric_id='equal_opportunity', value=-0.125, "
     "reason=None, trace={'a': 1})"),
    (MetricValue("predictive_parity", None, "no positives"),
     "MetricValue(metric_id='predictive_parity', value=None, "
     "reason='no positives', trace={})"),
    (MetricInfo("calibration", len),
     "MetricInfo(metric_id='calibration', "
     'compute=<built-in function len>, dataset_level=False)'),
    (MetricInfo("statistical_parity_difference", len, dataset_level=True),
     "MetricInfo(metric_id='statistical_parity_difference', "
     'compute=<built-in function len>, dataset_level=True)'),
    (Dataset(("sex", "y"), (("F", "1"),)),
     "Dataset(columns=('sex', 'y'), rows=(('F', '1'),))"),
    (BoundGroups(3, 10, 5, 12, 1),
     'BoundGroups(favorable_unprivileged=3, total_unprivileged=10, '
     'favorable_privileged=5, total_privileged=12, excluded=1)'),
    (RunManifest(),
     "RunManifest(dataset_source='', model_id=None, declared_use=None, "
     'synthetic=False)'),
    (RunManifest("https://x", "m1", "hiring", True),
     "RunManifest(dataset_source='https://x', model_id='m1', "
     "declared_use='hiring', synthetic=True)"),
    (CompositionAudit({"F": 0.4, "M": 0.6}, "F", 0.5, -0.09999999999999998,
                         Interval(-0.1, 0.1), True),
     "CompositionAudit(shares={'F': 0.4, 'M': 0.6}, "
     "unprivileged_value='F', reference_share=0.5, "
     'deviation=-0.09999999999999998, range=Interval(lo=-0.1, hi=0.1), '
     'within_range=True)'),
    (Interval(-0.05, 0.05),
     'Interval(lo=-0.05, hi=0.05)'),
    (Interval(0, 1),
     'Interval(lo=0, hi=1)'),
    (Diagnostic("SyntaxError", 3, 7, "expected '}'"),
     "Diagnostic(kind='SyntaxError', line=3, col=7, "
     'message="expected \'}\'")'),
    (ProtectedSpec("sex", "Male", "Female"),
     "ProtectedSpec(attribute='sex', privileged_value='Male', "
     "unprivileged_value='Female')"),
    (FavorableSpec("occupation", "Exec-managerial"),
     "FavorableSpec(attribute='occupation', value='Exec-managerial')"),
    (MetricConstraint("calibration", Interval(-0.1, 0.1)),
     "MetricConstraint(metric_id='calibration', range=Interval(lo=-0.1, "
     'hi=0.1), bins=10, tolerance=0.0)'),
    (MetricConstraint("calibration", Interval(-0.1, 0.1), bins=20, tolerance=0.01),
     "MetricConstraint(metric_id='calibration', range=Interval(lo=-0.1, "
     'hi=0.1), bins=20, tolerance=0.01)'),
    (ModelSpec("m1"),
     "ModelSpec(model_id='m1', description=None, "
     'acceptable_uses=frozenset(), synthetic_data_capability=False)'),
    (ModelSpec("m2", "a model", frozenset({"hiring"}), True),
     "ModelSpec(model_id='m2', description='a model', "
     "acceptable_uses=frozenset({'hiring'}), "
     'synthetic_data_capability=True)'),
    (DecisionSpec(matrix, "hurwicz", 0.25),
     "DecisionSpec(payoffs=PayoffMatrix(actions=('a', 'b'), "
     "states=('s',), values=((1.0,), (2.5,))), criterion='hurwicz', "
     'hurwicz_lambda=0.25)'),
    (PolicyDocument("p"),
     "PolicyDocument(name='p', protected=None, favorable=None, "
     'metrics=(), approved_sources=frozenset(), approved_models=(), '
     "decision=None, on_violation='explain')"),
    (PolicyDocument("q", ProtectedSpec("sex", "Male", "Female"),
                       FavorableSpec("y", "1"),
                       (MetricConstraint("equal_opportunity", Interval(-1, 1)),),
                       frozenset({"s"}), (ModelSpec("m1"),),
                       DecisionSpec(matrix, "wald"), "halt"),
     "PolicyDocument(name='q', protected=ProtectedSpec(attribute='sex', "
     "privileged_value='Male', unprivileged_value='Female'), "
     "favorable=FavorableSpec(attribute='y', value='1'), "
     "metrics=(MetricConstraint(metric_id='equal_opportunity', "
     'range=Interval(lo=-1, hi=1), bins=10, tolerance=0.0),), '
     "approved_sources=frozenset({'s'}), "
     "approved_models=(ModelSpec(model_id='m1', description=None, "
     'acceptable_uses=frozenset(), synthetic_data_capability=False),), '
     "decision=DecisionSpec(payoffs=PayoffMatrix(actions=('a', 'b'), "
     "states=('s',), values=((1.0,), (2.5,))), criterion='wald', "
     "hurwicz_lambda=0.5), on_violation='halt')"),
    (ContextFinding("model m1", "approved", "listed in approved models"),
     "ContextFinding(subject='model m1', status='approved', "
     "reason='listed in approved models')"),
    (ConstraintVerdict("equal_opportunity", 0.5, None, Interval(0, 1), 0.0,
                          "comply", "ok"),
     "ConstraintVerdict(constraint_id='equal_opportunity', value=0.5, "
     'reason=None, interval=Interval(lo=0, hi=1), tolerance=0.0, '
     "status='comply', explanation='ok', trace={})"),
    (ConstraintVerdict("calibration", None, "empty", Interval(0, 1), 0.5,
                          "explain", "undefined", {"bins": 3}),
     "ConstraintVerdict(constraint_id='calibration', value=None, "
     "reason='empty', interval=Interval(lo=0, hi=1), tolerance=0.5, "
     "status='explain', explanation='undefined', trace={'bins': 3})"),
    (ComplianceReport("p", (), (), None, None, "comply"),
     "ComplianceReport(policy_name='p', findings=(), verdicts=(), "
     "audit=None, strategy=None, overall_status='comply', "
     'display_mode=True, agent_mode=True, created_at=None)'),
    (ComplianceReport("p", (ContextFinding("s", "approved", "r"),), (), None,
                         StrategyChoice("wald", 0, "a", 1.0, (1.0,)), "explain",
                         False, True, "2026-01-01T00:00:00+00:00"),
     "ComplianceReport(policy_name='p', "
     "findings=(ContextFinding(subject='s', status='approved', "
     "reason='r'),), verdicts=(), audit=None, "
     "strategy=StrategyChoice(criterion='wald', action_index=0, "
     "action_label='a', value=1.0, scores=(1.0,), regret_matrix=None, "
     "hurwicz_lambda=None), overall_status='explain', "
     'display_mode=False, agent_mode=True, '
     "created_at='2026-01-01T00:00:00+00:00')"),
]
VALUES = [value for value, _ in REPRS]
IDS = [f"{type(value).__name__}-{i}" for i, value in enumerate(VALUES)]


def test_every_value_type_has_a_recorded_repr():
    assert {type(value) for value in VALUES} == set(Value.__subclasses__())
    assert len(set(Value.__subclasses__())) == 21


@pytest.mark.parametrize("value, expected", REPRS, ids=IDS)
def test_repr_is_the_dataclass_format(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equal_within_the_class_only(value):
    twin = pickle.loads(pickle.dumps(value))
    assert twin is not value and twin == value and not twin != value
    assert copy.copy(value) == value
    assert value.__eq__(value._values()) is NotImplemented
    assert value != value._values()


def test_no_equality_across_classes():
    assert Interval(0, 1) != (0, 1)
    assert Interval(0, 1).__eq__((0, 1)) is NotImplemented
    spec, finding = ProtectedSpec("a", "b", "c"), ContextFinding("a", "b", "c")
    assert spec.__eq__(finding) is NotImplemented and spec != finding
    assert Interval(0, 1) != Interval(0, 2)
    assert ConfusionCounts(tp=1) != ConfusionCounts(fp=1)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_frozen(value):
    twin = pickle.loads(pickle.dumps(value))
    if any(isinstance(v, dict) for v in value._values()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(twin) == hash(value)
    field = value._fields[0]
    with pytest.raises(AttributeError, match=f"assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"delete field '{field}'"):
        delattr(value, field)
    assert value == twin


def test_constructor_takes_fields_by_position_or_name():
    assert Interval(lo=0, hi=1) == Interval(0, hi=1) == Interval(0, 1)
    assert ConfusionCounts(fn=2) == ConfusionCounts(0, 0, 0, 2)
    assert MetricConstraint("m", Interval(0, 1), tolerance=0.5).bins == 10
    assert Record("privileged", 1, 1, legitimate="a").score is None
    # a dict default is a new dict for each instance
    first, second = MetricValue("m", 1.0), MetricValue("m", 1.0)
    assert first.trace == {} and first.trace is not second.trace
    for call in (lambda: ConfusionCounts(1, 2, 3, 4, 5),
                 lambda: ConfusionCounts(tq=1),
                 lambda: ConfusionCounts(1, tp=1),
                 lambda: ProtectedSpec("sex", "Male"),
                 lambda: Interval(0),
                 lambda: Record("privileged", 1)):
        with pytest.raises(TypeError):
            call()


def test_record_validates_its_fields():
    with pytest.raises(ValueError, match="unknown group"):
        Record("other", 1, 1)
    with pytest.raises(ValueError, match="labels must be binary"):
        Record("privileged", 1, 2)
    with pytest.raises(ValueError, match="outside"):
        Record("privileged", 1, 1, 1.5)


# pytest itself imports `dataclasses` and `inspect`, so the modules a
# command loads are seen in a fresh interpreter. `-S` skips `site`, which
# may import modules of its own.
START_UP = """
import sys
import complykit.cli
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, name
assert complykit.cli.main(["check", sys.argv[1]]) == 0
for name in ("complykit.report", "datetime"):
    assert name not in sys.modules, name
"""


def test_check_imports_only_what_it_runs(tmp_path):
    policy = tmp_path / "p.law"
    policy.write_text(SCENARIO1_POLICY)
    src = str(Path(complykit.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-c", START_UP, str(policy)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
