import csv
import gc
import io
import os
import random

import pytest
from hypothesis import strategies as st

from complykit import ingest
from complykit.decisions import PayoffMatrix
from complykit.fairness import PRIVILEGED, UNPRIVILEGED
from complykit.intervals import Interval
from complykit.policy import (
    DecisionSpec,
    FavorableSpec,
    MetricConstraint,
    ModelSpec,
    PolicyDocument,
    ProtectedSpec,
)
from reference import Record, predictions_of

SCENARIO1_POLICY = """\
policy "scenario-1" {
  protected_attribute sex {
    privileged = "Male"
    unprivileged = "Female"
  }
  favorable_outcome occupation {
    value = "Exec-managerial"
  }
  metric statistical_parity_difference {
    range = [-0.01, 0.01]
  }
  approved_sources {
    "https://archive.ics.uci.edu/dataset/2/adult"
  }
  approved_model "google/gemma-2-2b-it" {
    # A large language model from Google.
    acceptable_uses = ["recruitment"]
    synthetic_data_capability = true
  }
  decision {
    actions = ["Strictly comply", "Reasonably comply", "Somehow comply"]
    states = ["High cost", "Medium cost", "Low cost"]
    payoffs = [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]
    criterion = wald
  }
}
"""


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the cyclic collector paused or resumed when
    it found it the other way, and put the collector back."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {not enabled}, "
                    f"not {enabled}")


@pytest.fixture
def scenario1_policy_text():
    return SCENARIO1_POLICY


def force_shards(monkeypatch, cpus):
    """Shard every dataset and prediction path, however small, on `cpus`
    CPUs."""
    monkeypatch.setattr(ingest, "SHARD_BYTES", 1)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` starts during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def records_from_counts(group, tp=0, fp=0, tn=0, fn=0):
    recs = []
    recs += [Record(group, 1, 1)] * tp
    recs += [Record(group, 1, 0)] * fp
    recs += [Record(group, 0, 0)] * tn
    recs += [Record(group, 0, 1)] * fn
    return recs


def gp_from_counts(unpriv, priv):
    """Build GroupedPredictions from per-group confusion count dicts."""
    return predictions_of(
        records_from_counts(UNPRIVILEGED, **unpriv)
        + records_from_counts(PRIVILEGED, **priv))


# ---------------------------------------------------------------------------
# Random document generator for round-trip corpora

_METRIC_IDS = (
    "statistical_parity_difference", "equal_acceptance_rate",
    "predictive_parity", "equal_opportunity", "predictive_equality",
    "equalized_odds", "accuracy_equality", "conditional_use_accuracy",
    "treatment_equality", "conditional_statistical_parity", "calibration",
    "balance_positive", "balance_negative",
)

_STRING_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " -_./:#\"\\{}[]=,;'"
)


def _rand_string(rng, min_len=0, max_len=20):
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(_STRING_ALPHABET) for _ in range(n))


def _rand_ident(rng):
    first = rng.choice("abcdefghijklmnopqrstuvwxyz_")
    rest = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_")
                   for _ in range(rng.randint(0, 10)))
    return first + rest


def _rand_fraction(rng, lo=-200, hi=200):
    return rng.randint(lo, hi) / 100.0


def random_document(rng: random.Random) -> PolicyDocument:
    """A structurally valid random PolicyDocument for round-trip tests."""
    protected = None
    if rng.random() < 0.9:
        priv = _rand_string(rng, 1)
        unpriv = _rand_string(rng, 1)
        while unpriv == priv:
            unpriv = _rand_string(rng, 1)
        attribute = _rand_ident(rng) if rng.random() < 0.7 \
            else _rand_string(rng, 1)
        protected = ProtectedSpec(attribute, priv, unpriv)

    favorable = None
    if rng.random() < 0.5:
        favorable = FavorableSpec(_rand_ident(rng), _rand_string(rng, 1))

    metrics = []
    for metric_id in rng.sample(_METRIC_IDS, rng.randint(0, 4)):
        lo = _rand_fraction(rng)
        hi = _rand_fraction(rng)
        if lo > hi:
            lo, hi = hi, lo
        bins = rng.choice((10, 10, 2, 5, 20))
        tolerance = rng.choice((0.0, 0.0, 0.01, 0.5))
        metrics.append(MetricConstraint(metric_id, Interval(lo, hi),
                                        bins, tolerance))

    sources = frozenset(_rand_string(rng, 1)
                        for _ in range(rng.randint(0, 3)))

    model_ids = sorted({_rand_string(rng, 1) for _ in range(rng.randint(0, 2))})
    models = tuple(
        ModelSpec(
            mid,
            frozenset(_rand_string(rng, 1) for _ in range(rng.randint(0, 3))),
            rng.random() < 0.5,
        )
        for mid in model_ids
    )

    decision = None
    if rng.random() < 0.5:
        n_actions = rng.randint(1, 4)
        n_states = rng.randint(1, 4)
        actions = [f"{_rand_string(rng, 1, 8)}-{i}" for i in range(n_actions)]
        states = [f"{_rand_string(rng, 1, 8)}-{i}" for i in range(n_states)]
        payoffs = [[float(rng.randint(-10, 10)) for _ in range(n_states)]
                   for _ in range(n_actions)]
        decision = DecisionSpec(
            PayoffMatrix(actions, states, payoffs),
            rng.choice(("wald", "hurwicz", "savage")),
            rng.choice((0.5, 0.5, 0.0, 1.0, 0.25)),
        )

    return PolicyDocument(
        name=_rand_string(rng),
        protected=protected,
        favorable=favorable,
        metrics=tuple(metrics),
        approved_sources=sources,
        approved_models=models,
        decision=decision,
    )


# ---------------------------------------------------------------------------
# CSV strategies for the dataset and prediction readers

CELLS = ["Male", " Male", "Female ", "Female", "Unknown", "",
         "Exec-managerial", " Exec-managerial", "Other", "a,b", 'say "x"']
UNQUOTED_CELLS = [c for c in CELLS if "," not in c and '"' not in c]


@st.composite
def dataset_csv(draw, cells=CELLS):
    """CSV text whose columns hold `sex` and `occupation` among extras,
    with padded and unmatched values, quoted commas, blank lines and LF
    or CRLF line ends."""
    extras = draw(st.integers(0, 3))
    columns = [f"x{i}" for i in range(extras)]
    columns.insert(draw(st.integers(0, extras)), "sex")
    columns.insert(draw(st.integers(0, extras + 1)), "occupation")
    rows = draw(st.lists(st.lists(st.sampled_from(cells), min_size=len(columns),
                                  max_size=len(columns)), max_size=30))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
        if draw(st.booleans()):
            buf.write(eol)
    return columns, buf.getvalue()


PREDICTION_CELLS = {
    "predicted": ["0", "1", " 1"],
    "actual": ["0", "1", "0 "],
    "score": ["0", "1", "0.25", " 0.5", "1e-3", "", " "],
    "legitimate": ["a", " a", "b", "", " "],
}


@st.composite
def prediction_csv(draw, labels=(PRIVILEGED, UNPRIVILEGED),
                   scores=PREDICTION_CELLS["score"],
                   optional=("score", "legitimate"), min_rows=0):
    """Quote-free prediction CSV text of `min_rows` to 40 rows, with or
    without each `optional` column (score and legitimate are always or
    optionally present), columns in any order, padded cells, blank lines
    and LF or CRLF line ends. Groups are the two `labels`, padded or not,
    and score cells are drawn from `scores`."""
    privileged, unprivileged = labels
    cells = dict(PREDICTION_CELLS, score=scores, group=[
        privileged, " " + privileged, unprivileged + " ", unprivileged])
    columns = ["group", "predicted", "actual"] + [
        c for c in ("score", "legitimate")
        if c not in optional or draw(st.booleans())]
    columns = draw(st.permutations(columns))
    rows = draw(st.lists(st.tuples(*(st.sampled_from(cells[c])
                                     for c in columns)),
                         min_size=min_rows, max_size=40))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(row))
        if draw(st.booleans()):
            lines.append("")
    return eol.join(lines) + eol
