"""Property tests for the prediction tally.

`read_predictions` streams CSV rows into a counts-only tally: per
validated `(group, predicted, actual)` cell, one score array and one row
count per raw legitimate text. The row-level oracle in `reference.py`
builds one from Records (`predictions_of`), flips the groups of a
reduction (`swapped`) and counts quadrants by scanning rows
(`confusion`). The library's reduction must describe exactly the rows it
was given, and every metric must read the same from the CSV as from the
oracle.
"""

import csv
import io
import math
import random
from array import array
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from complykit.fairness import (
    GROUPS,
    METRIC_REGISTRY,
    PRIVILEGED,
    UNPRIVILEGED,
    balance_negative_gap,
    balance_positive_gap,
)
from complykit.ingest import read_predictions
from complykit.intervals import Interval
from complykit.policy import DEFAULT_BINS, MetricConstraint, PolicyDocument
from complykit.report import evaluate, render, to_json
from reference import (
    FLIP,
    Record,
    confusion,
    predictions_of,
    records,
    reduced,
    swapped,
)

LABELS = {PRIVILEGED: "Male", UNPRIVILEGED: "Female"}

pad = st.sampled_from(("", " ", "  "))
score = st.one_of(
    st.none(),
    st.sampled_from((0.0, 1.0, 0.5, 5e-324, 0.1 + 0.2 - 0.3)),
    st.floats(0, 1, allow_nan=False))
# A few hundred keys beside the padded, blank (None) and "None" cases, so
# that strata sort by text ("10" before "9") and most hold one group only.
legitimate = st.one_of(st.sampled_from(("", " ", "a", "b", " a", "b c", "None")),
                       st.integers(0, 299).map(str))


@st.composite
def csv_rows(draw):
    """(Record, CSV cells) pairs; the cells carry padding the reader strips."""
    group = draw(st.sampled_from(GROUPS))
    predicted = draw(st.integers(0, 1))
    actual = draw(st.integers(0, 1))
    s = draw(score)
    legit = draw(legitimate)
    record = Record(group, predicted, actual, s,
                    legit if legit.strip() else None)
    cells = [draw(pad) + LABELS[group] + draw(pad),
             draw(pad) + str(predicted), str(actual) + draw(pad),
             draw(pad) if s is None else repr(s),
             legit]
    return record, cells


row_lists = st.lists(csv_rows(), max_size=40)
COLUMNS = ("group", "predicted", "actual", "score", "legitimate")


def _csv_text(rows, columns=COLUMNS):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cells[COLUMNS.index(c)] for c in columns]
                     for _, cells in rows)
    return buf.getvalue()


def _read(rows, columns=COLUMNS, labels=("Male", "Female")):
    return read_predictions(io.StringIO(_csv_text(rows, columns)), *labels)


@st.composite
def csv_files(draw):
    """(columns, rows) of a prediction file with or without the score and
    legitimate columns; each row is a Record of what the file says and
    its CSV cells, of which the file keeps the named columns."""
    columns = COLUMNS[:3] + tuple(
        c for c in COLUMNS[3:] if draw(st.booleans()))
    rows = [(Record(r.group, r.predicted, r.actual,
                    r.score if "score" in columns else None,
                    r.legitimate if "legitimate" in columns else None), cells)
            for r, cells in draw(row_lists)]
    return columns, rows


def _report(gp, bins):
    # Only calibration reads `bins`; any other metric refuses one set.
    doc = PolicyDocument(name="tally", metrics=tuple(
        MetricConstraint(mid, Interval(-1, 1),
                         bins if mid == "calibration" else DEFAULT_BINS)
        for mid in METRIC_REGISTRY))
    metrics = {c.metric_id: METRIC_REGISTRY[c.metric_id].compute(gp, c)
               for c in doc.metrics}
    report = evaluate(doc, metrics)
    return metrics, render(report, "display"), to_json(report)


@given(row_lists, st.integers(2, 12))
def test_csv_and_records_agree_on_every_metric(rows, bins):
    from_csv = _read(rows)
    from_records = predictions_of(r for r, _ in rows)
    metrics_csv, text_csv, json_csv = _report(from_csv, bins)
    metrics_rec, text_rec, json_rec = _report(from_records, bins)
    for mid in METRIC_REGISTRY:
        assert metrics_csv[mid].value == metrics_rec[mid].value
        assert metrics_csv[mid].reason == metrics_rec[mid].reason
    assert text_csv == text_rec
    assert json_csv == json_rec


@given(row_lists)
def test_records_rebuild_the_input_rows(rows):
    # `records` lists the rows less their scores, and `scores` holds the
    # scores of each (group, actual)
    expected = Counter(r.row for r, _ in rows)
    scores = {(g, a): sorted(r.score for r, _ in rows if r.score is not None
                             and (r.group, r.actual) == (g, a))
              for g in GROUPS for a in (0, 1)}
    for gp in (_read(rows), predictions_of(r for r, _ in rows)):
        assert Counter(gp.records) == expected
        assert reduced(gp)[4] == scores
        assert gp.unscored == sum(r.score is None for r, _ in rows)
        for g in GROUPS:
            assert gp.confusion[g] == confusion(
                r for r, _ in rows if r.group == g)


def _row_scan(columns, rows):
    """`GroupedPredictions.records` and `.scores` by a row scan, in the
    tally's order: validated `(group, predicted, actual)` cells in
    first-seen order, then the raw legitimate texts under each cell in
    first-seen order, so the padded variants of a cell share its texts,
    each listing its rows; and per (group, actual), the score array of
    each of its cells that has scores, in file order."""
    texts = {}  # cell -> legitimate text -> rows
    for r, cells in rows:
        texts.setdefault(r[:3], {}).setdefault(
            cells[4] if "legitimate" in columns else "", []).append(r.row)
    scores = {(g, a): [] for g in GROUPS for a in (0, 1)}
    for g, p, a in texts:
        cell_scores = array("d", [r.score for r, _ in rows if r.score is not None
                                  and r[:3] == (g, p, a)])
        if cell_scores:
            scores[g, a].append(cell_scores)
    return (tuple(row for by_text in texts.values()
                  for listed in by_text.values() for row in listed),
            scores)


@given(csv_files())
def test_cells_view_matches_a_row_scan(file):
    columns, rows = file
    recs = [r for r, _ in rows]
    gp = _read(rows, columns)
    assert (gp.records, gp.scores) == _row_scan(columns, rows)
    assert gp.strata == _row_scan_strata(recs)
    for g in GROUPS:
        assert gp.confusion[g] == confusion(
            r for r in recs if r.group == g)
    # Swapping twice gives the reduction back, and re-tallying the rows
    # `records` lists, which fold the blank legitimate texts of a cell
    # into its None stratum, gives the same rows.
    assert reduced(swapped(swapped(gp))) == reduced(gp)
    assert Counter(predictions_of(records(gp)).records) == Counter(gp.records)


@given(row_lists)
def test_swapped_equals_swapping_each_record(rows):
    one_by_one = predictions_of(
        Record(FLIP[r.group], r.predicted, r.actual, r.score, r.legitimate)
        for r, _ in rows)
    # The same file read with the two labels exchanged is the flipped tally.
    for gp in (swapped(predictions_of(r for r, _ in rows)),
               swapped(_read(rows)), _read(rows, labels=("Female", "Male"))):
        assert reduced(gp) == reduced(one_by_one)
        assert _report(gp, 10)[1:] == _report(one_by_one, 10)[1:]


@given(st.lists(st.tuples(st.sampled_from(GROUPS), st.integers(0, 1),
                          st.floats(0, 1, allow_nan=False)),
                min_size=1, max_size=60),
       st.integers(0, 2 ** 32 - 1))
def test_balance_means_are_fsum_of_the_scores(rows, seed):
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    for order in (rows, shuffled):
        gp = predictions_of(Record(g, 0, a, s) for g, a, s in order)
        for actual, metric in ((1, balance_positive_gap),
                               (0, balance_negative_gap)):
            mv = metric(gp)
            scores = {g: [s for h, a, s in rows if h == g and a == actual]
                      for g in GROUPS}
            assert mv.is_defined == all(scores.values())
            if mv.is_defined:
                for g in GROUPS:
                    assert mv.trace[g]["mean_score"] == \
                        math.fsum(scores[g]) / len(scores[g])


def _per_record_gaps(records, key_of, positive_of, sort_key=None):
    """The row-scanning reference: `{key: {group: [positives, rows]}}`, the
    rate gap per key as a list in sorted key order, and the skipped keys."""
    tally = {}
    for r in records:
        cell = tally.setdefault(key_of(r), {g: [0, 0] for g in GROUPS})
        cell[r.group][0] += positive_of(r)
        cell[r.group][1] += 1
    gaps, skipped = [], []
    for key in sorted(tally, key=sort_key):
        c = tally[key]
        if any(c[g][1] == 0 for g in GROUPS):
            skipped.append(key)
        else:
            gaps.append((key, c[UNPRIVILEGED][0] / c[UNPRIVILEGED][1]
                              - c[PRIVILEGED][0] / c[PRIVILEGED][1]))
    return tally, gaps, skipped


def _strata_gaps(records):
    return _per_record_gaps(
        records, lambda r: r.legitimate, lambda r: r.predicted,
        lambda k: ("", k) if k is None else (str(k), ""))


def _row_scan_strata(records):
    """`GroupedPredictions.strata` by a row scan: group -> (rows,
    predicted positives) per legitimate value."""
    tally, _, _ = _strata_gaps(records)
    return {g: ({k: c[g][1] for k, c in tally.items() if c[g][1]},
                {k: c[g][0] for k, c in tally.items() if c[g][1]})
            for g in GROUPS}


@given(row_lists, st.integers(2, 12))
def test_strata_and_bins_match_a_row_scan(rows, bins):
    records = [r for r, _ in rows]
    _, gaps, skipped = _strata_gaps(records)
    for gp in (predictions_of(records), _read(rows)):
        assert gp.strata == _row_scan_strata(records)
        strata = METRIC_REGISTRY["conditional_statistical_parity"].compute(gp, None)
        assert list(strata.trace["per_stratum_gap"].items()) == gaps
        assert strata.trace["skipped_strata"] == skipped
    if any(r.score is None for r in records):
        return
    _, gaps, skipped = _per_record_gaps(
        records, lambda r: min(int(r.score * bins), bins - 1), lambda r: r.actual)
    constraint = MetricConstraint("calibration", Interval(-1, 1), bins)
    for gp in (predictions_of(records), _read(rows)):
        cal = METRIC_REGISTRY["calibration"].compute(gp, constraint)
        assert list(cal.trace["per_bin_gap"].items()) == gaps
        assert cal.trace["skipped_bins"] == skipped
