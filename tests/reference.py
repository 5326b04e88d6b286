"""Row-level reference implementations that the tests compare the library
against.

The library reduces a prediction file straight to a tally; these build
the same `GroupedPredictions` from `Record`s, flip its groups row by row
and count confusion quadrants by scanning rows, so that a test can check
the reduction against a computation that never sees the tally.
"""

from array import array
from typing import NamedTuple, Optional

from complykit.fairness import (
    PRIVILEGED,
    UNPRIVILEGED,
    ConfusionCounts,
    GroupedPredictions,
)

FLIP = {PRIVILEGED: UNPRIVILEGED, UNPRIVILEGED: PRIVILEGED}


class Record(NamedTuple):
    """One prediction row, in the field order of `GroupedPredictions.records`,
    so a Record equals the plain row tuple with the same fields."""

    group: str  # PRIVILEGED or UNPRIVILEGED
    predicted: int  # 0 or 1
    actual: int  # 0 or 1
    score: Optional[float] = None
    legitimate: Optional[str] = None  # the stratum


def records(gp: GroupedPredictions) -> list:
    """`gp.records` as Records."""
    return [Record._make(r) for r in gp.records]


def predictions_of(records) -> GroupedPredictions:
    """`GroupedPredictions` of Records: a tally whose prefixes are each
    Record's `(group, predicted, actual)`, each its own key, and whose
    legitimate texts are its `legitimate` as it is; the reduction maps a
    None or blank one to the None stratum, as it does for a CSV."""
    scored = {}
    unscored = {}
    for r in records:
        prefix = (r.group, r.predicted, r.actual)
        scores = scored.setdefault(prefix, {}).setdefault(
            r.legitimate, array("d"))
        if r.score is None:
            counts = unscored.setdefault(prefix, {})
            counts[r.legitimate] = counts.get(r.legitimate, 0) + 1
        else:
            scores.append(r.score)
    return GroupedPredictions(scored, unscored,
                              {prefix: prefix for prefix in scored})


def swapped(gp: GroupedPredictions) -> GroupedPredictions:
    """`gp`'s rows with the privileged/unprivileged assignment flipped."""
    return predictions_of(
        r._replace(group=FLIP[r.group]) for r in records(gp))


def confusion(records) -> ConfusionCounts:
    """Tally (predicted, actual) quadrants for one group's records."""
    tp = fp = tn = fn = 0
    for r in records:
        if r.predicted == 1:
            if r.actual == 1:
                tp += 1
            else:
                fp += 1
        else:
            if r.actual == 1:
                fn += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
