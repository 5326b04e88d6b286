"""Row-level reference implementations that the tests compare the library
against.

The library reduces a prediction file straight to a tally; these build
the same `GroupedPredictions` from `Record`s, flip its groups row by row
and count confusion quadrants by scanning rows, so that a test can check
the reduction against a computation that never sees the tally. `exact`
gives the metrics `Fraction` counts to read, and `exact_value` computes
each metric exactly by scanning rows.
"""

from array import array
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, Optional

from complykit.fairness import (
    PRIVILEGED,
    UNPRIVILEGED,
    ConfusionCounts,
    GroupedPredictions,
    _bin_rows,
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
    """`GroupedPredictions` of Records: a tally keyed by each Record's
    `(group, predicted, actual)` cell, then by its `legitimate` as it is;
    the reduction maps a None or blank one to the None stratum, as it does
    for a CSV."""
    scored = {}
    unscored = {}
    for r in records:
        cell = (r.group, r.predicted, r.actual)
        scores = scored.setdefault(cell, {}).setdefault(
            r.legitimate, array("d"))
        if r.score is None:
            counts = unscored.setdefault(cell, {})
            counts[r.legitimate] = counts.get(r.legitimate, 0) + 1
        else:
            scores.append(r.score)
    return GroupedPredictions(scored, unscored)


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


def exact(gp: GroupedPredictions, bins: int = 10) -> SimpleNamespace:
    """The five attributes of `gp` that every metric reads, with each count
    a `Fraction`: `confusion`, `strata`, `unscored`, and `bin_counts` for
    `bins` bins of the scores; `scores` stay as they are."""
    def fractions(by_group):
        return {g: tuple({k: Fraction(n) for k, n in counts.items()}
                         for counts in pair)
                for g, pair in by_group.items()}

    return SimpleNamespace(
        confusion={g: ConfusionCounts(*map(Fraction, c._values()))
                   for g, c in gp.confusion.items()},
        strata=fractions(gp.strata),
        bin_counts={bins: fractions(_bin_rows(gp.scores.items(), bins))},
        scores=gp.scores,
        unscored=Fraction(gp.unscored))


def _every(r):
    return True


# (where, hit) of each rate gap: a group's rate is the share of its rows
# that `where` selects for which `hit` holds.
RATES = {
    "statistical_parity_difference": (_every, lambda r: r.actual),
    "equal_acceptance_rate": (_every, lambda r: r.predicted),
    "predictive_parity": (lambda r: r.predicted, lambda r: r.actual),
    "equal_opportunity": (lambda r: r.actual, lambda r: not r.predicted),
    "predictive_equality": (lambda r: not r.actual, lambda r: r.predicted),
    "accuracy_equality": (_every, lambda r: r.predicted == r.actual),
}
# The two rate gaps whose larger magnitude each paired metric is.
PAIRS = {
    "equalized_odds": ((lambda r: r.actual, lambda r: r.predicted),
                       RATES["predictive_equality"]),
    "conditional_use_accuracy": (
        RATES["predictive_parity"],
        (lambda r: not r.predicted, lambda r: not r.actual)),
}


def exact_value(rows, metric_id: str, bins: int = 10) -> Optional[Fraction]:
    """`metric_id` of the Records `rows`, scanned row by row in `Fraction`
    arithmetic; None where it is Undefined. Not for the balance metrics,
    whose means of float scores are floats."""
    def gap(where, hit):
        rates = []
        for g in (UNPRIVILEGED, PRIVILEGED):
            selected = [r for r in rows if r.group == g and where(r)]
            if not selected:
                return None
            rates.append(Fraction(sum(map(hit, selected)), len(selected)))
        return rates[0] - rates[1]

    def count(g, predicted, actual):
        return sum(r.group == g and r.predicted == predicted
                   and r.actual == actual for r in rows)

    if metric_id in RATES:
        return gap(*RATES[metric_id])
    if metric_id in PAIRS:
        gaps = [gap(*rate) for rate in PAIRS[metric_id]]
        return None if None in gaps else max(map(abs, gaps))
    if metric_id == "treatment_equality":
        a = count(UNPRIVILEGED, 0, 1) * count(PRIVILEGED, 1, 0)
        b = count(PRIVILEGED, 0, 1) * count(UNPRIVILEGED, 1, 0)
        return Fraction(a - b, max(1, a + b))
    if metric_id == "calibration" and any(r.score is None for r in rows):
        return None
    # The per-key metrics: the largest gap magnitude over the keys (strata
    # or score bins) where both groups have rows.
    key, hit = {
        "conditional_statistical_parity": (lambda r: r.legitimate,
                                           lambda r: r.predicted),
        "calibration": (lambda r: min(int(r.score * bins), bins - 1),
                        lambda r: r.actual),
    }[metric_id]
    gaps = [gap(lambda r: key(r) == k, hit) for k in set(map(key, rows))]
    return max((abs(g) for g in gaps if g is not None), default=None)
