"""Row-level reference implementations that the tests compare the library
against.

The library reduces a prediction file straight to a tally; these build
the same `GroupedPredictions` from `Record`s, flip the groups of its
reduction and count confusion quadrants by scanning rows, so that a test
can check the reduction against a computation that never sees the
tally. `exact` gives the metrics `Fraction` counts to read, and
`exact_value` computes each metric exactly by scanning rows.
"""

from array import array
from fractions import Fraction
from itertools import chain
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
    """One prediction row: its cell, its score and its stratum."""

    group: str  # PRIVILEGED or UNPRIVILEGED
    predicted: int  # 0 or 1
    actual: int  # 0 or 1
    score: Optional[float] = None
    legitimate: Optional[str] = None  # the stratum

    @property
    def row(self) -> tuple:
        """The tuple `GroupedPredictions.records` lists for this row."""
        return self.group, self.predicted, self.actual, self.legitimate


def records(gp: GroupedPredictions) -> list:
    """`gp.records` as Records, which carry no score."""
    return [Record(g, p, a, legitimate=legit) for g, p, a, legit in gp.records]


def predictions_of(records) -> GroupedPredictions:
    """`GroupedPredictions` of Records: a tally of each Record's `(group,
    predicted, actual)` cell, with its scores in Record order and its rows
    counted by `legitimate` as it is; the reduction maps a None or blank
    one to the None stratum, as it does for a CSV."""
    scored = {}
    counts = {}
    for r in records:
        cell = (r.group, r.predicted, r.actual)
        scores = scored.setdefault(cell, array("d"))
        by_text = counts.setdefault(cell, {})
        by_text[r.legitimate] = by_text.get(r.legitimate, 0) + 1
        if r.score is not None:
            scores.append(r.score)
    return GroupedPredictions(scored, counts)


def swapped(gp) -> SimpleNamespace:
    """The five attributes every metric reads of `gp`, with the
    privileged and unprivileged groups exchanged."""
    return SimpleNamespace(
        confusion={FLIP[g]: c for g, c in gp.confusion.items()},
        strata={FLIP[g]: pair for g, pair in gp.strata.items()},
        bin_counts={bins: {FLIP[g]: pair for g, pair in binned.items()}
                    for bins, binned in gp.bin_counts.items()},
        scores={(FLIP[g], a): arrays for (g, a), arrays in gp.scores.items()},
        unscored=gp.unscored)


def reduced(gp) -> tuple:
    """The five attributes every metric reads, with the scores of each
    (group, actual) as a sorted list: equal for any two tallies of the
    same rows, in whatever order."""
    return (gp.confusion, gp.strata, gp.unscored, gp.bin_counts,
            {k: sorted(chain.from_iterable(arrays))
             for k, arrays in gp.scores.items()})


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
