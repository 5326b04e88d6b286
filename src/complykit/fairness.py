"""Group fairness metrics over binary predictions.

Every metric is reported as a signed gap, oriented unprivileged minus
privileged, so that a policy interval check reads the same way for all of
them. Metrics that the literature states as a pair of equalities are
scalarized as the max of the absolute component gaps.

Division by zero never raises: a rate with an empty denominator is
Undefined, and a metric built from an Undefined rate is itself Undefined
with a human-readable reason.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from operator import mul
from typing import Optional

from ._shared import METRIC_IDS, resolve_metric_id  # re-exported
from ._shared import check_bins
from ._value import Value

PRIVILEGED = "privileged"
UNPRIVILEGED = "unprivileged"
GROUPS = (UNPRIVILEGED, PRIVILEGED)


class GroupedPredictions:
    """Predictions reduced to counts from a counts-only tally.

    The tally keeps, for each validated `(group, predicted, actual)`
    cell, such as `("unprivileged", 1, 0)`, one `array('d')` of its
    scores and one row count per raw legitimate text; `_stratum` maps
    each text to its stratum, one rule for a CSV's tally and a test's
    alike. `read_predictions` builds the tally; it is reduced once, at
    construction, into the attributes below, which every metric reads:

    - `confusion`: group -> ConfusionCounts;
    - `strata`: group -> (rows, predicted positives), each a flat
      `{legitimate: count}` dict; the values are ints, so the garbage
      collector tracks no per-stratum object;
    - `scores`: (group, actual) -> the score arrays of its cells that
      hold scores;
    - `unscored`: rows without a score;
    - `bin_counts`: bins -> counts per bin, in the shape of `strata`.

    A metric reads nothing else, so it can judge any object that carries
    these five with `int` or `Fraction` counts; `Fraction` counts give
    exact values for all but the balance metrics, whose means are floats.
    `records` lists the rows the tally counts.
    """

    __slots__ = ("_counts", "confusion", "strata", "scores", "unscored",
                 "bin_counts")

    def __init__(self, scored: dict, counts: dict,
                 bin_counts: Optional[dict] = None):
        """Reduce a tally, which is not copied: `counts` maps every cell
        to `{legitimate text: rows}`, and `scored` maps it to the
        `array('d')` of the scores of its rows (empty when none has one).

        `bin_counts` maps a number of calibration bins to the
        `_bin_rows` counts of every score, as the shards of
        `read_predictions` add them up; `calibration_gap` reads them
        instead of binning `scores` again. None or `{}` when none were
        counted; none are kept when a row has no score.
        """
        quadrants = {g: [[0, 0], [0, 0]] for g in GROUPS}  # [predicted][actual]
        strata = {g: ({}, {}) for g in GROUPS}
        scores = {(g, a): [] for g in GROUPS for a in (0, 1)}
        unscored = 0
        for cell, by_text in counts.items():
            g, p, a = cell
            rows, positives = strata[g]
            for text, n in by_text.items():
                legitimate = _stratum(text)
                rows[legitimate] = rows.get(legitimate, 0) + n
                positives[legitimate] = positives.get(legitimate, 0) + p * n
            total = sum(by_text.values())
            quadrants[g][p][a] += total
            cell_scores = scored[cell]
            if cell_scores:
                scores[g, a].append(cell_scores)
            unscored += total - len(cell_scores)
        self._counts = counts
        self.confusion = {g: ConfusionCounts(tp=q[1][1], fp=q[1][0], tn=q[0][0], fn=q[0][1])
                          for g, q in quadrants.items()}
        self.strata = strata
        self.scores = scores
        self.unscored = unscored
        self.bin_counts = {} if unscored else bin_counts or {}

    @property
    def records(self) -> tuple:
        """The rows as `(group, predicted, actual, legitimate)` tuples,
        one per row of the tally, listed cell by cell, then by legitimate
        text; `legitimate` is the stratum. Scores are in `scores`."""
        return tuple(chain.from_iterable(
            repeat((g, p, a, _stratum(text)), n)
            for (g, p, a), by_text in self._counts.items()
            for text, n in by_text.items()))


def _stratum(text: Optional[str]) -> Optional[str]:
    """A legitimate text's stratum: None if missing or blank, else the text."""
    return text if text and text.strip() else None


class ConfusionCounts(Value):
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class MetricValue(Value):
    """A metric result: either a real value or Undefined with a reason."""

    metric_id: str
    value: Optional[float]
    reason: Optional[str] = None
    trace: dict = {}

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    @staticmethod
    def undefined(metric_id: str, reason: str, trace=None) -> "MetricValue":
        return MetricValue(metric_id, None, reason, trace or {})


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _rate_gap(gp: GroupedPredictions, metric_id: str, rate_name: str,
              ratio_of, denominator_desc: str) -> MetricValue:
    """Generic unprivileged-minus-privileged gap for one confusion rate.

    `ratio_of(counts)` gives the rate's (numerator, denominator) counts.
    """
    cs = gp.confusion
    rate = {g: _ratio(*ratio_of(cs[g])) for g in GROUPS}
    trace = {g: {"counts": cs[g], rate_name: rate[g]} for g in GROUPS}
    for g in GROUPS:
        if rate[g] is None:
            return MetricValue.undefined(
                metric_id, f"{g} group has no {denominator_desc}", trace)
    return MetricValue(metric_id, rate[UNPRIVILEGED] - rate[PRIVILEGED], trace=trace)


def statistical_parity_from_counts(favorable_unpriv: int, total_unpriv: int,
                                   favorable_priv: int, total_priv: int, *,
                                   metric_id: str = "statistical_parity_difference"
                                   ) -> MetricValue:
    """P(favorable | unprivileged) - P(favorable | privileged) from raw tallies."""
    if total_unpriv == 0 or total_priv == 0:
        empty = UNPRIVILEGED if total_unpriv == 0 else PRIVILEGED
        return MetricValue.undefined(metric_id, f"empty group: {empty}")
    p_u = favorable_unpriv / total_unpriv
    p_p = favorable_priv / total_priv
    trace = {
        UNPRIVILEGED: {"favorable": favorable_unpriv, "total": total_unpriv,
                       "proportion": p_u},
        PRIVILEGED: {"favorable": favorable_priv, "total": total_priv,
                     "proportion": p_p},
    }
    return MetricValue(metric_id, p_u - p_p, trace=trace)


def _parity_on(gp: GroupedPredictions, metric_id: str, positives_of) -> MetricValue:
    cs = gp.confusion
    return statistical_parity_from_counts(
        positives_of(cs[UNPRIVILEGED]), cs[UNPRIVILEGED].total,
        positives_of(cs[PRIVILEGED]), cs[PRIVILEGED].total, metric_id=metric_id)


def statistical_parity_difference(gp: GroupedPredictions) -> MetricValue:
    """Favorable-outcome rate gap, computed over actual outcomes."""
    return _parity_on(gp, "statistical_parity_difference", lambda c: c.tp + c.fn)


def equal_acceptance_rate_gap(gp: GroupedPredictions) -> MetricValue:
    """Positive-decision rate gap, computed over predicted labels."""
    return _parity_on(gp, "equal_acceptance_rate", lambda c: c.tp + c.fp)


def predictive_parity_gap(gp: GroupedPredictions) -> MetricValue:
    return _rate_gap(gp, "predictive_parity", "ppv",
                     lambda c: (c.tp, c.tp + c.fp), "predicted positives")


def equal_opportunity_gap(gp: GroupedPredictions) -> MetricValue:
    return _rate_gap(gp, "equal_opportunity", "fnr",
                     lambda c: (c.fn, c.tp + c.fn), "actual positives")


def predictive_equality_gap(gp: GroupedPredictions) -> MetricValue:
    return _rate_gap(gp, "predictive_equality", "fpr",
                     lambda c: (c.fp, c.fp + c.tn), "actual negatives")


def accuracy_equality_gap(gp: GroupedPredictions) -> MetricValue:
    return _rate_gap(gp, "accuracy_equality", "accuracy",
                     lambda c: (c.tp + c.tn, c.total), "rows")


def _max_abs_pair(metric_id: str, first: MetricValue,
                  second: MetricValue) -> MetricValue:
    trace = {"components": {first.metric_id: first, second.metric_id: second}}
    for part in (first, second):
        if not part.is_defined:
            return MetricValue.undefined(metric_id, part.reason, trace)
    return MetricValue(metric_id, max(abs(first.value), abs(second.value)), trace=trace)


def equalized_odds_gap(gp: GroupedPredictions) -> MetricValue:
    """max(|TPR gap|, |FPR gap|)."""
    tpr_gap = _rate_gap(gp, "tpr_gap", "tpr",
                        lambda c: (c.tp, c.tp + c.fn), "actual positives")
    fpr_gap = predictive_equality_gap(gp)
    return _max_abs_pair("equalized_odds", tpr_gap, fpr_gap)


def conditional_use_accuracy_gap(gp: GroupedPredictions) -> MetricValue:
    """max(|PPV gap|, |NPV gap|)."""
    ppv_gap = predictive_parity_gap(gp)
    npv_gap = _rate_gap(gp, "npv_gap", "npv",
                        lambda c: (c.tn, c.tn + c.fn), "predicted negatives")
    return _max_abs_pair("conditional_use_accuracy", ppv_gap, npv_gap)


def treatment_equality(gp: GroupedPredictions) -> MetricValue:
    """FN/FP ratio balance, evaluated by cross-multiplication.

    (FN_u * FP_p - FN_p * FP_u) / max(1, FN_u * FP_p + FN_p * FP_u) is total
    and stays in [-1, 1] even when a group has FP = 0.
    """
    cs = gp.confusion
    a = cs[UNPRIVILEGED].fn * cs[PRIVILEGED].fp
    b = cs[PRIVILEGED].fn * cs[UNPRIVILEGED].fp
    value = (a - b) / max(1, a + b)
    trace = {g: {"fn": cs[g].fn, "fp": cs[g].fp} for g in GROUPS}
    return MetricValue("treatment_equality", value, trace=trace)


def _gaps_by_key(metric_id: str, counts: dict, key: str, keys: str,
                 **trace) -> MetricValue:
    """Worst positive-rate gap over the keys (strata or bins) of `{group:
    (rows, positives)}` counts, each a `{key: count}` dict.

    The trace is `trace`, then `per_<key>_gap` and `skipped_<keys>`, the
    keys where either group has no rows, in sorted order with a None key
    (the blank stratum) first; with no gap the value is Undefined, "no
    comparable <key>". `Fraction` counts give exact gaps.
    """
    rows_u, positives_u = counts[UNPRIVILEGED]
    rows_p, positives_p = counts[PRIVILEGED]
    gaps = trace[f"per_{key}_gap"] = {}
    skipped = trace[f"skipped_{keys}"] = []
    present = rows_u.keys() | rows_p.keys()
    ordered = [None] if None in present else []
    present.discard(None)
    ordered += sorted(present)
    for k in ordered:
        n_u = rows_u.get(k, 0)
        n_p = rows_p.get(k, 0)
        if n_u and n_p:
            gaps[k] = positives_u[k] / n_u - positives_p[k] / n_p
        else:
            skipped.append(k)
    if not gaps:
        return MetricValue.undefined(metric_id, f"no comparable {key}", trace)
    return MetricValue(metric_id, max(map(abs, gaps.values())), trace=trace)


def conditional_statistical_parity(gp: GroupedPredictions) -> MetricValue:
    """Worst positive-decision rate gap across legitimate-factor strata.

    Strata where either group is absent are skipped and listed in the trace.
    """
    return _gaps_by_key("conditional_statistical_parity", gp.strata,
                        "stratum", "strata")


def _require_scores(gp: GroupedPredictions, metric_id: str):
    missing = gp.unscored
    if missing:
        return MetricValue.undefined(
            metric_id, f"{missing} record(s) lack scores required by this metric")
    return None


def _bin_counts(score_arrays, bins: int) -> Counter:
    """Rows per equal-width bin; a score of exactly 1 joins the top bin.

    `float.__trunc__` is `int` of a finite float; with `operator.mul` it
    bins about 1.6 times as fast as `int` and `float(bins).__mul__` do
    (CPython 3.11).
    """
    counts = Counter(map(float.__trunc__, map(
        mul, chain.from_iterable(score_arrays), repeat(float(bins)))))
    if bins in counts:
        counts[bins - 1] += counts.pop(bins)
    return counts


def _bin_rows(cells, bins: int) -> dict:
    """`{group: (rows, positives)}` per bin, the strata's shape, of
    `((group, actual), score arrays)` pairs; positives are `actual` × rows.

    Counts are ints and the top-bin fold applies to each pair's counts
    alone, so counts of parts of the scores (a shard's, say) add up to
    the counts of the whole.
    """
    binned = {g: ({}, {}) for g in GROUPS}
    for (g, actual), arrays in cells:
        rows, positives = binned[g]
        for b, n in _bin_counts(arrays, bins).items():
            rows[b] = rows.get(b, 0) + n
            positives[b] = positives.get(b, 0) + actual * n
    return binned


def calibration_gap(gp: GroupedPredictions, bins: int = 10) -> MetricValue:
    """Worst per-bin positive-rate gap over equal-width score bins.

    The bin counts, `{group: (rows, positives)}` per bin as for strata,
    are `gp.bin_counts[bins]` when the reduction counted them, else
    `_bin_rows` of `gp.scores`; the two are equal. Both are judged as
    strata are, by `_gaps_by_key`.
    """
    mid = "calibration"
    bins = check_bins(bins)
    problem = _require_scores(gp, mid)
    if problem:
        return problem
    binned = gp.bin_counts.get(bins)
    if binned is None:
        binned = _bin_rows(gp.scores.items(), bins)
    return _gaps_by_key(mid, binned, "bin", "bins", bins=bins)


def _balance_gap(gp: GroupedPredictions, metric_id: str, actual_class: int) -> MetricValue:
    problem = _require_scores(gp, metric_id)
    if problem:
        return problem
    means = {}
    for g in GROUPS:
        arrays = gp.scores[g, actual_class]
        n = sum(map(len, arrays))
        if not n:
            cls = "positives" if actual_class == 1 else "negatives"
            return MetricValue.undefined(metric_id, f"{g} group has no actual {cls}")
        # fsum is exactly rounded, so the mean does not depend on row order
        means[g] = math.fsum(chain.from_iterable(arrays)) / n
    trace = {g: {"mean_score": means[g]} for g in GROUPS}
    return MetricValue(metric_id, means[UNPRIVILEGED] - means[PRIVILEGED], trace=trace)


def balance_positive_gap(gp: GroupedPredictions) -> MetricValue:
    """Mean score gap among actual positives."""
    return _balance_gap(gp, "balance_positive", 1)


def balance_negative_gap(gp: GroupedPredictions) -> MetricValue:
    """Mean score gap among actual negatives."""
    return _balance_gap(gp, "balance_negative", 0)


class MetricInfo(Value):
    metric_id: str
    compute: object  # callable(gp, constraint) -> MetricValue
    dataset_level: bool = False


def _plain(fn):
    return lambda gp, constraint: fn(gp)


METRIC_REGISTRY = {e.metric_id: e for e in (
    MetricInfo("statistical_parity_difference",
               _plain(statistical_parity_difference), dataset_level=True),
    MetricInfo("equal_acceptance_rate", _plain(equal_acceptance_rate_gap)),
    MetricInfo("predictive_parity", _plain(predictive_parity_gap)),
    MetricInfo("equal_opportunity", _plain(equal_opportunity_gap)),
    MetricInfo("predictive_equality", _plain(predictive_equality_gap)),
    MetricInfo("equalized_odds", _plain(equalized_odds_gap)),
    MetricInfo("accuracy_equality", _plain(accuracy_equality_gap)),
    MetricInfo("conditional_use_accuracy", _plain(conditional_use_accuracy_gap)),
    MetricInfo("treatment_equality", _plain(treatment_equality)),
    MetricInfo("conditional_statistical_parity",
               _plain(conditional_statistical_parity)),
    MetricInfo("calibration", lambda gp, c: calibration_gap(gp, c.bins)),
    MetricInfo("balance_positive", _plain(balance_positive_gap)),
    MetricInfo("balance_negative", _plain(balance_negative_gap)),
)}
