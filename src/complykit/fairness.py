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
from array import array
from collections import Counter
from itertools import chain
from typing import Optional

from ._value import Value, _set

PRIVILEGED = "privileged"
UNPRIVILEGED = "unprivileged"
GROUPS = (UNPRIVILEGED, PRIVILEGED)


class Record(Value):
    """One scored/labelled observation for one group.

    `GroupedPredictions.records` builds one per row, so a Record has slots
    and a constructor of its own.
    """

    __slots__ = ("group", "predicted", "actual", "score", "legitimate")
    group: str  # "privileged" or "unprivileged"
    predicted: int  # 0 or 1
    actual: int  # 0 or 1
    score: Optional[float]  # in [0, 1] when present
    legitimate: Optional[str]  # stratification factor

    def __init__(self, group: str, predicted: int, actual: int,
                 score: Optional[float] = None, legitimate: Optional[str] = None):
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        if predicted not in (0, 1) or actual not in (0, 1):
            raise ValueError("labels must be binary")
        if score is not None and not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        _set(self, "group", group)
        _set(self, "predicted", predicted)
        _set(self, "actual", actual)
        _set(self, "score", score)
        _set(self, "legitimate", legitimate)


class GroupedPredictions:
    """Predictions reduced to counts from a lossless tally.

    The tally maps each distinct raw key text to an `array('d')` of its
    scores, and each text with unscored rows to their count. `key(text)`
    gives a text's validated cell `(group, predicted, actual, legitimate)`;
    texts that differ only in padding share a cell. `read_predictions`
    builds the tally; it is reduced once, at construction, into the
    attributes below, and every metric reads only the reduced counts:

    - `confusion`: group -> ConfusionCounts;
    - `strata`: group -> (rows, predicted positives), each a flat
      `{legitimate: count}` dict; the values are ints, so the garbage
      collector tracks no per-stratum object;
    - `scores`: (group, actual) -> list of score arrays;
    - `unscored`: rows without a score.

    `cells` rebuilds the cells from the tally, so the rows can be rebuilt
    exactly (up to order).
    """

    __slots__ = ("_scored", "_unscored", "_key",
                 "confusion", "strata", "scores", "unscored")

    def __init__(self, scored: dict, unscored: dict, key):
        """Reduce a tally, which is not copied.

        `scored` maps every raw key text to an `array('d')` of its scores
        (empty when it has none), `unscored` maps a text to its rows
        without a score, and `key(text)` returns the text's validated cell.
        """
        quadrants = {g: [[0, 0], [0, 0]] for g in GROUPS}  # [predicted][actual]
        strata = {g: ({}, {}) for g in GROUPS}
        scores = {(g, a): [] for g in GROUPS for a in (0, 1)}
        for text, text_scores in scored.items():
            g, p, a, legitimate = key(text)
            n = unscored.get(text, 0) + len(text_scores)
            quadrants[g][p][a] += n
            rows, positives = strata[g]
            rows[legitimate] = rows.get(legitimate, 0) + n
            positives[legitimate] = positives.get(legitimate, 0) + p * n
            if text_scores:
                scores[g, a].append(text_scores)
        self._scored = scored
        self._unscored = unscored
        self._key = key
        self.confusion = {g: ConfusionCounts(tp=q[1][1], fp=q[1][0], tn=q[0][0], fn=q[0][1])
                          for g, q in quadrants.items()}
        self.strata = strata
        self.scores = scores
        self.unscored = sum(unscored.values())

    @property
    def cells(self) -> dict:
        """Validated cell -> `[unscored rows, array('d') of scores]`, built
        on each access; texts sharing a cell merge in first-seen order."""
        cells = {}
        for text, scores in self._scored.items():
            cell = cells.setdefault(self._key(text), [0, array("d")])
            cell[0] += self._unscored.get(text, 0)
            cell[1].extend(scores)
        return cells

    @property
    def records(self) -> tuple:
        """The rows as Records, rebuilt cell by cell."""
        return tuple(chain.from_iterable(
            [Record(g, p, a, None, l)] * unscored + [Record(g, p, a, s, l) for s in scores]
            for (g, p, a, l), (unscored, scores) in self.cells.items()))


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
    mid = "accuracy_equality"
    cs = gp.confusion
    acc = {}
    for g in GROUPS:
        c = cs[g]
        if c.total == 0:
            return MetricValue.undefined(
                mid, f"empty group: {g}", {h: {"counts": cs[h]} for h in GROUPS})
        acc[g] = (c.tp + c.tn) / c.total
    trace = {g: {"counts": cs[g], "accuracy": acc[g]} for g in GROUPS}
    return MetricValue(mid, acc[UNPRIVILEGED] - acc[PRIVILEGED], trace=trace)


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


def _gaps_by_key(counts: dict, sort_key=None) -> tuple:
    """Per-key positive-rate gaps from `{group: (rows, positives)}` counts.

    Returns `({key: gap}, [skipped keys])` in sorted key order; a key is
    skipped when either group has no rows under it.
    """
    rows_u, positives_u = counts[UNPRIVILEGED]
    rows_p, positives_p = counts[PRIVILEGED]
    gaps = {}
    skipped = []
    for key in sorted(rows_u.keys() | rows_p.keys(), key=sort_key):
        n_u = rows_u.get(key, 0)
        n_p = rows_p.get(key, 0)
        if n_u and n_p:
            gaps[key] = positives_u[key] / n_u - positives_p[key] / n_p
        else:
            skipped.append(key)
    return gaps, skipped


def conditional_statistical_parity(gp: GroupedPredictions) -> MetricValue:
    """Worst positive-decision rate gap across legitimate-factor strata.

    Strata where either group is absent are skipped and listed in the trace.
    """
    mid = "conditional_statistical_parity"
    gaps, skipped = _gaps_by_key(
        gp.strata, lambda s: ("", 0) if s is None else (str(s), 1))
    trace = {"per_stratum_gap": gaps, "skipped_strata": skipped}
    if not gaps:
        return MetricValue.undefined(mid, "no comparable stratum", trace)
    return MetricValue(mid, max(abs(v) for v in gaps.values()), trace=trace)


def _require_scores(gp: GroupedPredictions, metric_id: str):
    missing = gp.unscored
    if missing:
        return MetricValue.undefined(
            metric_id, f"{missing} record(s) lack scores required by this metric")
    return None


def _bin_counts(score_arrays, bins: int) -> Counter:
    """Rows per equal-width bin; a score of exactly 1 joins the top bin."""
    counts = Counter(map(int, map(float(bins).__mul__, chain.from_iterable(score_arrays))))
    if bins in counts:
        counts[bins - 1] += counts.pop(bins)
    return counts


def calibration_gap(gp: GroupedPredictions, bins: int = 10) -> MetricValue:
    """Worst per-bin positive-rate gap over equal-width score bins.

    Bins with only one group present are skipped and logged in the trace.
    """
    mid = "calibration"
    if bins < 2:
        raise ValueError("bins must be >= 2")
    problem = _require_scores(gp, mid)
    if problem:
        return problem
    counts = {g: ({}, {}) for g in GROUPS}  # group -> (rows, positives) per bin
    for (g, actual), arrays in gp.scores.items():
        rows, positives = counts[g]
        for b, n in _bin_counts(arrays, bins).items():
            rows[b] = rows.get(b, 0) + n
            positives[b] = positives.get(b, 0) + actual * n
    per_bin, skipped = _gaps_by_key(counts)
    trace = {"bins": bins, "per_bin_gap": per_bin, "skipped_bins": skipped}
    if not per_bin:
        return MetricValue.undefined(mid, "no comparable bin", trace)
    return MetricValue(mid, max(abs(v) for v in per_bin.values()), trace=trace)


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


def _mk_registry():
    def plain(fn):
        return lambda gp, constraint: fn(gp)

    entries = [
        MetricInfo("statistical_parity_difference",
                   plain(statistical_parity_difference), dataset_level=True),
        MetricInfo("equal_acceptance_rate", plain(equal_acceptance_rate_gap)),
        MetricInfo("predictive_parity", plain(predictive_parity_gap)),
        MetricInfo("equal_opportunity", plain(equal_opportunity_gap)),
        MetricInfo("predictive_equality", plain(predictive_equality_gap)),
        MetricInfo("equalized_odds", plain(equalized_odds_gap)),
        MetricInfo("accuracy_equality", plain(accuracy_equality_gap)),
        MetricInfo("conditional_use_accuracy", plain(conditional_use_accuracy_gap)),
        MetricInfo("treatment_equality", plain(treatment_equality)),
        MetricInfo("conditional_statistical_parity",
                   plain(conditional_statistical_parity)),
        MetricInfo("calibration",
                   lambda gp, c: calibration_gap(gp, c.bins if c else 10)),
        MetricInfo("balance_positive", plain(balance_positive_gap)),
        MetricInfo("balance_negative", plain(balance_negative_gap)),
    ]
    return {e.metric_id: e for e in entries}


METRIC_REGISTRY = _mk_registry()

# Accepted legacy spelling from existing operational-context dictionaries.
METRIC_ALIASES = {"stat_mean_difference": "statistical_parity_difference"}


def resolve_metric_id(name: str) -> Optional[str]:
    name = METRIC_ALIASES.get(name, name)
    return name if name in METRIC_REGISTRY else None
