import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complykit import policy
from complykit.fairness import (
    GROUPS,
    METRIC_IDS,
    METRIC_REGISTRY,
    PRIVILEGED,
    UNPRIVILEGED,
    ConfusionCounts,
    _gaps_by_key,
    accuracy_equality_gap,
    balance_negative_gap,
    balance_positive_gap,
    calibration_gap,
    conditional_statistical_parity,
    conditional_use_accuracy_gap,
    equal_acceptance_rate_gap,
    equal_opportunity_gap,
    equalized_odds_gap,
    predictive_equality_gap,
    predictive_parity_gap,
    resolve_metric_id,
    statistical_parity_difference,
    statistical_parity_from_counts,
    treatment_equality,
)
from complykit.intervals import Interval
from complykit.policy import DEFAULT_BINS, MetricConstraint, parse_policy
from conftest import gp_from_counts, records_from_counts
from reference import (
    Record,
    confusion,
    exact,
    exact_value,
    predictions_of,
    records,
    swapped,
)


class TestConfusion:
    def test_empty(self):
        assert predictions_of([]).confusion == {
            UNPRIVILEGED: ConfusionCounts(0, 0, 0, 0),
            PRIVILEGED: ConfusionCounts(0, 0, 0, 0)}

    def test_one_per_quadrant(self):
        recs = [Record(PRIVILEGED, 1, 1), Record(PRIVILEGED, 1, 0),
                Record(PRIVILEGED, 0, 1), Record(PRIVILEGED, 0, 0)]
        assert predictions_of(recs).confusion[PRIVILEGED] == \
            ConfusionCounts(tp=1, fp=1, tn=1, fn=1)

    def test_exhaustive_tally(self):
        # oracle: explicit enumeration of every record quadrant
        recs = records_from_counts(PRIVILEGED, tp=8, fp=2, fn=2, tn=8)
        c = predictions_of(recs).confusion[PRIVILEGED]
        assert (c.tp, c.fp, c.fn, c.tn) == (8, 2, 2, 8)


# Every per-group rate a rate gap traces: (metric, component or None,
# rate, the rate's (numerator, denominator) of a group's counts).
RATE_GAPS = [
    (predictive_parity_gap, None, "ppv", lambda c: (c.tp, c.tp + c.fp)),
    (equal_opportunity_gap, None, "fnr", lambda c: (c.fn, c.tp + c.fn)),
    (predictive_equality_gap, None, "fpr", lambda c: (c.fp, c.fp + c.tn)),
    (equalized_odds_gap, "tpr_gap", "tpr", lambda c: (c.tp, c.tp + c.fn)),
    (equalized_odds_gap, "predictive_equality", "fpr",
     lambda c: (c.fp, c.fp + c.tn)),
    (conditional_use_accuracy_gap, "predictive_parity", "ppv",
     lambda c: (c.tp, c.tp + c.fp)),
    (conditional_use_accuracy_gap, "npv_gap", "npv",
     lambda c: (c.tn, c.tn + c.fn)),
]


def traced_rate(gp, metric, component, rate, group):
    mv = metric(gp)
    if component:
        mv = mv.trace["components"][component]
    return mv.trace[group][rate]


class TestRates:
    def test_balanced_counts(self):
        counts = {"tp": 8, "fp": 2, "tn": 8, "fn": 2}
        gp = gp_from_counts(counts, counts)
        for metric, component, rate, _ in RATE_GAPS:
            expected = 0.2 if rate in ("fnr", "fpr") else 0.8
            for g in GROUPS:
                assert traced_rate(gp, metric, component, rate, g) == expected

    def test_zero_denominators(self):
        gp = gp_from_counts({"tn": 5}, {"tp": 1, "fp": 1, "tn": 1, "fn": 1})
        assert traced_rate(gp, predictive_parity_gap, None, "ppv",
                           UNPRIVILEGED) is None
        mv = predictive_parity_gap(gp)
        assert not mv.is_defined
        assert mv.reason == "unprivileged group has no predicted positives"
        assert traced_rate(gp, equalized_odds_gap, "tpr_gap", "tpr",
                           UNPRIVILEGED) is None
        assert traced_rate(gp, predictive_equality_gap, None, "fpr",
                           UNPRIVILEGED) == 0

    def test_ppv_rational(self):
        gp = gp_from_counts({"tp": 2, "fp": 1, "fn": 1, "tn": 6},
                            {"tp": 1, "fp": 1})
        assert traced_rate(gp, predictive_parity_gap, None, "ppv",
                           UNPRIVILEGED) == float(Fraction(2, 3))


class TestStatisticalParity:
    def test_adult_counts(self):
        mv = statistical_parity_from_counts(1748, 15351, 4338, 31648)
        assert mv.value == pytest.approx(-0.023201469667745764, abs=1e-12)
        # independent rational oracle
        exact = Fraction(1748, 15351) - Fraction(4338, 31648)
        assert mv.value == pytest.approx(float(exact), abs=1e-15)
        assert mv.trace[UNPRIVILEGED]["favorable"] == 1748
        assert mv.trace[PRIVILEGED]["total"] == 31648

    def test_equal_proportions(self):
        assert statistical_parity_from_counts(5, 10, 50, 100).value == 0

    def test_rational_quarter(self):
        mv = statistical_parity_from_counts(1, 2, 1, 4)
        assert mv.value == pytest.approx(0.25, abs=1e-15)

    def test_empty_group_undefined(self):
        mv = statistical_parity_from_counts(0, 0, 1, 4)
        assert not mv.is_defined
        assert "empty group" in mv.reason


class TestPredictiveParity:
    def test_paper_rounded_illustration(self):
        # counts yielding PPV exactly 2/3 (unprivileged) vs 4/5 (privileged)
        gp = gp_from_counts({"tp": 2, "fp": 1}, {"tp": 4, "fp": 1})
        mv = predictive_parity_gap(gp)
        assert mv.value == pytest.approx(float(Fraction(2, 3) - Fraction(4, 5)),
                                         abs=1e-15)
        assert mv.value == pytest.approx(-2 / 15, abs=1e-12)

    def test_identity_zero(self):
        gp = gp_from_counts({"tp": 3, "fp": 1, "tn": 2, "fn": 1},
                            {"tp": 3, "fp": 1, "tn": 2, "fn": 1})
        assert predictive_parity_gap(gp).value == 0

    def test_rational_oracle(self):
        gp = gp_from_counts({"tp": 1, "fp": 1}, {"tp": 3, "fp": 1})
        assert predictive_parity_gap(gp).value == pytest.approx(-0.25, abs=1e-15)


class TestErrorRateBalances:
    def test_equal_opportunity_rational(self):
        gp = gp_from_counts({"fn": 1, "tp": 3}, {"fn": 1, "tp": 1})
        assert equal_opportunity_gap(gp).value == pytest.approx(-0.25, abs=1e-15)

    def test_equal_opportunity_zero_and_antisymmetric(self):
        gp = gp_from_counts({"fn": 2, "tp": 2}, {"fn": 2, "tp": 2})
        assert equal_opportunity_gap(gp).value == 0
        gp2 = gp_from_counts({"fn": 1, "tp": 3}, {"fn": 1, "tp": 1})
        assert equal_opportunity_gap(swapped(gp2)).value == \
            -equal_opportunity_gap(gp2).value

    def test_predictive_equality_rational(self):
        gp = gp_from_counts({"fp": 1, "tn": 3}, {"fp": 1, "tn": 1})
        assert predictive_equality_gap(gp).value == pytest.approx(-0.25,
                                                                  abs=1e-15)


class TestEqualizedOdds:
    def test_zero_when_balanced(self):
        gp = gp_from_counts({"tp": 2, "fn": 2, "fp": 1, "tn": 3},
                            {"tp": 4, "fn": 4, "fp": 2, "tn": 6})
        assert equalized_odds_gap(gp).value == 0

    def test_equals_fpr_gap_when_tpr_balanced(self):
        gp = gp_from_counts({"tp": 1, "fn": 1, "fp": 3, "tn": 1},
                            {"tp": 2, "fn": 2, "fp": 1, "tn": 3})
        fpr_gap = predictive_equality_gap(gp).value
        assert equalized_odds_gap(gp).value == abs(fpr_gap)

    def test_componentwise_oracle(self):
        # TPR gap 0.1, FPR gap 0.3 -> 0.3
        gp = gp_from_counts({"tp": 6, "fn": 4, "fp": 5, "tn": 5},
                            {"tp": 5, "fn": 5, "fp": 2, "tn": 8})
        tpr_u = Fraction(6, 10)
        tpr_p = Fraction(5, 10)
        fpr_u = Fraction(5, 10)
        fpr_p = Fraction(2, 10)
        expect = max(abs(tpr_u - tpr_p), abs(fpr_u - fpr_p))
        assert equalized_odds_gap(gp).value == pytest.approx(float(expect),
                                                             abs=1e-12)


class TestAccuracyEquality:
    def test_zero_on_identity(self):
        gp = gp_from_counts({"tp": 3, "tn": 1, "fp": 1}, {"tp": 3, "tn": 1, "fp": 1})
        assert accuracy_equality_gap(gp).value == 0

    def test_rational_oracle(self):
        gp = gp_from_counts({"tp": 3, "tn": 1, "fp": 1},
                            {"tp": 2, "tn": 2, "fp": 2, "fn": 2})
        expect = Fraction(4, 5) - Fraction(4, 8)
        assert accuracy_equality_gap(gp).value == pytest.approx(float(expect),
                                                                abs=1e-15)

    def test_empty_group_undefined(self):
        # the reason and trace of every rate gap
        gp = gp_from_counts({}, {"tp": 1, "fn": 1})
        mv = accuracy_equality_gap(gp)
        assert (mv.value, mv.reason) == (None, "unprivileged group has no rows")
        assert mv.trace == {
            UNPRIVILEGED: {"counts": ConfusionCounts(), "accuracy": None},
            PRIVILEGED: {"counts": ConfusionCounts(tp=1, fn=1),
                         "accuracy": 0.5}}


class TestConditionalUseAccuracy:
    def test_zero_on_identity(self):
        gp = gp_from_counts({"tp": 2, "fp": 1, "tn": 3, "fn": 1},
                            {"tp": 2, "fp": 1, "tn": 3, "fn": 1})
        assert conditional_use_accuracy_gap(gp).value == 0

    def test_componentwise_oracle(self):
        gp = gp_from_counts({"tp": 1, "fp": 1, "tn": 1, "fn": 1},
                            {"tp": 3, "fp": 1, "tn": 3, "fn": 1})
        ppv_gap = abs(Fraction(1, 2) - Fraction(3, 4))
        npv_gap = abs(Fraction(1, 2) - Fraction(3, 4))
        assert conditional_use_accuracy_gap(gp).value == pytest.approx(
            float(max(ppv_gap, npv_gap)), abs=1e-12)


class TestTreatmentEquality:
    def test_equal_ratios(self):
        gp = gp_from_counts({"fn": 2, "fp": 1}, {"fn": 4, "fp": 2})
        assert treatment_equality(gp).value == 0

    def test_direct_oracle(self):
        gp = gp_from_counts({"fn": 2, "fp": 1}, {"fn": 1, "fp": 2})
        # (2*2 - 1*1) / (2*2 + 1*1)
        assert treatment_equality(gp).value == pytest.approx(0.6, abs=1e-15)

    def test_both_ratios_infinite(self):
        gp = gp_from_counts({"fn": 3, "fp": 0}, {"fn": 5, "fp": 0})
        assert treatment_equality(gp).value == 0


class TestConditionalStatisticalParity:
    @staticmethod
    def _rec(group, predicted, legitimate):
        return Record(group, predicted, 0, legitimate=legitimate)

    def test_single_stratum_reduces_to_abs_parity(self):
        recs = ([self._rec(UNPRIVILEGED, 1, "a")] * 1
                + [self._rec(UNPRIVILEGED, 0, "a")] * 1
                + [self._rec(PRIVILEGED, 1, "a")] * 1
                + [self._rec(PRIVILEGED, 0, "a")] * 3)
        gp = predictions_of(recs)
        spd = equal_acceptance_rate_gap(gp).value
        assert conditional_statistical_parity(gp).value == abs(spd)

    def test_per_stratum_parity_zero(self):
        recs = []
        for stratum in ("a", "b"):
            for group in (UNPRIVILEGED, PRIVILEGED):
                recs += [self._rec(group, 1, stratum),
                         self._rec(group, 0, stratum)]
        assert conditional_statistical_parity(predictions_of(recs)).value == 0

    def test_max_over_strata(self):
        # stratum a gap 0.1, stratum b gap 0.4
        recs = (
            [self._rec(UNPRIVILEGED, 1, "a")] * 6
            + [self._rec(UNPRIVILEGED, 0, "a")] * 4
            + [self._rec(PRIVILEGED, 1, "a")] * 5
            + [self._rec(PRIVILEGED, 0, "a")] * 5
            + [self._rec(UNPRIVILEGED, 1, "b")] * 5
            + [self._rec(UNPRIVILEGED, 0, "b")] * 5
            + [self._rec(PRIVILEGED, 1, "b")] * 1
            + [self._rec(PRIVILEGED, 0, "b")] * 9
        )
        mv = conditional_statistical_parity(predictions_of(recs))
        assert mv.value == pytest.approx(0.4, abs=1e-12)

    def test_skipped_strata_logged(self):
        recs = [self._rec(UNPRIVILEGED, 1, "only-u")]
        mv = conditional_statistical_parity(predictions_of(recs))
        assert not mv.is_defined
        assert mv.reason == "no comparable stratum"
        assert "only-u" in mv.trace["skipped_strata"]

    def test_blank_and_empty_strata_sort_apart(self):
        # a None stratum sorts before "a" instead of raising TypeError
        gp = predictions_of([Record(PRIVILEGED, 1, 1, None, "a"),
                             Record(UNPRIVILEGED, 1, 1, None, None)])
        mv = conditional_statistical_parity(gp)
        assert not mv.is_defined
        assert mv.trace["skipped_strata"] == [None, "a"]

    def test_missing_and_blank_texts_are_one_stratum(self):
        # the reduction's one blank rule, for a test tally as for a CSV
        gp = predictions_of([Record(PRIVILEGED, 1, 1, None, text)
                             for text in (None, "", " ", "a", " a")])
        assert gp.strata[PRIVILEGED][0] == {None: 3, "a": 1, " a": 1}
        assert list(gp.strata[PRIVILEGED][0]) == [None, "a", " a"]


class TestCalibration:
    def test_shared_mapping_zero(self):
        recs = []
        for group in (UNPRIVILEGED, PRIVILEGED):
            recs += [Record(group, 1, 1, score=0.9),
                     Record(group, 1, 0, score=0.9),
                     Record(group, 0, 0, score=0.1)]
        assert calibration_gap(predictions_of(recs)).value == 0

    def test_single_bin_oracle(self):
        recs = ([Record(UNPRIVILEGED, 1, 1, score=0.55)]
                + [Record(UNPRIVILEGED, 1, 0, score=0.55)]
                + [Record(PRIVILEGED, 1, 1, score=0.55)]
                + [Record(PRIVILEGED, 1, 0, score=0.55)] * 3)
        mv = calibration_gap(predictions_of(recs))
        assert mv.value == pytest.approx(0.25, abs=1e-12)

    def test_no_comparable_bin(self):
        recs = [Record(UNPRIVILEGED, 1, 1, score=0.1),
                Record(PRIVILEGED, 1, 1, score=0.9)]
        mv = calibration_gap(predictions_of(recs))
        assert not mv.is_defined
        assert mv.reason == "no comparable bin"

    def test_missing_scores_undefined(self):
        gp = gp_from_counts({"tp": 1}, {"tp": 1})
        assert not calibration_gap(gp).is_defined

    def test_bins_validated(self):
        gp = gp_from_counts({"tp": 1}, {"tp": 1})
        with pytest.raises(ValueError):
            calibration_gap(gp, bins=1)


class TestBalance:
    def test_identical_scores_zero(self):
        recs = []
        for group in (UNPRIVILEGED, PRIVILEGED):
            recs += [Record(group, 1, 1, score=0.7),
                     Record(group, 0, 0, score=0.2)]
        gp = predictions_of(recs)
        assert balance_positive_gap(gp).value == 0
        assert balance_negative_gap(gp).value == 0

    def test_mean_oracle(self):
        recs = [Record(UNPRIVILEGED, 1, 1, score=0.9),
                Record(UNPRIVILEGED, 1, 1, score=0.7),
                Record(PRIVILEGED, 1, 1, score=0.6),
                Record(UNPRIVILEGED, 0, 0, score=0.5),
                Record(PRIVILEGED, 0, 0, score=0.5)]
        mv = balance_positive_gap(predictions_of(recs))
        assert mv.value == pytest.approx(0.2, abs=1e-12)

    def test_no_positives_undefined(self):
        recs = [Record(UNPRIVILEGED, 0, 0, score=0.5),
                Record(PRIVILEGED, 1, 1, score=0.5)]
        mv = balance_positive_gap(predictions_of(recs))
        assert not mv.is_defined
        assert "no actual positives" in mv.reason


# Per-key gap cases, hand-computed: (key, keys, the trace's leading
# items, {key: (positives, rows) unprivileged, (positives, rows)
# privileged}, with None for a group with no rows, the exact gaps in key
# order, the skipped keys, the exact value or None, and the reason).
KEY_GAP_CASES = [
    # ROADMAP item 2's repro: 4 of 10 against 3 of 10
    ("stratum", "strata", {}, {"a": ((4, 10), (3, 10))},
     {"a": Fraction(1, 10)}, [], Fraction(1, 10), None),
    # a None key sorts first, and "c" is skipped
    ("stratum", "strata", {},
     {"c": ((2, 2), None), "b": ((2, 7), (1, 5)), None: ((1, 3), (5, 6))},
     {None: Fraction(-1, 2), "b": Fraction(3, 35)}, ["c"], Fraction(1, 2),
     None),
    ("stratum", "strata", {}, {"y": (None, (0, 1)), "x": ((1, 2), None)},
     {}, ["x", "y"], None, "no comparable stratum"),
    ("bin", "bins", {"bins": 3},
     {2: ((3, 3), None), 0: ((1, 4), (2, 5)), 1: (None, (1, 2))},
     {0: Fraction(-3, 20)}, [1, 2], Fraction(3, 20), None),
    ("bin", "bins", {"bins": 2}, {}, {}, [], None, "no comparable bin"),
]


def _key_counts(by_key, number):
    """`{group: (rows, positives)}` of a KEY_GAP_CASES table, as `number`s."""
    counts = {g: ({}, {}) for g in GROUPS}
    for key, pairs in by_key.items():
        for g, pair in zip((UNPRIVILEGED, PRIVILEGED), pairs):
            if pair is not None:
                rows, positives = counts[g]
                positives[key], rows[key] = map(number, pair)
    return counts


# Rows of either group, some sets with every row scored (so calibration
# can be defined) and some with a group left empty.
exact_rows = st.booleans().flatmap(lambda scored: st.lists(st.builds(
    Record, group=st.sampled_from(GROUPS), predicted=st.integers(0, 1),
    actual=st.integers(0, 1),
    score=st.floats(0, 1) if scored else st.none() | st.floats(0, 1),
    legitimate=st.sampled_from([None, "a", "b"])), max_size=16))


def _constraint(metric_id, bins=DEFAULT_BINS):
    # Only calibration reads `bins`; any other metric refuses one set.
    return MetricConstraint(metric_id, Interval(-1, 1), bins
                            if metric_id == "calibration" else DEFAULT_BINS)


class TestExactCounts:
    """Every metric is a pure function of its counts: `Fraction` counts
    give exact values, and int counts the float arithmetic of the same
    rates."""

    @given(exact_rows, st.integers(2, 12))
    def test_every_metric(self, rows, bins):
        """Every registry metric but balance, on `Fraction` counts, is the
        row-scan `Fraction`; on the int counts it is a float near it."""
        gp = predictions_of(rows)
        twin = exact(gp, bins)
        for mid, info in METRIC_REGISTRY.items():
            if mid.startswith("balance_"):
                continue
            expected = exact_value(rows, mid, bins)
            exact_mv = info.compute(twin, _constraint(mid, bins))
            float_mv = info.compute(gp, _constraint(mid, bins))
            assert exact_mv.value == expected
            assert exact_mv.reason == float_mv.reason
            if expected is None:
                assert float_mv.value is None
            else:
                assert type(exact_mv.value) is Fraction
                assert type(float_mv.value) is float
                assert float_mv.value == pytest.approx(float(expected),
                                                       abs=1e-12)

    @pytest.mark.parametrize("mid", ["statistical_parity_difference",
                                     "equal_acceptance_rate",
                                     "conditional_statistical_parity"])
    def test_tenths(self, mid):
        # ROADMAP item 2's repro: 4 of 10 against 3 of 10
        gp = gp_from_counts({"tp": 4, "tn": 6}, {"tp": 3, "tn": 7})
        info = METRIC_REGISTRY[mid]
        value = info.compute(exact(gp), _constraint(mid)).value
        assert type(value) is Fraction and value == Fraction(1, 10)
        assert info.compute(gp, _constraint(mid)).value == 0.10000000000000003

    @pytest.mark.parametrize(
        "key, keys, lead, by_key, gaps, skipped, value, reason", KEY_GAP_CASES)
    def test_per_key_gaps(self, key, keys, lead, by_key, gaps, skipped,
                          value, reason):
        exact = _gaps_by_key("m", _key_counts(by_key, Fraction), key, keys,
                             **lead)
        assert list(exact.trace) == \
            [*lead, f"per_{key}_gap", f"skipped_{keys}"]
        got = exact.trace[f"per_{key}_gap"]
        assert list(got.items()) == list(gaps.items())
        assert all(type(gap) is Fraction for gap in got.values())
        assert exact.trace[f"skipped_{keys}"] == skipped
        assert (exact.value, exact.reason) == (value, reason)
        assert value is None or type(exact.value) is Fraction

        floats = _gaps_by_key("m", _key_counts(by_key, int), key, keys, **lead)
        rates = {}
        for k in gaps:
            (pu, nu), (pp, np) = by_key[k]
            rates[k] = pu / nu - pp / np
        got = floats.trace[f"per_{key}_gap"]
        assert list(got.items()) == list(rates.items())
        assert all(type(gap) is float for gap in got.values())
        assert floats.trace[f"skipped_{keys}"] == skipped
        assert floats.reason == reason
        assert floats.value == (None if value is None
                                else max(map(abs, rates.values())))

    @pytest.mark.parametrize("counts, exact, floats", [
        ((4, 10, 3, 10), Fraction(1, 10), 0.10000000000000003),
        ((1748, 15351, 4338, 31648),
         Fraction(1748, 15351) - Fraction(4338, 31648),
         1748 / 15351 - 4338 / 31648),
        ((1, 2, 1, 4), Fraction(1, 4), 0.25),
    ])
    def test_statistical_parity(self, counts, exact, floats):
        mv = statistical_parity_from_counts(*map(Fraction, counts))
        assert type(mv.value) is Fraction and mv.value == exact
        assert mv.trace[UNPRIVILEGED]["proportion"] == Fraction(*counts[:2])
        assert mv.trace[PRIVILEGED]["proportion"] == Fraction(*counts[2:])
        mv = statistical_parity_from_counts(*counts)
        assert type(mv.value) is float and mv.value == floats
        assert statistical_parity_from_counts(
            *map(Fraction, (1, 0, 1, 4))).reason == "empty group: unprivileged"


class TestRegistry:
    def test_alias_resolves(self):
        assert resolve_metric_id("stat_mean_difference") == \
            "statistical_parity_difference"

    def test_unknown_is_none(self):
        assert resolve_metric_id("made_up_metric") is None

    def test_policy_accepts_the_registry_ids_in_order(self):
        # the parser reads the ids from `_shared`, without this module
        assert METRIC_IDS == tuple(METRIC_REGISTRY)
        assert policy.resolve_metric_id is resolve_metric_id
        text = ('policy "p" {\n' + "".join(
            f"  metric {mid} {{ range = [0, 1] }}\n" for mid in METRIC_IDS)
            + "}\n")
        assert [c.metric_id for c in parse_policy(text).metrics] == \
            list(METRIC_REGISTRY)


# ---------------------------------------------------------------------------
# Property-based invariants

def _record_strategy(group):
    return st.builds(
        Record,
        group=st.just(group),
        predicted=st.integers(0, 1),
        actual=st.integers(0, 1),
        score=st.one_of(st.none(), st.floats(0, 1, allow_nan=False)),
        legitimate=st.sampled_from([None, "a", "b"]),
    )


rows_strategy = st.builds(
    lambda u, p: u + p,
    st.lists(_record_strategy(UNPRIVILEGED), min_size=1, max_size=12),
    st.lists(_record_strategy(PRIVILEGED), min_size=1, max_size=12),
)
gp_strategy = rows_strategy.map(predictions_of)

SIGNED_METRICS = (
    statistical_parity_difference,
    equal_acceptance_rate_gap,
    predictive_parity_gap,
    equal_opportunity_gap,
    predictive_equality_gap,
    accuracy_equality_gap,
    treatment_equality,
    balance_positive_gap,
    balance_negative_gap,
)

ALL_METRICS = SIGNED_METRICS + (
    equalized_odds_gap,
    conditional_use_accuracy_gap,
    conditional_statistical_parity,
    calibration_gap,
)


class TestMetricProperties:
    @given(gp_strategy)
    def test_antisymmetry(self, gp):
        flipped = swapped(gp)
        for metric in SIGNED_METRICS:
            a = metric(gp)
            b = metric(flipped)
            assert a.is_defined == b.is_defined
            if a.is_defined:
                assert b.value == -a.value

    @given(st.lists(_record_strategy(UNPRIVILEGED), min_size=1, max_size=12))
    def test_zero_on_identity(self, urecs):
        mirrored = [Record(PRIVILEGED, r.predicted, r.actual, r.score,
                           r.legitimate) for r in urecs]
        gp = predictions_of(urecs + mirrored)
        for metric in ALL_METRICS:
            mv = metric(gp)
            if mv.is_defined:
                assert mv.value == 0

    @given(gp_strategy, st.floats(0, 1))
    def test_equalized_odds_decomposition(self, gp, tolerance):
        eo = equalized_odds_gap(gp)
        if not eo.is_defined:
            return
        tpr_gap = eo.trace["components"]["tpr_gap"].value
        fpr_gap = eo.trace["components"]["predictive_equality"].value
        within = abs(tpr_gap) <= tolerance and abs(fpr_gap) <= tolerance
        assert (eo.value <= tolerance) == within

    @given(gp_strategy)
    def test_bounds(self, gp):
        for metric in ALL_METRICS:
            mv = metric(gp)
            if mv.is_defined:
                assert -1.0 <= mv.value <= 1.0

    @given(rows_strategy, st.integers(0, 2 ** 32 - 1))
    def test_permutation_invariance(self, rows, seed):
        gp = predictions_of(rows)
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        gp2 = predictions_of(shuffled)
        for metric in ALL_METRICS:
            a, b = metric(gp), metric(gp2)
            assert a.is_defined == b.is_defined
            if a.is_defined:
                assert a.value == b.value

    @given(gp_strategy)
    def test_each_rate_is_its_count_ratio(self, gp):
        """Each traced rate is `num / den` of the row-scanned counts, bit
        for bit, and None exactly when `den` is 0."""
        for g in GROUPS:
            counts = confusion(r for r in records(gp) if r.group == g)
            for metric, component, rate, ratio_of in RATE_GAPS:
                num, den = ratio_of(counts)
                traced = traced_rate(gp, metric, component, rate, g)
                if den:
                    assert traced == num / den
                else:
                    assert traced is None
