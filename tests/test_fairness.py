import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complykit.fairness import (
    PRIVILEGED,
    UNPRIVILEGED,
    ConfusionCounts,
    Record,
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
    rates,
    resolve_metric_id,
    statistical_parity_difference,
    statistical_parity_from_counts,
    treatment_equality,
)
from conftest import gp_from_counts, records_from_counts
from reference import predictions_of, swapped


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


class TestRates:
    def test_balanced_counts(self):
        r = rates(ConfusionCounts(tp=8, fp=2, tn=8, fn=2))
        assert r.tpr == 0.8
        assert r.fpr == pytest.approx(0.2)
        assert r.ppv == 0.8
        assert r.npv == 0.8

    def test_zero_denominators(self):
        r = rates(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
        assert r.tpr is None
        assert r.fpr == 0
        assert r.ppv is None

    def test_ppv_rational(self):
        r = rates(ConfusionCounts(tp=2, fp=1, fn=1, tn=6))
        assert r.ppv == pytest.approx(float(Fraction(2, 3)), abs=1e-15)

    @given(st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50), st.integers(0, 50))
    def test_identities(self, tp, fp, tn, fn):
        r = rates(ConfusionCounts(tp, fp, tn, fn))
        if r.tpr is not None:
            assert abs(r.tpr + r.fnr - 1) <= 1e-12
        if r.tnr is not None:
            assert abs(r.tnr + r.fpr - 1) <= 1e-12
        if r.ppv is not None:
            assert abs(r.ppv + r.fdr - 1) <= 1e-12
        if r.npv is not None:
            assert abs(r.npv + r.for_ - 1) <= 1e-12


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
        # a None stratum sorts before "" instead of raising TypeError
        gp = predictions_of([Record(PRIVILEGED, 1, 1, None, ""),
                             Record(UNPRIVILEGED, 1, 1, None, None)])
        mv = conditional_statistical_parity(gp)
        assert not mv.is_defined
        assert mv.trace["skipped_strata"] == [None, ""]


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


class TestRegistry:
    def test_alias_resolves(self):
        assert resolve_metric_id("stat_mean_difference") == \
            "statistical_parity_difference"

    def test_unknown_is_none(self):
        assert resolve_metric_id("made_up_metric") is None


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


gp_strategy = st.builds(
    lambda u, p: predictions_of(u + p),
    st.lists(_record_strategy(UNPRIVILEGED), min_size=1, max_size=12),
    st.lists(_record_strategy(PRIVILEGED), min_size=1, max_size=12),
)

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

    @given(gp_strategy, st.integers(0, 2 ** 32 - 1))
    def test_permutation_invariance(self, gp, seed):
        shuffled = list(gp.records)
        random.Random(seed).shuffle(shuffled)
        gp2 = predictions_of(shuffled)
        for metric in ALL_METRICS:
            a, b = metric(gp), metric(gp2)
            assert a.is_defined == b.is_defined
            if a.is_defined:
                assert a.value == b.value
