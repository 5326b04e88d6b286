from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complykit.decisions import (
    CRITERIA,
    DecisionError,
    PayoffMatrix,
    choose,
    hurwicz,
    regret_matrix,
    savage,
    wald,
)
from complykit.policy import DecisionSpec

PROTECTION_MATRIX = PayoffMatrix(
    ["High", "Average", "Short"],
    ["Regular disasters", "Medium danger", "Good weather"],
    [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]],
)


class TestPayoffMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(DecisionError):
            PayoffMatrix(["a", "b"], ["x"], [[1], [2, 3]])

    def test_row_count_mismatch(self):
        with pytest.raises(DecisionError):
            PayoffMatrix(["a"], ["x"], [[1], [2]])

    def test_nonfinite_rejected(self):
        with pytest.raises(DecisionError):
            PayoffMatrix(["a"], ["x"], [[float("inf")]])

    @pytest.mark.parametrize("values, message", [
        ([[1], [2, 3]], "payoff row 1 has 2 entries, expected 1"),
        ([[1], []], "payoff row 1 has 0 entries, expected 1"),
        ([[float("nan")], [2, 3]], "payoffs must be finite"),
        ([[1], [float("-inf")]], "payoffs must be finite"),
        ([[1, 2], [3]], "payoff row 1 has 1 entries, expected 2"),
        ([[1, 2], [float("inf"), 3], [4]], "payoffs must be finite"),
        ([[1, 2], [3, 4], ["inf", 1]], "payoffs must be finite"),
    ])
    def test_rows_checked_in_order(self, values, message):
        # each row's width, then its payoffs, row by row; a matrix of one
        # state so that row 1 of [[1], [2, 3]] is too wide
        states = ["x", "y"][:len(values[0])]
        with pytest.raises(DecisionError) as exc:
            PayoffMatrix(["a", "b", "c"][:len(values)], states, values)
        assert str(exc.value) == message

    def test_bad_payoff_text(self):
        with pytest.raises(ValueError) as exc:
            PayoffMatrix(["a"], ["x", "y"], [[1, "oops"]])
        assert str(exc.value) == "could not convert string to float: 'oops'"

    def test_empty_rejected(self):
        with pytest.raises(DecisionError):
            PayoffMatrix([], [], [])

    def test_from_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("action,s1,s2\nhigh,1,2\nlow,-1,0\n")
        m = PayoffMatrix.from_csv(path)
        assert m.actions == ("high", "low")
        assert m.states == ("s1", "s2")
        assert m.values == ((1.0, 2.0), (-1.0, 0.0))

    def test_from_csv_bad_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("action,s1\nhigh,oops\n")
        with pytest.raises(DecisionError):
            PayoffMatrix.from_csv(path)


class TestWald:
    def test_protection_matrix(self):
        choice = wald(PROTECTION_MATRIX)
        assert choice.action_index == 0
        assert choice.action_label == "High"
        assert choice.value == 1
        assert choice.scores == (1, -1, -1)

    def test_singleton(self):
        choice = wald(PayoffMatrix(["only"], ["s"], [[0]]))
        assert choice.action_index == 0
        assert choice.value == 0

    def test_row_minima_enumeration(self):
        choice = wald(PayoffMatrix(["a", "b"], ["x", "y"], [[2, -5], [1, 1]]))
        assert choice.action_index == 1
        assert choice.value == 1


class TestHurwicz:
    def test_lambda_zero_is_wald(self):
        m = PayoffMatrix(["a", "b"], ["x", "y"], [[2, -5], [1, 1]])
        h = hurwicz(m, 0.0)
        w = wald(m)
        assert (h.action_index, h.value) == (w.action_index, w.value)

    def test_lambda_one_is_row_max(self):
        choice = hurwicz(PayoffMatrix(["a", "b"], ["x", "y"],
                                      [[2, -5], [1, 1]]), 1.0)
        assert choice.action_index == 0
        assert choice.value == 2

    def test_half_lambda_hand_oracle(self):
        choice = hurwicz(PROTECTION_MATRIX, 0.5)
        assert choice.scores == (1.0, 0.0, 0.0)
        assert choice.action_index == 0
        assert choice.value == 1

    def test_lambda_out_of_range(self):
        with pytest.raises(DecisionError):
            hurwicz(PROTECTION_MATRIX, 1.5)


class TestSavage:
    def test_protection_matrix_regrets(self):
        choice = savage(PROTECTION_MATRIX)
        assert choice.regret_matrix == ((0, 0, 0), (2, 0, 0), (2, 2, 0))
        assert choice.action_index == 0
        assert choice.value == 0

    def test_constant_matrix(self):
        choice = savage(PayoffMatrix(["a", "b"], ["x"], [[3], [3]]))
        assert choice.regret_matrix == ((0,), (0,))
        assert choice.action_index == 0

    def test_tie_breaks_to_lowest_index(self):
        choice = savage(PayoffMatrix(["a", "b"], ["x", "y"],
                                     [[0, 10], [5, 5]]))
        assert choice.regret_matrix == ((5, 0), (0, 5))
        assert choice.value == 5
        assert choice.action_index == 0


class TestDecide:
    def test_scenario2_wald(self):
        spec = DecisionSpec(
            PayoffMatrix(
                ["Strictly comply", "Reasonably comply", "Somehow comply"],
                ["High cost", "Medium cost", "Low cost"],
                [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]),
            "wald")
        from complykit.decisions import decide
        choice = decide(spec)
        assert choice.action_label == "Strictly comply"
        assert choice.value == 1

    def test_scenario2_hurwicz_half(self):
        spec = DecisionSpec(
            PayoffMatrix(
                ["Strictly comply", "Reasonably comply", "Somehow comply"],
                ["High cost", "Medium cost", "Low cost"],
                [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]),
            "hurwicz", 0.5)
        from complykit.decisions import decide
        assert decide(spec).action_label == "Strictly comply"

    def test_one_by_one(self):
        spec = DecisionSpec(PayoffMatrix(["only"], ["s"], [[7]]), "savage")
        from complykit.decisions import decide
        assert decide(spec).action_label == "only"

    def test_unknown_criterion(self):
        with pytest.raises(DecisionError):
            choose(PROTECTION_MATRIX, "laplace")


# ---------------------------------------------------------------------------
# Property-based invariants (integer payoffs keep float arithmetic exact)

matrices = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


def _matrix(values):
    rows = len(values)
    cols = len(values[0])
    return PayoffMatrix([f"a{i}" for i in range(rows)],
                        [f"s{j}" for j in range(cols)], values)


class TestCriterionProperties:
    @given(matrices)
    def test_hurwicz_zero_equals_wald(self, values):
        m = _matrix(values)
        w = wald(m)
        h = hurwicz(m, 0.0)
        assert (h.action_index, h.value) == (w.action_index, w.value)

    @given(matrices, st.integers(-30, 30))
    def test_constant_shift_invariance(self, values, c):
        m = _matrix(values)
        shifted = _matrix([[v + c for v in row] for row in values])
        # lambda = 0.5 keeps Hurwicz arithmetic exact on integer payoffs
        for crit, lam in (("wald", 0.5), ("hurwicz", 0.5), ("savage", 0.5)):
            a = choose(m, crit, lam)
            b = choose(shifted, crit, lam)
            assert a.action_index == b.action_index
            if crit != "savage":
                assert b.value == a.value + c

    @given(matrices, st.integers(1, 10))
    def test_positive_scaling_invariance(self, values, a):
        m = _matrix(values)
        scaled = _matrix([[v * a for v in row] for row in values])
        for crit, lam in (("wald", 0.5), ("hurwicz", 0.5), ("savage", 0.5)):
            assert choose(m, crit, lam).action_index == \
                choose(scaled, crit, lam).action_index

    @given(matrices, st.integers(-30, 30), st.integers(0, 5))
    def test_savage_column_shift_invariance(self, values, c, col):
        m = _matrix(values)
        j = col % len(values[0])
        shifted = _matrix([
            [v + c if k == j else v for k, v in enumerate(row)]
            for row in values])
        assert regret_matrix(m) == regret_matrix(shifted)
        a, b = savage(m), savage(shifted)
        assert a.action_index == b.action_index
        assert a.value == b.value

    @given(matrices)
    def test_dominance_never_penalized(self, values):
        m = _matrix(values)
        n = len(values)
        for i in range(n):
            for k in range(n):
                dominates = (all(x >= y for x, y in zip(values[i], values[k]))
                             and any(x > y for x, y in
                                     zip(values[i], values[k])))
                if not dominates:
                    continue
                for crit, better in (("wald", max), ("hurwicz", max),
                                     ("savage", min)):
                    choice = choose(m, crit, 0.4)
                    si, sk = choice.scores[i], choice.scores[k]
                    assert better(si, sk) == si or si == sk


# ---------------------------------------------------------------------------
# Exact ties: payoffs with 1-3 decimal places, drawn from so few values
# that many scores tie in decimal while their floats differ (0.3 + 0
# against 0.1 + 0.2). Every criterion chooses what exact arithmetic on the
# written decimals chooses.

decimal_matrices = st.tuples(
    st.integers(1, 3),
    st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=1, max_size=6)),
    st.integers(0, 3))


def _fraction_choice(values, criterion, lam):
    """The lowest index attaining the best score, computed on the
    `Fraction` of each payoff's written decimal."""
    rows = [[Fraction(repr(v)) for v in row] for row in values]
    if criterion == "wald":
        scores, best = [min(row) for row in rows], max
    elif criterion == "hurwicz":
        weight = Fraction(repr(lam))
        scores = [weight * max(row) + (1 - weight) * min(row)
                  for row in rows]
        best = max
    else:
        col_max = [max(column) for column in zip(*rows)]
        scores = [max(c - v for c, v in zip(col_max, row)) for row in rows]
        best = min
    return scores.index(best(scores))


class TestExactTies:
    @settings(max_examples=300, deadline=None)
    @given(decimal_matrices, st.sampled_from(CRITERIA),
           st.sampled_from([0.5, 0.5, 0.1, 0.3, 0.7, 0.0, 1.0]))
    def test_choice_equals_the_fraction_reference(self, drawn, criterion,
                                                  lam):
        places, ints, spread = drawn
        # A tie built in at lambda 0.5: a copy of the first row whose max
        # is raised and whose min is lowered by the same amount.
        first = ints[0]
        hi, lo = first.index(max(first)), first.index(min(first))
        if hi != lo:
            ints = ints + [[n + spread if j == hi else
                            n - spread if j == lo else n
                            for j, n in enumerate(first)]]
        values = [[n / 10 ** places for n in row] for row in ints]
        choice = choose(_matrix(values), criterion, lam)
        assert choice.action_index == _fraction_choice(values, criterion, lam)
        assert choice.value == choice.scores[choice.action_index]
