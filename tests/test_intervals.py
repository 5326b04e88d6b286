import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complykit.intervals import Interval, percentile


class TestInterval:
    def test_closed_endpoints(self):
        assert Interval(-1, 1).contains(1)
        assert Interval(-1, 1).contains(-1)
        assert Interval(0, 0).contains(0)

    def test_table_range_rejects_observed_gap(self):
        # the range from the operational-context example vs the observed
        # statistical parity difference on the Adult counts
        assert not Interval(-0.01, 0.01).contains(-0.023201469667745764)

    def test_inverted_raises(self):
        with pytest.raises(ValueError):
            Interval(1, -1)

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            Interval(0, math.inf)

    def test_widened(self):
        assert Interval(-0.01, 0.01).widened(0.04) == Interval(-0.05, 0.05)
        with pytest.raises(ValueError):
            Interval(0, 1).widened(-0.1)


class TestPercentile:
    def test_midpoint(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2.5

    def test_interpolation_rule(self):
        # rank (4-1)*0.25 = 0.75 -> 1 + 0.75*(2-1)
        assert percentile([1, 2, 3, 4], 0.25) == 1.75

    def test_singleton(self):
        for p in (0.0, 0.3, 1.0):
            assert percentile([5], p) == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_p(self, data, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert percentile(data, lo) <= percentile(data, hi) + 1e-9

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
           st.floats(0, 1),
           st.integers(0, 5), st.integers(-100, 100))
    def test_affine_equivariance(self, data, p, a, b):
        scaled = [a * x + b for x in data]
        expect = a * percentile(data, p) + b
        assert percentile(scaled, p) == pytest.approx(expect, abs=1e-9)
