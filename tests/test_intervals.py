import math

import pytest

from complykit.intervals import Interval


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

