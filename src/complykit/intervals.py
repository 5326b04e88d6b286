"""Closed intervals used for legitimacy checks."""

from __future__ import annotations

import math

from ._value import Value


class Interval(Value):
    """Closed interval [lo, hi]. Both endpoints belong to the interval."""

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"inverted interval: [{lo}, {hi}]")
        super().__init__(lo, hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def widened(self, tolerance: float) -> "Interval":
        """Interval grown by `tolerance` on each side."""
        if tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        return Interval(self.lo - tolerance, self.hi + tolerance)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

