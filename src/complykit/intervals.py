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
        """Interval grown by `tolerance` on each side; ValueError if
        `tolerance` is refused or an endpoint overflows."""
        check_tolerance(tolerance)
        try:
            return Interval(self.lo - tolerance, self.hi + tolerance)
        except ValueError:
            raise ValueError("range widened by tolerance is not finite") from None

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def check_tolerance(tolerance: float) -> float:
    """`tolerance`, if it is >= 0 (not NaN); else ValueError."""
    if not tolerance >= 0:
        raise ValueError("tolerance must be nonnegative")
    return tolerance
