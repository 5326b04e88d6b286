"""Closed intervals used for legitimacy checks."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]. Both endpoints belong to the interval."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval: [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def widened(self, tolerance: float) -> "Interval":
        """Interval grown by `tolerance` on each side."""
        if tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        return Interval(self.lo - tolerance, self.hi + tolerance)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

