"""Closed intervals and order statistics used for legitimacy checks."""

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


def percentile(data, p: float) -> float:
    """Percentile by linear interpolation of order statistics.

    Sorts ascending and interpolates at rank (n - 1) * p. This is the
    single normative method used throughout the library so that results
    are auditable and reproducible.
    """
    if not data:
        raise ValueError("percentile of empty data")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    xs = sorted(data)
    r = (len(xs) - 1) * p
    lo = math.floor(r)
    hi = math.ceil(r)
    if lo == hi:
        return float(xs[lo])
    frac = r - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])
