"""Games against nature: payoff matrices and choice criteria.

Implements the three classic criteria for a single decision-maker facing
an unknown state of nature:

* Wald (maximin): maximize the worst-state payoff.
* Hurwicz: maximize lambda * row max + (1 - lambda) * row min.
* Savage (minimax regret): minimize the worst-case regret, where the
  regret of a cell is the column maximum minus the cell payoff.

Ties are always broken toward the lowest action index; policy authors are
expected to order actions by preference. A tie is judged on the decimals
the payoffs were written in, not on float rounding: actions whose float
scores lie within a rounding bound of the best are scored again exactly.
The chosen value is the chosen action's float score, as listed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ._value import Value

CRITERIA = ("wald", "hurwicz", "savage")


class DecisionError(ValueError):
    pass


class PayoffMatrix(Value):
    actions: tuple
    states: tuple
    values: tuple  # tuple of row tuples, |actions| x |states|

    def __init__(self, actions: Sequence[str], states: Sequence[str],
                 values: Sequence[Sequence[float]]):
        actions = tuple(actions)
        states = tuple(states)
        rows = tuple(tuple(map(float, row)) for row in values)
        if not actions or not states:
            raise DecisionError("payoff matrix must be nonempty")
        if len(rows) != len(actions):
            raise DecisionError(
                f"expected {len(actions)} payoff rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != len(states):
                raise DecisionError(
                    f"payoff row {i} has {len(row)} entries, expected {len(states)}")
            if not all(map(math.isfinite, row)):
                raise DecisionError("payoffs must be finite")
        for state, column in zip(states, zip(*rows)):
            # keeps every Savage regret (column max - payoff) finite
            if not math.isfinite(max(column) - min(column)):
                raise DecisionError(
                    f"payoffs under state {state!r} span more than a float can hold")
        super().__init__(actions, states, rows)

    @classmethod
    def from_csv(cls, path) -> "PayoffMatrix":
        """Read a matrix file: header row = state labels, first column = actions.

        The file is read as `ingest` reads every CSV: header names must be
        distinct, blank rows are skipped, an unreadable file raises IngestError
        and a ragged or malformed row (invalid UTF-8 too) a row-numbered one.
        """
        from .ingest import _checked_blocks, _csv_table
        actions = []
        values = []
        with _csv_table(path) as (columns, blocks):
            for first, rows in _checked_blocks(blocks, len(columns)):
                try:
                    for row in rows:
                        actions.append(row[0].strip())
                        values.append(tuple(map(float, row[1:])))
                        if not all(map(math.isfinite, values[-1])):
                            raise ValueError("payoffs must be finite")
                except ValueError as exc:
                    raise DecisionError(
                        f"row {first + rows.index(row)}: {exc}") from exc
        if len(columns) < 2 or not actions:
            raise DecisionError("matrix file needs a header row and one action row")
        return cls(actions, columns[1:], values)


class StrategyChoice(Value):
    criterion: str
    action_index: int
    action_label: str
    value: float
    scores: tuple
    regret_matrix: Optional[tuple] = None  # savage only
    hurwicz_lambda: Optional[float] = None  # hurwicz only


def _argbest(scores, best, exact=None, magnitude=0.0) -> int:
    """Index of the first action attaining best(scores).

    With `exact(indices, num)`, which scores those actions on `num(x)`,
    the decimal that each float `x` was written as (its shortest
    round-trip text, as `Fraction(repr(x))` reads it), ties are judged
    exactly. The actions whose float scores lie within 16 ulps of
    `magnitude`, a bound on every payoff a score reads, of the best are
    scored again, and the lowest index attaining the exact best wins. A
    float score is off its exact value by at most about 4 such ulps, so
    no tie or exact winner falls outside. `num` gives a `Decimal`, added
    and multiplied with no rounding, faster than a `Fraction`.
    """
    target = best(scores)
    if exact is None:
        return scores.index(target)
    slack = 16 * math.ulp(magnitude)
    near = [i for i, v in enumerate(scores) if abs(v - target) <= slack]
    if len(near) == 1:
        return near[0]
    from decimal import MAX_PREC, Context, Decimal, localcontext
    with localcontext(Context(prec=MAX_PREC)):
        exact_scores = exact(near, lambda x: Decimal(repr(x)))
    return near[exact_scores.index(best(exact_scores))]


def wald(m: PayoffMatrix) -> StrategyChoice:
    # A row min is one of the payoffs, so Wald is exact in float.
    scores = tuple(min(row) for row in m.values)
    idx = _argbest(scores, max)
    return StrategyChoice("wald", idx, m.actions[idx], scores[idx], scores)


def hurwicz(m: PayoffMatrix, lam: float) -> StrategyChoice:
    if not 0.0 <= lam <= 1.0:
        raise DecisionError("lambda must lie in [0, 1]")
    highs = list(map(max, m.values))
    lows = list(map(min, m.values))
    scores = tuple(lam * hi + (1.0 - lam) * lo for hi, lo in zip(highs, lows))

    def exact(indices, num):
        weight = num(lam)
        return [weight * num(highs[i]) + (1 - weight) * num(lows[i])
                for i in indices]

    idx = _argbest(scores, max, exact, max(max(highs), -min(lows)))
    return StrategyChoice("hurwicz", idx, m.actions[idx], scores[idx],
                          scores, hurwicz_lambda=lam)


def regret_matrix(m: PayoffMatrix) -> tuple:
    return _regrets(m)[1]


def _regrets(m: PayoffMatrix) -> tuple:
    """The column maxima and the regret matrix."""
    col_max = [max(column) for column in zip(*m.values)]
    return col_max, tuple(tuple(c - v for c, v in zip(col_max, row))
                          for row in m.values)


def savage(m: PayoffMatrix) -> StrategyChoice:
    col_max, regrets = _regrets(m)
    scores = tuple(max(row) for row in regrets)

    def exact(indices, num):
        top = list(map(num, col_max))
        return [max(c - num(v) for c, v in zip(top, m.values[i]))
                for i in indices]

    # A payoff is its column's max less its regret, at most max(scores).
    magnitude = max(map(abs, col_max)) + max(scores)
    idx = _argbest(scores, min, exact, magnitude)
    return StrategyChoice("savage", idx, m.actions[idx], scores[idx],
                          scores, regret_matrix=regrets)


def choose(m: PayoffMatrix, criterion: str, lam: float = 0.5) -> StrategyChoice:
    if criterion == "wald":
        return wald(m)
    if criterion == "hurwicz":
        return hurwicz(m, lam)
    if criterion == "savage":
        return savage(m)
    raise DecisionError(f"unknown criterion {criterion!r}")


def decide(spec) -> StrategyChoice:
    """Run the criterion named by a policy decision block.

    `spec` carries `payoffs` (a PayoffMatrix), `criterion`, and
    `hurwicz_lambda`.
    """
    return choose(spec.payoffs, spec.criterion, spec.hurwicz_lambda)
