"""Games against nature: payoff matrices and choice criteria.

Implements the three classic criteria for a single decision-maker facing
an unknown state of nature:

* Wald (maximin): maximize the worst-state payoff.
* Hurwicz: maximize lambda * row max + (1 - lambda) * row min.
* Savage (minimax regret): minimize the worst-case regret, where the
  regret of a cell is the column maximum minus the cell payoff.

Ties are always broken toward the lowest action index; policy authors are
expected to order actions by preference.
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
        distinct, blank rows are skipped, and an unreadable file, invalid
        UTF-8 or a malformed or ragged row raise a row-numbered IngestError.
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


def _argbest(scores, best):
    """Index of the first score attaining best(scores)."""
    target = best(scores)
    return scores.index(target), target


def wald(m: PayoffMatrix) -> StrategyChoice:
    scores = tuple(min(row) for row in m.values)
    idx, value = _argbest(scores, max)
    return StrategyChoice("wald", idx, m.actions[idx], value, scores)


def hurwicz(m: PayoffMatrix, lam: float) -> StrategyChoice:
    if not 0.0 <= lam <= 1.0:
        raise DecisionError("lambda must lie in [0, 1]")
    scores = tuple(lam * max(row) + (1.0 - lam) * min(row) for row in m.values)
    idx, value = _argbest(scores, max)
    return StrategyChoice("hurwicz", idx, m.actions[idx], value, scores,
                          hurwicz_lambda=lam)


def regret_matrix(m: PayoffMatrix) -> tuple:
    col_max = [max(column) for column in zip(*m.values)]
    return tuple(tuple(c - v for c, v in zip(col_max, row))
                 for row in m.values)


def savage(m: PayoffMatrix) -> StrategyChoice:
    regrets = regret_matrix(m)
    scores = tuple(max(row) for row in regrets)
    idx, value = _argbest(scores, min)
    return StrategyChoice("savage", idx, m.actions[idx], value, scores,
                          regret_matrix=regrets)


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
