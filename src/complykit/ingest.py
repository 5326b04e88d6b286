"""Dataset, prediction, and manifest loading plus composition audits.

All loaders validate eagerly and fail with row-numbered messages; rows
excluded during group binding are counted, never silently dropped.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .fairness import (
    PRIVILEGED,
    UNPRIVILEGED,
    GroupedPredictions,
    tally_cell,
)
from .intervals import Interval


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    columns: tuple
    rows: tuple  # tuples of string cells, len == len(columns)
    provenance: str = ""

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise IngestError(f"column {name!r} not found; dataset has: "
                              + ", ".join(self.columns)) from None

    def column(self, name: str):
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]


def read_dataset(source, provenance: str = "") -> Dataset:
    """Read an RFC-4180-style CSV with a header row.

    `source` is a path or a text stream. Ragged rows are an error naming
    the offending row number (header is row 1).
    """
    if not hasattr(source, "read"):
        provenance = provenance or str(source)
    with _csv_table(source) as (columns, rows):
        return Dataset(columns, tuple([tuple(row) for _, row in rows]), provenance)


@contextmanager
def _csv_table(source):
    """Open a CSV path or text stream as `(columns, rows)`.

    `rows` yields `(row number, cells)` for each non-blank row, the header
    being row 1. A missing or repeated header name, a ragged row, a
    malformed row and invalid UTF-8 raise IngestError, for the first bad
    row in file order.
    """
    if hasattr(source, "read"):
        yield _csv_stream(source)
        return
    try:
        with open(source, newline="", encoding="utf-8") as fh:
            yield _csv_stream(fh)
    except OSError as exc:
        raise IngestError(f"cannot read {source}: {exc.strerror}") from exc


def _csv_stream(fh):
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise IngestError(f"row 1: {exc}") from exc
    if not header or all(not c.strip() for c in header):
        raise IngestError("missing header row")
    columns = tuple(c.strip() for c in header)
    repeated = [name for name, n in Counter(columns).items() if n > 1]
    if repeated:
        raise IngestError(f"row 1: column {repeated[0]!r} appears more than once")
    return columns, _csv_rows(reader, len(columns))


def _csv_rows(reader, width: int):
    rownum = 1
    try:
        for rownum, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row:
                    continue
                raise IngestError(
                    f"row {rownum}: expected {width} cells, got {len(row)}")
            yield rownum, row
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise IngestError(f"row {rownum + 1}: {exc}") from exc


def write_dataset(ds: Dataset, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(ds.columns)
    writer.writerows(ds.rows)


@dataclass(frozen=True)
class BoundGroups:
    """Per-group favorable/total tallies for a dataset-level parity check."""

    favorable_unprivileged: int
    total_unprivileged: int
    favorable_privileged: int
    total_privileged: int
    excluded: int  # rows whose protected value matched neither group


def bind_groups(ds: Dataset, policy) -> BoundGroups:
    """Tally favorable outcomes per protected group.

    `policy` must declare protected and favorable specs; outcome values
    are matched by string equality. Rows with an unlisted protected value
    are excluded and counted.
    """
    if policy.protected is None:
        raise IngestError("policy declares no protected_attribute")
    if policy.favorable is None:
        raise IngestError("policy declares no favorable_outcome")
    group_idx = ds.column_index(policy.protected.attribute)
    outcome_idx = ds.column_index(policy.favorable.attribute)

    counts = {PRIVILEGED: [0, 0], UNPRIVILEGED: [0, 0]}  # [favorable, total]
    excluded = 0
    membership = {policy.protected.privileged_value: PRIVILEGED,
                  policy.protected.unprivileged_value: UNPRIVILEGED}
    for row in ds.rows:
        group = membership.get(row[group_idx].strip())
        if group is None:
            excluded += 1
            continue
        counts[group][1] += 1
        if row[outcome_idx].strip() == policy.favorable.value:
            counts[group][0] += 1
    if counts[PRIVILEGED][1] == 0 and counts[UNPRIVILEGED][1] == 0:
        raise IngestError("both protected groups are empty after binding")
    return BoundGroups(
        favorable_unprivileged=counts[UNPRIVILEGED][0],
        total_unprivileged=counts[UNPRIVILEGED][1],
        favorable_privileged=counts[PRIVILEGED][0],
        total_privileged=counts[PRIVILEGED][1],
        excluded=excluded,
    )


PREDICTION_COLUMNS = ("group", "predicted", "actual")


def read_predictions(source, privileged_label: str = PRIVILEGED,
                     unprivileged_label: str = UNPRIVILEGED) -> GroupedPredictions:
    """Read a prediction CSV with columns group,predicted,actual[,score,legitimate].

    Group values must equal the given labels (a policy's privileged and
    unprivileged values, or the literal defaults). Rows stream into a
    tally of cells; memory grows with the distinct cells plus one float
    per scored row.
    """
    mapping = {privileged_label: PRIVILEGED, unprivileged_label: UNPRIVILEGED}
    cells = {}
    # Each distinct raw text is validated once: the group/predicted/actual
    # cells into `heads`, and with the legitimate cell into `by_text`.
    heads = {}
    by_text = {}

    def validated_head(rownum, text):
        group = mapping.get(text[0].strip())
        if group is None:
            raise IngestError(
                f"row {rownum}: group {text[0]!r} is neither "
                f"{privileged_label!r} nor {unprivileged_label!r}")
        try:
            predicted = _binary(text[1])
            actual = _binary(text[2])
        except ValueError as exc:
            raise IngestError(f"row {rownum}: {exc}") from exc
        head = heads[text] = (group, predicted, actual)
        return head

    def new_cell(rownum, text):
        head = heads.get(text[:3]) or validated_head(rownum, text[:3])
        legitimate = text[3] if len(text) == 4 and text[3].strip() != "" else None
        cell = by_text[text] = tally_cell(cells, head + (legitimate,))
        return cell

    with _csv_table(source) as (columns, rows):
        for col in PREDICTION_COLUMNS:
            if col not in columns:
                raise IngestError(f"predictions are missing column {col!r}")
        key_columns = PREDICTION_COLUMNS + (
            ("legitimate",) if "legitimate" in columns else ())
        key_of = itemgetter(*(columns.index(c) for c in key_columns))
        s = columns.index("score") if "score" in columns else None
        for rownum, row in rows:
            text = key_of(row)
            cell = by_text.get(text) or new_cell(rownum, text)
            if s is None:
                cell[0] += 1
                continue
            try:
                score = float(row[s])
            except ValueError:
                if row[s].strip() != "":
                    raise IngestError(
                        f"row {rownum}: score {row[s]!r} is not a number") from None
                cell[0] += 1
                continue
            if not 0.0 <= score <= 1.0:
                raise IngestError(
                    f"row {rownum}: score {score} outside [0, 1]")
            cell[1].append(score)
    return GroupedPredictions.from_cells(cells)


def _binary(cell: str) -> int:
    v = cell.strip()
    if v not in ("0", "1"):
        raise ValueError(f"label {cell!r} must be 0 or 1")
    return int(v)


@dataclass(frozen=True)
class RunManifest:
    """What a run intends to use, checked against the policy's context."""

    dataset_source: str = ""
    model_id: Optional[str] = None
    declared_use: Optional[str] = None
    synthetic: bool = False


MANIFEST_KEYS = ("dataset_source", "model_id", "declared_use", "synthetic")


def read_manifest(path) -> RunManifest:
    """Parse a flat key=value manifest file. `#` starts a comment line."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise IngestError(f"manifest line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in MANIFEST_KEYS:
            raise IngestError(f"manifest line {lineno}: unknown key {key!r}")
        if key in values:
            raise IngestError(f"manifest line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    synthetic = values.get("synthetic", "false").lower()
    if synthetic not in ("true", "false"):
        raise IngestError("manifest: synthetic must be true or false")
    return RunManifest(
        dataset_source=values.get("dataset_source", ""),
        model_id=values.get("model_id") or None,
        declared_use=values.get("declared_use") or None,
        synthetic=synthetic == "true",
    )


@dataclass(frozen=True)
class CompositionAudit:
    """Observed group shares versus a policy reference share."""

    shares: dict  # group value -> proportion of labels
    unprivileged_value: str
    reference_share: float
    deviation: float  # share(unprivileged) - reference_share
    range: Interval
    within_range: bool


def composition_audit(labels, unprivileged_value: str, reference_share: float,
                      rng: Interval) -> CompositionAudit:
    """Audit a label list's composition against a reference share.

    The deviation is the unprivileged value's observed share minus the
    reference share; the verdict is interval membership.
    """
    labels = list(labels)
    if not labels:
        raise IngestError("composition audit needs at least one label")
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    n = len(labels)
    shares = {value: counts[value] / n for value in sorted(counts)}
    share = shares.get(unprivileged_value, 0.0)
    deviation = share - reference_share
    return CompositionAudit(
        shares=shares,
        unprivileged_value=unprivileged_value,
        reference_share=reference_share,
        deviation=deviation,
        range=rng,
        within_range=rng.contains(deviation),
    )
