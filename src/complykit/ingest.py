"""Dataset, prediction, and manifest loading plus composition audits.

All loaders validate eagerly and fail with row-numbered messages; rows
excluded during group binding are counted, never silently dropped.
"""

from __future__ import annotations

import csv
import io
import marshal
import os
import signal
import threading
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
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
        return _column_index(self.columns, name)

    def column(self, name: str):
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def counts(self, *names) -> Counter:
        """Row counts per tuple of the raw cells in the named columns."""
        return _count_rows(self.rows, [self.column_index(n) for n in names])


def _column_index(columns: tuple, name: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise IngestError(f"column {name!r} not found; dataset has: "
                          + ", ".join(columns)) from None


def _count_rows(rows, idx) -> Counter:
    """Row counts per tuple of the cells at positions `idx`."""
    if len(idx) > 1:
        return Counter(map(itemgetter(*idx), rows))
    if idx:
        # itemgetter of one index returns the bare cell, not a 1-tuple
        cells = Counter(map(itemgetter(idx[0]), rows))
        return Counter({(cell,): n for cell, n in cells.items()})
    n = sum(1 for _ in rows)
    return Counter({(): n} if n else {})


def read_dataset(source, provenance: str = "") -> Dataset:
    """Read an RFC-4180-style CSV with a header row.

    `source` is a path or a text stream. Ragged rows are an error naming
    the offending row number (header is row 1).
    """
    if not hasattr(source, "read"):
        provenance = provenance or str(source)
    with _csv_table(source) as (columns, rows):
        return Dataset(columns, tuple([tuple(row) for _, row in rows]), provenance)


def count_dataset(source, names=()) -> Counter:
    """Stream a dataset CSV once into row counts per tuple of named cells.

    Equals `read_dataset(source).counts(*names)`, with the same checks of
    every row, but holds only the distinct tuples of raw (unstripped)
    cells. A missing column is reported before any row is read.

    A path is counted in byte-range shards on every usable CPU when
    `_shard_cuts` finds that safe; the result is the same Counter, key
    order included.
    """
    if not hasattr(source, "read"):
        counts = _count_sharded(source, names)
        if counts is not None:
            return counts
    with _csv_table(source) as (columns, rows):
        return _row_counter(columns, names)(rows)


def _row_counter(columns: tuple, names):
    """`count_dataset`'s row loop: counts of `(row number, cells)` pairs."""
    idx = [_column_index(columns, name) for name in names]
    return lambda rows: _count_rows(map(itemgetter(1), rows), idx)


def _count_sharded(path, names):
    """`count_dataset` of a path in byte-range shards, or None."""
    return _run_sharded(path, partial(_row_counter, names=names),
                        _dump_counts, _merge_counts)


def _dump_counts(counts, pipe) -> None:
    marshal.dump(dict(counts), pipe)


def _merge_counts(counts, pipe) -> None:
    counts.update(marshal.load(pipe))


# A file is split into at most one shard per usable CPU, each of at least
# this many bytes, so smaller files are never forked for.
SHARD_BYTES = 4 << 20
_SCAN_BYTES = 1 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_cuts(path):
    """Byte offsets splitting `path` into shards between records, or None.

    The offsets run from 0 to the file size, each later one just past a
    `\n` after the header. They are safe only when the file holds no `"`
    byte: then no record spans a line, so every `\n` ends a record (CRLF
    too). None when that does not hold, when the file is smaller than
    two shards of `SHARD_BYTES`, or when the process cannot fork or runs
    more than one thread.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            shards = min(_usable_cpus(), size // SHARD_BYTES)
            if shards < 2:
                return None
            for chunk in iter(partial(fh.read, _SCAN_BYTES), b""):
                if b'"' in chunk:
                    return None
            fh.seek(0)
            header_end = len(fh.readline())
            cuts = [0]
            for i in range(1, shards):
                fh.seek(max(size * i // shards, header_end) - 1)
                fh.readline()
                cuts.append(fh.tell())
            return cuts + [size]
    except OSError:
        return None


class _ByteRange(io.RawIOBase):
    """Raw reader of the bytes [start, end) of a file."""

    def __init__(self, path, start: int, end: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._file.readinto(memoryview(b)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_range(path, start: int, end: int):
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)),
                            encoding="utf-8", newline="")


def _count_range(path, start: int, end: int, width: int, reduce):
    """`reduce` of the header-less rows in bytes [start, end) of a CSV."""
    with _open_range(path, start, end) as fh:
        return reduce(_csv_rows(csv.reader(fh), width))


def _fork_shard(path, start: int, end: int, width: int, reduce, dump):
    """Fork a child that reduces bytes [start, end) into a pipe.

    Returns `(pid, read end)`. The child writes its result with `dump`
    and exits 0, or exits 1 on any error; it never returns.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            result = _count_range(path, start, end, width, reduce)
            with open(w, "wb") as pipe:
                dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_sharded(path, prepare, dump, merge):
    """Reduce a CSV path in byte-range shards, one forked child per shard
    but the first.

    `prepare(columns)` checks the header and returns `reduce(rows)`, which
    folds `(row number, cells)` pairs into a new result. The parent
    reduces shard 0, header included; each child reduces its range and
    writes the result with `dump(result, pipe)`, and the parent folds it
    into its own with `merge(result, pipe)`, in shard order, so a merge
    that appends keeps serial order. None when `_shard_cuts` declines, or
    when any shard fails (a bad row, a child that dies, a short read or a
    trailing byte): the serial pass then reports the first bad row in
    file order.
    """
    cuts = _shard_cuts(path)
    if cuts is None:
        return None
    children = []
    try:
        with _open_range(path, 0, cuts[1]) as fh:
            columns, rows = _csv_stream(fh)
            reduce = prepare(columns)
            for start, end in zip(cuts[1:], cuts[2:]):
                if start < end:
                    children.append(_fork_shard(
                        path, start, end, len(columns), reduce, dump))
            result = reduce(rows)
        while children:
            pid, pipe = children[0]
            with pipe:
                merge(result, pipe)
                trailing = pipe.read(1)
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status != 0 or trailing:
                return None
        return result
    except (OSError, EOFError, ValueError):  # IngestError is a ValueError
        return None
    finally:
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


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
    """Tally favorable outcomes per protected group of a loaded dataset."""
    return bind_counts(ds.counts(*_binding_columns(policy)), policy)


def _binding_columns(policy) -> tuple:
    if policy.protected is None:
        raise IngestError("policy declares no protected_attribute")
    if policy.favorable is None:
        raise IngestError("policy declares no favorable_outcome")
    return policy.protected.attribute, policy.favorable.attribute


def bind_counts(counts, policy) -> BoundGroups:
    """Tally favorable outcomes per protected group.

    `counts` maps (protected cell, favorable cell) to a row count, as
    `count_dataset` returns it for the policy's protected and favorable
    columns. Cells are stripped, then matched by string equality; rows
    with an unlisted protected value are excluded and counted.
    """
    _binding_columns(policy)  # raises unless both specs are declared
    tallies = {PRIVILEGED: [0, 0], UNPRIVILEGED: [0, 0]}  # [favorable, total]
    excluded = 0
    membership = {policy.protected.privileged_value: PRIVILEGED,
                  policy.protected.unprivileged_value: UNPRIVILEGED}
    for (group_cell, outcome_cell), n in counts.items():
        group = membership.get(group_cell.strip())
        if group is None:
            excluded += n
            continue
        tallies[group][1] += n
        if outcome_cell.strip() == policy.favorable.value:
            tallies[group][0] += n
    if tallies[PRIVILEGED][1] == 0 and tallies[UNPRIVILEGED][1] == 0:
        raise IngestError("both protected groups are empty after binding")
    return BoundGroups(
        favorable_unprivileged=tallies[UNPRIVILEGED][0],
        total_unprivileged=tallies[UNPRIVILEGED][1],
        favorable_privileged=tallies[PRIVILEGED][0],
        total_privileged=tallies[PRIVILEGED][1],
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

    A path is tallied in byte-range shards on every usable CPU when
    `_shard_cuts` finds that safe; the cells are the same, key order and
    score order included.
    """
    prepare = partial(_prediction_tally, privileged_label=privileged_label,
                      unprivileged_label=unprivileged_label)
    cells = None
    if not hasattr(source, "read"):
        cells = _run_sharded(source, prepare, _dump_cells, _merge_cells)
    if cells is None:
        with _csv_table(source) as (columns, rows):
            cells = prepare(columns)(rows)
    return GroupedPredictions.from_cells(cells)


def _prediction_tally(columns: tuple, privileged_label: str,
                      unprivileged_label: str):
    """`read_predictions`' row loop for a header of `columns`.

    Returns `tally(rows)`, which folds `(row number, cells)` pairs into a
    new dict of `tally_cell` cells, validating every row.
    """
    for col in PREDICTION_COLUMNS:
        if col not in columns:
            raise IngestError(f"predictions are missing column {col!r}")
    key_columns = PREDICTION_COLUMNS + (
        ("legitimate",) if "legitimate" in columns else ())
    key_of = itemgetter(*(columns.index(c) for c in key_columns))
    s = columns.index("score") if "score" in columns else None
    mapping = {privileged_label: PRIVILEGED, unprivileged_label: UNPRIVILEGED}

    def tally(rows) -> dict:
        cells = {}
        # Each distinct raw text is validated once: the group/predicted/
        # actual cells into `heads`, and with the legitimate cell into
        # `by_text`.
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
        return cells

    return tally


# Scores per `array.fromfile` call when merging a child's cells: the
# parent reads them straight into its own arrays in chunks this small, so
# it never holds a child's score array twice.
_MERGE_ITEMS = 4096


def _dump_cells(cells, pipe) -> None:
    """Write cells as one marshalled `(key, unscored, len(scores))` list,
    then each score array in the same order."""
    marshal.dump([(key, n, len(scores)) for key, (n, scores) in cells.items()],
                 pipe)
    for _, scores in cells.values():
        scores.tofile(pipe)


def _merge_cells(cells, pipe) -> None:
    """Fold cells written by `_dump_cells` into `cells`, in their order."""
    for key, unscored, n in marshal.load(pipe):
        cell = tally_cell(cells, key)
        cell[0] += unscored
        while n:
            k = min(n, _MERGE_ITEMS)
            cell[1].fromfile(pipe, k)
            n -= k


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


def read_text(path) -> str:
    """The whole UTF-8 text of `path`; IngestError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not valid UTF-8: {exc}") from exc


def read_manifest(path) -> RunManifest:
    """Parse a flat key=value manifest file. `#` starts a comment line."""
    values = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
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
    """Audit a label list's composition against a reference share."""
    return composition_from_counts(Counter(labels), unprivileged_value,
                                   reference_share, rng)


def composition_from_counts(label_counts, unprivileged_value: str,
                            reference_share: float,
                            rng: Interval) -> CompositionAudit:
    """Audit label counts (label -> positive count) against a reference share.

    The deviation is the unprivileged value's observed share minus the
    reference share; the verdict is interval membership.
    """
    n = sum(label_counts.values())
    if not n:
        raise IngestError("composition audit needs at least one label")
    shares = {value: label_counts[value] / n for value in sorted(label_counts)}
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
