"""Dataset, prediction, and manifest loading plus composition audits.

All loaders validate eagerly and fail with row-numbered messages; rows
excluded during group binding are counted, never silently dropped.
"""

from __future__ import annotations

import csv
import marshal
import os
import signal
import stat
import threading
from array import array
from collections import Counter
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain, count, islice
from operator import itemgetter
from typing import Optional

from ._shared import IngestError, read_text  # re-exported
from ._value import Value
from .fairness import PRIVILEGED, UNPRIVILEGED, GroupedPredictions, _bin_rows
from .intervals import Interval


class Dataset(Value):
    columns: tuple
    rows: tuple  # tuples of string cells, len == len(columns)

    def column_index(self, name: str) -> int:
        return _column_index(self.columns, name)

    def column(self, name: str):
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def counts(self, *names) -> Counter:
        """Row counts per tuple of the raw cells in the named columns."""
        return _count_blocks([(2, self.rows)],
                             [self.column_index(n) for n in names])


def _column_index(columns: tuple, name: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise IngestError(f"column {name!r} not found; dataset has: "
                          + ", ".join(columns)) from None


def _count_blocks(blocks, idx) -> Counter:
    """Row counts per tuple of the cells at positions `idx` in the rows of
    `(row number, rows)` blocks, counted with no Python bytecode per row."""
    counts = Counter()
    for _, rows in blocks:
        if len(idx) > 1:
            counts.update(map(itemgetter(*idx), rows))
        elif idx:
            # itemgetter of one index returns the bare cell, not a 1-tuple
            counts.update(zip(map(itemgetter(idx[0]), rows)))
        elif rows:
            counts[()] += len(rows)
    return counts


def read_dataset(source) -> Dataset:
    """Read an RFC-4180-style CSV with a header row, keeping every cell.

    `source` is a path or a text stream, checked as `_csv_table` checks
    it. `evaluate` streams its dataset through `count_dataset` instead;
    this loader serves the library and the benchmark's traced pipeline.
    """
    with _csv_table(source) as (columns, blocks):
        return Dataset(columns, tuple(chain.from_iterable(
            map(tuple, rows)
            for _, rows in _checked_blocks(blocks, len(columns)))))


def count_dataset(source, names=()) -> Counter:
    """Stream a dataset CSV once into row counts per tuple of named cells.

    Equals `read_dataset(source).counts(*names)`, with the same checks of
    every row, but holds only the distinct tuples of raw (unstripped)
    cells. A missing column is reported before any row is read.

    A regular file with no `"` byte is split by `_split_rows`, not `csv`,
    in byte-range shards on every usable CPU (one for a small file; see
    `_shard_cuts`); the result is the same Counter, key order included.
    """
    return _reduce_csv(source, partial(_row_counter, names=names))[1][()]


def _row_counter(columns: tuple, split, names):
    """`count_dataset`'s reduction of blocks of whole rows, from either
    pass: a tally with no scores and no bin counts whose one cell, `()`,
    maps each tuple of named cells to its row count."""
    idx = [_column_index(columns, name) for name in names]
    width = len(columns)
    return (lambda blocks: ({}, {(): _count_blocks(
        _checked_blocks(blocks, width), idx)}, {})), None


# Scores per `array.fromfile` call when merging a child's tally: the
# parent reads them straight into its own arrays in chunks this small, so
# it never holds a child's score array twice.
_MERGE_ITEMS = 4096


def _dump_tally(tally, pipe) -> None:
    """Write a `(scored, counts, bin_counts)` tally as one frame: the
    length of its marshalled header as 8 little-endian bytes, the header,
    then each cell's score array in the header's order. The header holds
    the row counts as `(cell, legitimate text, rows)` entries, the
    `(cell, number of scores)` of each array, and the calibration bin
    counts as `(bins, group, 0 for rows or 1 for positives, bin, count)`
    entries."""
    scored, counts, bin_counts = tally
    header = marshal.dumps((
        [(cell, text, n) for cell, by_text in counts.items()
         for text, n in by_text.items()],
        [(cell, len(scores)) for cell, scores in scored.items()],
        [(bins, g, i, b, n) for bins, binned in bin_counts.items()
         for g, pair in binned.items() for i, by_bin in enumerate(pair)
         for b, n in by_bin.items()]))
    pipe.write(len(header).to_bytes(8, "little"))
    pipe.write(header)
    for scores in scored.values():
        scores.tofile(pipe)


def _merge_tally(tally, pipe) -> None:
    """Fold a tally written by `_dump_tally` into `tally`, in its order;
    row counts add, a cell's scores follow its own, and bin counts add
    per (bins, group, rows or positives, bin); a new text is keyed by the
    str `tally` already holds for it, if any. The header is read with one
    `read` (`marshal.load` on a pipe reads it item by item). A frame cut
    short raises EOFError, here or in `marshal.loads` or `array.fromfile`
    (ValueError if it is cut inside a score)."""
    scored, counts, bin_counts = tally
    size = int.from_bytes(pipe.read(8), "little")
    header = pipe.read(size)
    if len(header) != size:
        raise EOFError("shard result cut short")
    more_counts, lengths, more_bins = marshal.loads(header)
    for cell, n in lengths:
        scores = scored.setdefault(cell, array("d"))
        while n:
            k = min(n, _MERGE_ITEMS)
            scores.fromfile(pipe, k)
            n -= k
    # One str per distinct text, as in a shard's own tally.
    texts = {text: text for by_text in counts.values() for text in by_text}
    for cell, text, n in more_counts:
        by_text = counts.setdefault(cell, {})
        rows = by_text.get(text)
        if rows is None:
            by_text[texts.setdefault(text, text)] = n
        else:
            by_text[text] = rows + n
    for bins, g, i, b, n in more_bins:
        by_bin = bin_counts.setdefault(bins, {}).setdefault(g, ({}, {}))[i]
        by_bin[b] = by_bin.get(b, 0) + n


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
    too), and `_split_rows` can read each shard. None when that does not
    hold, when the header or the line at a cut ends neither within
    `_SCAN_BYTES` nor at the end of the file (as with CR-only line ends),
    or when `path` is not a regular file (the scan would consume a pipe).
    The cuts are `[0, size]`, one shard, when the file is smaller
    than two shards of `SHARD_BYTES`, one CPU is usable, or the process
    cannot fork or runs more than one thread.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # never opened here, so a named pipe is opened once
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            for chunk in iter(partial(fh.read, _SCAN_BYTES), b""):
                if b'"' in chunk:
                    return None
            shards = 1
            if hasattr(os, "fork") and threading.active_count() == 1:
                shards = max(1, min(_usable_cpus(), size // SHARD_BYTES))
            fh.seek(0)
            ends = []  # the header's end, then the line end at each cut
            for i in range(shards):
                if i:
                    fh.seek(max(size * i // shards, ends[0]) - 1)
                if (not fh.readline(_SCAN_BYTES).endswith(b"\n")
                        and fh.tell() < size):
                    return None
                ends.append(fh.tell())
            return [0] + ends[1:] + [size]
    except OSError:
        return None


# Bytes (characters of ASCII text) per read in `_split_rows`. Larger blocks
# split a 52 MB, 15-column file only slightly faster (64 Ki by about 3%)
# and hold more memory at once. Keep it well under the default field limit
# (131,072): a block no longer than the limit holds no line longer than it,
# so `_split_rows` measures its lines only past the limit, and a block at
# or over it would pay that scan on every block.
_BLOCK_CHARS = 1 << 14


def _split_rows(fh, end: int, tail=None):
    """The non-blank rows of quote-free CSV text, as `csv.reader` reads
    them, from the binary file `fh`'s position to byte `end`: one `(0,
    rows)` block per `_BLOCK_CHARS` bytes read, split with `str.split`.
    With a number `tail`, each line is instead cut once, from the right,
    into at most `tail + 1` pieces (`str.rsplit`): the raw text of its
    leading cells, then its last `tail` cells. A prediction file in the
    documented order is cut so, its prefix `group,predicted,actual` whole
    (see `_prediction_tally`); any other file is split into every cell.

    With no `"` in the text each record is one line and each field one
    comma-separated piece (RFC 4180). Only whole lines are decoded, so no
    character is cut. Blank lines are dropped, where `csv.reader` yields
    `[]`, and no row number is kept; `_run_sharded` discards the errors.
    ValueError for text the `csv` pass reads otherwise: invalid UTF-8 and
    a NUL (which it reports as bad rows), a CR before any character but
    LF, or a line longer than `csv.field_size_limit()`.

    Each block of whole lines pays for its decode, one search for CR and
    one for NUL, and its splits. Only a block holding a CR rewrites its
    CRLF pairs as LF (and is refused if a CR is left), and only a block
    longer than the field limit measures its lines.
    """
    limit = csv.field_size_limit()
    rest = b""  # the unfinished last line of the bytes read so far
    reads = iter(lambda: fh.read(min(_BLOCK_CHARS, end - fh.tell())), b"")
    # A final "\n" ends an unterminated last line.
    for block in chain(reads, (b"\n",)):
        data = rest + block
        cut = data.rfind(b"\n") + 1
        body, rest = data[:cut].decode(), data[cut:]
        if "\r" in body:
            body = body.replace("\r\n", "\n")
            if "\r" in body:
                raise ValueError("a CR that does not end a line")
        lines = body.split("\n")
        if ("\0" in body or len(rest) > limit
                or len(body) > limit and max(map(len, lines)) > limit):
            raise ValueError("text that csv could read otherwise")
        if tail is None:
            yield 0, [line.split(",") for line in lines if line]
        else:
            yield 0, [line.rsplit(",", tail) for line in lines if line]


def _count_range(path, start: int, end: int, reduce, tail):
    """`reduce` of the header-less rows in bytes [start, end) of a
    quote-free CSV, split by `_split_rows` with `tail`."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return reduce(_split_rows(fh, end, tail))


def _fork_shard(path, start: int, end: int, reduce, tail):
    """Fork a child that reduces bytes [start, end) into a pipe.

    Returns `(pid, read end)`. The child writes its tally with
    `_dump_tally` and exits 0, or exits 1 on any error; it never returns.
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
            result = _count_range(path, start, end, reduce, tail)
            with open(w, "wb") as pipe:
                _dump_tally(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_sharded(path, prepare):
    """Reduce a quote-free CSV path in byte-range shards, split by
    `_split_rows`: the parent reduces shard 0, header included, and one
    forked child reduces each later shard.

    `prepare(columns, True)` checks the header and returns `(reduce,
    tail)`: `_split_rows` cuts each line as `tail` says, and
    `reduce(blocks)` checks the blocks of rows so cut with
    `_checked_blocks` and folds them into a new `(scored, counts,
    bin_counts)` tally. Each child writes its tally with `_dump_tally`,
    and the parent folds it into its own with `_merge_tally`, in shard
    order, so keys and scores keep serial order. None when `_shard_cuts`
    declines, or when any shard fails (a bad row, text `_split_rows`
    refuses, a child that dies, a short read or a trailing byte): the
    serial `csv` pass then reports the first bad row in file order.
    """
    cuts = _shard_cuts(path)
    if cuts is None:
        return None
    children = []
    try:
        with open(path, "rb") as fh:
            header = fh.readline(_SCAN_BYTES).decode("utf-8-sig")
            columns, _ = _csv_stream([header])
            reduce, tail = prepare(columns, True)
            for start, end in zip(cuts[1:], cuts[2:]):
                if start < end:
                    children.append(
                        _fork_shard(path, start, end, reduce, tail))
            result = reduce(_split_rows(fh, cuts[1], tail))
        while children:
            pid, pipe = children[0]
            with pipe:
                _merge_tally(result, pipe)
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


def _reduce_csv(source, prepare):
    """`reduce(blocks)` over a CSV path or text stream, where
    `prepare(columns, split)` returns `(reduce, tail)` for the split pass
    (`split` true) or for whole `csv` rows (false, `tail` unused): a
    `(scored, counts, bin_counts)` tally, `{cell: array('d') of scores}`,
    `{cell: {text: rows}}` and the calibration bin counts, the one result
    shape that both CSV passes reduce to and that
    `_dump_tally`/`_merge_tally` carry between shards.

    A path goes through `_run_sharded` first, which splits a quote-free
    regular file without `csv`. A stream, a path it declines (a quoted
    file, a pipe) and a path with a failed shard get one serial
    `csv.reader` pass through `_csv_table`, which reports the first bad
    row in file order.
    """
    if not hasattr(source, "read"):
        result = _run_sharded(source, prepare)
        if result is not None:
            return result
    with _csv_table(source) as (columns, blocks):
        return prepare(columns, False)[0](blocks)


@contextmanager
def _csv_table(source):
    """Open a CSV path or text stream as `(columns, blocks)`: the serial
    pass, for streams, for paths `_run_sharded` declines and for locating
    a bad row when a sharded pass fails.

    `blocks` are the rows past the header as `_reader_blocks` reads them,
    for `_checked_blocks` to check. A missing or repeated header name, a
    ragged row and a malformed row (one holding a NUL or, in a path, a
    byte that is not UTF-8) raise IngestError, for the first bad row in
    file order. A path is decoded with `errors="surrogateescape"`, so an
    invalid byte reads as a lone surrogate for `_checked_lines` to find.
    A stream was decoded by its caller: its decode error raises
    IngestError naming no row. A leading byte-order mark (spreadsheets
    save "CSV UTF-8" with one) is dropped before the header is parsed.
    """
    if hasattr(source, "read"):
        try:
            yield _csv_stream(_without_bom(source))
        except UnicodeDecodeError as exc:
            raise IngestError(f"input is not valid UTF-8: {exc}") from exc
        return
    try:
        with open(source, newline="", encoding="utf-8-sig",
                  errors="surrogateescape") as fh:
            yield _csv_stream(fh)
    except OSError as exc:
        raise IngestError(f"cannot read {source}: {exc.strerror}") from exc


def _without_bom(stream):
    """The lines of a text stream, less a leading byte-order mark."""
    yield stream.readline().removeprefix("\ufeff")
    yield from stream


def _csv_stream(lines):
    """`(columns, blocks)` of CSV text lines, as `_csv_table` says."""
    reader = csv.reader(chain.from_iterable(_checked_lines(lines)))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise IngestError(f"row 1: {exc}") from exc
    if not header or all(not c.strip() for c in header):
        raise IngestError("missing header row")
    columns = tuple(c.strip() for c in header)
    repeated = [name for name, n in Counter(columns).items() if n > 1]
    if repeated:
        raise IngestError(f"row 1: column {repeated[0]!r} appears more than once")
    return columns, _reader_blocks(reader)


# Rows per block of the serial `csv.reader` pass, and lines per list that
# `_checked_lines` hands it.
_BLOCK_ROWS = 256


def _checked_lines(lines):
    """The text lines `lines` in lists of up to `_BLOCK_ROWS`, for
    `csv.reader` to read chained, with csv.Error in place of the first
    line that `csv` cannot take: one that holds a NUL (`csv` reads a NUL
    as text from Python 3.11 on and rejects it before, so every version
    reports it as a bad row), or a lone surrogate, which a byte that is
    not UTF-8 decodes to under `errors="surrogateescape"`. One search for
    NUL per list, and one `encode` per list that is not all ASCII."""
    lines = iter(lines)
    while chunk := list(islice(lines, _BLOCK_ROWS)):
        text = "".join(chunk)
        if "\0" in text or not (text.isascii() or _encodes(text)):
            for i, line in enumerate(chunk):
                if "\0" in line or not _encodes(line):
                    yield chunk[:i]
                    raise csv.Error("line contains NUL" if "\0" in line
                                    else "line is not valid UTF-8")
        yield chunk


def _encodes(text: str) -> bool:
    """Whether `text` encodes as UTF-8: it holds no lone surrogate."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _reader_blocks(reader):
    """`(row number, rows)` for each block of up to `_BLOCK_ROWS` rows of
    `reader`, a `csv.reader` past the header (row 1). The rows read before
    a `csv.Error` form a last block, and the error is raised as
    IngestError naming its row only when that block has been consumed, so
    a bad row among them is reported first."""
    for first in count(2, _BLOCK_ROWS):
        rows = []
        try:
            # `list.extend` keeps the rows it read before an error.
            rows.extend(islice(reader, _BLOCK_ROWS))
        except csv.Error as exc:
            yield first, rows
            raise IngestError(f"row {first + len(rows)}: {exc}") from exc
        if not rows:
            return
        yield first, rows


def _checked_blocks(blocks, width: int):
    """The `(row number, rows)` blocks of `blocks` with every row `width`
    cells: the one row check of every CSV reader. A block whose rows all
    have `width` cells passes whole, checked at C speed; any other passes
    one row at a time, dropping blank rows (`[]`) and raising IngestError
    at the first ragged row.

    A reduction that rejects a row of a block names it `first +
    rows.index(row)`: each row's checks depend on its cells alone, so no
    row before it and equal to it passed them.
    """
    for first, rows in blocks:
        if set(map(len, rows)) == {width}:
            yield first, rows
            continue
        for i, row in enumerate(rows):
            if len(row) == width:
                yield first + i, [row]
            elif row:
                raise IngestError(f"row {first + i}: expected {width} "
                                  f"cells, got {len(row)}")


class BoundGroups(Value):
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
                     unprivileged_label: str = UNPRIVILEGED, *,
                     calibration_bins=()) -> GroupedPredictions:
    """Read a prediction CSV with columns group,predicted,actual[,score,legitimate].

    Group values must equal the given labels (a policy's privileged and
    unprivileged values, or the literal defaults). Rows stream into a
    counts-only tally: each validated `(group, predicted, actual)` cell
    keeps one array of its scores, in file order, and one row count per
    raw legitimate text; each shard validates a cell's raw text once.
    Memory grows by one dict entry per distinct (cell, legitimate text),
    one str per distinct legitimate text, which every cell, shard and
    stratum shares, and one float per scored row. None of it is cyclic,
    so `evaluate` pauses the cyclic collector, which would only rescan
    the live tally. A blank legitimate text, or the `""` of a file with
    no such column, reduces to the None stratum.

    A regular file with no `"` byte is split by `_split_rows`, not `csv`,
    in byte-range shards on every usable CPU (one for a small file; see
    `_shard_cuts`); the tally is the same, key order and score order
    included. A file whose columns start `group,predicted,actual`, in
    that order, is cut once per line there; any other order gives the
    same tally, more slowly.

    For each number in `calibration_bins` (`evaluate` passes the policy's
    calibration `bins`) each shard also counts its scores into
    calibration bins, in parallel: per group, rows and positives per bin,
    the strata's shape. The shards' counts add up, in shard order, to
    `bin_counts`, which `calibration_gap` then reads instead of binning
    every score again. The constructor drops them when any row has no
    score, since calibration is Undefined then.
    """
    key = _prediction_key(privileged_label, unprivileged_label)
    return GroupedPredictions(*_reduce_csv(
        source, partial(_prediction_tally, key=key, bins=calibration_bins)))


def _prediction_key(privileged_label: str, unprivileged_label: str):
    """`key(cells)`: the validated `(group, predicted, actual)` of the
    tuple of a row's 3 raw prefix cells; ValueError names a bad cell."""
    mapping = {privileged_label: PRIVILEGED, unprivileged_label: UNPRIVILEGED}

    def key(cells) -> tuple:
        group = mapping.get(cells[0].strip())
        if group is None:
            raise ValueError(f"group {cells[0]!r} is neither "
                             f"{privileged_label!r} nor {unprivileged_label!r}")
        return group, _binary(cells[1]), _binary(cells[2])

    return key


def _prediction_tally(columns: tuple, split, key, bins=()):
    """`read_predictions`' row loop for a header of `columns`, as
    `prepare(columns, split)` of `_reduce_csv`.

    Returns `(tally, tail)`. `tally(blocks)` folds the checked blocks of
    rows past the header into a new `(scored, counts, bin_counts)` tally,
    as the `GroupedPredictions` constructor takes it, checking every
    score: `scored` maps each cell to an `array('d')` of its scores in
    file order, and `counts` maps it to `{legitimate text: rows}`.

    A row's prefix is its raw `(group, predicted, actual)` text. For the
    split pass over a header that starts with those columns, in that
    order, `tail` is the number of other columns: `_split_rows` cuts each
    line once, and the prefix is its first piece, the str `Male,1,0`.
    Otherwise rows are whole and the prefix is the tuple of those cells.
    `key` validates a prefix where it is first seen, as a tuple of
    exactly 3 cells: a str prefix that splits into more or fewer is a
    line of the wrong width (any extra comma lands in the prefix), and
    `_checked_blocks` catches a line cut into too few pieces. The prefix
    then aliases its cell's `(counts, scores)` pair, so each row does one
    prefix lookup, and padded variants of a cell merge in file order. A
    new (cell, text) entry is keyed by the pass's one str of that text.
    The row loop runs over each block's rows as they are, and numbers a
    row only when it rejects it. After it, `bin_counts` maps each number
    in `bins` to the `_bin_rows` counts of the scores, `{group: (rows,
    positives)}` per bin.
    """
    for col in PREDICTION_COLUMNS:
        if col not in columns:
            raise IngestError(f"predictions are missing column {col!r}")
    width = len(columns)
    tail = None
    shift = 0
    if split and columns[:3] == PREDICTION_COLUMNS:
        tail = width - 3
        shift = 2  # the 3 prefix cells are 1 piece, so later pieces move up
        width = tail + 1  # pieces per line
        prefix_of = itemgetter(0)
    else:
        prefix_of = itemgetter(*map(columns.index, PREDICTION_COLUMNS))
    legit = columns.index("legitimate") - shift \
        if "legitimate" in columns else None
    s = columns.index("score") - shift if "score" in columns else None

    def tally(blocks) -> tuple:
        scored = {}
        counts = {}
        alias = {}  # prefix -> (counts[cell], scored[cell])
        texts = {}  # one str per distinct legitimate text
        for first, rows in _checked_blocks(blocks, width):
            try:
                for row in rows:
                    prefix = prefix_of(row)
                    entry = alias.get(prefix)
                    if entry is None:
                        cells = prefix
                        if tail is not None:
                            cells = tuple(prefix.split(","))
                            if len(cells) != 3:
                                raise ValueError(f"expected {tail + 3} "
                                                 "cells")
                        cell = key(cells)
                        entry = alias[prefix] = (
                            counts.setdefault(cell, {}),
                            scored.setdefault(cell, array("d")))
                    by_text, scores = entry
                    text = "" if legit is None else row[legit]
                    n = by_text.get(text)
                    if n is None:
                        by_text[texts.setdefault(text, text)] = 1
                    else:
                        by_text[text] = n + 1
                    if s is not None:
                        try:
                            score = float(row[s])
                        except ValueError:
                            if row[s].strip() != "":
                                raise ValueError(f"score {row[s]!r} is not "
                                                 "a number") from None
                        else:
                            if not 0.0 <= score <= 1.0:
                                raise ValueError(
                                    f"score {score} outside [0, 1]")
                            scores.append(score)
            except ValueError as exc:
                rownum = first + rows.index(row)
                raise IngestError(f"row {rownum}: {exc}") from None
        cells = [((g, a), (scores,)) for (g, _, a), scores in scored.items()]
        return scored, counts, {b: _bin_rows(cells, b) for b in bins}

    return tally, tail


def _binary(cell: str) -> int:
    v = cell.strip()
    if v != "0" and v != "1":
        raise ValueError(f"label {cell!r} must be 0 or 1")
    return 1 if v == "1" else 0


class RunManifest(Value):
    """What a run intends to use, checked against the policy's context."""

    dataset_source: str = ""
    model_id: Optional[str] = None
    declared_use: Optional[str] = None
    synthetic: bool = False


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
        if key not in RunManifest._fields:
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


class CompositionAudit(Value):
    """Observed group shares versus a policy reference share."""

    shares: dict  # group value -> proportion of labels
    unprivileged_value: str
    reference_share: float
    deviation: float  # share(unprivileged) - reference_share
    range: Interval
    within_range: bool


def composition_audit(labels, unprivileged_value: str, reference_share: float,
                      rng: Interval) -> CompositionAudit:
    """Audit a label list's composition against a reference share, as
    `composition_from_counts` audits the list's counts."""
    return composition_from_counts(Counter(labels), unprivileged_value,
                                   reference_share, rng)


def composition_from_counts(label_counts, unprivileged_value: str,
                            reference_share: float,
                            rng: Interval) -> CompositionAudit:
    """Audit label counts (label -> positive count) against a reference share.

    Labels are stripped of surrounding whitespace, as `bind_counts` strips
    protected cells, and labels that strip to the same text are counted
    together. The deviation is the unprivileged value's observed share
    minus the reference share; the verdict is interval membership.
    """
    counts = Counter()
    for label, count in label_counts.items():
        counts[label.strip()] += count
    n = sum(counts.values())
    if not n:
        raise IngestError("composition audit needs at least one label")
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
