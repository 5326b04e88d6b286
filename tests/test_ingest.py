import csv
import errno
import io
import math
import os
import random
import threading
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from complykit import ingest
from complykit.decisions import DecisionError, PayoffMatrix
from complykit.fairness import (
    PRIVILEGED,
    UNPRIVILEGED,
    ConfusionCounts,
    calibration_gap,
)
from complykit.ingest import (
    Dataset,
    IngestError,
    RunManifest,
    bind_counts,
    bind_groups,
    composition_audit,
    composition_from_counts,
    count_dataset,
    read_dataset,
    read_manifest,
    read_predictions,
)
from complykit.intervals import Interval
from complykit.policy import parse_policy
from complykit.report import _json_value, _sorted_trace
from conftest import (
    SCENARIO1_POLICY,
    UNQUOTED_CELLS,
    dataset_csv,
    force_shards,
    prediction_csv,
)
from reference import Record, confusion, predictions_of, records


def no_serial_pass(source):
    raise AssertionError("the serial pass ran")


# the twenty genders behind the generated CEO name list: 3 female, 17 male
CEO_NAME_GENDERS = ["Female"] * 3 + ["Male"] * 17
WORLD_FEMALE_SHARE_2023 = 0.4975


class TestReadDataset:
    def test_header_only(self):
        ds = read_dataset(io.StringIO("a,b\n"))
        assert ds.columns == ("a", "b")
        assert ds.rows == ()

    def test_quoting(self):
        ds = read_dataset(io.StringIO('a,b\n"x,1",2\n'))
        assert ds.rows == (("x,1", "2"),)

    def test_doubled_quote_escape(self):
        ds = read_dataset(io.StringIO('a\n"say ""hi"""\n'))
        assert ds.rows == (('say "hi"',),)

    def test_ragged_row_named(self):
        with pytest.raises(IngestError, match="row 2"):
            read_dataset(io.StringIO("a,b\n1\n"))

    def test_missing_header(self):
        with pytest.raises(IngestError, match="header"):
            read_dataset(io.StringIO(""))

    def test_invalid_utf8_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n\xff\xfe,2\n")
        with pytest.raises(IngestError,
                           match="^row 2: line is not valid UTF-8$"):
            read_dataset(path)

    def test_rows_decoded_before_invalid_utf8_are_checked_first(self,
                                                                tmp_path):
        # Rows 1100 and 1250 share one list of `_BLOCK_ROWS` lines, and
        # the ragged row comes first in file order, so it is reported,
        # not the bad byte.
        rows = [b"Male,x"] * 1300
        rows[1098] = b"Male"
        rows[1248] = b"Fe\xffmale,x"
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join([b"sex,occupation"] + rows) + b"\n")
        with pytest.raises(IngestError,
                           match="^row 1100: expected 2 cells, got 1$"):
            count_dataset(path, ["sex"])

    def test_caller_decoded_stream_names_no_row(self):
        # The caller decoded the stream, so its decode error has no row.
        stream = io.TextIOWrapper(io.BytesIO(b"a,b\n1,2\n\xff,3\n"),
                                  encoding="utf-8", newline="")
        with pytest.raises(IngestError, match="^input is not valid UTF-8: "
                           "'utf-8' codec can't decode byte 0xff"):
            count_dataset(stream, ["a"])

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("first, second, message", [
        (b"\0", b"\xff", "line contains NUL"),
        (b"\xff", b"\0", "line is not valid UTF-8"),
    ], ids=["nul-first", "byte-first"])
    def test_nul_and_invalid_byte_in_one_list(self, tmp_path, monkeypatch,
                                              cpus, first, second, message):
        rows = [b"Male,x"] * 100
        rows[40] = b"Ma" + first + b"le,x"
        rows[60] = b"Ma" + second + b"le,x"
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join([b"sex,occupation"] + rows) + b"\n")
        force_shards(monkeypatch, cpus)
        with pytest.raises(IngestError, match=f"^row 42: {message}$"):
            count_dataset(path, ["sex"])

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_invalid_byte_in_the_header_is_row_one(self, tmp_path,
                                                   monkeypatch, cpus):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"se\xffx,occupation\nMale,x\nFemale\n")
        force_shards(monkeypatch, cpus)
        with pytest.raises(IngestError,
                           match="^row 1: line is not valid UTF-8$"):
            count_dataset(path, ["occupation"])

    def test_invalid_byte_in_a_quoted_record_names_the_record(self,
                                                              tmp_path):
        # Records 2 and 3 span lines 2-3 and 4-6: the byte is on line 5.
        path = tmp_path / "bad.csv"
        path.write_bytes(b'sex,occupation\nMale,"p\nq"\n'
                         b'Female,"a\nb\xffc\nd"\nMale\n')
        with pytest.raises(IngestError,
                           match="^row 3: line is not valid UTF-8$"):
            count_dataset(path, ["sex"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            read_dataset(tmp_path / "nope.csv")

    def test_repeated_header_name(self):
        with pytest.raises(IngestError, match="'b' appears more than once"):
            read_dataset(io.StringIO("a,b, b\n1,2,3\n"))

    def test_csv_error_names_its_row(self):
        big = "x" * 200_000
        with pytest.raises(IngestError, match="row 3: field larger"):
            read_dataset(io.StringIO(f"a\n1\n{big}\n"))
        with pytest.raises(IngestError, match="row 1: field larger"):
            read_dataset(io.StringIO(f"{big}\n"))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_nul_in_an_unread_header_cell_is_row_one(self, tmp_path,
                                                     monkeypatch, cpus):
        # The split pass parses the header with `csv` as well.
        path = tmp_path / "t.csv"
        path.write_text("a,b\0\n1,2\n3,4\n")
        force_shards(monkeypatch, cpus)
        for source in (path, io.StringIO(path.read_text())):
            with pytest.raises(IngestError,
                               match="^row 1: line contains NUL$"):
                count_dataset(source, ["a"])

    def test_blank_rows_skipped_but_numbered(self):
        ds = read_dataset(io.StringIO("a,b\n\n1,2\n\n"))
        assert ds.rows == (("1", "2"),)
        with pytest.raises(IngestError, match="row 4"):
            read_dataset(io.StringIO("a,b\n\n1,2\n3\n"))

    @given(st.lists(
        st.lists(st.text(alphabet='ab,"\n x', max_size=6), min_size=2,
                 max_size=2),
        max_size=8))
    def test_round_trip_lossless(self, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("c1", "c2"))
        writer.writerows(rows)
        back = read_dataset(io.StringIO(buf.getvalue()))
        assert back.rows == tuple(tuple(r) for r in rows)


class TestBindGroups:
    def setup_method(self):
        self.policy = parse_policy(SCENARIO1_POLICY)

    @staticmethod
    def _dataset(rows):
        return Dataset(("sex", "occupation"), tuple(rows))

    def test_adult_style_counts(self):
        rows = ([("Male", "Exec-managerial")] * 4
                + [("Male", "Other")] * 6
                + [("Female", "Exec-managerial")] * 2
                + [("Female", "Other")] * 3)
        bound = bind_groups(self._dataset(rows), self.policy)
        assert bound.favorable_privileged == 4
        assert bound.total_privileged == 10
        assert bound.favorable_unprivileged == 2
        assert bound.total_unprivileged == 5
        assert bound.excluded == 0

    def test_third_value_excluded_and_counted(self):
        rows = [("Male", "Other"), ("Female", "Other"), ("Unknown", "Other")]
        bound = bind_groups(self._dataset(rows), self.policy)
        assert bound.excluded == 1
        assert bound.total_privileged + bound.total_unprivileged \
            + bound.excluded == 3

    def test_missing_outcome_column(self):
        ds = Dataset(("sex",), (("Male",),))
        with pytest.raises(IngestError, match="occupation"):
            bind_groups(ds, self.policy)

    def test_both_groups_empty(self):
        ds = self._dataset([("Unknown", "Other")])
        with pytest.raises(IngestError, match="empty"):
            bind_groups(ds, self.policy)

    @pytest.mark.parametrize("text, missing", [
        ('policy "p" { favorable_outcome occupation { value = "x" } }',
         "protected_attribute"),
        ('policy "p" { protected_attribute sex '
         '{ privileged = "Male" unprivileged = "Female" } }',
         "favorable_outcome"),
    ])
    def test_policy_without_a_binding_item(self, text, missing):
        with pytest.raises(IngestError) as exc:
            bind_counts(Counter({("Male", "x"): 1}), parse_policy(text))
        assert str(exc.value) == f"policy declares no {missing}"


def bind_by_rows(ds, policy):
    """Row-scanning reference: (favorable, total) per group, excluded."""
    g = ds.column_index(policy.protected.attribute)
    o = ds.column_index(policy.favorable.attribute)
    membership = {policy.protected.privileged_value: PRIVILEGED,
                  policy.protected.unprivileged_value: UNPRIVILEGED}
    counts = {PRIVILEGED: [0, 0], UNPRIVILEGED: [0, 0]}
    excluded = 0
    for row in ds.rows:
        group = membership.get(row[g].strip())
        if group is None:
            excluded += 1
            continue
        counts[group][1] += 1
        counts[group][0] += row[o].strip() == policy.favorable.value
    return (counts[UNPRIVILEGED][0], counts[UNPRIVILEGED][1],
            counts[PRIVILEGED][0], counts[PRIVILEGED][1], excluded)


class TestCountDataset:
    policy = parse_policy(SCENARIO1_POLICY)

    @given(dataset_csv(), st.data())
    def test_counts_match_the_loaded_dataset(self, table, data):
        columns, text = table
        names = data.draw(st.lists(st.sampled_from(columns), max_size=3))
        counts = count_dataset(io.StringIO(text), names)
        ds = read_dataset(io.StringIO(text))
        assert counts == ds.counts(*names)
        idx = [columns.index(n) for n in names]
        assert counts == Counter(tuple(row[i] for i in idx) for row in ds.rows)
        assert sum(counts.values()) == len(ds.rows)

    @given(dataset_csv())
    def test_binding_and_composition_match_row_scans(self, table):
        _, text = table
        ds = read_dataset(io.StringIO(text))
        counts = count_dataset(io.StringIO(text), ["sex", "occupation"])
        if ds.rows and any(s.strip() in ("Male", "Female")
                           for s in ds.column("sex")):
            bound = bind_counts(counts, self.policy)
            assert bound == bind_groups(ds, self.policy)
            assert (bound.favorable_unprivileged, bound.total_unprivileged,
                    bound.favorable_privileged, bound.total_privileged,
                    bound.excluded) == bind_by_rows(ds, self.policy)
        else:
            with pytest.raises(IngestError, match="empty"):
                bind_counts(counts, self.policy)

        labels = Counter()
        for (sex, _), n in counts.items():
            labels[sex] += n
        rng = Interval(-0.05, 0.05)
        if not ds.rows:
            with pytest.raises(IngestError, match="at least one label"):
                composition_from_counts(labels, "Female", 0.5, rng)
            return
        audit = composition_from_counts(labels, "Female", 0.5, rng)
        assert audit == composition_audit(ds.column("sex"), "Female", 0.5, rng)
        column = [cell.strip() for cell in ds.column("sex")]
        assert audit.shares == {v: column.count(v) / len(column)
                                for v in sorted(set(column))}
        assert list(audit.shares) == sorted(audit.shares)

    def test_missing_column_reported_before_rows(self):
        with pytest.raises(IngestError,
                           match="column 'sex' not found; dataset has: a, b"):
            count_dataset(io.StringIO("a,b\n1\n"), ["sex"])

    def test_rows_validated_without_names(self):
        assert count_dataset(io.StringIO("a,b\n1,2\n\n3,4\n")) == \
            Counter({(): 2})
        assert count_dataset(io.StringIO("a,b\n")) == Counter()
        with pytest.raises(IngestError, match="row 4: expected 2 cells"):
            count_dataset(io.StringIO("a,b\n1,2\n\n3\n"))

    def test_cells_kept_raw(self):
        counts = count_dataset(io.StringIO("sex\n Male\nMale\nMale\n"),
                               ["sex"])
        assert counts == Counter({(" Male",): 1, ("Male",): 2})

    def test_path_source(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sex,occupation\nMale,Other\nMale,Other\n")
        assert count_dataset(path, ["occupation", "sex"]) == \
            Counter({("Other", "Male"): 2})
        with pytest.raises(IngestError, match="cannot read"):
            count_dataset(tmp_path / "absent.csv", ["sex"])


class TestShardedCount:
    @settings(max_examples=60, deadline=None)
    @given(dataset_csv(cells=UNQUOTED_CELLS), st.data())
    def test_sharded_equals_serial(self, tmp_path_factory, table, data):
        columns, text = table
        names = data.draw(st.lists(st.sampled_from(columns), max_size=2))
        cpus = data.draw(st.integers(2, 4))
        path = tmp_path_factory.mktemp("shard") / "d.csv"
        path.write_bytes(text.encode())
        serial = count_dataset(io.StringIO(text), names)

        with pytest.MonkeyPatch.context() as mp:
            force_shards(mp, cpus)
            mp.setattr(ingest, "_csv_table", no_serial_pass)
            assert list(count_dataset(path, names).items()) == \
                list(serial.items())

    def test_cuts_fall_after_newlines_past_the_header(self, tmp_path,
                                                      monkeypatch):
        force_shards(monkeypatch, 4)
        text = b"sex,occupation\r\n" + b"Male,Other\r\n" * 12
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        cuts = ingest._shard_cuts(path)
        assert cuts[0] == 0 and cuts[-1] == len(text)
        assert len(set(cuts)) == 5
        assert all(text[cut - 1:cut] == b"\n" for cut in cuts[1:-1])
        assert min(cuts[1:]) > text.index(b"\n")

    def test_lines_past_the_scan_bound_decline_the_split(self, tmp_path,
                                                         monkeypatch):
        # The header and the line at each cut must end within
        # `_SCAN_BYTES`, or at the end of the file.
        monkeypatch.setattr(ingest, "_SCAN_BYTES", 64)
        force_shards(monkeypatch, 2)
        path = tmp_path / "d.csv"
        for text, split in ((b"sex,occupation", True),
                            (b"x" * 64 + b"\nMale\n", False),
                            (b"x" * 63 + b"\nMale\n", True),
                            (b"sex\n" + b"Male," * 40 + b"\nMale\n", False),
                            (b"sex\n" + b"x" * 10 + b"\n" + b"Male," * 8,
                             True)):
            path.write_bytes(text)
            cuts = ingest._shard_cuts(path)
            assert (cuts is not None) == split, text
            if split:
                assert cuts[0] == 0 and cuts[-1] == len(text)

    def test_cr_only_file_is_not_read_whole(self, tmp_path, monkeypatch):
        # With CR-only line ends no `\n` ends the header: the split pass
        # declines after reading `_SCAN_BYTES` of it, and `csv` reads the
        # file in small chunks, so the pass never holds the file at once.
        monkeypatch.setattr(ingest, "_SCAN_BYTES", 4096)
        force_shards(monkeypatch, 2)
        path = tmp_path / "d.csv"
        path.write_bytes(b"\r".join([b"sex,occupation"]
                                    + [b"Male,Other\rFemale,Sales"] * 40_000))
        assert ingest._shard_cuts(path) is None
        tracemalloc.start()
        try:
            counts = count_dataset(path, ["sex", "occupation"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == Counter({("Male", "Other"): 40_000,
                                  ("Female", "Sales"): 40_000})
        # about 150 KB here, where reading the 960 KB file as one header
        # line held it twice, as bytes and as text
        assert peak < path.stat().st_size // 2

    def test_forks_one_child_per_later_shard(self, tmp_path, monkeypatch,
                                             forks):
        force_shards(monkeypatch, 3)
        path = tmp_path / "d.csv"
        path.write_text("sex\n" + "Male\nFemale\n" * 20)
        assert count_dataset(path, ["sex"]) == \
            Counter({("Male",): 20, ("Female",): 20})
        assert len(forks) == 2

    def test_streams_and_small_files_never_fork(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 4)
        path = tmp_path / "d.csv"
        path.write_text("sex\n" + "Male\n" * 50)
        assert count_dataset(path, ["sex"]) == Counter({("Male",): 50})
        monkeypatch.setattr(ingest, "SHARD_BYTES", 1)
        assert count_dataset(io.StringIO("sex\n" + "Male\n" * 50),
                             ["sex"]) == Counter({("Male",): 50})

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert ingest._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ingest._usable_cpus() == 1

    def test_threaded_process_never_forks(self, tmp_path, monkeypatch,
                                          forks):
        force_shards(monkeypatch, 2)
        path = tmp_path / "d.csv"
        path.write_text("sex\n" + "Male\n" * 50)
        assert len(ingest._shard_cuts(path)) == 3
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            # one shard, split in this process
            assert len(ingest._shard_cuts(path)) == 2
            assert count_dataset(path, ["sex"]) == Counter({("Male",): 50})
            assert forks == []
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()

    def test_quoted_file_counts_serially(self, tmp_path, monkeypatch):
        force_shards(monkeypatch, 4)
        # A cut after the quoted newline would count a Female row.
        text = 'sex,occupation,note\n' + \
            'Male,Other,"a\nFemale,Exec-managerial,b"\n' * 10
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert ingest._shard_cuts(path) is None
        assert count_dataset(path, ["sex", "occupation"]) == \
            Counter({("Male", "Other"): 10})


def reduction(gp):
    """The five attributes every metric reads, with each cell's score
    array as bytes, and the rows `records` lists: two reads are equal only
    when their tallies hold the same cells, texts, row counts and scores
    in the same order."""
    return (gp.confusion, gp.strata, gp.unscored, gp.bin_counts,
            {k: [a.tobytes() for a in arrays] for k, arrays in gp.scores.items()},
            gp.records)


def many_cells_csv(rows):
    """A seeded prediction file of `rows` rows over thousands of distinct
    cells, most holding one or two rows, some with a blank score."""
    rng = random.Random(0)
    lines = ["group,predicted,actual,score,legitimate"]
    for _ in range(rows):
        score = "" if rng.random() < 0.1 else f"0.{rng.randrange(10000):04d}"
        lines.append(f"{rng.choice((PRIVILEGED, UNPRIVILEGED))},"
                     f"{rng.randrange(2)},{rng.randrange(2)},{score},"
                     f"k{rng.randrange(rows // 4):05d}")
    return "\n".join(lines) + "\n"


def distinct_entries(text):
    """The distinct (cell, legitimate text) entries of a `many_cells_csv`
    file, whose cells are unpadded, by a scan of its lines."""
    return len({(g, p, a, legitimate) for g, p, a, _, legitimate in
                (line.split(",") for line in text.splitlines()[1:])})


class TestShardedPredictions:
    @settings(max_examples=60, deadline=None)
    @given(prediction_csv(), st.integers(2, 4))
    def test_sharded_equals_serial(self, tmp_path_factory, text, cpus):
        path = tmp_path_factory.mktemp("shard") / "p.csv"
        path.write_bytes(text.encode())
        serial = reduction(read_predictions(io.StringIO(text)))

        with pytest.MonkeyPatch.context() as mp:
            force_shards(mp, cpus)
            mp.setattr(ingest, "_csv_table", no_serial_pass)
            assert reduction(read_predictions(path)) == serial

    def test_forks_one_child_per_later_shard(self, tmp_path, monkeypatch,
                                             forks):
        force_shards(monkeypatch, 3)
        path = tmp_path / "p.csv"
        path.write_text("group,predicted,actual,score\n"
                        + "privileged,1,1,0.5\nunprivileged,0,1,\n" * 20)
        gp = read_predictions(path)
        assert len(forks) == 2
        assert reduction(gp) == reduction(predictions_of(
            [Record(PRIVILEGED, 1, 1, 0.5), Record(UNPRIVILEGED, 0, 1)] * 20))

    def test_header_over_a_pipe_buffer_equals_serial(self, tmp_path,
                                                      monkeypatch, forks):
        path = tmp_path / "p.csv"
        path.write_text(many_cells_csv(12_000))
        serial = read_predictions(path)
        # a dump header entry per distinct (cell, text)
        assert len(set(serial.records)) >= 5000
        force_shards(monkeypatch, 2)
        monkeypatch.setattr(ingest, "_csv_table", no_serial_pass)
        sharded = read_predictions(path)
        assert len(forks) == 1
        assert reduction(sharded) == reduction(serial)
        assert sharded.strata == serial.strata

    def test_padded_prefixes_and_blank_strata_merge_across_shards(
            self, tmp_path, monkeypatch, forks):
        # Each shard brings new padded group and label texts, which
        # validate to the same cell, and blank and whitespace legitimate
        # cells, which are all the stratum None; one text is in every shard.
        blocks = (
            ["privileged,1,1,0.5,a", "privileged,1,1,0.25,",
             "unprivileged,0,1,,a"],
            [" privileged , 1,1,0.75,a", "privileged,1,1,0.125, ",
             "privileged,1,1,,a", "privileged,1,1,0.5,a"],
            ["privileged, 1,1,1,  ", "unprivileged,0,1,0.5, ",
             " privileged ,1,1,,b", "privileged,1,1,0.5,a"],
        )
        header = "group,predicted,actual,score,legitimate\n"
        shards = ["".join(line + "\n" for line in block) * 30
                  for block in blocks]
        shards[0] = header + shards[0]
        # blank lines even the shards out, so that the cuts fall between them
        width = max(map(len, shards))
        shards = [shard + "\n" * (width - len(shard)) for shard in shards]
        path = tmp_path / "p.csv"
        path.write_text("".join(shards))
        serial = read_predictions(io.StringIO(path.read_text()))
        force_shards(monkeypatch, 3)
        cuts = ingest._shard_cuts(path)
        data = path.read_bytes()
        assert [data[a:b].decode() for a, b in zip(cuts, cuts[1:])] == shards
        monkeypatch.setattr(ingest, "_csv_table", no_serial_pass)
        sharded = read_predictions(path)
        assert len(forks) == 2
        assert reduction(sharded) == reduction(serial)
        assert sharded.strata == serial.strata
        assert sharded.confusion == {PRIVILEGED: ConfusionCounts(tp=270),
                                     UNPRIVILEGED: ConfusionCounts(fn=60)}
        assert sharded.strata == {
            PRIVILEGED: ({"a": 150, None: 90, "b": 30},
                         {"a": 150, None: 90, "b": 30}),
            UNPRIVILEGED: ({"a": 30, None: 30}, {"a": 0, None: 0})}
        assert sharded.unscored == 90
        # one array per cell: the padded group and label variants add
        # their scores to the plain ones' array
        assert [len(a) for a in sharded.scores[PRIVILEGED, 1]] == [210]
        assert [len(a) for a in sharded.scores[UNPRIVILEGED, 1]] == [30]

    def test_tally_frame_round_trip(self):
        # 10,000 scores take three `_MERGE_ITEMS` chunks.
        long = array("d", (i / 7 for i in range(10_000)))
        p11, u01 = (PRIVILEGED, 1, 1), (UNPRIVILEGED, 0, 1)
        p00, p10 = (PRIVILEGED, 0, 0), (PRIVILEGED, 1, 0)
        # Bin counts add per (bins, group, rows or positives, bin); big
        # bin numbers travel too.
        U, P = UNPRIVILEGED, PRIVILEGED
        theirs = ({p11: array("d", [0.25, 0.5]),
                   u01: long + array("d", [1.0]), p00: array("d")},
                  {p11: {"a": 2, "": 2}, u01: {"a": 10_000, "b": 2, "c": 2},
                   p00: {" ": 3}},
                  {10: {U: ({9: 2, 0: 3}, {9: 1, 0: 0}), P: ({3: 4}, {3: 4})},
                   2**53: {U: ({2**53 - 1: 5}, {2**53 - 1: 2}), P: ({}, {})}})
        ours = ({u01: array("d", [0.75]), p10: array("d", [0.0])},
                {u01: {"b": 5}, p10: {"a": 1}},
                {10: {U: ({0: 7, 5: 1}, {0: 6, 5: 0}), P: ({}, {})},
                 3: {U: ({}, {}), P: ({1: 1}, {1: 0})}})
        buf = io.BytesIO()
        ingest._dump_tally(theirs, buf)
        frame = buf.getvalue()
        pipe = io.BytesIO(frame)
        ingest._merge_tally(ours, pipe)
        assert pipe.read() == b""
        scored, counts, bin_counts = ours
        # new cells follow ours in their order, a cell's scores follow
        # ours, and new texts follow ours within a cell
        assert list(scored) == list(counts) == [u01, p10, p11, p00]
        assert scored == {u01: array("d", [0.75]) + long + array("d", [1.0]),
                          p10: array("d", [0.0]),
                          p11: array("d", [0.25, 0.5]), p00: array("d")}
        assert counts == {u01: {"b": 7, "a": 10_000, "c": 2}, p10: {"a": 1},
                          p11: {"a": 2, "": 2}, p00: {" ": 3}}
        assert list(counts[u01]) == ["b", "a", "c"]
        assert list(counts[p11]) == ["a", ""]
        assert bin_counts == {
            10: {U: ({0: 10, 5: 1, 9: 2}, {0: 6, 5: 0, 9: 1}),
                 P: ({3: 4}, {3: 4})},
            3: {U: ({}, {}), P: ({1: 1}, {1: 0})},
            # a group with no bins sends nothing
            2**53: {U: ({2**53 - 1: 5}, {2**53 - 1: 2})}}
        # `count_dataset`'s tally: its one cell stays a Counter, whose
        # counts add and whose new keys follow in the child's order
        buf = io.BytesIO()
        ingest._dump_tally(({}, {(): Counter({("F", "y"): 3, ("O", "z"): 1})},
                            {}), buf)
        mine = ({}, {(): Counter({("M", "x"): 1, ("F", "y"): 2})}, {})
        ingest._merge_tally(mine, io.BytesIO(buf.getvalue()))
        assert type(mine[1][()]) is Counter
        assert list(mine[1][()].items()) == [
            (("M", "x"), 1), (("F", "y"), 5), (("O", "z"), 1)]
        assert mine[0] == mine[2] == {}
        size = int.from_bytes(frame[:8], "little")
        for cut in (0, 4, 8, 8 + size // 2, 8 + size + 8, len(frame) - 8):
            with pytest.raises(EOFError):
                ingest._merge_tally(({}, {}, {}), io.BytesIO(frame[:cut]))
        with pytest.raises(ValueError):  # cut inside a score
            ingest._merge_tally(({}, {}, {}), io.BytesIO(frame[:-1]))

    def test_short_result_falls_back(self, tmp_path, monkeypatch, forks):
        # Each length prefix claims one byte more than the dump writes.
        dump = ingest._dump_tally

        def short_dump(tally, pipe):
            buf = io.BytesIO()
            dump(tally, buf)
            data = buf.getvalue()
            size = int.from_bytes(data[:8], "little")
            pipe.write((size + 1).to_bytes(8, "little") + data[8:])

        serial_passes = []
        csv_table = ingest._csv_table

        def recording_csv_table(source):
            serial_passes.append(source)
            return csv_table(source)

        monkeypatch.setattr(ingest, "_dump_tally", short_dump)
        force_shards(monkeypatch, 3)
        path = tmp_path / "p.csv"
        for text in ("group,predicted,actual,score\n"
                     + "privileged,1,1,0.5\nunprivileged,0,1,\n" * 20,
                     "group,predicted,actual\n" + "privileged,1,1\n" * 40):
            path.write_text(text)
            serial = reduction(read_predictions(io.StringIO(text)))
            del forks[:]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_csv_table", recording_csv_table)
                assert reduction(read_predictions(path)) == serial
            assert len(forks) == 2 and serial_passes == [path]
            del serial_passes[:]
        path.write_text("sex\n" + "Male\nFemale\n" * 20)
        monkeypatch.setattr(ingest, "_csv_table", recording_csv_table)
        assert count_dataset(path, ["sex"]) == \
            Counter({("Male",): 20, ("Female",): 20})
        assert serial_passes == [path]

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_fork_falls_back(self, tmp_path, monkeypatch, failing):
        # os.fork raising (at a process limit, say) on the first or the
        # second child: one serial pass gives the same tally, every pipe
        # the shard runner opened is closed and the first child is reaped.
        fork, pipe = os.fork, os.pipe
        calls, pids, fds, serial_passes = [], [], [], []

        def flaky_fork():
            calls.append(None)
            if len(calls) == failing:
                raise OSError(errno.EAGAIN, "fork refused")
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def recording_pipe():
            ends = pipe()
            fds.extend(ends)
            return ends

        csv_table = ingest._csv_table

        def recording_csv_table(source):
            serial_passes.append(source)
            return csv_table(source)

        text = ("group,predicted,actual,score\n"
                + "privileged,1,1,0.5\nunprivileged,0,1,\n" * 20)
        path = tmp_path / "p.csv"
        path.write_text(text)
        serial = reduction(read_predictions(io.StringIO(text)))
        force_shards(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", flaky_fork)
        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(ingest, "_csv_table", recording_csv_table)
        assert reduction(read_predictions(path)) == serial
        assert serial_passes == [path]
        assert len(calls) == failing and len(pids) == failing - 1
        assert len(fds) == 2 * failing
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_streams_small_quoted_and_threaded_never_fork(self, tmp_path,
                                                          monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 4)
        text = "group,predicted,actual\n" + "privileged,1,1\n" * 50
        path = tmp_path / "p.csv"
        path.write_text(text)
        expected = reduction(predictions_of([Record(PRIVILEGED, 1, 1)] * 50))
        assert reduction(read_predictions(path)) == expected
        monkeypatch.setattr(ingest, "SHARD_BYTES", 1)
        assert reduction(read_predictions(io.StringIO(text))) == expected
        quoted = tmp_path / "q.csv"
        quoted.write_text(text.replace("1,1\n", '1,"1"\n'))
        assert reduction(read_predictions(quoted)) == expected
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert reduction(read_predictions(path)) == expected
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()


CALIBRATION_BINS = (2, 3, 10, 1000, 2**53)


@st.composite
def calibration_case(draw):
    """`(bins, text)`: a prediction CSV whose every score is 0, 1, the
    least subnormal, the greatest float below 1, or one of some edges
    `k / bins` of the bins or their float neighbours."""
    bins = draw(st.sampled_from(CALIBRATION_BINS))
    scores = {0.0, 1.0, 5e-324, 1 - 2**-53}
    for k in draw(st.lists(st.integers(0, bins), min_size=1, max_size=3)):
        edge = k / bins
        scores |= {edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)}
    return bins, draw(prediction_csv(scores=sorted(map(repr, scores)),
                                     optional=("legitimate",), min_rows=8))


def metric_bytes(mv):
    """A MetricValue as the JSON report writes it."""
    return _json_value(_sorted_trace(mv))


class TestCalibrationBins:
    """Bin counts from the prediction reduction (`calibration_bins`) give
    the calibration gap of binning `gp.scores` in the metric."""

    @settings(max_examples=100, deadline=None)
    @given(calibration_case(), st.integers(2, 4))
    def test_reduced_counts_equal_the_metric_path(self, tmp_path_factory,
                                                  case, cpus):
        bins, text = case
        reference = read_predictions(io.StringIO(text))
        assert reference.bin_counts == {}
        expected = calibration_gap(reference, bins)
        path = tmp_path_factory.mktemp("bins") / "p.csv"
        path.write_bytes(text.encode())
        # 7 bins too, so that the gap must pick its own bins' counts
        both = (7, bins)
        gps = [read_predictions(io.StringIO(text), calibration_bins=both)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_csv_table", no_serial_pass)
            gps.append(read_predictions(path, calibration_bins=both))
            force_shards(mp, cpus)
            gps.append(read_predictions(path, calibration_bins=both))
        for gp in gps:
            assert set(gp.bin_counts) == {7, bins}
            got = calibration_gap(gp, bins)
            assert (got.value, got.reason, got.trace) == \
                (expected.value, expected.reason, expected.trace)
            assert metric_bytes(got) == metric_bytes(expected)

    @pytest.mark.parametrize("text, reason", [
        ("group,predicted,actual,score\n"
         + "privileged,1,1,0.5\nunprivileged,0,1,0.25\n" * 30
         + "unprivileged,1,1,\n", "1 record(s)"),
        ("group,predicted,actual\n"
         + "privileged,1,1\nunprivileged,0,1\n" * 30, "60 record(s)"),
    ], ids=["blank-in-last-shard", "no-score-column"])
    def test_unscored_rows_give_the_metric_path_reason(
            self, tmp_path, monkeypatch, forks, text, reason):
        expected = calibration_gap(read_predictions(io.StringIO(text)), 10)
        assert expected.reason == \
            f"{reason} lack scores required by this metric"
        path = tmp_path / "p.csv"
        path.write_text(text)
        force_shards(monkeypatch, 3)
        monkeypatch.setattr(ingest, "_csv_table", no_serial_pass)
        gp = read_predictions(path, calibration_bins=[10])
        assert len(forks) == 2
        assert gp.bin_counts == {}
        assert calibration_gap(gp, 10) == expected


# Pieces `csv` and a naive split could read differently, for
# `quote_free_csv`: commas, line ends of every kind, NUL and multibyte
# characters.
SPLIT_PIECES = [",", "\n", "\r\n", "\r", " ", "\0", "\u00e9", "\u20ac"]
# `csv.field_size_limit()` while a table with a long line is read
LOW_FIELD_LIMIT = 40


@st.composite
def quote_free_csv(draw, columns, cells):
    """`(data, low_limit)`: the bytes of a quote-free CSV with a header of
    `columns`, rows of `cells`, CRLF or LF line ends and blank lines, and
    any of: up to three `SPLIT_PIECES` among the cells, rows one cell short
    or long, whitespace-only lines and lone CR line ends, a line longer
    than `LOW_FIELD_LIMIT` (then `low_limit` is True), an invalid UTF-8
    sequence. The `@example`s of `TestSplitPass` hold each alone."""
    pieces = draw(st.lists(st.sampled_from(SPLIT_PIECES), max_size=3,
                           unique=True))
    cell = st.sampled_from(cells + pieces) \
        | st.lists(st.sampled_from(cells + pieces), max_size=3).map("".join)
    widths = [len(columns)]
    if draw(st.booleans()):
        widths += [len(columns) - 1, len(columns) + 1]
    eols = ["\n", "\r\n", "\n\n", "\r\n\r\n"]
    if draw(st.booleans()):
        eols += ["\r", "\n \n", "\r\r\n"]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.sampled_from(widths))
        lines.append(",".join(draw(st.lists(cell, min_size=width,
                                            max_size=width))))
    low_limit = draw(st.booleans())
    if low_limit:
        # fields at or over the limit: `csv` reads the first, not the second
        field = "x" * draw(st.sampled_from([LOW_FIELD_LIMIT // 2,
                                            LOW_FIELD_LIMIT + 1]))
        lines.insert(draw(st.integers(1, len(lines))),
                     ",".join([field] * len(columns)))
    text = "".join(line + draw(st.sampled_from(eols)) for line in lines[:-1])
    text += lines[-1] + draw(st.sampled_from([""] + eols))
    data = text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(len(lines[0]), len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe2\x82"])) \
            + data[at:]
    return data, low_limit


def outcome(read, source):
    """`read(source)`, or the message of the IngestError it raised."""
    try:
        return read(source)
    except IngestError as exc:
        return str(exc)


# Prediction headers for `TestSplitPass`: the key columns leading, with 3,
# 4 and 5 columns and with an extra trailing one, then not leading, then
# out of order.
PREDICTION_LAYOUTS = [
    ("group", "predicted", "actual"),
    ("group", "predicted", "actual", "score"),
    ("group", "predicted", "actual", "score", "legitimate"),
    ("group", "predicted", "actual", "score", "legitimate", "note"),
    ("score", "group", "predicted", "actual", "legitimate"),
    ("group", "actual", "predicted", "legitimate"),
]


class TestSplitPass:
    """A quote-free file split without `csv` (`_split_rows`), in one shard
    or in several, gives what the `csv` pass over a stream of the same
    bytes gives: the same Counter or tally, in the same order, or the same
    IngestError. Blocks of 1 to 7 characters cut CRLF pairs; a line
    longer than the field limit fits in the default block; a CRLF row
    after a default block of LF-only rows is still split."""

    def check(self, tmp_path_factory, table, read):
        data, low_limit = table
        path = tmp_path_factory.mktemp("split") / "t.csv"
        path.write_bytes(data)
        serial_passes = []
        csv_table = ingest._csv_table

        def recording_csv_table(source):
            serial_passes.append(source)
            return csv_table(source)

        limit = csv.field_size_limit()
        try:
            if low_limit:
                csv.field_size_limit(LOW_FIELD_LIMIT)
            with open(path, newline="", encoding="utf-8-sig",
                      errors="surrogateescape") as fh:
                expected = outcome(read, fh)
            text = data.decode(errors="replace")
            # Nothing here makes the split pass give up: no serial pass.
            splits = not isinstance(expected, str) and not low_limit \
                and "\0" not in text and "\ufffd" not in text \
                and "\r" not in (text + "\n").replace("\r\n", "")
            for block in (1, 2, 3, 7, ingest._BLOCK_CHARS):
                for cpus in (1, 3):
                    with pytest.MonkeyPatch.context() as mp:
                        force_shards(mp, cpus)
                        mp.setattr(ingest, "_BLOCK_CHARS", block)
                        mp.setattr(ingest, "_csv_table", recording_csv_table)
                        assert outcome(read, path) == expected
                    if splits:
                        assert serial_passes == []
        finally:
            csv.field_size_limit(limit)

    @settings(max_examples=60, deadline=None)
    @given(quote_free_csv(["sex", "occupation"], UNQUOTED_CELLS),
           st.lists(st.sampled_from(["sex", "occupation"]), max_size=2))
    @example((b"sex,occupation\r\nMale,Other\r\n\r\nFemale,Other", False),
             ["sex"])
    @example((b"sex,occupation\r\nMale\r,Other\r\n", False), ["sex"])
    @example((b"sex,occupation\nMale,Oth\0er\nMale,Other\r", False), ["sex"])
    @example((b"sex,occupation\nMale," + b"x" * 41 + b"\n", True), ["sex"])
    @example((b"sex,occupation\n"
              + b"Male,Other\n" * (ingest._BLOCK_CHARS // 11 + 1)
              + b"Female,Sales\r\n", False), ["sex"])
    @example((b"sex,occupation\nMale,\xe2\x82\n", False), ["sex"])
    def test_dataset(self, tmp_path_factory, table, names):
        self.check(tmp_path_factory, table,
                   lambda source: list(count_dataset(source, names).items()))

    # The split pass cuts a line of a file whose header leads with
    # `group,predicted,actual` once, from the right, and checks its
    # prefix where it first sees it; a file in any other order is split
    # into whole rows. Both read the same as `csv`.
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PREDICTION_LAYOUTS).flatmap(
        lambda columns: quote_free_csv(
            columns, [PRIVILEGED, UNPRIVILEGED, " " + PRIVILEGED, "0", "1",
                      "0.25", " 0.5", "a", "b"])))
    @example((b"group,predicted,actual,score,legitimate\r\n"
              b"privileged,1,1,0.5,a\r\n\r\nunprivileged,0,1,,b", False))
    # an extra comma that lands in the prefix
    @example((b"group,predicted,actual,score,legitimate\n"
              b"privileged,1,1,0.5,a\nprivileged,1,x,1,0.5,a\n", False))
    @example((b"group,predicted,actual,score,legitimate\n"
              b"privileged,1,1,0.5,a\nprivileged,1,1,x,0.5,a\n", False))
    # a line with only two commas: three pieces, and a one-cell prefix
    @example((b"group,predicted,actual,score,legitimate\n"
              b"privileged,1,1,0.5,a\nprivileged,1,1\n", False))
    # a padded prefix cell: a prefix text of its own, the same cell
    @example((b"group,predicted,actual,score,legitimate\n"
              b"privileged,1,1,0.5,a\n privileged,1,1,0.25,b\n"
              b"privileged,1,1,,a\n", False))
    @example((b"score,group,predicted,actual,legitimate\n"
              b"0.5,privileged,1,1,a\n,unprivileged,0,1,b\n", False))
    def test_predictions(self, tmp_path_factory, table):
        self.check(tmp_path_factory, table,
                   lambda source: reduction(read_predictions(source)))


# `csv` reads a field longer than this as a malformed row in
# `TestBlockBoundaries`, which lowers the limit to it.
BLOCK_FIELD_LIMIT = 40
_CSV_ERROR = ("IngestError: row {r}: field larger than field limit "
              f"({BLOCK_FIELD_LIMIT})")
# `csv` rejects a NUL before Python 3.11 and reads it from 3.11 on; every
# reader reports its row as bad on every version.
_NUL_ERROR = "IngestError: row {r}: line contains NUL"
_LONG = "x" * (BLOCK_FIELD_LIMIT + 1)


def _dataset_row(i):
    return f"{('Male', 'Female')[i % 2]},{('Other', 'Sales')[i % 3 % 2]},{i}"


_DATASET_FAULTS = {
    "ragged": ("Male,Other", "IngestError: row {r}: expected 3 cells, got 2"),
    "blank": ("", None),
    "csv": ("Male,Other," + _LONG, _CSV_ERROR),
    "nul": ("Male,Oth\0er,1", _NUL_ERROR)}

# Per reader: what it returns for a source, the header, good row `i`,
# and the line of each fault with the message it gives on row `r` (None
# for a blank row, which is no fault).
BLOCK_READERS = {
    "count_dataset": (
        lambda source: list(count_dataset(source, ["sex", "occupation"])
                            .items()),
        "sex,occupation,age", _dataset_row, _DATASET_FAULTS),
    "read_dataset": (
        lambda source: read_dataset(source).rows,
        "sex,occupation,age", _dataset_row,
        dict(_DATASET_FAULTS, ragged=("Male,Other,1,2", "IngestError: row "
                                      "{r}: expected 3 cells, got 4"))),
    "read_predictions": (
        lambda source: reduction(read_predictions(source)),
        "group,predicted,actual,score,legitimate",
        lambda i: (f"{(PRIVILEGED, UNPRIVILEGED)[i % 2]},{i % 3 % 2},"
                   f"{i // 2 % 2},0.{i % 10},s{i % 3}"),
        {"ragged": (f"{PRIVILEGED},1,1,0.5",
                    "IngestError: row {r}: expected 5 cells, got 4"),
         "blank": ("", None),
         "label": (f"{PRIVILEGED},2,1,0.5,a",
                   "IngestError: row {r}: label '2' must be 0 or 1"),
         "score": (f"{PRIVILEGED},1,1,high,a",
                   "IngestError: row {r}: score 'high' is not a number"),
         "csv": (f"{PRIVILEGED},1,1,0.5," + _LONG, _CSV_ERROR),
         "nul": (f"{PRIVILEGED},1,1,0.5,\0", _NUL_ERROR)}),
    "PayoffMatrix.from_csv": (
        lambda source: (lambda m: (m.actions, m.values))(
            PayoffMatrix.from_csv(source)),
        "action,s1,s2",
        lambda i: f"a{i},{i},-{i % 7}",
        {"ragged": ("ax,1", "IngestError: row {r}: expected 3 cells, got 2"),
         "blank": ("", None),
         "cell": ("ax,1,oops", "DecisionError: row {r}: could not convert "
                                "string to float: 'oops'"),
         "nan": ("ax,1,nan", "DecisionError: row {r}: payoffs must be finite"),
         "csv": ("ax,1," + _LONG, _CSV_ERROR),
         "nul": ("a\0x,1,2", _NUL_ERROR)}),
}


def block_cases(header, good, faults, rows, at):
    """`(text, expected message or None, text less its blank rows)` for a
    file of `rows` good rows in which each fault, and each ordered pair of
    faults on rows `r` and `r + 1`, replaces good rows, for each `r` in
    `at`."""
    for r in at:
        combos = [[kind] for kind in faults]
        if r <= rows:
            combos += [[a, b] for a in faults for b in faults]
        for combo in combos:
            lines = [header] + [good(i) for i in range(rows)]
            expected = None
            for row, kind in enumerate(combo, r):
                lines[row - 1], message = faults[kind]
                if expected is None and message is not None:
                    expected = message.format(r=row)
            yield ("\n".join(lines) + "\n", expected,
                   "\n".join(filter(None, lines)) + "\n")


class TestBlockBoundaries:
    """Rows move through both CSV passes in blocks: `_BLOCK_ROWS` rows in
    the `csv` pass and `_BLOCK_CHARS` characters in the split pass. A
    fault on the first or the last row of a block, or one on each side of
    a block boundary, gives the message and row number of a row-by-row
    read, the first fault in file order winning; blank rows give the
    tally of the file without them."""

    @pytest.fixture(autouse=True)
    def low_field_limit(self):
        limit = csv.field_size_limit(BLOCK_FIELD_LIMIT)
        yield
        csv.field_size_limit(limit)

    def check(self, reader, source_of, rows, at):
        read, header, good, faults = BLOCK_READERS[reader]
        for text, expected, unblank in block_cases(header, good, faults,
                                                   rows, at):
            if expected is None:
                expected = read(io.StringIO(unblank))
            try:
                got = read(source_of(text))
            except (IngestError, DecisionError) as exc:
                got = f"{type(exc).__name__}: {exc}"
            assert got == expected, text

    @pytest.mark.parametrize("block", [1, 2, None])
    @pytest.mark.parametrize("reader", BLOCK_READERS)
    def test_csv_pass(self, tmp_path, monkeypatch, reader, block):
        # two whole blocks and one row: faults on the first and the last
        # row of each block, and across each boundary
        block = block or ingest._BLOCK_ROWS
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block)
        path = tmp_path / "t.csv"

        def source_of(text):
            if reader != "PayoffMatrix.from_csv":
                return io.StringIO(text)
            path.write_text(text)
            return path  # read by `csv` as a path, not split

        self.check(reader, source_of, 2 * block + 1,
                   sorted({2, block + 1, block + 2, 2 * block + 1,
                           2 * block + 2}))

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("chars", [1, 7, None])
    @pytest.mark.parametrize("reader", ["count_dataset", "read_dataset",
                                        "read_predictions"])
    def test_split_pass(self, tmp_path, monkeypatch, reader, chars, cpus):
        # With 1 or 7 characters a block ends each line, with the default
        # the file is one block; any fault falls back to the `csv` pass.
        force_shards(monkeypatch, cpus)
        monkeypatch.setattr(ingest, "_BLOCK_CHARS",
                            chars or ingest._BLOCK_CHARS)
        path = tmp_path / "t.csv"

        def source_of(text):
            path.write_text(text)
            return path

        self.check(reader, source_of, 5, range(2, 7))

    def test_ragged_row_before_a_csv_error_in_its_block(self, monkeypatch):
        text = "a,b\n1,2\n1,2,3\n1," + _LONG + "\n"
        for block in (2, 3, ingest._BLOCK_ROWS):
            monkeypatch.setattr(ingest, "_BLOCK_ROWS", block)
            with pytest.raises(IngestError) as exc:
                count_dataset(io.StringIO(text), ["a"])
            assert str(exc.value) == "row 3: expected 2 cells, got 3"


class TestByteOrderMark:
    """A leading byte-order mark is dropped before `csv` parses the header,
    so a quoted first header cell is read too (`csv` kept the quotes as
    text when the mark came before them)."""

    DATASET = '"sex","occupation"\nMale,x\nFemale,y\nMale,x\n'
    PREDICTIONS = ('"group","predicted","actual","score"\n'
                   + "privileged,1,1,0.5\nunprivileged,0,1,\n" * 20)

    def test_serial(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\ufeff" + self.DATASET, encoding="utf-8")
        assert count_dataset(path, ["sex"]) == Counter({("Male",): 2,
                                                        ("Female",): 1})

    def test_stream(self):
        assert count_dataset(io.StringIO("\ufeff" + self.DATASET), ["sex"]) \
            == count_dataset(io.StringIO(self.DATASET), ["sex"])
        # a mark is dropped only at the start of the stream
        with pytest.raises(IngestError, match="expected 2 cells, got 1"):
            count_dataset(io.StringIO("a,b\n\ufeff\n"))

    def test_sharded(self, tmp_path, monkeypatch, forks):
        # A file holding a `"` is never sharded, so this one is read by the
        # serial pass whatever the CPU count.
        expected = reduction(read_predictions(io.StringIO(self.PREDICTIONS)))
        path = tmp_path / "p.csv"
        path.write_text("\ufeff" + self.PREDICTIONS, encoding="utf-8")
        force_shards(monkeypatch, 3)
        assert reduction(read_predictions(path)) == expected
        assert forks == []
        # Without quotes the file is sharded, and shard 0 drops the mark.
        monkeypatch.setattr(ingest, "_csv_table", no_serial_pass)
        path.write_text("\ufeff" + self.PREDICTIONS.replace('"', ""),
                        encoding="utf-8")
        assert reduction(read_predictions(path)) == expected
        assert len(forks) == 2


class TestReadPredictions:
    def test_quadrants(self):
        csv_text = ("group,predicted,actual\n"
                    "privileged,1,1\nprivileged,1,0\n"
                    "privileged,0,1\nprivileged,0,0\n"
                    "unprivileged,1,1\n")
        gp = read_predictions(io.StringIO(csv_text))
        c = confusion(r for r in records(gp) if r.group == PRIVILEGED)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert len([r for r in records(gp) if r.group == UNPRIVILEGED]) == 1

    def test_custom_group_labels(self):
        csv_text = "group,predicted,actual\nMale,1,1\nFemale,0,0\n"
        gp = read_predictions(io.StringIO(csv_text),
                              privileged_label="Male",
                              unprivileged_label="Female")
        assert len([r for r in records(gp) if r.group == PRIVILEGED]) == 1

    def test_score_out_of_range(self):
        csv_text = "group,predicted,actual,score\nprivileged,1,1,1.2\n"
        with pytest.raises(IngestError, match="score"):
            read_predictions(io.StringIO(csv_text))

    def test_missing_actual_column(self):
        with pytest.raises(IngestError, match="actual"):
            read_predictions(io.StringIO("group,predicted\nprivileged,1\n"))

    def test_nonbinary_label(self):
        csv_text = "group,predicted,actual\nprivileged,2,1\n"
        with pytest.raises(IngestError, match="row 2"):
            read_predictions(io.StringIO(csv_text))

    def test_first_bad_row_in_file_order(self):
        csv_text = ("group,predicted,actual\n"
                    "privileged,1,1\n"
                    "mystery,1,1\n"
                    "privileged,1\n")
        with pytest.raises(IngestError, match="row 3: group 'mystery'"):
            read_predictions(io.StringIO(csv_text))

    def test_blank_rows_keep_row_numbers(self):
        csv_text = "group,predicted,actual\n\nprivileged,2,1\n"
        with pytest.raises(IngestError, match="row 3: label '2'"):
            read_predictions(io.StringIO(csv_text))

    def test_known_text_is_validated_per_row(self):
        # the same group/label text, once valid, may not hide a bad score
        csv_text = ("group,predicted,actual,score\n"
                    "privileged,1,1,0.5\n"
                    "privileged,1,1,high\n")
        with pytest.raises(IngestError, match="row 3: score 'high'"):
            read_predictions(io.StringIO(csv_text))

    def test_padded_text_shares_a_cell(self):
        csv_text = ("group,predicted,actual,score,legitimate\n"
                    "privileged,1,1,0.25,a\n"
                    " privileged , 1,1 , 0.75,a\n"
                    "privileged,1,1, ,\n"
                    "privileged,1,1,,  \n")
        gp = read_predictions(io.StringIO(csv_text))
        assert gp.strata[PRIVILEGED] == ({"a": 2, None: 2}, {"a": 2, None: 2})
        assert gp.unscored == 2
        # the padded row's score joins the plain row's array, in file order
        assert gp.scores[PRIVILEGED, 1] == [array("d", [0.25, 0.75])]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_legitimate_column(self, tmp_path, monkeypatch, cpus):
        # every row is in the stratum None
        path = tmp_path / "p.csv"
        path.write_text("group,predicted,actual,score\n"
                        + "privileged,1,1,0.25\n privileged,1,1,\n"
                          "unprivileged,0,1,0.5\n" * 3)
        force_shards(monkeypatch, cpus)
        gp = read_predictions(path)
        assert gp.confusion == {PRIVILEGED: ConfusionCounts(tp=6),
                                UNPRIVILEGED: ConfusionCounts(fn=3)}
        assert gp.scores[PRIVILEGED, 1] == [array("d", [0.25] * 3)]
        assert gp.scores[UNPRIVILEGED, 1] == [array("d", [0.5] * 3)]
        assert gp.strata == {PRIVILEGED: ({None: 6}, {None: 6}),
                             UNPRIVILEGED: ({None: 3}, {None: 0})}
        assert gp.unscored == 3

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_score_column(self, tmp_path, monkeypatch, cpus):
        # every row is unscored, and no cell holds a score
        path = tmp_path / "p.csv"
        path.write_text("group,predicted,actual,legitimate\n"
                        + "privileged,1,1,a\nprivileged,1,1, \n"
                          "unprivileged,0,0,a\nunprivileged ,0,0,a\n" * 3)
        force_shards(monkeypatch, cpus)
        gp = read_predictions(path)
        assert gp.confusion == {PRIVILEGED: ConfusionCounts(tp=6),
                                UNPRIVILEGED: ConfusionCounts(tn=6)}
        assert gp.strata == {PRIVILEGED: ({"a": 3, None: 3}, {"a": 3, None: 3}),
                             UNPRIVILEGED: ({"a": 6}, {"a": 0})}
        assert gp.unscored == 12
        assert not any(gp.scores.values())

    def test_key_runs_once_per_prefix(self, tmp_path, monkeypatch, forks):
        # A pass validates each distinct raw (group, predicted, actual)
        # text once per shard, where it first sees it, however many
        # strata it holds; a padded variant is a text of its own. The
        # calls are appended to a file, which forked shards share.
        log = tmp_path / "calls"
        make_key = ingest._prediction_key

        def counting_key(*labels):
            key = make_key(*labels)

            def counted(prefix):
                with open(log, "a") as fh:
                    fh.write(repr(prefix) + "\n")
                return key(prefix)
            return counted

        monkeypatch.setattr(ingest, "_prediction_key", counting_key)
        text = many_cells_csv(12_000) + " privileged,1,1,0.5,k00000\n" * 3
        assert distinct_entries(text) >= 8_000
        path = tmp_path / "p.csv"
        path.write_text(text)
        for shards, source in ((1, io.StringIO(text)), (2, path)):
            log.write_text("")
            force_shards(monkeypatch, shards)
            gp = read_predictions(source)
            assert len(forks) == shards - 1
            expected = Counter({repr((g, p, a)): shards
                                for g in (PRIVILEGED, UNPRIVILEGED)
                                for p in "01" for a in "01"})
            expected[repr((" privileged", "1", "1"))] = 1  # the last shard
            assert Counter(log.read_text().splitlines()) == expected
            assert sum(c.total for c in gp.confusion.values()) == 12_003

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            read_predictions(tmp_path / "absent.csv")

    def test_tally_memory_per_distinct_cell(self, tmp_path, monkeypatch,
                                            forks):
        # One dict entry (a row count) per distinct (cell, legitimate
        # text), counted from the file's lines, one str per distinct text
        # and one score array per cell: about 93 traced bytes per entry at
        # the read's peak on CPython 3.11 (93-100 on 3.10-3.13), and 113
        # read in three shards (109-129), whose merge holds a child's
        # header. A score array per entry took about 187 (214 in three
        # shards; 182-229 on 3.10-3.13). The bound keeps the 440/367
        # headroom of earlier bounds over the largest figure, 129 (3.10,
        # three shards), so an array per entry fails on every version;
        # the three-shard read pins the text table of the merge.
        path = tmp_path / "p.csv"
        text = many_cells_csv(24_000)
        path.write_text(text)
        entries = distinct_entries(text)
        assert entries >= 15_000
        for shards in (1, 3):
            force_shards(monkeypatch, shards)
            forks.clear()
            tracemalloc.start()
            try:
                gp = read_predictions(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(forks) == shards - 1
            assert sum(c.total for c in gp.confusion.values()) == 24_000
            assert peak / entries < 155

    @pytest.mark.parametrize("shards", [0, 1, 3])
    def test_one_str_per_legitimate_text(self, tmp_path, monkeypatch, forks,
                                         shards):
        # Every key of the tally and of the strata, under whichever cell,
        # is the one str of its text: read serially by `csv` (0), by the
        # split pass, and merged from three shards.
        path = tmp_path / "p.csv"
        text = many_cells_csv(12_000)
        path.write_text(text)
        force_shards(monkeypatch, max(shards, 1))
        gp = read_predictions(path if shards else io.StringIO(text))
        assert len(forks) == max(shards - 1, 0)
        # the keys of the tally, through the rows `records` lists
        entries = set(gp.records)
        keys = [legitimate for *_, legitimate in entries]
        keys += [key for pair in gp.strata.values() for counts in pair
                 for key in counts]
        cells = Counter(keys[:len(entries)])
        assert sum(n > 1 for n in cells.values()) >= 1000
        assert len({id(key) for key in keys}) == len(set(keys))

    def test_unknown_group(self):
        csv_text = "group,predicted,actual\nmystery,1,1\n"
        with pytest.raises(IngestError, match="mystery"):
            read_predictions(io.StringIO(csv_text))


class TestManifest:
    def test_full_manifest(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text(
            "# scenario 3 run\n"
            "dataset_source=https://archive.ics.uci.edu/dataset/2/adult\n"
            "model_id=google/gemma-2-2b-it\n"
            "declared_use=recruitment\n"
            "synthetic=true\n")
        m = read_manifest(path)
        assert m == RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
            model_id="google/gemma-2-2b-it",
            declared_use="recruitment",
            synthetic=True)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("surprise=1\n")
        with pytest.raises(IngestError, match="unknown key"):
            read_manifest(path)

    @pytest.mark.parametrize("text, message", [
        ("model_id=m1\njust a line\n",
         "manifest line 2: expected key=value"),
        ("model_id=m1\n# note\n model_id = m2\n",
         "manifest line 3: duplicate key 'model_id'"),
    ])
    def test_malformed_line(self, tmp_path, text, message):
        path = tmp_path / "run.manifest"
        path.write_text(text)
        with pytest.raises(IngestError) as exc:
            read_manifest(path)
        assert str(exc.value) == message

    def test_bad_synthetic(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("synthetic=maybe\n")
        with pytest.raises(IngestError, match="synthetic"):
            read_manifest(path)


class TestCompositionAudit:
    def test_generated_name_list(self):
        audit = composition_audit(CEO_NAME_GENDERS, "Female",
                                  WORLD_FEMALE_SHARE_2023,
                                  Interval(-0.05, 0.05))
        assert audit.shares["Female"] == 0.15
        assert audit.deviation == pytest.approx(-0.3475, abs=1e-12)
        assert not audit.within_range

    def test_balanced_labels_comply(self):
        audit = composition_audit(["F", "M"] * 10, "F", 0.5,
                                  Interval(-0.05, 0.05))
        assert audit.deviation == 0
        assert audit.within_range

    def test_direct_proportion(self):
        labels = ["F"] * 16 + ["M"] * 84
        audit = composition_audit(labels, "F", 0.4975, Interval(-0.05, 0.05))
        exact = Fraction(16, 100) - Fraction(4975, 10000)
        assert audit.deviation == pytest.approx(float(exact), abs=1e-12)
        assert audit.deviation == pytest.approx(-0.3375, abs=1e-12)

    def test_shares_sum_to_one(self):
        labels = ["a"] * 3 + ["b"] * 5 + ["c"] * 9
        audit = composition_audit(labels, "a", 0.3, Interval(-1, 1))
        assert sum(audit.shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_labels(self):
        with pytest.raises(IngestError):
            composition_audit([], "F", 0.5, Interval(-1, 1))

    def test_padded_labels_strip_and_merge(self):
        # As `complykit evaluate` counts a UCI-layout file (`39, Female`).
        audit = composition_audit([" Female", " Male"], "Female", 0.5,
                                  Interval(-0.05, 0.05))
        assert audit.shares == {"Female": 0.5, "Male": 0.5}
        assert audit.deviation == 0
        assert audit.within_range
        audit = composition_audit(["Female", " Female ", "Male", "Male "],
                                  "Female", 0.5, Interval(-0.05, 0.05))
        assert audit.shares == {"Female": 0.5, "Male": 0.5}
