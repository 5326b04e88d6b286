import csv
import io
import os
import threading
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complykit import ingest
from complykit.fairness import PRIVILEGED, UNPRIVILEGED
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
    write_dataset,
)
from complykit.intervals import Interval
from complykit.policy import parse_policy
from conftest import SCENARIO1_POLICY, force_shards

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
        with pytest.raises(IngestError, match="UTF-8"):
            read_dataset(path)

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
        ds = Dataset(("c1", "c2"), tuple(tuple(r) for r in rows))
        buf = io.StringIO()
        write_dataset(ds, buf)
        back = read_dataset(io.StringIO(buf.getvalue()))
        assert back.rows == ds.rows


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


CELLS = ["Male", " Male", "Female ", "Female", "Unknown", "",
         "Exec-managerial", " Exec-managerial", "Other", "a,b", 'say "x"']
UNQUOTED_CELLS = [c for c in CELLS if "," not in c and '"' not in c]


@st.composite
def dataset_csv(draw, cells=CELLS):
    """CSV text whose columns hold `sex` and `occupation` among extras,
    with padded and unmatched values, quoted commas, blank lines and LF
    or CRLF line ends."""
    extras = draw(st.integers(0, 3))
    columns = [f"x{i}" for i in range(extras)]
    columns.insert(draw(st.integers(0, extras)), "sex")
    columns.insert(draw(st.integers(0, extras + 1)), "occupation")
    rows = draw(st.lists(st.lists(st.sampled_from(cells), min_size=len(columns),
                                  max_size=len(columns)), max_size=30))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
        if draw(st.booleans()):
            buf.write(eol)
    return columns, buf.getvalue()


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
        column = ds.column("sex")
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
            sharded = ingest._count_sharded(path, names)
            assert sharded is not None
            assert list(sharded.items()) == list(serial.items())
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

    def test_threaded_process_never_forks(self, tmp_path, monkeypatch):
        force_shards(monkeypatch, 2)
        path = tmp_path / "d.csv"
        path.write_text("sex\n" + "Male\n" * 50)
        assert ingest._shard_cuts(path) is not None
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert ingest._shard_cuts(path) is None
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


PREDICTION_CELLS = {
    "group": ["privileged", " privileged", "unprivileged ", "unprivileged"],
    "predicted": ["0", "1", " 1"],
    "actual": ["0", "1", "0 "],
    "score": ["0", "1", "0.25", " 0.5", "1e-3", "", " "],
    "legitimate": ["a", " a", "b", "", " "],
}


@st.composite
def prediction_csv(draw):
    """Quote-free prediction CSV text with or without the score and
    legitimate columns, columns in any order, padded cells, blank lines
    and LF or CRLF line ends."""
    columns = ["group", "predicted", "actual"] + [
        c for c in ("score", "legitimate") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    rows = draw(st.lists(st.tuples(*(st.sampled_from(PREDICTION_CELLS[c])
                                     for c in columns)), max_size=40))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(row))
        if draw(st.booleans()):
            lines.append("")
    return eol.join(lines) + eol


def cell_bytes(gp):
    return [(key, n, scores.tobytes()) for key, (n, scores) in gp.cells.items()]


class TestShardedPredictions:
    @settings(max_examples=60, deadline=None)
    @given(prediction_csv(), st.integers(2, 4))
    def test_sharded_equals_serial(self, tmp_path_factory, text, cpus):
        path = tmp_path_factory.mktemp("shard") / "p.csv"
        path.write_bytes(text.encode())
        serial = cell_bytes(read_predictions(io.StringIO(text)))

        def no_serial_pass(source):
            raise AssertionError("the serial pass ran")

        with pytest.MonkeyPatch.context() as mp:
            force_shards(mp, cpus)
            mp.setattr(ingest, "_csv_table", no_serial_pass)
            assert cell_bytes(read_predictions(path)) == serial

    def test_forks_one_child_per_later_shard(self, tmp_path, monkeypatch,
                                             forks):
        force_shards(monkeypatch, 3)
        path = tmp_path / "p.csv"
        path.write_text("group,predicted,actual,score\n"
                        + "privileged,1,1,0.5\nunprivileged,0,1,\n" * 20)
        gp = read_predictions(path)
        assert len(forks) == 2
        assert cell_bytes(gp) == [
            ((PRIVILEGED, 1, 1, None), 0, array("d", [0.5] * 20).tobytes()),
            ((UNPRIVILEGED, 0, 1, None), 20, b""),
        ]

    def test_streams_small_quoted_and_threaded_never_fork(self, tmp_path,
                                                          monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 4)
        text = "group,predicted,actual\n" + "privileged,1,1\n" * 50
        path = tmp_path / "p.csv"
        path.write_text(text)
        expected = [((PRIVILEGED, 1, 1, None), 50, b"")]
        assert cell_bytes(read_predictions(path)) == expected
        monkeypatch.setattr(ingest, "SHARD_BYTES", 1)
        assert cell_bytes(read_predictions(io.StringIO(text))) == expected
        quoted = tmp_path / "q.csv"
        quoted.write_text(text.replace("1,1\n", '1,"1"\n'))
        assert cell_bytes(read_predictions(quoted)) == expected
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert cell_bytes(read_predictions(path)) == expected
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()


class TestReadPredictions:
    def test_quadrants(self):
        csv_text = ("group,predicted,actual\n"
                    "privileged,1,1\nprivileged,1,0\n"
                    "privileged,0,1\nprivileged,0,0\n"
                    "unprivileged,1,1\n")
        gp = read_predictions(io.StringIO(csv_text))
        from complykit.fairness import confusion
        c = confusion(gp.by_group(PRIVILEGED))
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert len(gp.by_group(UNPRIVILEGED)) == 1

    def test_custom_group_labels(self):
        csv_text = "group,predicted,actual\nMale,1,1\nFemale,0,0\n"
        gp = read_predictions(io.StringIO(csv_text),
                              privileged_label="Male",
                              unprivileged_label="Female")
        assert len(gp.by_group(PRIVILEGED)) == 1

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
        assert {k: (n, list(s)) for k, (n, s) in gp.cells.items()} == {
            (PRIVILEGED, 1, 1, "a"): (0, [0.25, 0.75]),
            (PRIVILEGED, 1, 1, None): (2, []),
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            read_predictions(tmp_path / "absent.csv")

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
