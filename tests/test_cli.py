import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complykit import cli, decisions, fairness, ingest
from complykit.cli import main
from complykit.policy import (
    FavorableSpec,
    PolicyDocument,
    PolicyError,
    ProtectedSpec,
    parse_policy,
    serialize_policy,
)
from conftest import (
    SCENARIO1_POLICY,
    dataset_csv,
    force_shards,
    prediction_csv,
    random_document,
)
from schema_check import validate_report

SMALL_DATASET = (
    "sex,occupation\n"
    + "Male,Exec-managerial\n" * 4
    + "Male,Other\n" * 6
    + "Female,Exec-managerial\n" * 2
    + "Female,Other\n" * 3
)

MANIFEST = (
    "dataset_source=https://archive.ics.uci.edu/dataset/2/adult\n"
    "model_id=google/gemma-2-2b-it\n"
    "declared_use=recruitment\n"
)

MATRIX_CSV = (
    "class,Regular disasters,Medium danger,Good weather\n"
    "High,1,1,1\n"
    "Average,-1,1,1\n"
    "Short,-1,-1,1\n"
)

# Matrix cells for the decide exit-code property: labels, blanks, quotes,
# non-numbers, non-finite and overflowing numbers, and line breaks.
MATRIX_CELLS = (
    "a", "s", "", " ", "0", "1", "-2.5", "x", '"1"', '"a,b"', '"q""q"', '"',
    'a"b', '"\r\n"', "nan", "inf", "-inf", "1e308", "-1e308", "9" * 400,
    "-" + "9" * 400, "\r",
)


# Policy texts for the evaluate exit-code property: every input of the
# golden diagnostics corpus, most of which do not parse.
GOLDEN_POLICIES = [entry["input"] for entry in json.loads(
    (Path(__file__).parent / "golden" / "policy_diagnostics.json")
    .read_text(encoding="utf-8"))]


@st.composite
def evaluate_inputs(draw):
    """A policy text, dataset text and prediction text (or None) for
    `evaluate`: a golden corpus input, a random valid document, or a
    random valid document bound to the dataset's `sex` and `occupation`
    columns."""
    source = draw(st.sampled_from(("golden", "random", "bound", "bound",
                                   "bound")))
    if source == "golden":
        text = draw(st.sampled_from(GOLDEN_POLICIES))
    else:
        doc = random_document(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
        if source == "bound":
            doc = PolicyDocument(
                doc.name, ProtectedSpec("sex", "Male", "Female"),
                FavorableSpec("occupation", "Exec-managerial"), doc.metrics,
                doc.approved_sources, doc.approved_models, doc.decision,
                doc.on_violation)
        text = serialize_policy(doc)
    labels = (fairness.PRIVILEGED, fairness.UNPRIVILEGED)
    try:
        protected = parse_policy(text).protected
    except PolicyError:
        protected = None
    if protected is not None:
        labels = (protected.privileged_value, protected.unprivileged_value)
    _, dataset = draw(dataset_csv())
    predictions = draw(st.none() | prediction_csv(labels))
    return text, dataset, predictions


@pytest.fixture(autouse=True)
def reports_match_schema(tmp_path):
    """Every JSON report a test here writes must match the report schema."""
    yield
    for path in sorted(tmp_path.rglob("*.json")):
        validate_report(path.read_bytes())


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "policy.law").write_text(SCENARIO1_POLICY)
    (tmp_path / "data.csv").write_text(SMALL_DATASET)
    (tmp_path / "run.manifest").write_text(MANIFEST)
    (tmp_path / "matrix.csv").write_text(MATRIX_CSV)
    return tmp_path


class TestCheck:
    def test_valid_policy(self, workdir, capsys):
        assert main(["check", str(workdir / "policy.law")]) == 0

    def test_inverted_range(self, tmp_path, capsys):
        bad = tmp_path / "bad.law"
        bad.write_text('policy "p" { metric calibration { range = [1, 0] } }')
        assert main(["check", str(bad)]) == 2
        assert "SemanticError" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.law")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_overflowing_range_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "big.law"
        bad.write_text('policy "p" { metric calibration '
                       f'{{ range = [-{"1" * 400}, 0.01] }} }}')
        assert main(["check", str(bad)]) == 2
        assert f"{bad}:1:44: SemanticError: number is too large" in \
            capsys.readouterr().err


class TestEvaluate:
    def test_violation_exit_one(self, workdir, capsys):
        # small fixture SPD: 2/5 - 4/10 = 0.0 ... use a skewed dataset instead
        skewed = workdir / "skew.csv"
        skewed.write_text(
            "sex,occupation\n"
            + "Male,Exec-managerial\n" * 5 + "Male,Other\n" * 5
            + "Female,Exec-managerial\n" * 1 + "Female,Other\n" * 9)
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(skewed), "--deterministic"])
        out = capsys.readouterr().out
        assert code == 1
        assert "explain" in out

    def test_comply_exit_zero(self, workdir, capsys):
        # balanced dataset: SPD = 2/5 - 4/10 = 0
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--manifest", str(workdir / "run.manifest"),
                     "--deterministic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "comply" in out

    def test_json_written(self, workdir, capsys):
        out_path = workdir / "report.json"
        main(["evaluate", str(workdir / "policy.law"),
              "--dataset", str(workdir / "data.csv"),
              "--deterministic", "--json", str(out_path)])
        capsys.readouterr()
        obj = json.loads(out_path.read_bytes())
        assert obj["policy"] == "scenario-1"
        assert obj["strategy"]["action"] == "Strictly comply"

    def test_missing_dataset_flag(self, workdir, capsys):
        assert main(["evaluate", str(workdir / "policy.law")]) == 2

    def test_unreadable_dataset(self, workdir, capsys):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "absent.csv")])
        assert code == 2

    def test_bad_policy_exit_two(self, workdir, capsys):
        bad = workdir / "bad.law"
        bad.write_text("policy {")
        code = main(["evaluate", str(bad),
                     "--dataset", str(workdir / "data.csv")])
        assert code == 2

    def test_overflowing_tolerance_exit_two(self, workdir, capsys):
        big = workdir / "big.law"
        big.write_text(SCENARIO1_POLICY.replace(
            "range = [-0.01, 0.01]",
            f"range = [-0.01, 0.01]\n    tolerance = {'9' * 400}"))
        assert main(["check", str(big)]) == 2
        assert "SemanticError: number is too large" in capsys.readouterr().err
        code = main(["evaluate", str(big),
                     "--dataset", str(workdir / "data.csv")])
        assert code == 2
        assert "SemanticError: number is too large" in capsys.readouterr().err

    def test_unwritable_json_exit_two(self, workdir, capsys):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--json", str(workdir / "absent" / "report.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("cannot write ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_non_utf8_manifest_exit_two(self, workdir, capsys):
        (workdir / "bad.manifest").write_bytes(b"model_id=\xff\xfe\n")
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--manifest", str(workdir / "bad.manifest")])
        assert code == 2
        assert "is not valid UTF-8" in capsys.readouterr().err

    def test_use_and_synthetic_without_model_exit_one(self, workdir, capsys):
        (workdir / "model.law").write_text(
            'policy "p" { approved_model "m1" { acceptable_uses = '
            '["recruitment"] synthetic_data_capability = false } }')
        manifest = "declared_use=credit-scoring\nsynthetic=true\n"
        (workdir / "use.manifest").write_text(manifest)
        argv = ["evaluate", str(workdir / "model.law"),
                "--dataset", str(workdir / "data.csv"),
                "--manifest", str(workdir / "use.manifest"), "--mode", "agent"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "Policy p: explain\n"
            "Context use credit-scoring: violation — manifest names no model_id\n"
            "Context synthetic data generation: violation — "
            "manifest names no model_id\n")
        # naming the model judges the same items against it
        (workdir / "use.manifest").write_text("model_id=m1\n" + manifest)
        assert main(argv) == 1
        assert capsys.readouterr().out.count(": violation — ") == 2

    def test_ragged_last_row_without_protected_attribute(self, workdir,
                                                         capsys):
        (workdir / "bare.law").write_text('policy "bare" {}')
        (workdir / "ragged.csv").write_text(SMALL_DATASET + "Male\n")
        code = main(["evaluate", str(workdir / "bare.law"),
                     "--dataset", str(workdir / "ragged.csv")])
        assert code == 2
        assert "row 17: expected 2 cells, got 1" in capsys.readouterr().err

    def test_missing_protected_column_exit_two(self, workdir, capsys):
        (workdir / "gender.csv").write_text(
            SMALL_DATASET.replace("sex,", "gender,", 1))
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "gender.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "column 'sex' not found; dataset has: gender, occupation\n")

    def test_deterministic_runs_byte_identical(self, workdir, capsys):
        argv = ["evaluate", str(workdir / "policy.law"),
                "--dataset", str(workdir / "data.csv"), "--deterministic"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_composition_audit_flags(self, workdir, capsys):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--deterministic",
                     "--composition-reference", "0.4975",
                     "--composition-range=-0.05,0.05"])
        out = capsys.readouterr().out
        assert code == 1  # 5/15 female share deviates by more than 0.05
        assert "Composition audit" in out

    def test_composition_counts_stripped_labels(self, workdir, capsys):
        # The UCI Adult layout pads each cell after its comma separator;
        # binding and the composition audit both strip the protected cell.
        (workdir / "adult.csv").write_text(
            "age, sex, occupation\n"
            "39, Male, Exec-managerial\n50, Male, Other\n"
            "38, Female, Exec-managerial\n53, Female, Other\n")
        (workdir / "wide.law").write_text(SCENARIO1_POLICY.replace(
            "range = [-0.01, 0.01]", "range = [-0.1, 0.1]"))
        code = main(["evaluate", str(workdir / "wide.law"),
                     "--dataset", str(workdir / "adult.csv"),
                     "--deterministic", "--composition-reference", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "  share 'Female' = 0.5\n  share 'Male' = 0.5\n" in out
        assert "deviation = 0.0, range [-0.05, 0.05] -> comply" in out

    def test_bad_composition_range_rejected_before_reading(self, workdir,
                                                           capsys):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "absent.csv"),
                     "--composition-range=0.1,-0.1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "argument --composition-range: bad range '0.1,-0.1'; " \
            "expected LO,HI" in err
        assert "cannot read" not in err

    def test_predictions_pipeline(self, workdir, capsys):
        policy = workdir / "preds.law"
        policy.write_text(
            'policy "preds" {\n'
            '  protected_attribute sex {\n'
            '    privileged = "Male"\n'
            '    unprivileged = "Female"\n'
            '  }\n'
            '  favorable_outcome occupation { value = "Exec-managerial" }\n'
            '  metric equalized_odds { range = [0, 0.5] }\n'
            '}\n')
        preds = workdir / "preds.csv"
        preds.write_text(
            "group,predicted,actual\n"
            "Male,1,1\nMale,0,0\nMale,1,0\nMale,0,1\n"
            "Female,1,1\nFemale,0,0\nFemale,1,0\nFemale,0,1\n")
        code = main(["evaluate", str(policy),
                     "--dataset", str(workdir / "data.csv"),
                     "--predictions", str(preds), "--deterministic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "equalized_odds" in out


    def test_nonfinite_composition_reference_exit_two(self, workdir, capsys):
        for value in ("nan", "inf", "-inf"):
            code = main(["evaluate", str(workdir / "policy.law"),
                         "--dataset", str(workdir / "data.csv"),
                         "--json", str(workdir / "report.json"),
                         f"--composition-reference={value}"])
            assert code == 2
            assert "must be finite" in capsys.readouterr().err
            assert not (workdir / "report.json").exists()

    def test_oversized_csv_field_exit_two(self, workdir, capsys):
        big = "x" * 200_000
        (workdir / "big.csv").write_text(
            f"sex,occupation\nMale,Other\nFemale,{big}\n")
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "big.csv")])
        assert code == 2
        assert "row 3: field larger than field limit" in capsys.readouterr().err

        (workdir / "big-preds.csv").write_text(
            f"group,predicted,actual,legitimate\nMale,1,1,{big}\n")
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--predictions", str(workdir / "big-preds.csv")])
        assert code == 2
        assert "row 2: field larger than field limit" in capsys.readouterr().err

    def test_repeated_header_exit_two(self, workdir, capsys):
        (workdir / "dup.csv").write_text(
            "sex,occupation,sex\nMale,Other,Female\n")
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "dup.csv")])
        assert code == 2
        assert "column 'sex' appears more than once" in capsys.readouterr().err

        (workdir / "dup-preds.csv").write_text(
            "group,predicted,actual,actual\nMale,1,1,0\n")
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--predictions", str(workdir / "dup-preds.csv")])
        assert code == 2
        assert "column 'actual' appears more than once" in \
            capsys.readouterr().err


SMALL_ROWS = SMALL_DATASET.split("\n", 1)[1].encode()


class TestShardedEvaluate:
    """With sharding forced, evaluate's output and errors stay serial."""

    def evaluate(self, workdir, capsys, dataset):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(dataset), "--deterministic"])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("bad_row, message", [
        (b"Male\n", "row 15002: expected 2 cells, got 1"),
        (b"Female,Oth\xffer\n", "input is not valid UTF-8: 'utf-8' codec "
         "can't decode byte 0xff"),
        (b"Female," + b"x" * 200_000 + b"\n",
         "row 15002: field larger than field limit (131072)"),
    ], ids=["ragged", "utf-8", "oversized"])
    def test_error_in_a_later_shard(self, workdir, capsys, monkeypatch,
                                    bad_row, message):
        head = b"sex,occupation\n" + SMALL_ROWS * 1000
        path = workdir / "late.csv"
        path.write_bytes(head + bad_row + SMALL_ROWS)
        serial = self.evaluate(workdir, capsys, path)
        assert serial[0] == 2 and message in serial[2]
        force_shards(monkeypatch, 4)
        assert ingest._shard_cuts(path)[1] <= len(head)
        assert self.evaluate(workdir, capsys, path) == serial

    def test_missing_column(self, workdir, capsys, monkeypatch):
        force_shards(monkeypatch, 4)
        path = workdir / "gender.csv"
        path.write_bytes(b"gender,occupation\n" + SMALL_ROWS * 4)
        assert self.evaluate(workdir, capsys, path) == (
            2, "", "column 'sex' not found; dataset has: gender, occupation\n")

    def test_quoted_newline_counts_serially(self, workdir, capsys,
                                            monkeypatch):
        plain = workdir / "plain.csv"
        plain.write_bytes(b"sex,occupation,note\n"
                          + SMALL_ROWS.replace(b"\n", b",n\n") * 4)
        quoted = workdir / "quoted.csv"
        quoted.write_bytes(b"sex,occupation,note\n"
                           + SMALL_ROWS.replace(b"\n", b',"a\nb"\n') * 4)
        expected = self.evaluate(workdir, capsys, plain)
        force_shards(monkeypatch, 4)
        assert ingest._shard_cuts(quoted) is None
        assert self.evaluate(workdir, capsys, quoted) == expected

    def test_dead_child_falls_back(self, workdir, capsys, monkeypatch,
                                   forks):
        path = workdir / "many.csv"
        path.write_bytes(b"sex,occupation\n" + SMALL_ROWS * 4)
        expected = self.evaluate(workdir, capsys, path)
        force_shards(monkeypatch, 4)
        monkeypatch.setattr(ingest, "_count_range",
                            lambda *args: os._exit(9))
        assert self.evaluate(workdir, capsys, path) == expected
        assert len(forks) == 3
        for pid in forks:  # every child was reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


PREDICTION_POLICY = """\
policy "preds" {
  protected_attribute sex {
    privileged = "Male"
    unprivileged = "Female"
  }
  favorable_outcome occupation { value = "Exec-managerial" }
  metric equalized_odds { range = [-0.5, 0.5] }
  metric conditional_statistical_parity { range = [-0.5, 0.5] }
  metric calibration {
    range = [-0.5, 0.5]
    bins = 5
  }
  metric balance_positive { range = [-0.5, 0.5] }
}
"""

PREDICTION_ROWS = b"".join(
    b"%s,%d,%d,%s,%s\n" % (group, i % 2, i // 2 % 2,
                            b"" if i % 7 == 0 else b"0.%02d" % (i * 37 % 100),
                            b"band-%d" % (i % 3))
    for i in range(40) for group in (b"Male", b"Female"))


class TestShardedPredictions:
    """With sharding forced, a prediction file gives the serial report and
    errors."""

    @pytest.fixture
    def preds_dir(self, workdir):
        (workdir / "preds.law").write_text(PREDICTION_POLICY)
        return workdir

    @pytest.fixture
    def serial_passes(self, monkeypatch):
        """The sources of every serial CSV pass during the test."""
        sources = []
        csv_table = ingest._csv_table

        def recording_csv_table(source):
            sources.append(source)
            return csv_table(source)

        monkeypatch.setattr(ingest, "_csv_table", recording_csv_table)
        return sources

    def evaluate(self, workdir, capsys, predictions):
        code = main(["evaluate", str(workdir / "preds.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--predictions", str(predictions), "--deterministic"])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("bad_row, message", [
        (b"Male,1,1\n", "row 4002: expected 5 cells, got 3"),
        (b"Other,1,1,0.5,a\n", "row 4002: group 'Other' is neither"),
        (b"Male,2,1,0.5,a\n", "row 4002: label '2' must be 0 or 1"),
        (b"Male,1,1,high,a\n", "row 4002: score 'high' is not a number"),
        (b"Male,1,1,1.5,a\n", "row 4002: score 1.5 outside [0, 1]"),
        (b"Male,1,1,0.5,b\xffd\n", "input is not valid UTF-8: 'utf-8' "
         "codec can't decode byte 0xff"),
        (b"Male,1,1,0.5," + b"x" * 200_000 + b"\n",
         "row 4002: field larger than field limit (131072)"),
    ], ids=["ragged", "group", "label", "score", "range", "utf-8",
            "oversized"])
    def test_error_in_a_later_shard(self, preds_dir, capsys, monkeypatch,
                                    bad_row, message):
        head = b"group,predicted,actual,score,legitimate\n" \
            + PREDICTION_ROWS * 50
        path = preds_dir / "late.csv"
        path.write_bytes(head + bad_row + PREDICTION_ROWS)
        serial = self.evaluate(preds_dir, capsys, path)
        assert serial[0] == 2 and message in serial[2]
        force_shards(monkeypatch, 4)
        assert ingest._shard_cuts(path)[1] <= len(head)
        assert self.evaluate(preds_dir, capsys, path) == serial

    @pytest.mark.parametrize("cpus", [1, 4], ids=["serial", "sharded"])
    def test_byte_order_marks_are_ignored(self, preds_dir, capsys,
                                          monkeypatch, forks, cpus):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark,
        # and some editors save text files with one.
        (preds_dir / "many.csv").write_bytes(
            b"group,predicted,actual,score,legitimate\n" + PREDICTION_ROWS * 4)
        marked = preds_dir / "marked"
        marked.mkdir()
        for name in ("preds.law", "data.csv", "many.csv", "run.manifest"):
            (marked / name).write_bytes(
                "\ufeff".encode() + (preds_dir / name).read_bytes())

        def run(inputs):
            code = main(["evaluate", str(inputs / "preds.law"),
                         "--dataset", str(inputs / "data.csv"),
                         "--predictions", str(inputs / "many.csv"),
                         "--manifest", str(inputs / "run.manifest"),
                         "--deterministic"])
            return (code, *capsys.readouterr())

        expected = run(preds_dir)
        assert expected[0] in (0, 1) and "calibration" in expected[1]
        force_shards(monkeypatch, cpus)
        assert run(marked) == expected
        assert len(forks) == (0 if cpus == 1 else 6)

    @pytest.mark.parametrize("failure", ["dead", "truncated", "trailing",
                                         "exit-3"])
    def test_failed_child_falls_back(self, preds_dir, capsys, monkeypatch,
                                     forks, serial_passes, failure):
        path = preds_dir / "many.csv"
        path.write_bytes(b"group,predicted,actual,score,legitimate\n"
                         + PREDICTION_ROWS * 4)
        expected = self.evaluate(preds_dir, capsys, path)
        assert expected[0] in (0, 1) and "calibration" in expected[1]
        force_shards(monkeypatch, 4)
        if failure == "dead":
            monkeypatch.setattr(ingest, "_count_range",
                                lambda *args: os._exit(9))
        else:
            dump = ingest._dump_tally

            def bad_dump(tally, pipe):
                buf = io.BytesIO()
                dump(tally, buf)
                data = buf.getvalue()
                if failure == "exit-3":  # a whole stream, then a failure
                    pipe.write(data)
                    pipe.flush()
                    os._exit(3)
                pipe.write(data[:-8] if failure == "truncated"
                           else data + b"\0")

            monkeypatch.setattr(ingest, "_dump_tally", bad_dump)
        del serial_passes[:]
        assert self.evaluate(preds_dir, capsys, path) == expected
        assert serial_passes[-1] == str(path)  # predictions fell back
        assert len(forks) == 6  # three for the dataset, three for predictions
        for pid in forks:  # every child was reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_sharded_report_is_the_serial_report(self, preds_dir, capsys,
                                                 monkeypatch, forks,
                                                 serial_passes):
        path = preds_dir / "many.csv"
        path.write_bytes(b"legitimate,score,actual,predicted,group\r\n"
                         + b"\r\n".join(b",".join(reversed(line.split(b",")))
                                         for line in PREDICTION_ROWS.split()
                                         * 4) + b"\r\n")
        expected = self.evaluate(preds_dir, capsys, path)
        force_shards(monkeypatch, 3)
        del serial_passes[:]
        assert self.evaluate(preds_dir, capsys, path) == expected
        assert serial_passes == [] and len(forks) == 4


class TestExitCodes:
    def test_closed_stdout_exits_two(self, workdir):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__))]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "complykit.cli", "evaluate",
             str(workdir / "policy.law"), "--dataset", str(workdir / "data.csv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err

    def test_internal_error_exits_two(self, workdir, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("metric exploded")

        monkeypatch.setattr(fairness, "statistical_parity_from_counts", broken)
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(
            "internal error: RuntimeError: metric exploded\nTraceback")

    @settings(max_examples=100, deadline=None)
    @given(evaluate_inputs(),
           st.sampled_from((None, None, None, MANIFEST, "declared_use=fraud\n",
                            "synthetic=maybe\n", "model_id=\xff\n")),
           st.sampled_from((None, "agent", "display", "both")),
           st.sampled_from((None, "report.json", "report.json",
                            "absent/report.json")),
           st.sampled_from((None, None, None, "0.5", "0.4975", "0", "1",
                            "nan")),
           st.sampled_from((None, None, None, "-0.05,0.05", "-1,1", "0,0",
                            "0.1,-0.1")),
           st.booleans())
    def test_evaluate_exit_code_contract(self, tmp_path_factory, inputs,
                                         manifest, mode, json_name,
                                         reference, rng, deterministic):
        """Any evaluate run exits 0, 1 or 2; 1 exactly when the report does
        not comply; 2 with nothing on stdout; every JSON report matches the
        schema; and a policy `check` accepts raises no policy diagnostic."""
        policy_text, dataset, predictions = inputs
        work = tmp_path_factory.mktemp("evaluate")
        policy_path = work / "policy.law"
        policy_path.write_bytes(policy_text.encode("utf-8"))
        (work / "data.csv").write_bytes(dataset.encode("utf-8"))
        argv = ["evaluate", str(policy_path), "--dataset", str(work / "data.csv")]
        if predictions is not None:
            (work / "preds.csv").write_bytes(predictions.encode("utf-8"))
            argv += ["--predictions", str(work / "preds.csv")]
        if manifest is not None:
            (work / "run.manifest").write_bytes(
                manifest.encode("latin-1"))  # "\xff" is not UTF-8
            argv += ["--manifest", str(work / "run.manifest")]
        if mode is not None:
            argv += ["--mode", mode]
        if json_name is not None:
            argv += ["--json", str(work / json_name)]
        if reference is not None:
            argv.append(f"--composition-reference={reference}")
        if rng is not None:
            argv.append(f"--composition-range={rng}")
        if deterministic:
            argv.append("--deterministic")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            accepted = main(["check", str(policy_path)]) == 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "internal error" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        if accepted:
            assert not re.search(rf"^{re.escape(str(policy_path))}:\d+:\d+: ",
                                 err.getvalue(), re.M)
        written = work / "report.json"
        if written.exists():
            data = written.read_bytes()
            validate_report(data)
            if code != 2:
                assert (code == 1) == \
                    (json.loads(data)["overall_status"] != "comply")


class TestDecide:
    def test_wald_table(self, workdir, capsys):
        code = main(["decide", "--matrix", str(workdir / "matrix.csv"),
                     "--criterion", "wald"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen: High" in out

    def test_savage_regrets(self, workdir, capsys):
        code = main(["decide", "--matrix", str(workdir / "matrix.csv"),
                     "--criterion", "savage"])
        out = capsys.readouterr().out
        assert code == 0
        assert "regret matrix:" in out
        assert "chosen: High" in out

    @pytest.mark.parametrize("criterion, expected", [
        ("wald", "criterion: wald\n"
                 "  a: -0.0\n"
                 "  b: -0.2\n"
                 "chosen: a (value -0.0)\n"),
        ("hurwicz", "criterion: hurwicz\n"
                    "  a: 5000000000000000.0\n"
                    "  b: -0.1\n"
                    "chosen: a (value 5000000000000000.0)\n"),
        ("savage", "criterion: savage\n"
                   "  a: 1e-20\n"
                   "  b: 1e+16\n"
                   "regret matrix:\n"
                   "  a: [0.0, 0.0, 1e-20]\n"
                   "  b: [0.30000000000000004, 1e+16, 0.0]\n"
                   "chosen: a (value 1e-20)\n"),
    ])
    def test_float_text_at_the_edges(self, tmp_path, capsys, criterion,
                                     expected):
        """Scores, regret rows and the chosen value print each float as
        its shortest round-trip text."""
        (tmp_path / "edges.csv").write_text(
            "class,s1,s2,s3\na,0.1,1e16,-0.0\nb,-0.2,0,1e-20\n")
        code = main(["decide", "--matrix", str(tmp_path / "edges.csv"),
                     "--criterion", criterion])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_byte_order_mark_before_a_quoted_header(self, workdir, capsys):
        # A spreadsheet quotes a header cell that holds a comma.
        header, rows = MATRIX_CSV.split("\n", 1)
        header = header.replace("class", '"action, class"')
        (workdir / "marked.csv").write_text("\ufeff" + header + "\n" + rows,
                                            encoding="utf-8")
        runs = [(main(["decide", "--matrix", str(workdir / name),
                       "--criterion", "savage"]), *capsys.readouterr())
                for name in ("matrix.csv", "marked.csv")]
        assert runs[0][0] == 0 and runs[1] == runs[0]

    def test_non_utf8_matrix_exit_two(self, workdir, capsys):
        (workdir / "bad.csv").write_bytes(b"class,s\n\xff,1\n")
        code = main(["decide", "--matrix", str(workdir / "bad.csv"),
                     "--criterion", "wald"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input is not valid UTF-8: ")

    def test_overflowing_regret_exit_two(self, workdir, capsys):
        big = "9" * 308
        (workdir / "wide.csv").write_text(f"class,s\na,{big}\nb,-{big}\n")
        code = main(["decide", "--matrix", str(workdir / "wide.csv"),
                     "--criterion", "savage"])
        assert code == 2
        assert "span more than a float can hold" in capsys.readouterr().err

    def test_bad_criterion(self, workdir, capsys):
        code = main(["decide", "--matrix", str(workdir / "matrix.csv"),
                     "--criterion", "laplace"])
        assert code == 2

    def test_blank_rows_skipped(self, workdir, capsys):
        assert main(["decide", "--matrix", str(workdir / "matrix.csv"),
                     "--criterion", "wald"]) == 0
        expected = capsys.readouterr().out
        (workdir / "gaps.csv").write_text(MATRIX_CSV.replace("\n", "\n\n"))
        code = main(["decide", "--matrix", str(workdir / "gaps.csv"),
                     "--criterion", "wald"])
        assert code == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("data, message", [
        (b"class,s,s\na,1,2\n", "row 1: column 's' appears more than once"),
        (b"class,s1,s2\na,1,2\nb,1\n", "row 3: expected 3 cells, got 2"),
    ], ids=["repeated-header", "ragged"])
    def test_bad_matrix_exit_two(self, tmp_path, capsys, data, message):
        (tmp_path / "bad.csv").write_bytes(data)
        code = main(["decide", "--matrix", str(tmp_path / "bad.csv"),
                     "--criterion", "wald"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    def test_unreadable_matrix_is_an_ingest_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        with pytest.raises(ingest.IngestError, match="cannot read"):
            decisions.PayoffMatrix.from_csv(missing)
        assert main(["decide", "--matrix", str(missing),
                     "--criterion", "wald"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(MATRIX_CELLS), min_size=1,
                             max_size=4), min_size=1, max_size=5),
           st.lists(st.sampled_from(("\n", "\r\n", "\r", "\n\n")),
                    min_size=5, max_size=5),
           st.sampled_from(decisions.CRITERIA))
    def test_exit_code_contract(self, tmp_path_factory, rows, ends, criterion):
        """Any matrix file exits 0 or 2, and exit 2 writes nothing to stdout."""
        text = "".join(",".join(row) + end for row, end in zip(rows, ends))
        path = tmp_path_factory.getbasetemp() / "generated-matrix.csv"
        path.write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["decide", "--matrix", str(path),
                         "--criterion", criterion])
        assert code in (0, 2)
        assert "internal error" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""


class TestFmt:
    def test_canonical_file_exit_zero(self, workdir, capsys):
        from complykit.policy import parse_policy, serialize_policy
        canonical = workdir / "canon.law"
        canonical.write_text(serialize_policy(parse_policy(SCENARIO1_POLICY)))
        assert main(["fmt", str(canonical)]) == 0

    def test_perturbed_file_exit_one(self, workdir, capsys):
        messy = workdir / "messy.law"
        messy.write_text('policy "p"   {   on_violation=halt   }')
        code = main(["fmt", str(messy)])
        out = capsys.readouterr().out
        assert code == 1
        assert out == 'policy "p" {\n  on_violation = halt\n}\n'

    def test_write_rewrites_file(self, workdir, capsys):
        messy = workdir / "messy.law"
        messy.write_text('policy "p"   {  }')
        assert main(["fmt", str(messy), "--write"]) == 1
        assert messy.read_text() == 'policy "p" {\n}\n'
        # now canonical
        assert main(["fmt", str(messy), "--write"]) == 0

    def test_keeps_every_digit(self, workdir, capsys):
        text = ('policy "p" {\n'
                '  metric calibration {\n'
                '    range = [-0.0000000000000000001, 0.5]\n'
                '    tolerance = 0.00000000000000000001\n'
                '  }\n'
                '}\n')
        path = workdir / "tiny.law"
        path.write_text(text)
        assert main(["fmt", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_invalid_file_exit_two(self, workdir, capsys):
        bad = workdir / "bad.law"
        bad.write_text("not a policy")
        assert main(["fmt", str(bad)]) == 2
