import io
import json
import os
import subprocess
import sys

import pytest

from complykit import cli, fairness, ingest
from complykit.cli import main
from conftest import SCENARIO1_POLICY, force_shards
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
            dump = ingest._dump_cells

            def bad_dump(cells, pipe):
                buf = io.BytesIO()
                dump(cells, buf)
                data = buf.getvalue()
                if failure == "exit-3":  # a whole stream, then a failure
                    pipe.write(data)
                    pipe.flush()
                    os._exit(3)
                pipe.write(data[:-8] if failure == "truncated"
                           else data + b"\0")

            monkeypatch.setattr(ingest, "_dump_cells", bad_dump)
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

    def test_non_utf8_matrix_exit_two(self, workdir, capsys):
        (workdir / "bad.csv").write_bytes(b"class,s\n\xff,1\n")
        code = main(["decide", "--matrix", str(workdir / "bad.csv"),
                     "--criterion", "wald"])
        assert code == 2
        assert "is not valid UTF-8" in capsys.readouterr().err

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
