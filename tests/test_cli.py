import fcntl
import gc
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

# SPD 1/10 - 5/10 = -0.4: fails the scenario-1 policy.
SKEWED_DATASET = (
    "sex,occupation\n"
    + "Male,Exec-managerial\n" * 5 + "Male,Other\n" * 5
    + "Female,Exec-managerial\n" * 1 + "Female,Other\n" * 9
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
                doc.approved_sources, doc.approved_models, doc.decision)
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

    @pytest.mark.parametrize("text, diagnostic", [
        ('policy "p" { on_violation = halt }',
         "1:14: SyntaxError: expected a policy item, found IDENT "
         "'on_violation'"),
        ('policy "p" { approved_model "m" { description = "d" } }',
         "1:35: SyntaxError: unexpected IDENT 'description' in "
         "approved_model block"),
    ])
    def test_keys_outside_the_grammar_exit_two(self, tmp_path, capsys, text,
                                               diagnostic):
        bad = tmp_path / "bad.law"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"{bad}:{diagnostic}\n"


class TestEvaluate:
    def test_violation_exit_one(self, workdir, capsys):
        # small fixture SPD: 2/5 - 4/10 = 0.0 ... use a skewed dataset instead
        skewed = workdir / "skew.csv"
        skewed.write_text(SKEWED_DATASET)
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

    def test_comply_by_tolerance_names_the_tolerance(self, workdir, capsys):
        # 4 of 10 Female and 3 of 10 Male favorable: SPD 0.10000000000000003
        # is outside [-0.05, 0.05] but within its tolerance of 0.06.
        (workdir / "tenths.csv").write_text(
            "sex,occupation\n"
            + "Female,Exec-managerial\n" * 4 + "Female,Other\n" * 6
            + "Male,Exec-managerial\n" * 3 + "Male,Other\n" * 7)
        (workdir / "tolerant.law").write_text(SCENARIO1_POLICY.replace(
            "range = [-0.01, 0.01]",
            "range = [-0.05, 0.05]\n    tolerance = 0.06"))
        code = main(["evaluate", str(workdir / "tolerant.law"),
                     "--dataset", str(workdir / "tenths.csv"),
                     "--deterministic", "--json", str(workdir / "r.json")])
        out = capsys.readouterr().out
        explanation = ("value 0.10000000000000003 within tolerance 0.06 of "
                       "legitimate interval [-0.05, 0.05]")
        assert code == 0
        assert f"\n    {explanation}\n" in out
        verdict, = json.loads((workdir / "r.json").read_bytes())["verdicts"]
        assert (verdict["status"], verdict["explanation"]) == \
            ("comply", explanation)

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

    def test_nul_row_exit_two_on_every_python(self, workdir, capsys):
        # `csv` rejects the NUL before Python 3.11 and reads it as text
        # from 3.11 on; every version must report the row, not exclude it
        # as matching neither group.
        (workdir / "nul.csv").write_text(
            "sex,occupation\nMale,Sales\nFem\0ale,Sales\nFemale,Other\n")
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "nul.csv"),
                     "--deterministic"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "row 3: line contains NUL\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("value, reason", [
        ("0.1,-0.1", " (inverted interval: [0.1, -0.1])"),
        ("nan,1", " (interval endpoints must be finite)"),
        ("0,-inf", " (interval endpoints must be finite)"),
        ("0.1", ""),
        ("0,1,2", ""),
        ("lo,hi", ""),
    ])
    def test_bad_composition_range_gives_its_reason(self, workdir, capsys,
                                                    value, reason):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "absent.csv"),
                     f"--composition-range={value}"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.endswith("argument --composition-range: bad range "
                            f"{value!r}; expected LO,HI{reason}\n")

    def test_composition_needs_protected_before_reading(self, workdir,
                                                        capsys):
        (workdir / "bare.law").write_text(
            'policy "bare" { metric equal_opportunity { range = [0, 1] } }\n')
        code = main(["evaluate", str(workdir / "bare.law"),
                     "--dataset", str(workdir / "absent.csv"),
                     "--manifest", str(workdir / "absent.manifest"),
                     "--composition-reference", "0.5"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == ("composition audit needs a protected_attribute in "
                       "the policy\n")

    def test_control_characters_in_json_strings(self, workdir, capsys):
        # A policy string may hold a tab, which JSON writes as `\t`, and
        # the text report prints as the name's repr.
        (workdir / "tab.law").write_text(SCENARIO1_POLICY.replace(
            '"scenario-1"', '"a\tb"'))
        out_path = workdir / "report.json"
        main(["evaluate", str(workdir / "tab.law"),
              "--dataset", str(workdir / "data.csv"),
              "--deterministic", "--json", str(out_path)])
        assert "Policy: 'a\\tb'\n" in capsys.readouterr().out
        data = out_path.read_bytes()
        assert b'"policy": "a\\tb"' in data
        assert json.loads(data)["policy"] == "a\tb"
        validate_report(data)

    def test_control_characters_in_context_texts(self, workdir, capsys):
        # A manifest value is data: a finding whose subject holds an
        # escape sequence prints as its repr in both modalities, so the
        # sequence never reaches the terminal; the JSON keeps the text.
        (workdir / "esc.manifest").write_text("dataset_source=x\x1b[31mred\n")
        out_path = workdir / "report.json"
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--manifest", str(workdir / "esc.manifest"),
                     "--deterministic", "--json", str(out_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "\x1b" not in out
        assert ("Context 'source x\\x1b[31mred': violation — unknown source\n"
                in out)
        assert ("  [violation] 'source x\\x1b[31mred' — unknown source\n"
                in out)
        assert json.loads(out_path.read_bytes())["findings"] == [
            {"subject": "source x\x1b[31mred", "status": "violation",
             "reason": "unknown source"}]

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


    def test_metric_without_its_input_is_an_error_verdict(self, workdir,
                                                          capsys):
        policy = workdir / "eo.law"
        policy.write_text(
            'policy "eo" {\n'
            '  protected_attribute sex '
            '{ privileged = "Male" unprivileged = "Female" }\n'
            '  favorable_outcome occupation { value = "Exec-managerial" }\n'
            '  metric equal_opportunity { range = [-0.1, 0.1] }\n'
            '}\n')
        code = main(["evaluate", str(policy),
                     "--dataset", str(workdir / "data.csv"),
                     "--json", str(workdir / "report.json"),
                     "--deterministic", "--mode", "agent"])
        assert code == 1
        assert capsys.readouterr().out == (
            "Policy eo: explain\n"
            "Constraint equal_opportunity: error — metric was not computed "
            "(missing input)\n")
        verdict, = json.loads((workdir / "report.json").read_bytes())["verdicts"]
        assert (verdict["status"], verdict["explanation"]) == (
            "error", "metric was not computed (missing input)")

    def test_non_numeric_composition_reference_exit_two(self, workdir, capsys):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--composition-reference", "abc"])
        assert code == 2
        assert "argument --composition-reference: not a number: 'abc'" in \
            capsys.readouterr().err

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


class TestStratumKeys:
    """Stratum texts are data: a report writes each as the key of one
    JSON member and never lets one shape the text report."""

    POLICY = (
        'policy "strata" {\n'
        '  protected_attribute sex '
        '{ privileged = "Male" unprivileged = "Female" }\n'
        '  favorable_outcome occupation { value = "Exec-managerial" }\n'
        '  metric conditional_statistical_parity { range = [-0.1, 0.1] }\n'
        '}\n')
    HEAD = (
        "Policy strata: explain\n"
        "Constraint conditional_statistical_parity: explain — value "
        "outside legitimate interval: 1.0 not in [-0.1, 0.1]\n"
        "\n"
        "Policy: strata\n"
        "Overall: explain\n"
        "\n"
        "Constraints:\n"
        "  [explain] conditional_statistical_parity = 1.0, legitimate "
        "interval [-0.1, 0.1]\n"
        "    value outside legitimate interval: 1.0 not in [-0.1, 0.1]\n"
        "    per_stratum_gap:\n")

    def evaluate(self, workdir, capsys, strata):
        (workdir / "strata.law").write_text(self.POLICY)
        rows = [f"Male,1,1,{strata[0]}", f"Female,1,0,{strata[0]}",
                f"Male,0,0,{strata[1]}", f"Female,1,1,{strata[1]}"]
        (workdir / "preds.csv").write_text(
            "group,predicted,actual,legitimate\n" + "\n".join(rows) + "\n")
        code = main(["evaluate", str(workdir / "strata.law"),
                     "--dataset", str(workdir / "data.csv"),
                     "--predictions", str(workdir / "preds.csv"),
                     "--deterministic", "--json", str(workdir / "report.json")])
        assert code == 1
        return (capsys.readouterr().out,
                (workdir / "report.json").read_bytes())

    def test_blank_and_none_strata_share_one_json_member(self, workdir,
                                                         capsys):
        # A blank cell is the stratum None, whose text is that of the cell
        # "None": the text lists both gaps, and the JSON object writes the
        # name once, with the later gap (the autouse fixture rejects a
        # repeated name).
        out, data = self.evaluate(workdir, capsys, ("None", ""))
        assert out == self.HEAD + (
            "      None = 1.0\n"
            "      None = 0.0\n"
            "    skipped_strata = []\n")
        assert data == (
            b'{"schema_version": 1, "policy": "strata", "overall_status": '
            b'"explain", "created_at": null, "modes": {"display": true, '
            b'"agent": true}, "findings": [], "verdicts": [{"constraint": '
            b'"conditional_statistical_parity", "value": 1, "reason": null, '
            b'"interval": {"lo": -0.10000000000000001, "hi": '
            b'0.10000000000000001}, "tolerance": 0, "status": "explain", '
            b'"explanation": "value outside legitimate interval: 1.0 not in '
            b'[-0.1, 0.1]", "trace": {"per_stratum_gap": {"None": 0}, '
            b'"skipped_strata": []}}], "composition_audit": null, '
            b'"strategy": null}')

    def test_stratum_text_cannot_forge_report_lines(self, workdir, capsys):
        out, data = self.evaluate(workdir, capsys,
                                  ('"a\nOverall: comply"', "\x1b[31m"))
        assert out == self.HEAD + (
            "      '\\x1b[31m' = 1.0\n"
            "      'a\\nOverall: comply' = 0.0\n"
            "    skipped_strata = []\n")
        assert json.loads(data)["verdicts"][0]["trace"]["per_stratum_gap"] \
            == {"\x1b[31m": 1, "a\nOverall: comply": 0}


class _Terminal(io.StringIO):
    def isatty(self):
        return True


class TestColor:
    """Report status words are colored on a terminal unless NO_COLOR is
    set, and never in a pipe or file."""

    def evaluate(self, workdir, stdout):
        with redirect_stdout(stdout):
            code = main(["evaluate", str(workdir / "policy.law"),
                         "--dataset", str(workdir / "data.csv"),
                         "--manifest", str(workdir / "run.manifest"),
                         "--deterministic"])
        assert code == 0
        return stdout.getvalue()

    def test_terminal_gets_color(self, workdir, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        plain = self.evaluate(workdir, io.StringIO())
        colored = self.evaluate(workdir, _Terminal())
        assert "[comply]" in plain and "\x1b" not in plain
        assert colored == plain.replace(
            "[comply]", "\x1b[32m[comply]\x1b[0m").replace(
            "[approved]", "\x1b[32m[approved]\x1b[0m")

    def test_no_color_turns_it_off(self, workdir, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        assert self.evaluate(workdir, _Terminal()) == \
            self.evaluate(workdir, io.StringIO())


class TestShardedEvaluate:
    """With sharding forced, evaluate's output and errors stay serial."""

    def evaluate(self, workdir, capsys, dataset):
        code = main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", str(dataset), "--deterministic"])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("bad_row, message", [
        (b"Male\n", "row 15002: expected 2 cells, got 1"),
        (b"Female,Oth\xffer\n", "row 15002: line is not valid UTF-8"),
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
        (b"Male,1,1,0.5,b\xffd\n", "row 4002: line is not valid UTF-8"),
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

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_calibration_reads_the_bin_counts_of_the_shards(
            self, preds_dir, capsys, monkeypatch, forks, cpus):
        # Every row scored: the report is the one binning `gp.scores` in
        # the metric gives, and the metric phase bins nothing.
        path = preds_dir / "scored.csv"
        path.write_bytes(b"group,predicted,actual,score,legitimate\n"
                         + PREDICTION_ROWS.replace(b",,", b",0.5,") * 4)
        read = ingest.read_predictions
        with monkeypatch.context() as mp:
            mp.setattr(ingest, "read_predictions",
                       lambda *args, calibration_bins: read(*args))
            expected = self.evaluate(preds_dir, capsys, path)
        assert expected[0] in (0, 1) and "calibration" in expected[1]
        assert "lack scores" not in expected[1]

        def no_binning(*args):
            raise AssertionError("the metric binned the scores")

        force_shards(monkeypatch, cpus)
        monkeypatch.setattr(fairness, "_bin_rows", no_binning)
        assert self.evaluate(preds_dir, capsys, path) == expected
        assert len(forks) == (0 if cpus == 1 else 4)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_no_calibration_constraint_bins_nothing(
            self, preds_dir, capsys, monkeypatch, cpus):
        (preds_dir / "preds.law").write_text(PREDICTION_POLICY.replace(
            "calibration", "predictive_parity"))
        path = preds_dir / "scored.csv"
        path.write_bytes(b"group,predicted,actual,score,legitimate\n"
                         + PREDICTION_ROWS.replace(b",,", b",0.5,") * 4)
        expected = self.evaluate(preds_dir, capsys, path)
        assert expected[0] in (0, 1) and "calibration" not in expected[1]

        def no_binning(*args):
            raise AssertionError("scores were binned")

        force_shards(monkeypatch, cpus)
        monkeypatch.setattr(fairness, "_bin_counts", no_binning)
        assert self.evaluate(preds_dir, capsys, path) == expected

    @pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"),
                        reason="needs Linux pipe sizes")
    @pytest.mark.parametrize("held", [True, False], ids=["held", "plain"])
    def test_named_pipes_give_the_file_report(self, preds_dir, held):
        # A pipe is not a regular file: it is opened and read once, by the
        # serial pass, whether a shell holds it for the command, as in
        # `evaluate … --dataset <(cat dataset.csv)`, or not.
        inputs = {
            "data.csv": b"sex,occupation\n" + SMALL_ROWS * 1000,
            "many.csv": b"group,predicted,actual,score,legitimate\n"
                        + PREDICTION_ROWS * 100,
        }
        for name, data in inputs.items():
            (preds_dir / name).write_bytes(data)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__))]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

        def evaluate(dataset, predictions):
            proc = subprocess.run(
                [sys.executable, "-m", "complykit.cli", "evaluate",
                 str(preds_dir / "preds.law"), "--dataset", str(dataset),
                 "--predictions", str(predictions), "--deterministic"],
                capture_output=True, env=env, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        expected = evaluate(preds_dir / "data.csv", preds_dir / "many.csv")
        assert expected[0] == 1 and b"calibration" in expected[1]
        copy = ("import shutil, sys\n"
                "with open(sys.argv[1], 'rb') as src, "
                "open(sys.argv[2], 'wb') as dst:\n"
                "    shutil.copyfileobj(src, dst)\n")
        fifos, ends, writers = [], [], []
        try:
            for name, data in inputs.items():
                fifo = preds_dir / (name + ".fifo")
                os.mkfifo(fifo)
                fifos.append(fifo)
                if held:
                    # Hold a read end, as a shell holds the pipe of
                    # `<(cat …)` for its command; with more than the pipe
                    # holds to write, the writer is still there for each
                    # open of the path.
                    ends.append(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                    assert len(data) > fcntl.fcntl(ends[-1],
                                                   fcntl.F_GETPIPE_SZ)
                writers.append(subprocess.Popen(
                    [sys.executable, "-c", copy, str(preds_dir / name),
                     str(fifo)]))
            assert evaluate(*fifos) == expected
            assert [proc.wait(timeout=60) for proc in writers] == [0, 0]
        finally:
            for proc in writers:
                proc.kill()
                proc.wait(timeout=60)
            for fd in ends:
                os.close(fd)


def _quoted(data: bytes) -> bytes:
    """Quote-free CSV bytes with every field quoted, so that no split
    pass reads them."""
    return b"\n".join(b",".join(b'"%s"' % cell for cell in line.split(b","))
                      if line else line for line in data.split(b"\n"))


class TestInvalidUtf8:
    """A byte that is not UTF-8 is a bad row: every CSV input names the
    first bad row in file order, serially and with shards forced, in a
    quote-free file (split, then left to `csv`) and in a quoted one (read
    by `csv` alone). The first case holds a ragged row 3 ahead of a bad
    byte on row 5, the second a bad byte alone on row 5,002."""

    @pytest.fixture(params=[1, 4], ids=["serial", "sharded"])
    def cpus(self, request, monkeypatch):
        force_shards(monkeypatch, request.param)

    @pytest.fixture(params=[False, True], ids=["unquoted", "quoted"])
    def write(self, request, workdir):
        def write(data):
            path = workdir / "bad.csv"
            path.write_bytes(_quoted(data) if request.param else data)
            return str(path)
        return write

    def run(self, capsys, *argv):
        return (main(list(argv)), *capsys.readouterr())

    @pytest.mark.parametrize("rows, message", [
        (b"Male,x\nFemale\nMale,y\nFemale,b\xffd\n",
         "row 3: expected 2 cells, got 1\n"),
        (b"Male,x\n" * 5000 + b"Female,b\xffd\n",
         "row 5002: line is not valid UTF-8\n"),
    ], ids=["ragged-first", "late-byte"])
    def test_dataset(self, workdir, capsys, cpus, write, rows, message):
        path = write(b"sex,occupation\n" + rows)
        assert self.run(capsys, "evaluate", str(workdir / "policy.law"),
                        "--dataset", path) == (2, "", message)

    @pytest.mark.parametrize("rows, message", [
        (b"Male,1,1,0.5,a\nFemale,1,1\nMale,0,1,0.5,a\nMale,1,1,0.5,b\xffd\n",
         "row 3: expected 5 cells, got 3\n"),
        (b"Male,1,1,0.5,a\n" * 5000 + b"Male,1,1,0.5,b\xffd\n",
         "row 5002: line is not valid UTF-8\n"),
    ], ids=["ragged-first", "late-byte"])
    def test_predictions(self, workdir, capsys, cpus, write, rows, message):
        (workdir / "preds.law").write_text(PREDICTION_POLICY)
        path = write(b"group,predicted,actual,score,legitimate\n" + rows)
        assert self.run(capsys, "evaluate", str(workdir / "preds.law"),
                        "--dataset", str(workdir / "data.csv"),
                        "--predictions", path) == (2, "", message)

    @pytest.mark.parametrize("rows, message", [
        (b"sail,3,-2\nwait,1\nrow,1,1\nfly,b\xffd,1\n",
         "row 3: expected 3 cells, got 2\n"),
        (b"".join(b"a%d,1,2\n" % i for i in range(5000)) + b"z,\xff,1\n",
         "row 5002: line is not valid UTF-8\n"),
    ], ids=["ragged-first", "late-byte"])
    def test_matrix(self, capsys, cpus, write, rows, message):
        path = write(b"action,calm,storm\n" + rows)
        assert self.run(capsys, "decide", "--matrix", path,
                        "--criterion", "wald") == (2, "", message)


class TestTracedPipeline:
    """`perfbench/tracer.py`'s `run_pipeline` calls the public API step by
    step, reads the predictions without calibration bins and so bins the
    scores in `fairness.calibration_gap`; the CLI bins them in the shards
    of `read_predictions`. Both must write the same report bytes."""

    def test_traced_pipeline_writes_the_cli_bytes(self, tmp_path, capsys,
                                                  monkeypatch, forks):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "perfbench"))
        import gen
        import tracer

        rng = random.Random(23)
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "policy.law").write_text(gen._policy(
            "traced", gen._all_metrics(7), gen._wald_3x3()))
        (inputs / "run.manifest").write_text(gen.MANIFEST)
        sexes = (gen.PRIVILEGED, gen.UNPRIVILEGED, "Unknown")
        (inputs / "dataset.csv").write_text("sex,occupation\n" + "".join(
            f"{rng.choice(sexes)},"
            f"{rng.choice((gen.FAVORABLE, *gen.OTHER_OCCUPATIONS))}\n"
            for _ in range(400)))
        # scores on the bin edges k/7 and their neighbours, and 0 and 1;
        # strata include a blank one and one the privileged group lacks;
        # group and label cells are padded (" Male", "Female ", " 1") on
        # some rows, and each shard merges them into the plain cells
        scores = ["0", "1", "0.5", *(repr(k / 7) for k in range(1, 7)),
                  *(f"{k / 7 + d:.17g}" for k in range(1, 7)
                    for d in (-1e-16, 1e-16))]

        def pad(cell):
            return rng.choice((cell, " " + cell, cell + " "))

        rows = []
        for _ in range(600):
            group = rng.choice((gen.PRIVILEGED, gen.UNPRIVILEGED))
            strata = ("a", "b", "", " ")
            if group == gen.UNPRIVILEGED:
                strata += ("only-u",)
            legitimate = rng.choice(strata)
            rows.append(f"{pad(group)},{pad(str(rng.randrange(2)))},"
                        f"{pad(str(rng.randrange(2)))},"
                        f"{rng.choice(scores)},{legitimate}\n")
        (inputs / "predictions.csv").write_text(
            "group,predicted,actual,score,legitimate\n" + "".join(rows))

        text, data, counts, _ = tracer.run_pipeline(tracer.Tracer("t"),
                                                    str(inputs))
        assert counts["prediction_rows"] == 600
        assert counts["bins_compared"] and counts["strata_skipped"]
        assert forks == []

        force_shards(monkeypatch, 3)
        json_path = tmp_path / "report.json"
        code = main(gen.evaluate_argv(str(inputs), str(json_path)))
        out, _ = capsys.readouterr()
        assert len(forks) == 4  # two shards of each input
        assert code == 1 and "] calibration = " in out
        assert out == text
        assert json_path.read_bytes() == data


class TestCyclicCollector:
    """`evaluate` runs with the cyclic collector paused and leaves it as it
    found it, whatever the exit code."""

    @pytest.fixture
    def runs(self, workdir):
        (workdir / "preds.law").write_text(PREDICTION_POLICY)
        (workdir / "bad.csv").write_bytes(
            b"group,predicted,actual,score,legitimate\n" + PREDICTION_ROWS
            + b"Male,2,1,0.5,a\n")
        skewed = workdir / "skew.csv"
        skewed.write_text(SKEWED_DATASET)
        law, data = str(workdir / "preds.law"), str(workdir / "data.csv")
        return {
            0: [str(workdir / "policy.law"), "--dataset", data,
                "--manifest", str(workdir / "run.manifest")],
            1: [str(workdir / "policy.law"), "--dataset", str(skewed)],
            2: [law, "--dataset", data,
                "--predictions", str(workdir / "bad.csv")],
        }

    @pytest.mark.parametrize("code", [0, 1, 2])
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_state_is_restored(self, runs, capsys, code, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["evaluate", *runs[code], "--deterministic"]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        if code == 2:
            assert "row 82: label '2' must be 0 or 1" in capsys.readouterr().err

    def test_no_collection_during_evaluate(self, workdir, capsys):
        # Thousands of strata make thousands of tracked objects, enough to
        # start many young collections if the collector ran.
        (workdir / "preds.law").write_text(PREDICTION_POLICY)
        preds = workdir / "preds.csv"
        preds.write_text("group,predicted,actual,score,legitimate\n" + "".join(
            f"{g},{i % 2},{i // 2 % 2},0.5,s{i}\n"
            for i in range(3000) for g in ("Male", "Female")))
        args = cli.build_parser().parse_args([
            "evaluate", str(workdir / "preds.law"),
            "--dataset", str(workdir / "data.csv"),
            "--predictions", str(preds), "--deterministic"])
        phases = []
        gc.callbacks.append(lambda phase, info: phases.append(phase))
        try:
            assert args.func(args) == 0
        finally:
            gc.callbacks.pop()
        assert gc.isenabled()
        assert phases == []


class TestHeapTrim:
    """`evaluate` gives the C heap's free pages back once it has freed a
    prediction tally, and only then."""

    def test_trims_once_after_a_prediction_tally(self, workdir, capsys,
                                                 monkeypatch):
        (workdir / "preds.law").write_text(PREDICTION_POLICY)
        (workdir / "preds.csv").write_bytes(
            b"group,predicted,actual,score,legitimate\n" + PREDICTION_ROWS)
        calls = []
        monkeypatch.setattr(cli, "_trim_c_heap", lambda: calls.append(1))
        data = str(workdir / "data.csv")
        assert main(["evaluate", str(workdir / "policy.law"),
                     "--dataset", data, "--deterministic"]) in (0, 1)
        assert calls == []
        assert main(["evaluate", str(workdir / "preds.law"),
                     "--dataset", data, "--predictions",
                     str(workdir / "preds.csv"), "--deterministic"]) in (0, 1)
        assert calls == [1]

    def test_trim_is_safe_on_any_platform(self):
        cli._trim_c_heap()


def _cli_env():
    """The environment of a `python -m complykit.cli` child that imports
    this checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


class TestExitCodes:
    def test_closed_stdout_exits_two(self, workdir):
        proc = subprocess.Popen(
            [sys.executable, "-m", "complykit.cli", "evaluate",
             str(workdir / "policy.law"), "--dataset", str(workdir / "data.csv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    @pytest.mark.parametrize("command", [
        ["fmt", "policy.law"],
        ["evaluate", "policy.law", "--dataset", "data.csv"],
        ["decide", "--matrix", "matrix.csv", "--criterion", "wald"]])
    def test_full_stdout_exits_two(self, workdir, command):
        # A full disk is a fault of the environment, not an internal error.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "complykit.cli", *command],
                cwd=workdir, stdout=full, stderr=subprocess.PIPE,
                env=_cli_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == b"cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    @pytest.mark.parametrize("command", [
        ["--help"], ["evaluate", "--help"]])
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_help_into_full_stdout_exits_two(self, workdir, command,
                                             unbuffered):
        # argparse drops a failed write of the help, which exited 0 (or 120
        # when stdout is buffered, and the final flush failed).
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "complykit.cli", *command],
                cwd=workdir, stdout=full, stderr=subprocess.PIPE,
                env=dict(_cli_env(), PYTHONUNBUFFERED=unbuffered), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == b"cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    @pytest.mark.parametrize("command, full_stdout", [
        (["check", "policy.law"], False),  # the `ok` line
        (["check", "absent.law"], False),
        (["check", "bad.law"], False),
        (["fmt", "absent.law"], False),
        (["evaluate", "policy.law", "--dataset", "excluded.csv"],
         False),  # the excluded-rows note
        (["evaluate", "policy.law", "--dataset", "absent.csv"], False),
        (["decide", "--matrix", "absent.csv", "--criterion", "wald"], False),
        (["decide", "--matrix", "matrix.csv", "--criterion", "nope"], False),
        (["evaluate", "policy.law", "--dataset", "data.csv"], True),
        (["--help"], True),
    ], ids=["check-ok", "check-absent", "check-invalid", "fmt-absent",
            "evaluate-note", "evaluate-absent", "decide-absent",
            "decide-usage", "evaluate-stdout-too", "help-stdout-too"])
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_full_stderr_exits_two(self, workdir, command, full_stdout,
                                   unbuffered):
        # Exit 1 means "violation": a run that cannot write its `ok`, its
        # note or its error to stderr says so by exit 2 alone.
        (workdir / "bad.law").write_text('policy "p" { on_violation = halt }')
        (workdir / "excluded.csv").write_text(SMALL_DATASET + "Other,Other\n")
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "complykit.cli", *command],
                cwd=workdir, stderr=full,
                stdout=full if full_stdout else subprocess.DEVNULL,
                env=dict(_cli_env(), PYTHONUNBUFFERED=unbuffered), timeout=60)
        assert proc.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this platform")
    def test_internal_error_with_full_stderr_exits_two(self, workdir):
        script = (
            "import sys\n"
            "from complykit import cli, fairness\n"
            "def broken(*args):\n"
            "    raise RuntimeError('metric exploded')\n"
            "fairness.statistical_parity_from_counts = broken\n"
            "sys.exit(cli.main(['evaluate', 'policy.law', "
            "'--dataset', 'data.csv']))\n")
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-c", script], cwd=workdir,
                stdout=subprocess.DEVNULL, stderr=full, env=_cli_env(),
                timeout=60)
        assert proc.returncode == 2

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="closing fd 2 in the child needs preexec_fn")
    @pytest.mark.parametrize("command, code", [
        (["evaluate", "policy.law", "--dataset", "data.csv"], 0),
        (["evaluate", "policy.law", "--dataset", "skew.csv"], 1),
        (["fmt", "policy.law"], 1),  # not canonical
        (["check", "policy.law"], 2),  # the `ok` line
        (["check", "absent.law"], 2),
        (["evaluate", "policy.law", "--dataset", "excluded.csv"], 2),
        (["--bogus"], 2),
    ], ids=["evaluate-comply", "evaluate-violation", "fmt", "check-ok",
            "check-absent", "evaluate-note", "usage"])
    def test_closed_stderr(self, workdir, command, code):
        # With fd 2 closed at start-up `sys.stderr` is None: a run with
        # nothing for stderr keeps its code, one with a line for it exits 2,
        # and no line lands on stdout in place of stderr.
        (workdir / "skew.csv").write_text(SKEWED_DATASET)
        (workdir / "excluded.csv").write_text(SMALL_DATASET + "Other,Other\n")
        proc = subprocess.run(
            [sys.executable, "-m", "complykit.cli", *command], cwd=workdir,
            stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2),
            env=_cli_env(), timeout=60)
        assert proc.returncode == code
        assert b"note:" not in proc.stdout
        assert b": ok" not in proc.stdout
        assert b"cannot read" not in proc.stdout

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="closing fd 1 in the child needs preexec_fn")
    @pytest.mark.parametrize("command", [
        ["fmt", "policy.law"],
        ["evaluate", "policy.law", "--dataset", "data.csv"],
        ["evaluate", "policy.law", "--dataset", "skew.csv"],
        ["decide", "--matrix", "matrix.csv", "--criterion", "wald"],
        ["--help"],
        ["evaluate", "--help"],
    ], ids=["fmt", "evaluate-comply", "evaluate-violation", "decide", "help",
            "evaluate-help"])
    def test_closed_stdout_at_start(self, workdir, command):
        # With fd 1 closed at start-up `sys.stdout` is None: the run cannot
        # write its output, and says so as it does for a full stdout.
        (workdir / "skew.csv").write_text(SKEWED_DATASET)
        proc = subprocess.run(
            [sys.executable, "-m", "complykit.cli", *command], cwd=workdir,
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
            env=_cli_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == b"cannot write stdout: Bad file descriptor\n"

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

    @pytest.mark.parametrize("criterion", ["wald", "hurwicz", "savage"])
    @pytest.mark.parametrize("value, message", [
        ("7", "must lie in [0, 1], got '7'"),
        ("-0.1", "must lie in [0, 1], got '-0.1'"),
        ("nan", "must be finite, got 'nan'")])
    def test_lambda_outside_unit_interval_exit_two(self, workdir, capsys,
                                                   criterion, value, message):
        """`--lambda` is checked at argument parsing under every
        criterion, as a policy's `lambda` is by the grammar."""
        code = main(["decide", "--matrix", str(workdir / "matrix.csv"),
                     "--criterion", criterion, f"--lambda={value}"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert f"argument --lambda: {message}\n" in err

    @pytest.mark.parametrize("criterion, scores, chosen", [
        ("hurwicz", "  a: 0.15\n  b: 0.15000000000000002\n", "a (value 0.15)"),
        ("savage", "  a: 0.2\n  b: 0.19999999999999998\n", "a (value 0.2)"),
    ])
    def test_exact_tie_goes_to_the_first_action(self, tmp_path, capsys,
                                                criterion, scores, chosen):
        """Both actions score exactly 0.15 under Hurwicz (lambda 0.5), and
        both regret exactly 0.2 at worst, in the decimals written; float
        rounding does not break the tie toward the later action."""
        (tmp_path / "tie.csv").write_text("action,s1,s2\na,0.3,0\nb,0.1,0.2\n")
        code = main(["decide", "--matrix", str(tmp_path / "tie.csv"),
                     "--criterion", criterion, "--lambda", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"criterion: {criterion}\n{scores}" in out
        assert out.endswith(f"chosen: {chosen}\n")

    @pytest.mark.parametrize("criterion, chosen", [
        ("hurwicz lambda = 0.5", "Strategy (hurwicz): a (value 0.15)\n"),
        ("savage", "Strategy (savage): a (value 0.2)\n")])
    def test_exact_tie_in_a_policy(self, workdir, capsys, criterion, chosen):
        path = workdir / "tie.law"
        path.write_text(
            'policy "tie" {\n'
            '  decision { actions = ["a", "b"] states = ["s1", "s2"] '
            f'payoffs = [[0.3, 0], [0.1, 0.2]] criterion = {criterion} }}\n'
            "}\n")
        code = main(["evaluate", str(path), "--dataset",
                     str(workdir / "data.csv"), "--mode", "agent"])
        assert code == 0
        assert capsys.readouterr().out.endswith(chosen)

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
        assert capsys.readouterr().err == "row 2: line is not valid UTF-8\n"

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
        (b"action,a,b\nx,1,2\ny,3,nan\n", "row 3: payoffs must be finite"),
        (b"action,a\nx,-inf\n", "row 2: payoffs must be finite"),
    ], ids=["repeated-header", "ragged", "nan", "infinite"])
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
        messy.write_text('policy "p"   {   approved_sources{"a"}   }')
        code = main(["fmt", str(messy)])
        out = capsys.readouterr().out
        assert code == 1
        assert out == 'policy "p" {\n  approved_sources {\n    "a"\n  }\n}\n'

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

    def test_negative_zero_keeps_the_report(self, workdir, capsys):
        # -0 reads as -0.0, which the report prints as -0.0 and -0
        path = workdir / "zero.law"
        path.write_text(
            'policy "z" {\n'
            '  protected_attribute sex { privileged = "Male" '
            'unprivileged = "Female" }\n'
            '  favorable_outcome occupation { value = "Exec-managerial" }\n'
            '  metric statistical_parity_difference {\n'
            '    range = [-0, 0.5]\n'
            '    tolerance = -0\n'
            '  }\n'
            '  decision { actions = ["a"] states = ["s"] payoffs = [[-0]] '
            'criterion = hurwicz lambda = -0 }\n'
            '}\n')
        assert main(["fmt", str(path)]) == 1
        canonical = workdir / "canonical.law"
        canonical.write_text(capsys.readouterr().out)
        assert "tolerance = -0\n" in canonical.read_text()

        def report(policy):
            json_path = workdir / (policy.stem + ".json")
            code = main(["evaluate", str(policy), "--dataset",
                         str(workdir / "data.csv"), "--deterministic",
                         "--json", str(json_path)])
            return code, capsys.readouterr().out, json_path.read_bytes()

        original = report(path)
        assert "legitimate interval [-0.0, 0.5]" in original[1]
        assert b'"lo": -0' in original[2]
        assert b'"tolerance": -0' in original[2]
        assert report(canonical) == original

    def test_invalid_file_exit_two(self, workdir, capsys):
        bad = workdir / "bad.law"
        bad.write_text("not a policy")
        assert main(["fmt", str(bad)]) == 2
