"""Golden report: a small seeded run declaring all 13 metrics.

The fixture has strata (one of them with a single group, so it is
skipped), scores including the 0 and 1 endpoints, calibration with
`bins = 7`, a manifest, a composition audit and a Savage decision. The
expected `--deterministic` text and JSON bytes live in `tests/golden/`;
any change to them is a change to what a report says.
"""

import random
from pathlib import Path

from complykit import report
from complykit.cli import main
from schema_check import load_schema, validate_report

GOLDEN = Path(__file__).parent / "golden"

METRICS = (
    "statistical_parity_difference", "equal_acceptance_rate",
    "predictive_parity", "equal_opportunity", "predictive_equality",
    "equalized_odds", "accuracy_equality", "conditional_use_accuracy",
    "treatment_equality", "conditional_statistical_parity", "calibration",
    "balance_positive", "balance_negative",
)

POLICY_HEAD = """\
policy "golden" {
  protected_attribute sex {
    privileged = "Male"
    unprivileged = "Female"
  }
  favorable_outcome occupation { value = "Exec-managerial" }
"""

POLICY_TAIL = """\
  approved_sources { "https://archive.ics.uci.edu/dataset/2/adult" }
  approved_model "google/gemma-2-2b-it" {
    acceptable_uses = ["recruitment"]
    synthetic_data_capability = true
  }
  decision {
    actions = ["Strictly comply", "Reasonably comply", "Somehow comply"]
    states = ["High losses", "Average losses", "Low losses"]
    payoffs = [[3, 1, 0], [-1, 2, 1], [-2, -1, 4]]
    criterion = savage
  }
}
"""

MANIFEST = (
    "dataset_source=https://archive.ics.uci.edu/dataset/2/adult\n"
    "model_id=google/gemma-2-2b-it\n"
    "declared_use=recruitment\n"
)


def _policy():
    blocks = []
    for i, metric_id in enumerate(METRICS):
        lines = [f"  metric {metric_id} {{", "    range = [-0.1, 0.1]"]
        if metric_id == "calibration":
            lines.append("    bins = 7")
        if i % 4 == 1:
            lines.append("    tolerance = 0.05")
        blocks.append("\n".join(lines) + "\n  }\n")
    return POLICY_HEAD + "".join(blocks) + POLICY_TAIL


def _dataset(rng):
    rows = ["sex,occupation"]
    for _ in range(80):
        sex = "Male" if rng.random() < 0.6 else "Female"
        favorable = rng.random() < (0.3 if sex == "Male" else 0.2)
        rows.append(f"{sex},{'Exec-managerial' if favorable else 'Sales'}")
    rows.append("Unknown,Sales")
    return "\n".join(rows) + "\n"


def _predictions(rng):
    rows = ["group,predicted,actual,score,legitimate"]
    for _ in range(300):
        group = "Male" if rng.random() < 0.55 else "Female"
        actual = int(rng.random() < 0.45)
        score = min(1.0, max(0.0, (0.35 + 0.4 * actual
                                   + (rng.random() - 0.5) * 0.7)))
        score = round(score, 4)
        predicted = int(score >= (0.5 if group == "Male" else 0.6))
        stratum = rng.choice(("band-a", "band-b", "band-c", ""))
        rows.append(f"{group},{predicted},{actual},{score},{stratum}")
    rows.append("Female,1,1,1.0,female-only")
    rows.append("Male,0,0,0.0,band-a")
    return "\n".join(rows) + "\n"


def _write_fixture(tmp_path):
    rng = random.Random(7)
    (tmp_path / "policy.law").write_text(_policy())
    (tmp_path / "data.csv").write_text(_dataset(rng))
    (tmp_path / "preds.csv").write_text(_predictions(rng))
    (tmp_path / "run.manifest").write_text(MANIFEST)


def _evaluate(tmp_path):
    _write_fixture(tmp_path)
    return main(["evaluate", str(tmp_path / "policy.law"),
                 "--dataset", str(tmp_path / "data.csv"),
                 "--predictions", str(tmp_path / "preds.csv"),
                 "--manifest", str(tmp_path / "run.manifest"),
                 "--composition-reference", "0.4",
                 "--composition-range=-0.1,0.1",
                 "--deterministic", "--json", str(tmp_path / "report.json")])


def test_golden_report_bytes(tmp_path, capsys):
    code = _evaluate(tmp_path)
    json_path = tmp_path / "report.json"
    out = capsys.readouterr().out
    assert code == 1
    assert out.encode("utf-8") == (GOLDEN / "report.txt").read_bytes()
    assert json_path.read_bytes() == (GOLDEN / "report.json").read_bytes()
    validate_report(json_path.read_bytes())


def test_report_object_has_the_schema_shape(tmp_path, capsys, monkeypatch):
    """`evaluate`'s object has the schema's members, in its order, at
    every level that the text and JSON renderers both read."""
    made = []
    evaluate = report.evaluate

    def keep(*args, **kwargs):
        made.append(evaluate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(report, "evaluate", keep)
    _evaluate(tmp_path)
    capsys.readouterr()
    obj, = made
    props = load_schema()["properties"]

    def members(schema):
        return list(schema["properties"])

    assert list(obj) == list(props)
    assert list(obj["modes"]) == members(props["modes"])
    assert obj["findings"] and obj["verdicts"]
    for finding in obj["findings"]:
        assert list(finding) == members(props["findings"]["items"])
    for verdict in obj["verdicts"]:
        assert list(verdict) == members(props["verdicts"]["items"])
    for name in ("composition_audit", "strategy"):
        assert list(obj[name]) == members(props[name]["oneOf"][1])
