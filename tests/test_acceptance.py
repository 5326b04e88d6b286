"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass.
"""

import random

import pytest

from complykit.cli import main
from complykit.decisions import PayoffMatrix, choose, hurwicz, regret_matrix, savage, wald
from complykit.fairness import (
    PRIVILEGED,
    UNPRIVILEGED,
    accuracy_equality_gap,
    balance_negative_gap,
    balance_positive_gap,
    calibration_gap,
    conditional_statistical_parity,
    conditional_use_accuracy_gap,
    equal_acceptance_rate_gap,
    equal_opportunity_gap,
    equalized_odds_gap,
    predictive_equality_gap,
    predictive_parity_gap,
    statistical_parity_difference,
    statistical_parity_from_counts,
    treatment_equality,
)
from complykit.ingest import RunManifest, composition_audit
from complykit.intervals import Interval
from complykit.policy import (
    check_manifest,
    parse_policy,
    parse_policy_with_diagnostics,
    serialize_policy,
)
from conftest import SCENARIO1_POLICY, random_document
from reference import Record, predictions_of, swapped
from schema_check import validate_report

TABLE_MATRIX = PayoffMatrix(
    ["High", "Average", "Short"],
    ["High losses", "Average losses", "Low losses"],
    [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]],
)


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


@pytest.fixture(scope="module")
def scenario1_dir(tmp_path_factory):
    """Full-size fixture reproducing the published Adult group counts."""
    d = tmp_path_factory.mktemp("scenario1")
    with open(d / "adult.csv", "w", encoding="utf-8") as fh:
        fh.write("sex,occupation\n")
        fh.write("Male,Exec-managerial\n" * 4338)
        fh.write("Male,Other\n" * (31648 - 4338))
        fh.write("Female,Exec-managerial\n" * 1748)
        fh.write("Female,Other\n" * (15351 - 1748))
    (d / "policy.law").write_text(SCENARIO1_POLICY)
    (d / "policy-wide.law").write_text(
        SCENARIO1_POLICY.replace("range = [-0.01, 0.01]",
                                 "range = [-0.05, 0.05]"))
    (d / "run.manifest").write_text(
        "dataset_source=https://archive.ics.uci.edu/dataset/2/adult\n")
    return d


def test_criterion_1_spd_reproduction():
    mv = statistical_parity_from_counts(1748, 15351, 4338, 31648)
    assert abs(mv.value - (-0.023201469667745764)) <= 1e-12
    _passed(1, f"statistical parity difference = {mv.value!r}")


def test_criterion_2_scenario1_pipeline(scenario1_dir, capsys):
    argv_tail = ["--dataset", str(scenario1_dir / "adult.csv"),
                 "--manifest", str(scenario1_dir / "run.manifest"),
                 "--deterministic"]
    code = main(["evaluate", str(scenario1_dir / "policy.law")] + argv_tail)
    out = capsys.readouterr().out
    assert code == 1
    assert "-0.023201469667745764" in out
    assert "explain" in out

    code_wide = main(["evaluate", str(scenario1_dir / "policy-wide.law")]
                     + argv_tail)
    out_wide = capsys.readouterr().out
    assert code_wide == 0
    assert "Policy scenario-1: comply" in out_wide
    _passed(2, "narrow range -> explain/exit 1; widened range -> comply/exit 0")


def test_criterion_3_wald():
    choice = wald(TABLE_MATRIX)
    assert choice.action_index == 0
    assert choice.action_label == "High"
    assert choice.value == 1
    _passed(3, "Wald chooses action 0 with value 1")


def test_criterion_4_savage_and_hurwicz():
    s = savage(TABLE_MATRIX)
    assert s.regret_matrix == ((0, 0, 0), (2, 0, 0), (2, 2, 0))
    assert s.action_index == 0
    h = hurwicz(TABLE_MATRIX, 0.5)
    assert h.scores == (1.0, 0.0, 0.0)
    assert h.action_index == 0
    _passed(4, "Savage regrets [[0,0,0],[2,0,0],[2,2,0]]; "
               "Hurwicz(0.5) scores [1,0,0]")


def test_criterion_5_criterion_properties():
    rng = random.Random(52)
    for trial in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        values = [[rng.randint(-50, 50) for _ in range(cols)]
                  for _ in range(rows)]
        m = PayoffMatrix([f"a{i}" for i in range(rows)],
                         [f"s{j}" for j in range(cols)], values)

        w, h0 = wald(m), hurwicz(m, 0.0)
        assert (w.action_index, w.value) == (h0.action_index, h0.value)

        c = rng.randint(-20, 20)
        shifted = PayoffMatrix(m.actions, m.states,
                               [[v + c for v in row] for row in values])
        for crit in ("wald", "hurwicz", "savage"):
            assert choose(m, crit, 0.5).action_index == \
                choose(shifted, crit, 0.5).action_index
        assert wald(shifted).value == w.value + c
        assert hurwicz(shifted, 0.5).value == hurwicz(m, 0.5).value + c

        j = rng.randrange(cols)
        col_shifted = PayoffMatrix(m.actions, m.states, [
            [v + c if k == j else v for k, v in enumerate(row)]
            for row in values])
        assert regret_matrix(m) == regret_matrix(col_shifted)

        for i in range(rows):
            for k in range(rows):
                dominates = (all(x >= y for x, y in zip(values[i], values[k]))
                             and any(x > y for x, y in
                                     zip(values[i], values[k])))
                if not dominates:
                    continue
                for crit, worse in (("wald", min), ("hurwicz", min),
                                    ("savage", max)):
                    scores = choose(m, crit, 0.5).scores
                    assert worse(scores[i], scores[k]) == scores[k] \
                        or scores[i] == scores[k]
    _passed(5, "1000 random matrices: hurwicz(0)=wald, shift/column-shift "
               "invariance, dominance never penalized")


SIGNED = (statistical_parity_difference, equal_acceptance_rate_gap,
          predictive_parity_gap, equal_opportunity_gap,
          predictive_equality_gap, accuracy_equality_gap, treatment_equality,
          balance_positive_gap, balance_negative_gap)
ALL = SIGNED + (equalized_odds_gap, conditional_use_accuracy_gap,
                conditional_statistical_parity, calibration_gap)


def _random_rows(rng):
    records = []
    for group in (UNPRIVILEGED, PRIVILEGED):
        for _ in range(rng.randint(1, 10)):
            records.append(Record(
                group, rng.randint(0, 1), rng.randint(0, 1),
                rng.choice([None, rng.randint(0, 100) / 100.0]),
                rng.choice([None, "a", "b"])))
    return records


def test_criterion_6_fairness_properties():
    rng = random.Random(61)
    for trial in range(1000):
        rows = _random_rows(rng)
        gp = predictions_of(rows)
        flipped = swapped(gp)
        for metric in SIGNED:
            a, b = metric(gp), metric(flipped)
            assert a.is_defined == b.is_defined
            if a.is_defined:
                assert b.value == -a.value

        unprivileged = [r for r in rows if r.group == UNPRIVILEGED]
        mirrored = predictions_of(
            unprivileged
            + [Record(PRIVILEGED, r.predicted, r.actual, r.score, r.legitimate)
               for r in unprivileged])
        for metric in ALL:
            mv = metric(mirrored)
            if mv.is_defined:
                assert mv.value == 0

        eo = equalized_odds_gap(gp)
        if eo.is_defined:
            tol = rng.randint(0, 100) / 100.0
            tpr_gap = eo.trace["components"]["tpr_gap"].value
            fpr_gap = eo.trace["components"]["predictive_equality"].value
            assert (eo.value <= tol) == (abs(tpr_gap) <= tol
                                         and abs(fpr_gap) <= tol)

        for metric in ALL:
            mv = metric(gp)
            if mv.is_defined:
                assert -1.0 <= mv.value <= 1.0
    _passed(6, "1000 random prediction sets: antisymmetry, zero-on-identity, "
               "odds decomposition, bounds")


def test_criterion_7_composition_audit():
    labels = ["Female"] * 3 + ["Male"] * 17
    audit = composition_audit(labels, "Female", 0.4975, Interval(-0.05, 0.05))
    assert audit.shares["Female"] == 0.15
    assert abs(audit.deviation - (-0.3475)) <= 1e-12
    assert not audit.within_range
    _passed(7, "20-name list: female share 0.15, deviation -0.3475, violation")


def test_criterion_8_manifest_check():
    doc = parse_policy(SCENARIO1_POLICY)
    ok = check_manifest(doc, RunManifest(
        dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
        model_id="google/gemma-2-2b-it", declared_use="recruitment"))
    assert all(f.is_approved for f in ok)
    for use in ("credit-scoring", "surveillance", "marketing", ""):
        findings = check_manifest(doc, RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
            model_id="google/gemma-2-2b-it", declared_use=use))
        assert any(f.status == "violation" and f.reason == "use not acceptable"
                   for f in findings)
    _passed(8, "adult source + recruitment use approved; any other use rejected")


def test_criterion_9_parser_round_trip_and_fuzz():
    rng = random.Random(91)
    for _ in range(1000):
        doc = random_document(rng)
        assert parse_policy(serialize_policy(doc)) == doc

    for _ in range(100_000):
        blob = rng.randbytes(rng.randint(0, 30))
        text = blob.decode("utf-8", errors="replace")
        doc, diags = parse_policy_with_diagnostics(text)
        assert doc is not None or diags
    _passed(9, "1000 documents round-trip; 100000 fuzzed inputs produced "
               "diagnostics or documents without crashing")


def test_criterion_10_determinism(scenario1_dir, capsys):
    outputs = []
    blobs = []
    for i in (1, 2):
        json_path = scenario1_dir / f"report-{i}.json"
        code = main(["evaluate", str(scenario1_dir / "policy.law"),
                     "--dataset", str(scenario1_dir / "adult.csv"),
                     "--manifest", str(scenario1_dir / "run.manifest"),
                     "--deterministic", "--json", str(json_path)])
        assert code == 1
        outputs.append(capsys.readouterr().out)
        blobs.append(json_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert blobs[0] == blobs[1]
    validate_report(blobs[0])  # strict JSON matching the report schema
    _passed(10, "two deterministic runs produced byte-identical text and JSON")
