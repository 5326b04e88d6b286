import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complykit.decisions import PayoffMatrix, StrategyChoice, wald
from complykit.fairness import MetricValue, statistical_parity_from_counts
from complykit.ingest import CompositionAudit, composition_audit
from complykit.intervals import Interval
from complykit.policy import ContextFinding, parse_policy
from complykit.report import (
    COMPLY,
    ERROR,
    EXPLAIN,
    _json_value,
    evaluate,
    judge_constraint,
    render,
    render_auto,
    to_json,
)
from conftest import SCENARIO1_POLICY
from schema_check import validate_report

SPD_POLICY = parse_policy(
    'policy "p" { metric statistical_parity_difference '
    '{ range = [-0.01, 0.01] } }')

SPD = "statistical_parity_difference"

ADULT_SPD = statistical_parity_from_counts(1748, 15351, 4338, 31648)


def spd_metric(value):
    return MetricValue(SPD, value)


class TestEvaluate:
    def test_outside_interval_explains(self):
        report = evaluate(SPD_POLICY, {SPD: ADULT_SPD})
        verdict = report["verdicts"][0]
        assert verdict["status"] == EXPLAIN
        assert "outside legitimate interval" in verdict["explanation"]
        assert report["overall_status"] == EXPLAIN

    def test_interior_point_complies(self):
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)})
        assert report["verdicts"][0]["status"] == COMPLY
        assert report["overall_status"] == COMPLY

    def test_undefined_explains_with_reason(self):
        mv = MetricValue.undefined("statistical_parity_difference",
                                   "empty group: unprivileged")
        report = evaluate(SPD_POLICY, {SPD: mv})
        verdict = report["verdicts"][0]
        assert verdict["status"] == EXPLAIN
        assert "empty group: unprivileged" in verdict["explanation"]

    def test_missing_metric_is_error(self):
        report = evaluate(SPD_POLICY, {})
        assert report["verdicts"][0]["status"] == ERROR

    def test_every_constraint_appears_once(self):
        policy = parse_policy(
            'policy "p" {'
            ' metric statistical_parity_difference { range = [-0.1, 0.1] }'
            ' metric equalized_odds { range = [0, 0.2] }'
            ' metric calibration { range = [0, 0.1] } }')
        report = evaluate(policy, {SPD: spd_metric(0.0)})
        ids = [v["constraint"] for v in report["verdicts"]]
        assert ids == ["statistical_parity_difference", "equalized_odds",
                       "calibration"]

    def test_tolerance_widens_interval(self):
        policy = parse_policy(
            'policy "p" { metric statistical_parity_difference '
            '{ range = [-0.01, 0.01]; tolerance = 0.02 } }')
        report = evaluate(policy, {SPD: ADULT_SPD})
        assert report["verdicts"][0]["status"] == COMPLY

    def test_violating_finding_breaks_overall(self):
        finding = ContextFinding("source x", "violation", "unknown source")
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)},
                          findings=[finding])
        assert report["overall_status"] == EXPLAIN

    def test_failed_audit_breaks_overall(self):
        audit = composition_audit(["F"] * 3 + ["M"] * 17, "F", 0.4975,
                                  Interval(-0.05, 0.05))
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)}, audit=audit)
        assert report["overall_status"] == EXPLAIN

    @pytest.mark.parametrize("labels, word", [
        (["F"] * 3 + ["M"] * 17, EXPLAIN),
        (["F", "M"] * 10, COMPLY),
    ])
    def test_audit_status_word_is_the_same_in_every_mode(self, labels, word):
        audit = composition_audit(labels, "F", 0.4975, Interval(-0.05, 0.05))
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)}, audit=audit)
        assert f"Composition audit: {word} — deviation" in render(report,
                                                                  "agent")
        display = render(report, "display").splitlines()
        assert [line for line in display
                if line.startswith("  deviation = ")][0].endswith(f"-> {word}")

    def test_monotonic_in_interval_width(self):
        # widening an interval never flips comply -> explain
        for value in (-0.5, -0.02, 0.0, 0.3):
            narrow = evaluate(SPD_POLICY, {SPD: spd_metric(value)})
            wide_policy = parse_policy(
                'policy "p" { metric statistical_parity_difference '
                '{ range = [-1, 1] } }')
            wide = evaluate(wide_policy, {SPD: spd_metric(value)})
            if narrow["verdicts"][0]["status"] == COMPLY:
                assert wide["verdicts"][0]["status"] == COMPLY

    TOLERANT_POLICY = parse_policy(
        'policy "p" { metric statistical_parity_difference '
        '{ range = [-0.01, 0.01]; tolerance = 0.02 } }')

    @pytest.mark.parametrize("policy, metric, expected", [
        (SPD_POLICY, None,
         (None, None, 0.0, ERROR, "metric was not computed (missing input)",
          {})),
        (SPD_POLICY,
         MetricValue.undefined("statistical_parity_difference",
                               "empty group: unprivileged", {"n": 0}),
         (None, "empty group: unprivileged", 0.0, EXPLAIN,
          "value undefined: empty group: unprivileged", {"n": 0})),
        (SPD_POLICY,
         MetricValue("statistical_parity_difference", 0.005, trace={"n": 3}),
         (0.005, None, 0.0, COMPLY,
          "value 0.005 within legitimate interval [-0.01, 0.01]", {"n": 3})),
        (TOLERANT_POLICY,
         MetricValue("statistical_parity_difference", 0.02, trace={"n": 3}),
         (0.02, None, 0.02, COMPLY,
          "value 0.02 within tolerance 0.02 of legitimate interval "
          "[-0.01, 0.01]", {"n": 3})),
        (TOLERANT_POLICY,
         MetricValue("statistical_parity_difference", 0.01, trace={"n": 3}),
         (0.01, None, 0.02, COMPLY,
          "value 0.01 within legitimate interval [-0.01, 0.01]", {"n": 3})),
        (SPD_POLICY,
         MetricValue("statistical_parity_difference", 0.1 + 0.2,
                     trace={"n": 3}),
         (0.30000000000000004, None, 0.0, EXPLAIN,
          "value outside legitimate interval: 0.30000000000000004 not in "
          "[-0.01, 0.01]", {"n": 3})),
    ], ids=["missing-input", "undefined", "comply", "comply-by-tolerance",
            "comply-in-range-with-tolerance", "explain"])
    def test_every_verdict(self, policy, metric, expected):
        """Each outcome's exact fields; the interval is shown unwidened."""
        constraint = policy.metrics[0]
        v = judge_constraint(constraint, metric)
        assert (v["constraint"], v["interval"]) == (
            "statistical_parity_difference", Interval(-0.01, 0.01))
        assert (v["value"], v["reason"], v["tolerance"], v["status"],
                v["explanation"], v["trace"]) == expected


class TestRender:
    def _scenario1_report(self):
        doc = parse_policy(SCENARIO1_POLICY)
        return evaluate(doc, {SPD: ADULT_SPD},
                        strategy=wald(doc.decision.payoffs))

    def test_agent_mode_comply_lines(self):
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)})
        lines = render(report, "agent").strip().split("\n")
        assert all(line.endswith("comply") for line in lines)

    def test_display_mode_contains_group_proportions(self):
        text = render(self._scenario1_report(), "display")
        assert "1748" in text
        assert "31648" in text
        assert "15351" in text
        assert "4338" in text

    def test_rendering_is_deterministic(self):
        report = self._scenario1_report()
        assert render(report, "display") == render(report, "display")
        assert render_auto(report) == render_auto(report)

    def test_both_modes_agent_first(self):
        report = self._scenario1_report()
        text = render_auto(report)
        agent = render(report, "agent")
        assert text.startswith(agent)
        assert "Constraints:" in text

    def test_no_mode_renders_nothing(self):
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)},
                          display_mode=False, agent_mode=False)
        assert render_auto(report) == ""

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            render(self._scenario1_report(), "hologram")

    def test_strategy_attached_verbatim(self):
        report = self._scenario1_report()
        assert report["strategy"]["action"] == "Strictly comply"
        text = render(report, "display")
        assert "Strictly comply" in text

    def test_float_text_at_the_edges(self):
        """Every float a report prints is its shortest round-trip text."""
        policy = parse_policy(
            'policy "edges" {'
            ' metric statistical_parity_difference'
            ' { range = [-0.1, 0.1] tolerance = 0.00000000000000000001 }'
            ' metric equal_opportunity { range = [0, 10000000000000000] } }')
        edges = (1e-20, 1e16, 0.1 + 0.2, -0.0)
        metrics = {
            SPD: MetricValue(SPD, 0.1 + 0.2, trace={
                "tiny": 1e-20, "huge": 1e16, "zero": -0.0, "count": 3,
                "gap": MetricValue("gap", -0.0),
                "group": {"rate": 0.1 + 0.2}}),
            "equal_opportunity": MetricValue("equal_opportunity", 1e16),
        }
        audit = CompositionAudit({"F": 1e-20, "M": 0.1 + 0.2}, "F", 1e16,
                                 -0.0, Interval(-0.0, 1e-20), True)
        strategy = StrategyChoice("savage", 1, "b", -0.0, edges,
                                  regret_matrix=(edges, (-0.0, 0.1 + 0.2)),
                                  hurwicz_lambda=0.1 + 0.2)
        report = evaluate(policy, metrics, audit=audit, strategy=strategy,
                          findings=[ContextFinding("source s", "approved",
                                                   "listed")])
        assert render(report, "agent") == (
            "Policy edges: explain\n"
            "Context source s: approved\n"
            "Constraint statistical_parity_difference: explain — value "
            "outside legitimate interval: 0.30000000000000004 not in "
            "[-0.1, 0.1]\n"
            "Constraint equal_opportunity: comply\n"
            "Composition audit: comply — deviation -0.0 vs range "
            "[-0.0, 1e-20]\n"
            "Strategy (savage): b (value -0.0)\n")
        assert render(report, "display") == """\
Policy: edges
Overall: explain

Operational context:
  [approved] source s — listed

Constraints:
  [explain] statistical_parity_difference = 0.30000000000000004, \
legitimate interval [-0.1, 0.1], tolerance 1e-20
    value outside legitimate interval: 0.30000000000000004 not in [-0.1, 0.1]
    count = 3
    gap = -0.0
    group:
      rate = 0.30000000000000004
    huge = 1e+16
    tiny = 1e-20
    zero = -0.0
  [comply] equal_opportunity = 1e+16, legitimate interval [0.0, 1e+16]
    value 1e+16 within legitimate interval [0.0, 1e+16]

Composition audit:
  share 'F' = 1e-20
  share 'M' = 0.30000000000000004
  reference share for 'F' = 1e+16
  deviation = -0.0, range [-0.0, 1e-20] -> comply

Strategy (savage):
  chosen: b (index 1, value -0.0)
  per-action scores: [1e-20, 1e+16, 0.30000000000000004, -0.0]
  regret matrix:
    [1e-20, 1e+16, 0.30000000000000004, -0.0]
    [-0.0, 0.30000000000000004]
  lambda = 0.30000000000000004
"""


class TestToJson:
    def test_empty_constraints(self):
        doc = parse_policy('policy "empty" {}')
        blob = to_json(evaluate(doc, {}))
        obj = json.loads(blob)
        assert obj["verdicts"] == []
        assert obj["schema_version"] == 1
        assert obj["overall_status"] == "comply"

    def test_round_trip_preserves_values(self):
        report = evaluate(SPD_POLICY, {SPD: ADULT_SPD})
        obj = json.loads(to_json(report))
        verdict = obj["verdicts"][0]
        assert verdict["value"] == -0.023201469667745764
        assert verdict["interval"] == {"lo": -0.01, "hi": 0.01}
        assert verdict["status"] == "explain"

    def test_seventeen_significant_digits(self):
        report = evaluate(SPD_POLICY, {SPD: ADULT_SPD})
        assert b"-0.023201469667745764" in to_json(report)

    def test_byte_identical_runs(self):
        doc = parse_policy(SCENARIO1_POLICY)
        audit = composition_audit(["F"] * 3 + ["M"] * 17, "F", 0.4975,
                                  Interval(-0.05, 0.05))
        a = to_json(evaluate(doc, {SPD: ADULT_SPD}, audit=audit,
                             strategy=wald(doc.decision.payoffs)))
        b = to_json(evaluate(doc, {SPD: ADULT_SPD}, audit=audit,
                             strategy=wald(doc.decision.payoffs)))
        assert a == b

    def test_strategy_block(self):
        m = PayoffMatrix(["hi", "lo"], ["a", "b"], [[1, 2], [0, 3]])
        report = evaluate(SPD_POLICY, {SPD: spd_metric(0.0)},
                          strategy=wald(m))
        obj = json.loads(to_json(report))
        assert obj["strategy"]["action"] == "hi"
        assert obj["strategy"]["scores"] == [1.0, 0.0]

    def test_nonfinite_floats_refused(self):
        doc = parse_policy(SCENARIO1_POLICY)
        for value in (float("nan"), float("inf"), float("-inf")):
            audit = composition_audit(["F", "M"], "F", value,
                                      Interval(-0.05, 0.05))
            report = evaluate(doc, {SPD: ADULT_SPD}, audit=audit)
            with pytest.raises(ValueError, match="no encoding"):
                to_json(report)

    def test_unsupported_type_refused(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            _json_value({"trace": [1.0, {2}]})

    @given(st.one_of(st.text(), st.text('"\\\x00\x01\x1f\x7f\x80a\u2028')))
    def test_strings_escape_as_json_dumps(self, text):
        out = _json_value(text)
        assert out == json.dumps(text, ensure_ascii=False)
        assert json.loads(out) == text

    def test_matches_schema(self):
        doc = parse_policy(SCENARIO1_POLICY)
        audit = composition_audit(["F"] * 3 + ["M"] * 17, "F", 0.4975,
                                  Interval(-0.05, 0.05))
        validate_report(to_json(evaluate(doc, {SPD: ADULT_SPD}, audit=audit,
                                         strategy=wald(doc.decision.payoffs))))
