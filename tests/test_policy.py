import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complykit.decisions import CRITERIA, PayoffMatrix, choose
from complykit.ingest import RunManifest
from complykit.intervals import Interval
from complykit.policy import (
    LEX,
    SEMANTIC,
    SYNTAX,
    DecisionSpec,
    MetricConstraint,
    PolicyDocument,
    PolicyError,
    check_manifest,
    parse_policy,
    parse_policy_with_diagnostics,
    serialize_policy,
)
from conftest import SCENARIO1_POLICY, random_document

# numbers of any length: 400 digits overflow a float, 300 do not
LONG_NUMBER = st.builds(
    lambda sign, digits, fraction: sign + digits + fraction,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=500),
    st.one_of(st.just(""),
              st.text("0123456789", min_size=1, max_size=20).map(".{}".format)))
# long numbers mixed with short ones, so that some documents parse
NUMBER = st.one_of(LONG_NUMBER, st.sampled_from(["0", "0.5", "1", "2", "10"]))

NUMERIC_POLICY = (
    'policy "p" {{\n'
    '  metric calibration {{ range = [{}, {}] bins = {} tolerance = {} }}\n'
    '  decision {{ actions = ["a", "b"] states = ["s"] payoffs = [[{}], [{}]]\n'
    '    criterion = savage lambda = {} }}\n'
    '}}\n')


class TestParse:
    def test_minimal_document(self):
        doc = parse_policy(
            'policy "p" { protected_attribute sex '
            '{ privileged = "Male"; unprivileged = "Female" } }')
        assert doc.name == "p"
        assert doc.protected.attribute == "sex"
        assert doc.protected.privileged_value == "Male"
        assert doc.protected.unprivileged_value == "Female"
        assert doc.metrics == ()

    def test_metric_range(self):
        doc = parse_policy(
            'policy "p" { metric statistical_parity_difference '
            '{ range = [-0.01, 0.01] } }')
        assert doc.metrics == (
            MetricConstraint("statistical_parity_difference",
                             Interval(-0.01, 0.01)),)

    def test_legacy_metric_alias(self):
        doc = parse_policy(
            'policy "p" { metric stat_mean_difference '
            '{ range = [-0.01, 0.01] } }')
        assert doc.metrics[0].metric_id == "statistical_parity_difference"

    def test_unclosed_brace_points_at_opener(self):
        _, diags = parse_policy_with_diagnostics('policy "p" {\n  decision {')
        assert any(d.kind == SYNTAX and "unclosed '{' opened at 2:12"
                   in d.message for d in diags)

    def test_diagnostics_have_positions_inside_input(self):
        text = 'policy "p" {\n  metric nope { range = [0, 1] }\n}'
        _, diags = parse_policy_with_diagnostics(text)
        lines = text.split("\n")
        assert diags
        for d in diags:
            assert 1 <= d.line <= len(lines)
            assert 1 <= d.col <= len(lines[d.line - 1]) + 1

    def test_unknown_metric_is_semantic(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { metric bogus { range = [0, 1] } }')
        assert any(d.kind == SEMANTIC and "unknown metric" in d.message
                   for d in diags)

    def test_inverted_range_is_semantic(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { metric calibration { range = [1, 0] } }')
        assert any(d.kind == SEMANTIC and "inverted interval" in d.message
                   for d in diags)

    def test_duplicate_metric_rejected(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { metric calibration { range = [0, 1] } '
            'metric calibration { range = [0, 1] } }')
        assert any("duplicate metric" in d.message for d in diags)

    def test_duplicate_section_rejected(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { on_violation = halt\n on_violation = explain }')
        assert any("duplicate on_violation" in d.message for d in diags)

    def test_equal_group_values_rejected(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { protected_attribute sex '
            '{ privileged = "x"; unprivileged = "x" } }')
        assert any("must differ" in d.message for d in diags)

    def test_bad_lambda(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { decision { actions = ["a"]; states = ["s"]; '
            'payoffs = [[1]]; criterion = hurwicz; lambda = 2 } }')
        assert any(d.kind == SEMANTIC and "lambda" in d.message for d in diags)

    def test_payoff_shape_mismatch(self):
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { decision { actions = ["a", "b"]; states = ["s"]; '
            'payoffs = [[1]]; criterion = wald } }')
        assert any(d.kind == SEMANTIC for d in diags)

    def test_comments_and_semicolons(self):
        doc = parse_policy(
            '# leading comment\n'
            'policy "p" { # trailing\n'
            '  on_violation = halt;\n'
            '}\n')
        assert doc.on_violation == "halt"

    def test_string_escapes(self):
        doc = parse_policy(
            'policy "a \\"quoted\\" name\\\\" {}')
        assert doc.name == 'a "quoted" name\\'

    def test_lex_error_reported(self):
        _, diags = parse_policy_with_diagnostics('policy "p" { @ }')
        assert any(d.kind == LEX for d in diags)

    def test_parse_policy_raises_with_diagnostics(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy("nonsense")
        assert exc.value.diagnostics

    def test_overflowing_numbers_are_semantic(self):
        digits = "1" * 400
        _, diags = parse_policy_with_diagnostics(
            f'policy "p" {{ metric calibration {{ range = [-{digits}, 0.01] }} }}')
        assert (diags[0].kind, diags[0].line, diags[0].col) == (SEMANTIC, 1, 44)
        assert "too large" in diags[0].message
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { metric calibration { range = [0, 1]\n'
            f'  tolerance = {"9" * 400} }} }}')
        assert [(d.kind, d.line, d.col) for d in diags] == [(SEMANTIC, 2, 15)]

    def test_tolerance_may_not_widen_past_a_float(self):
        big = "9" * 308
        _, diags = parse_policy_with_diagnostics(
            f'policy "p" {{ metric calibration {{ range = [0, {big}]\n'
            f'  tolerance = {big} }} }}')
        assert [(d.kind, d.line, d.col) for d in diags] == [(SEMANTIC, 2, 15)]
        assert "not finite" in diags[0].message

    def test_payoff_spread_must_fit_a_float(self):
        big = "9" * 308
        _, diags = parse_policy_with_diagnostics(
            'policy "p" { decision { actions = ["a", "b"]; states = ["s"]; '
            f'payoffs = [[{big}], [-{big}]]; criterion = savage }} }}')
        assert any(d.kind == SEMANTIC and "state 's'" in d.message
                   for d in diags)

    def test_scenario1_fixture_parses(self):
        doc = parse_policy(SCENARIO1_POLICY)
        assert doc.decision.criterion == "wald"
        assert "https://archive.ics.uci.edu/dataset/2/adult" \
            in doc.approved_sources
        model = doc.model("google/gemma-2-2b-it")
        assert model is not None
        assert model.acceptable_uses == frozenset({"recruitment"})
        assert model.synthetic_data_capability


class TestSerialize:
    def test_empty_metrics_round_trip(self):
        doc = parse_policy('policy "p" {}')
        assert parse_policy(serialize_policy(doc)) == doc

    def test_table_range_text(self):
        doc = parse_policy(
            'policy "p" { metric statistical_parity_difference '
            '{ range = [-0.01, 0.01] } }')
        assert "range = [-0.01, 0.01]" in serialize_policy(doc)

    def test_default_lambda_elided_and_recovered(self):
        doc = parse_policy(
            'policy "p" { decision { actions = ["a"]; states = ["s"]; '
            'payoffs = [[1]]; criterion = hurwicz; lambda = 0.5 } }')
        text = serialize_policy(doc)
        assert "lambda" not in text
        assert parse_policy(text).decision.hurwicz_lambda == 0.5

    def test_canonical_is_fixed_point(self):
        doc = parse_policy(SCENARIO1_POLICY)
        canonical = serialize_policy(doc)
        assert serialize_policy(parse_policy(canonical)) == canonical

    def test_random_corpus_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(300):
            doc = random_document(rng)
            text = serialize_policy(doc)
            assert parse_policy(text) == doc, text


    @given(st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
           st.floats(0, 1e300), st.floats(0, 1))
    @settings(max_examples=300)
    def test_finite_floats_round_trip(self, values, tolerance, hurwicz_lambda):
        lo, hi, payoff = values
        lo, hi = min(lo, hi), max(lo, hi)
        doc = PolicyDocument(
            name="p",
            metrics=(MetricConstraint("calibration", Interval(lo, hi), 10,
                                      tolerance),),
            decision=DecisionSpec(PayoffMatrix(["a"], ["s", "t"],
                                               [[payoff, -payoff]]),
                                  "hurwicz", hurwicz_lambda))
        assert parse_policy(serialize_policy(doc)) == doc


class TestFuzz:
    @given(st.text(max_size=80))
    @settings(max_examples=400)
    def test_arbitrary_text_never_crashes(self, text):
        doc, diags = parse_policy_with_diagnostics(text)
        assert doc is not None or diags
        for d in diags:
            assert d.line >= 1 and d.col >= 1

    @given(st.binary(max_size=60))
    @settings(max_examples=300)
    def test_arbitrary_bytes_never_crash(self, blob):
        text = blob.decode("utf-8", errors="replace")
        doc, diags = parse_policy_with_diagnostics(text)
        assert doc is not None or diags


    @given(st.lists(NUMBER, min_size=7, max_size=7))
    @settings(max_examples=300)
    def test_long_numbers_never_crash(self, numbers):
        doc, diags = parse_policy_with_diagnostics(NUMERIC_POLICY.format(*numbers))
        assert doc is not None or diags
        for d in diags:
            assert d.line >= 1 and d.col >= 1
        if doc is None:
            return
        # whatever parses is usable: finite widened ranges and decisions
        for m in doc.metrics:
            m.range.widened(m.tolerance)
        for criterion in CRITERIA:
            choice = choose(doc.decision.payoffs, criterion,
                            doc.decision.hurwicz_lambda)
            assert all(math.isfinite(v) for v in choice.scores)
            for row in choice.regret_matrix or ():
                assert all(math.isfinite(v) for v in row)


class TestCheckManifest:
    def setup_method(self):
        self.doc = parse_policy(SCENARIO1_POLICY)

    def test_approved_source(self):
        findings = check_manifest(self.doc, RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult"))
        assert [f.status for f in findings] == ["approved"]

    def test_unknown_source(self):
        findings = check_manifest(self.doc, RunManifest(
            dataset_source="https://example.com/other"))
        assert findings[0].status == "violation"
        assert findings[0].reason == "unknown source"

    def test_model_recruitment_approved(self):
        findings = check_manifest(self.doc, RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
            model_id="google/gemma-2-2b-it", declared_use="recruitment"))
        assert all(f.is_approved for f in findings)

    def test_model_other_use_rejected(self):
        findings = check_manifest(self.doc, RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
            model_id="google/gemma-2-2b-it", declared_use="credit-scoring"))
        bad = [f for f in findings if not f.is_approved]
        assert len(bad) == 1
        assert bad[0].reason == "use not acceptable"

    def test_unknown_model(self):
        findings = check_manifest(self.doc, RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
            model_id="acme/other-model"))
        assert any(f.reason == "unknown model" for f in findings)

    def test_synthetic_capability_honored(self):
        findings = check_manifest(self.doc, RunManifest(
            dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
            model_id="google/gemma-2-2b-it", synthetic=True))
        assert all(f.is_approved for f in findings)

    def test_no_source_restrictions(self):
        doc = parse_policy('policy "open" {}')
        findings = check_manifest(doc, RunManifest(
            dataset_source="anywhere"))
        assert findings[0].is_approved

    CONTEXT_POLICY = parse_policy(
        'policy "context" {\n'
        '  approved_sources { "src-a" }\n'
        '  approved_model "m-able" { acceptable_uses = ["recruitment"]\n'
        '    synthetic_data_capability = true }\n'
        '  approved_model "m-unable" { synthetic_data_capability = false }\n'
        '}\n')
    OPEN_POLICY = parse_policy('policy "open" {}')

    @pytest.mark.parametrize("doc, manifest, expected", [
        (CONTEXT_POLICY, RunManifest(), []),
        (OPEN_POLICY, RunManifest(dataset_source="anywhere"),
         [("source anywhere", "approved",
           "policy declares no source restrictions")]),
        (CONTEXT_POLICY, RunManifest(dataset_source="src-a"),
         [("source src-a", "approved", "listed in approved_sources")]),
        (CONTEXT_POLICY, RunManifest(dataset_source="src-b"),
         [("source src-b", "violation", "unknown source")]),
        (CONTEXT_POLICY, RunManifest(model_id="m-other",
                                     declared_use="recruitment",
                                     synthetic=True),
         [("model m-other", "violation", "unknown model")]),
        (CONTEXT_POLICY, RunManifest(dataset_source="src-b",
                                     model_id="m-other",
                                     declared_use="recruitment",
                                     synthetic=True),
         [("source src-b", "violation", "unknown source"),
          ("model m-other", "violation", "unknown model")]),
        (CONTEXT_POLICY, RunManifest(model_id="m-able"),
         [("model m-able", "approved", "listed in approved models")]),
        (CONTEXT_POLICY, RunManifest(model_id="m-able",
                                     declared_use="recruitment"),
         [("model m-able", "approved", "listed in approved models"),
          ("use recruitment", "approved", "listed in acceptable_uses")]),
        (CONTEXT_POLICY, RunManifest(model_id="m-unable",
                                     declared_use="recruitment"),
         [("model m-unable", "approved", "listed in approved models"),
          ("use recruitment", "violation", "use not acceptable")]),
        (CONTEXT_POLICY, RunManifest(model_id="m-able", synthetic=True),
         [("model m-able", "approved", "listed in approved models"),
          ("synthetic data generation", "approved",
           "model declares the capability")]),
        (CONTEXT_POLICY, RunManifest(model_id="m-unable", synthetic=True),
         [("model m-unable", "approved", "listed in approved models"),
          ("synthetic data generation", "violation",
           "synthetic data requested but capability is false")]),
        (CONTEXT_POLICY, RunManifest(dataset_source="src-a",
                                     model_id="m-able",
                                     declared_use="recruitment",
                                     synthetic=True),
         [("source src-a", "approved", "listed in approved_sources"),
          ("model m-able", "approved", "listed in approved models"),
          ("use recruitment", "approved", "listed in acceptable_uses"),
          ("synthetic data generation", "approved",
           "model declares the capability")]),
        (CONTEXT_POLICY, RunManifest(declared_use="recruitment"),
         [("use recruitment", "violation", "manifest names no model_id")]),
        (CONTEXT_POLICY, RunManifest(dataset_source="src-a",
                                     declared_use="credit-scoring",
                                     synthetic=True),
         [("source src-a", "approved", "listed in approved_sources"),
          ("use credit-scoring", "violation", "manifest names no model_id"),
          ("synthetic data generation", "violation",
           "manifest names no model_id")]),
    ], ids=["empty", "no-restrictions", "listed-source", "unknown-source",
            "unknown-model-alone", "unknown-model-after-source",
            "listed-model", "acceptable-use", "unacceptable-use",
            "synthetic-capable", "synthetic-incapable", "every-item",
            "use-without-model", "use-and-synthetic-without-model"])
    def test_every_finding(self, doc, manifest, expected):
        """Each branch gives one exact finding, in manifest order; an
        unknown model ends the check, and with no model nothing approves a
        use or synthetic data."""
        findings = check_manifest(doc, manifest)
        assert [(f.subject, f.status, f.reason) for f in findings] == expected
