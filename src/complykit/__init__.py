"""complykit: a compliance kernel for policy-as-code audits.

Compiles `.law` policies, computes group-fairness metrics and decision
strategies, and emits deterministic comply-or-explain reports.
"""

from .decisions import (
    PayoffMatrix,
    StrategyChoice,
    choose,
    decide,
    hurwicz,
    savage,
    wald,
)
from .fairness import (
    ConfusionCounts,
    GroupedPredictions,
    MetricValue,
    Rates,
    Record,
    confusion,
    rates,
    statistical_parity_difference,
    statistical_parity_from_counts,
)
from .ingest import (
    CompositionAudit,
    Dataset,
    RunManifest,
    bind_groups,
    composition_audit,
    read_dataset,
    read_manifest,
    read_predictions,
)
from .intervals import Interval, percentile
from .policy import (
    ContextFinding,
    Diagnostic,
    MetricConstraint,
    ModelSpec,
    PolicyDocument,
    PolicyError,
    ProtectedSpec,
    check_manifest,
    parse_policy,
    parse_policy_with_diagnostics,
    serialize_policy,
)
from .report import (
    ComplianceReport,
    ConstraintVerdict,
    evaluate,
    render,
    to_json,
)

__version__ = "0.1.0"

__all__ = [
    "ComplianceReport",
    "CompositionAudit",
    "ConfusionCounts",
    "ConstraintVerdict",
    "ContextFinding",
    "Dataset",
    "Diagnostic",
    "GroupedPredictions",
    "Interval",
    "MetricConstraint",
    "MetricValue",
    "ModelSpec",
    "PayoffMatrix",
    "PolicyDocument",
    "PolicyError",
    "ProtectedSpec",
    "Rates",
    "Record",
    "RunManifest",
    "StrategyChoice",
    "bind_groups",
    "check_manifest",
    "choose",
    "composition_audit",
    "confusion",
    "decide",
    "evaluate",
    "hurwicz",
    "parse_policy",
    "parse_policy_with_diagnostics",
    "percentile",
    "rates",
    "read_dataset",
    "read_manifest",
    "read_predictions",
    "render",
    "savage",
    "serialize_policy",
    "statistical_parity_difference",
    "statistical_parity_from_counts",
    "to_json",
    "wald",
]
