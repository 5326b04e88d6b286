"""complykit: a compliance kernel for policy-as-code audits.

Compiles `.law` policies, computes group-fairness metrics and decision
strategies, and emits deterministic comply-or-explain reports.

Each public name is imported from its module on first use (PEP 562), so
that `import complykit` and a command that needs only some modules load
no others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "decisions": ("PayoffMatrix", "StrategyChoice", "choose", "decide",
                  "hurwicz", "savage", "wald"),
    "fairness": ("ConfusionCounts", "GroupedPredictions", "MetricValue",
                 "Record", "statistical_parity_difference",
                 "statistical_parity_from_counts"),
    "ingest": ("CompositionAudit", "Dataset", "RunManifest", "bind_groups",
               "composition_audit", "read_dataset", "read_manifest",
               "read_predictions"),
    "intervals": ("Interval",),
    "policy": ("ContextFinding", "Diagnostic", "MetricConstraint",
               "ModelSpec", "PolicyDocument", "PolicyError", "ProtectedSpec",
               "check_manifest", "parse_policy",
               "parse_policy_with_diagnostics", "serialize_policy"),
    "report": ("ComplianceReport", "ConstraintVerdict", "evaluate", "render",
               "to_json"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
