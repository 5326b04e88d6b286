"""Comply-or-explain reports.

Every policy constraint yields exactly one verdict: `comply` when the
metric is defined and inside its legitimate interval, `explain` when it
is outside or Undefined (with the reason attached), `error` when the
metric could not be computed at all. Reports are complete regardless of
the policy's violation mode, and rendering is deterministic: the same
report (with the timestamp suppressed) always produces byte-identical
text and JSON.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from ._value import Value
from .decisions import StrategyChoice
from .fairness import MetricValue
from .ingest import CompositionAudit
from .intervals import Interval
from .policy import MetricConstraint, PolicyDocument

SCHEMA_VERSION = 1

COMPLY = "comply"
EXPLAIN = "explain"
ERROR = "error"


class ConstraintVerdict(Value):
    constraint_id: str  # metric id as declared in the policy
    value: Optional[float]
    reason: Optional[str]  # Undefined reason, if any
    interval: Interval
    tolerance: float
    status: str  # comply | explain | error
    explanation: str
    trace: dict = {}


class ComplianceReport(Value):
    policy_name: str
    findings: tuple  # ContextFindings
    verdicts: tuple  # ConstraintVerdicts
    audit: Optional[CompositionAudit]
    strategy: Optional[StrategyChoice]
    overall_status: str  # comply | explain
    display_mode: bool = True
    agent_mode: bool = True
    created_at: Optional[str] = None  # ISO timestamp; None when suppressed


def judge_constraint(constraint: MetricConstraint,
                     metric: Optional[MetricValue]) -> ConstraintVerdict:
    """Verdict for one policy constraint given its computed metric."""
    interval = constraint.range
    if metric is None:
        return ConstraintVerdict(
            constraint.metric_id, None, None, interval, constraint.tolerance,
            ERROR, "metric was not computed (missing input)")
    if not metric.is_defined:
        status, explanation = EXPLAIN, f"value undefined: {metric.reason}"
    elif interval.contains(metric.value):
        status, explanation = COMPLY, (
            f"value {metric.value!r} within legitimate interval {interval}")
    elif interval.widened(constraint.tolerance).contains(metric.value):
        status, explanation = COMPLY, (
            f"value {metric.value!r} within tolerance {constraint.tolerance} "
            f"of legitimate interval {interval}")
    else:
        status, explanation = EXPLAIN, (
            f"value outside legitimate interval: {metric.value!r} not in "
            f"{interval}")
    return ConstraintVerdict(
        constraint.metric_id, metric.value, metric.reason, interval,
        constraint.tolerance, status, explanation, metric.trace)


def evaluate(policy: PolicyDocument, metrics, audit=None, findings=(),
             strategy=None, display_mode: bool = True, agent_mode: bool = True,
             created_at: Optional[str] = None) -> ComplianceReport:
    """Assemble the full report.

    `metrics` maps metric id -> MetricValue (or None for uncomputable).
    Every constraint in the policy appears exactly once among verdicts,
    in declaration order.
    """
    verdicts = tuple(judge_constraint(c, metrics.get(c.metric_id))
                     for c in policy.metrics)
    ok = (all(v.status == COMPLY for v in verdicts)
          and all(f.is_approved for f in findings)
          and (audit is None or _audit_status(audit) == COMPLY))
    return ComplianceReport(
        policy_name=policy.name,
        findings=tuple(findings),
        verdicts=verdicts,
        audit=audit,
        strategy=strategy,
        overall_status=COMPLY if ok else EXPLAIN,
        display_mode=display_mode,
        agent_mode=agent_mode,
        created_at=created_at,
    )


def _audit_status(audit: CompositionAudit) -> str:
    return COMPLY if audit.within_range else EXPLAIN


# ---------------------------------------------------------------------------
# Text rendering

def _agent_lines(report: ComplianceReport):
    lines = [f"Policy {report.policy_name}: {report.overall_status}"]
    for f in report.findings:
        if f.is_approved:
            lines.append(f"Context {f.subject}: approved")
        else:
            lines.append(f"Context {f.subject}: violation — {f.reason}")
    for v in report.verdicts:
        if v.status == COMPLY:
            lines.append(f"Constraint {v.constraint_id}: comply")
        else:
            lines.append(f"Constraint {v.constraint_id}: {v.status} — "
                         f"{v.explanation}")
    if report.audit is not None:
        a = report.audit
        lines.append(f"Composition audit: {_audit_status(a)} — deviation "
                     f"{a.deviation} vs range {a.range}")
    if report.strategy is not None:
        s = report.strategy
        lines.append(f"Strategy ({s.criterion}): {s.action_label} "
                     f"(value {s.value})")
    return lines


def _trace_lines(trace: dict, indent: str):
    lines = []
    for key in sorted(trace, key=str):
        value = trace[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_trace_lines(value, indent + "  "))
        elif isinstance(value, MetricValue):
            rendered = value.value if value.is_defined \
                else f"undefined ({value.reason})"
            lines.append(f"{indent}{key} = {rendered}")
        else:
            lines.append(f"{indent}{key} = {value}")
    return lines


def _display_lines(report: ComplianceReport):
    lines = [f"Policy: {report.policy_name}",
             f"Overall: {report.overall_status}"]
    if report.created_at is not None:
        lines.append(f"Created: {report.created_at}")
    if report.findings:
        lines.append("")
        lines.append("Operational context:")
        for f in report.findings:
            lines.append(f"  [{f.status}] {f.subject} — {f.reason}")
    if report.verdicts:
        lines.append("")
        lines.append("Constraints:")
        for v in report.verdicts:
            shown = v.value if v.value is not None else "undefined"
            lines.append(f"  [{v.status}] {v.constraint_id} = {shown}, "
                         f"legitimate interval {v.interval}"
                         + (f", tolerance {v.tolerance}"
                            if v.tolerance else ""))
            lines.append(f"    {v.explanation}")
            lines.extend(_trace_lines(v.trace, "    "))
    if report.audit is not None:
        a = report.audit
        lines.append("")
        lines.append("Composition audit:")
        for value, share in a.shares.items():
            lines.append(f"  share {value!r} = {share}")
        lines.append(f"  reference share for {a.unprivileged_value!r} = "
                     f"{a.reference_share}")
        lines.append(f"  deviation = {a.deviation}, range {a.range} "
                     f"-> {_audit_status(a)}")
    if report.strategy is not None:
        s = report.strategy
        lines.append("")
        lines.append(f"Strategy ({s.criterion}):")
        lines.append(f"  chosen: {s.action_label} (index {s.action_index}, "
                     f"value {s.value})")
        lines.append(f"  per-action scores: {list(s.scores)}")
        if s.regret_matrix is not None:
            lines.append("  regret matrix:")
            for row in s.regret_matrix:
                lines.append(f"    {list(row)}")
        if s.hurwicz_lambda is not None:
            lines.append(f"  lambda = {s.hurwicz_lambda}")
    return lines


def render(report: ComplianceReport, mode: str = "display") -> str:
    """Render the report in one modality.

    `agent` mode is one summary sentence per verdict; `display` mode is
    the full trace (per-group counts, regret matrix, bin tables).
    """
    if mode == "agent":
        return "\n".join(_agent_lines(report)) + "\n"
    if mode == "display":
        return "\n".join(_display_lines(report)) + "\n"
    raise ValueError(f"unknown render mode {mode!r}")


def render_auto(report: ComplianceReport) -> str:
    """Render per the report's modality flags.

    When both flags are set the agent summary comes first, then the full
    display trace. With neither set the result is empty; `evaluate` on
    the command line always sets at least one.
    """
    parts = []
    if report.agent_mode:
        parts.append(render(report, "agent"))
    if report.display_mode:
        parts.append(render(report, "display"))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# JSON serialization

# `"`, `\\` and the C0 controls are escaped as `json.dumps` escapes them;
# DEL and non-ASCII pass through.
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def _json_value(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"JSON has no encoding for the float {v!r}")
        return format(v, ".17g")
    if isinstance(v, str):
        return _json_string(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(
            f"{_json_value(str(k))}: {_json_value(val)}"
            for k, val in v.items()) + "}"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _interval_obj(i: Interval) -> dict:
    return {"lo": i.lo, "hi": i.hi}


def _trace_obj(trace):
    if isinstance(trace, dict):
        return {str(k): _trace_obj(v) for k, v in
                sorted(trace.items(), key=lambda kv: str(kv[0]))}
    if isinstance(trace, MetricValue):
        return {"value": trace.value, "reason": trace.reason,
                "trace": _trace_obj(trace.trace)}
    if hasattr(trace, "tp"):  # ConfusionCounts
        return {"tp": trace.tp, "fp": trace.fp, "tn": trace.tn,
                "fn": trace.fn}
    if isinstance(trace, (list, tuple)):
        return [_trace_obj(v) for v in trace]
    return trace


def report_object(report: ComplianceReport) -> dict:
    """The report as a plain dict matching docs/report-schema.json."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "policy": report.policy_name,
        "overall_status": report.overall_status,
        "created_at": report.created_at,
        "modes": {"display": report.display_mode,
                  "agent": report.agent_mode},
        "findings": [
            {"subject": f.subject, "status": f.status, "reason": f.reason}
            for f in report.findings
        ],
        "verdicts": [
            {
                "constraint": v.constraint_id,
                "value": v.value,
                "reason": v.reason,
                "interval": _interval_obj(v.interval),
                "tolerance": v.tolerance,
                "status": v.status,
                "explanation": v.explanation,
                "trace": _trace_obj(v.trace),
            }
            for v in report.verdicts
        ],
        "composition_audit": None,
        "strategy": None,
    }
    if report.audit is not None:
        a = report.audit
        obj["composition_audit"] = {
            "shares": {str(k): v for k, v in a.shares.items()},
            "unprivileged_value": a.unprivileged_value,
            "reference_share": a.reference_share,
            "deviation": a.deviation,
            "range": _interval_obj(a.range),
            "within_range": a.within_range,
        }
    if report.strategy is not None:
        s = report.strategy
        obj["strategy"] = {
            "criterion": s.criterion,
            "action_index": s.action_index,
            "action": s.action_label,
            "value": s.value,
            "scores": list(s.scores),
            "regret_matrix": [list(r) for r in s.regret_matrix]
            if s.regret_matrix is not None else None,
            "lambda": s.hurwicz_lambda,
        }
    return obj


def to_json(report: ComplianceReport) -> bytes:
    """Stable-order JSON with floats at 17 significant digits."""
    return _json_value(report_object(report)).encode("utf-8")
