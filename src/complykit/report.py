"""Comply-or-explain reports.

Every policy constraint yields exactly one verdict: `comply` when the
metric is defined and inside its legitimate interval, `explain` when it
is outside or Undefined (with the reason attached), `error` when the
metric could not be computed at all. Reports are complete regardless of
the policy's violation mode, and rendering is deterministic: the same
report (with the timestamp suppressed) always produces byte-identical
text and JSON.

A report is one dict in the shape of docs/report-schema.json, built
once by `evaluate` and read by both the text renderers and `to_json`.
Besides JSON values it holds `Interval`, `MetricValue` and
`ConfusionCounts` leaves, which `to_json` writes as objects.
"""

from __future__ import annotations

import json
import math

from .fairness import ConfusionCounts, MetricValue
from .intervals import Interval

SCHEMA_VERSION = 1

COMPLY = "comply"
EXPLAIN = "explain"
ERROR = "error"


def _sorted_trace(trace):
    """`trace` with each dict's keys in `str` order, the order both
    renderers write; the trace of a nested MetricValue is sorted too."""
    if isinstance(trace, dict):
        return {k: _sorted_trace(trace[k]) for k in sorted(trace, key=str)}
    if isinstance(trace, MetricValue):
        return MetricValue(trace.metric_id, trace.value, trace.reason,
                           _sorted_trace(trace.trace))
    return trace


def judge_constraint(constraint, metric) -> dict:
    """The verdict object for one policy constraint (a MetricConstraint)
    given its computed MetricValue, or None when it was not computed."""
    interval = constraint.range
    if metric is None:
        status, explanation = ERROR, "metric was not computed (missing input)"
        metric = MetricValue(constraint.metric_id, None)
    elif not metric.is_defined:
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
    return {
        "constraint": constraint.metric_id,
        "value": metric.value,
        "reason": metric.reason,
        "interval": interval,
        "tolerance": constraint.tolerance,
        "status": status,
        "explanation": explanation,
        "trace": _sorted_trace(metric.trace),
    }


def evaluate(policy, metrics, audit=None, findings=(), strategy=None,
             display_mode: bool = True, agent_mode: bool = True,
             created_at=None) -> dict:
    """Assemble the full report object.

    `metrics` maps metric id -> MetricValue (or None for uncomputable).
    Every constraint in the policy appears exactly once among verdicts,
    in declaration order. `findings` are ContextFindings, `audit` a
    CompositionAudit and `strategy` a StrategyChoice; `created_at` is an
    ISO timestamp, or None when it is suppressed.
    """
    verdicts = [judge_constraint(c, metrics.get(c.metric_id))
                for c in policy.metrics]
    ok = (all(v["status"] == COMPLY for v in verdicts)
          and all(f.is_approved for f in findings)
          and (audit is None or audit.within_range))
    return {
        "schema_version": SCHEMA_VERSION,
        "policy": policy.name,
        "overall_status": COMPLY if ok else EXPLAIN,
        "created_at": created_at,
        "modes": {"display": display_mode, "agent": agent_mode},
        "findings": [
            {"subject": f.subject, "status": f.status, "reason": f.reason}
            for f in findings
        ],
        "verdicts": verdicts,
        "composition_audit": None if audit is None else {
            "shares": audit.shares,
            "unprivileged_value": audit.unprivileged_value,
            "reference_share": audit.reference_share,
            "deviation": audit.deviation,
            "range": audit.range,
            "within_range": audit.within_range,
        },
        "strategy": None if strategy is None else {
            "criterion": strategy.criterion,
            "action_index": strategy.action_index,
            "action": strategy.action_label,
            "value": strategy.value,
            "scores": list(strategy.scores),
            "regret_matrix": None if strategy.regret_matrix is None
            else [list(row) for row in strategy.regret_matrix],
            "lambda": strategy.hurwicz_lambda,
        },
    }


def _audit_status(audit: dict) -> str:
    return COMPLY if audit["within_range"] else EXPLAIN


# ---------------------------------------------------------------------------
# Text rendering

def _shown(text):
    """Data as the text report prints it (a policy name, a context
    finding, a stratum's text): a str that holds a line break or a control
    character is printed as its repr, so that it cannot start a report
    line of its own or reach the terminal."""
    if isinstance(text, str) and not text.isprintable():
        return repr(text)
    return text


def _agent_lines(report: dict):
    lines = [f"Policy {_shown(report['policy'])}: {report['overall_status']}"]
    for f in report["findings"]:
        why = "" if f["status"] == "approved" else f" — {_shown(f['reason'])}"
        lines.append(f"Context {_shown(f['subject'])}: {f['status']}{why}")
    for v in report["verdicts"]:
        why = "" if v["status"] == COMPLY else f" — {v['explanation']}"
        lines.append(f"Constraint {v['constraint']}: {v['status']}{why}")
    a = report["composition_audit"]
    if a is not None:
        lines.append(f"Composition audit: {_audit_status(a)} — deviation "
                     f"{a['deviation']} vs range {a['range']}")
    s = report["strategy"]
    if s is not None:
        lines.append(f"Strategy ({s['criterion']}): {s['action']} "
                     f"(value {s['value']})")
    return lines


def _trace_lines(trace: dict, indent: str):
    lines = []
    for key, value in trace.items():
        key = _shown(key)
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


def _display_lines(report: dict):
    lines = [f"Policy: {_shown(report['policy'])}",
             f"Overall: {report['overall_status']}"]
    if report["created_at"] is not None:
        lines.append(f"Created: {report['created_at']}")
    if report["findings"]:
        lines.append("")
        lines.append("Operational context:")
        for f in report["findings"]:
            lines.append(f"  [{f['status']}] {_shown(f['subject'])} — "
                         f"{_shown(f['reason'])}")
    if report["verdicts"]:
        lines.append("")
        lines.append("Constraints:")
        for v in report["verdicts"]:
            shown = v["value"] if v["value"] is not None else "undefined"
            lines.append(f"  [{v['status']}] {v['constraint']} = {shown}, "
                         f"legitimate interval {v['interval']}"
                         + (f", tolerance {v['tolerance']}"
                            if v["tolerance"] else ""))
            lines.append(f"    {v['explanation']}")
            lines.extend(_trace_lines(v["trace"], "    "))
    a = report["composition_audit"]
    if a is not None:
        lines.append("")
        lines.append("Composition audit:")
        for value, share in a["shares"].items():
            lines.append(f"  share {value!r} = {share}")
        lines.append(f"  reference share for {a['unprivileged_value']!r} = "
                     f"{a['reference_share']}")
        lines.append(f"  deviation = {a['deviation']}, range {a['range']} "
                     f"-> {_audit_status(a)}")
    s = report["strategy"]
    if s is not None:
        lines.append("")
        lines.append(f"Strategy ({s['criterion']}):")
        lines.append(f"  chosen: {s['action']} (index {s['action_index']}, "
                     f"value {s['value']})")
        lines.append(f"  per-action scores: {s['scores']}")
        if s["regret_matrix"] is not None:
            lines.append("  regret matrix:")
            for row in s["regret_matrix"]:
                lines.append(f"    {row}")
        if s["lambda"] is not None:
            lines.append(f"  lambda = {s['lambda']}")
    return lines


def render(report: dict, mode: str = "display") -> str:
    """Render the report in one modality.

    `agent` mode is one summary sentence per verdict; `display` mode is
    the full trace (per-group counts, regret matrix, bin tables).
    """
    if mode == "agent":
        return "\n".join(_agent_lines(report)) + "\n"
    if mode == "display":
        return "\n".join(_display_lines(report)) + "\n"
    raise ValueError(f"unknown render mode {mode!r}")


def render_auto(report: dict) -> str:
    """Render per the report's modality flags.

    When both flags are set the agent summary comes first, then the full
    display trace. With neither set the result is empty; `evaluate` on
    the command line always sets at least one.
    """
    parts = []
    if report["modes"]["agent"]:
        parts.append(render(report, "agent"))
    if report["modes"]["display"]:
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
        # A JSON object has one member per name: of keys with the same
        # text (None and "None", say), the later one's value is written.
        members = {str(k): val for k, val in v.items()}
        return "{" + ", ".join(
            f"{_json_string(k)}: {_json_value(val)}"
            for k, val in members.items()) + "}"
    if isinstance(v, Interval):
        return _json_value({"lo": v.lo, "hi": v.hi})
    if isinstance(v, MetricValue):
        return _json_value({"value": v.value, "reason": v.reason,
                            "trace": v.trace})
    if isinstance(v, ConfusionCounts):
        return _json_value({"tp": v.tp, "fp": v.fp, "tn": v.tn, "fn": v.fn})
    raise TypeError(f"cannot serialize {type(v).__name__}")


def to_json(report: dict) -> bytes:
    """Stable-order JSON with floats at 17 significant digits."""
    return _json_value(report).encode("utf-8")
