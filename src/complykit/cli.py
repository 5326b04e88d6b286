"""Command-line front end: check, evaluate, decide, fmt.

Exit codes are uniform across subcommands: 0 for comply/success, 1 for a
policy-level violation (or a non-canonical file under `fmt`), 2 for any
operational error (bad flags, unreadable files, invalid policies).
stdout carries the report; diagnostics and logging go to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from collections import Counter

from . import decisions, fairness, ingest, policy, report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

_COLORS = {
    "[comply]": "\x1b[32m[comply]\x1b[0m",
    "[approved]": "\x1b[32m[approved]\x1b[0m",
    "[explain]": "\x1b[33m[explain]\x1b[0m",
    "[violation]": "\x1b[31m[violation]\x1b[0m",
    "[error]": "\x1b[31m[error]\x1b[0m",
}


def _maybe_colorize(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    for plain, colored in _COLORS.items():
        text = text.replace(plain, colored)
    return text


def _load_policy(path):
    text = ingest.read_text(path)
    return text, policy.parse_policy(text)


def _write_bytes(path, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ingest.IngestError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_check(args) -> int:
    _load_policy(args.policy)
    print(f"{args.policy}: ok", file=sys.stderr)
    return EXIT_OK


def cmd_fmt(args) -> int:
    original, doc = _load_policy(args.policy)
    canonical = policy.serialize_policy(doc)
    changed = canonical != original
    if args.write:
        if changed:
            _write_bytes(args.policy, canonical.encode("utf-8"))
    else:
        sys.stdout.write(canonical)
    return EXIT_VIOLATION if changed else EXIT_OK


def _compute_metrics(doc, bound, gp):
    """One MetricValue (or None) per declared constraint."""
    metrics = {}
    for constraint in doc.metrics:
        info = fairness.METRIC_REGISTRY[constraint.metric_id]
        if info.dataset_level and bound is not None:
            metrics[constraint.metric_id] = fairness.statistical_parity_from_counts(
                bound.favorable_unprivileged, bound.total_unprivileged,
                bound.favorable_privileged, bound.total_privileged)
        elif gp is not None:
            metrics[constraint.metric_id] = info.compute(gp, constraint)
        else:
            metrics[constraint.metric_id] = None  # missing input -> error verdict
    return metrics


def _parse_range(text):
    try:
        lo, hi = (float(part) for part in text.split(","))
        from .intervals import Interval
        return Interval(lo, hi)
    except ValueError as exc:
        raise ingest.IngestError(
            f"bad range {text!r}; expected LO,HI") from exc


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def cmd_evaluate(args) -> int:
    _, doc = _load_policy(args.policy)

    findings = []
    if args.manifest:
        manifest = ingest.read_manifest(args.manifest)
        findings = policy.check_manifest(doc, manifest)

    # One pass over the dataset: row counts per (protected, favorable) cell
    # pair, for the columns the policy declares.
    names = [spec.attribute for spec in (doc.protected, doc.favorable)
             if spec is not None]
    counts = ingest.count_dataset(args.dataset, names)
    bound = None
    if doc.protected is not None and doc.favorable is not None:
        bound = ingest.bind_counts(counts, doc)
        if bound.excluded:
            print(f"note: {bound.excluded} row(s) excluded "
                  "(protected value matched neither group)",
                  file=sys.stderr)

    gp = None
    if args.predictions:
        if doc.protected is not None:
            gp = ingest.read_predictions(
                args.predictions,
                privileged_label=doc.protected.privileged_value,
                unprivileged_label=doc.protected.unprivileged_value)
        else:
            gp = ingest.read_predictions(args.predictions)

    metrics = _compute_metrics(doc, bound, gp)

    audit = None
    if args.composition_reference is not None:
        if doc.protected is None:
            raise ingest.IngestError(
                "composition audit needs a protected_attribute in the policy")
        rng = _parse_range(args.composition_range)
        labels = Counter()
        for key, n in counts.items():
            labels[key[0]] += n
        audit = ingest.composition_from_counts(
            labels, doc.protected.unprivileged_value,
            args.composition_reference, rng)

    strategy = decisions.decide(doc.decision) if doc.decision else None

    created_at = None
    if not args.deterministic:
        created_at = datetime.datetime.now(datetime.timezone.utc).isoformat()

    result = report.evaluate(doc, metrics, audit=audit, findings=findings,
                             strategy=strategy,
                             display_mode=args.mode in ("display", "both"),
                             agent_mode=args.mode in ("agent", "both"),
                             created_at=created_at)
    if args.json:
        _write_bytes(args.json, report.to_json(result))
    sys.stdout.write(_maybe_colorize(report.render_auto(result)))
    if result.overall_status != report.COMPLY:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_decide(args) -> int:
    matrix = decisions.PayoffMatrix.from_csv(args.matrix)
    choice = decisions.choose(matrix, args.criterion, args.hurwicz_lambda)
    lines = [f"criterion: {choice.criterion}"]
    for label, score in zip(matrix.actions, choice.scores):
        lines.append(f"  {label}: {score!r}")
    if choice.regret_matrix is not None:
        lines.append("regret matrix:")
        for label, row in zip(matrix.actions, choice.regret_matrix):
            lines.append(f"  {label}: [" + ", ".join(repr(v) for v in row) + "]")
    lines.append(f"chosen: {choice.action_label} (value {choice.value!r})")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complykit",
        description="Compile .law policies and audit data against them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a policy file")
    p_check.add_argument("policy")
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("evaluate",
                            help="run the full compliance pipeline")
    p_eval.add_argument("policy")
    p_eval.add_argument("--dataset", required=True,
                        help="CSV dataset with a header row")
    p_eval.add_argument("--predictions",
                        help="CSV with group,predicted,actual[,score,legitimate]")
    p_eval.add_argument("--manifest",
                        help="key=value run manifest to check against the policy")
    p_eval.add_argument("--json", metavar="PATH",
                        help="also write the JSON report here")
    p_eval.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps for byte-stable output")
    p_eval.add_argument("--mode", choices=("agent", "display", "both"),
                        default="both")
    p_eval.add_argument("--composition-reference", type=_finite_float,
                        help="reference share for the composition audit")
    p_eval.add_argument("--composition-range", default="-0.05,0.05",
                        metavar="LO,HI",
                        help="legitimate interval for the composition deviation")
    p_eval.set_defaults(func=cmd_evaluate)

    p_decide = sub.add_parser("decide",
                              help="choose a strategy from a payoff matrix")
    p_decide.add_argument("--matrix", required=True,
                          help="CSV: header = states, first column = actions")
    p_decide.add_argument("--criterion", required=True,
                          choices=decisions.CRITERIA)
    p_decide.add_argument("--lambda", dest="hurwicz_lambda", type=float,
                          default=0.5, help="optimism weight for hurwicz")
    p_decide.set_defaults(func=cmd_decide)

    p_fmt = sub.add_parser("fmt", help="rewrite a policy in canonical form")
    p_fmt.add_argument("policy")
    p_fmt.add_argument("--write", action="store_true",
                       help="rewrite the file in place")
    p_fmt.set_defaults(func=cmd_fmt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching our operational-error code
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except policy.PolicyError as exc:
        for diag in exc.diagnostics:
            print(f"{args.policy}:{diag}", file=sys.stderr)
    except (ingest.IngestError, decisions.DecisionError) as exc:
        print(exc, file=sys.stderr)
    except BrokenPipeError:
        # The reader of stdout went away. Point stdout at devnull so that
        # the interpreter's final flush cannot fail again (the "Note on
        # SIGPIPE" in the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:
        # Exit code 1 means "violation", so no crash may end with it.
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
