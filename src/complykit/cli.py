"""Command-line front end: check, evaluate, decide, fmt.

Exit codes are uniform across subcommands: 0 for comply/success, 1 for a
policy-level violation (or a non-canonical file under `fmt`), 2 for any
operational error (bad flags, unreadable files, invalid policies, a
stdout or stderr that cannot be written).
stdout carries the report; diagnostics and logging go to stderr.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
from collections import Counter

from . import decisions, policy
from ._shared import IngestError, read_text
from .intervals import Interval

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
    if os.environ.get("NO_COLOR") or not (sys.stdout and sys.stdout.isatty()):
        return text
    for plain, colored in _COLORS.items():
        text = text.replace(plain, colored)
    return text


def _load_policy(path):
    text = read_text(path)
    return text, policy.parse_policy(text)


class _StreamError(OSError):
    """Writing or flushing `sys.<stream>` failed: a fault of the
    environment (a reader gone, a full disk, a descriptor closed at
    start-up), not a defect."""

    def __init__(self, stream: str, code: int, strerror: str):
        super().__init__(code, strerror)
        self.stream = stream


def _write(name: str, text: str) -> None:
    """Write `text` to `sys.<name>` ("stdout" or "stderr") and flush it.

    When the descriptor was closed at start-up `sys.<name>` is None, and
    any text for it fails as EBADF."""
    stream = getattr(sys, name)
    if stream is None:
        if text:
            raise _StreamError(name, errno.EBADF, os.strerror(errno.EBADF))
        return
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        raise _StreamError(name, exc.errno, exc.strerror) from exc


def _warn(*lines: str) -> None:
    """Write each of `lines` to stderr; with none, flush what is pending.
    A bare print would write to stdout when `sys.stderr` is None."""
    _write("stderr", "".join(line + "\n" for line in lines))


def _discard(name: str) -> None:
    """Point `sys.<name>`'s file descriptor at devnull, so that the
    interpreter's final flush of it cannot fail again and exit 120 (the
    "Note on SIGPIPE" in the `signal` docs). A None stream has none."""
    stream = getattr(sys, name)
    if stream is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _is_stdout(path) -> bool:
    """Whether `path` is the file that stdout (descriptor 1) writes."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _write_bytes(path, data: bytes) -> None:
    """Write `data` to `path`. The file that stdout writes, such as
    /dev/stdout, is written through stdout, so that what stdout writes next
    follows it, as in a pipe. A regular or missing file (a symlink's
    target, so the link stays) is replaced whole, mode kept, through a temp
    file beside it: a failed write (a full disk, a file-size limit) keeps
    the old bytes and leaves no temp file. Any other file, such as
    /dev/null or a FIFO, has nothing to replace and is written in place."""
    if _is_stdout(path):
        _write("stdout", data.decode("utf-8"))
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as fh:
                fh.write(data)
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            if os.path.exists(target):
                os.chmod(tmp, os.stat(target).st_mode & 0o7777)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_check(args) -> int:
    _load_policy(args.policy)
    _warn(f"{args.policy}: ok")
    return EXIT_OK


def cmd_fmt(args) -> int:
    original, doc = _load_policy(args.policy)
    canonical = policy.serialize_policy(doc)
    changed = canonical != original
    if args.write:
        if changed:
            _write_bytes(args.policy, canonical.encode("utf-8"))
    else:
        _write("stdout", canonical)
    return EXIT_VIOLATION if changed else EXIT_OK


def _compute_metrics(doc, bound, gp):
    """One MetricValue (or None) per declared constraint."""
    from . import fairness
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
    message = f"bad range {text!r}; expected LO,HI"
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    try:
        return Interval(lo, hi)
    except ValueError as exc:  # inverted, or an endpoint not finite
        raise argparse.ArgumentTypeError(f"{message} ({exc})") from None


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def cmd_evaluate(args) -> int:
    # Nothing evaluate builds is cyclic, so the cyclic collector would only
    # rescan the live prediction tally: it is paused for the run, and left
    # as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _evaluate(args)
    finally:
        if enabled:
            gc.enable()


def _evaluate(args) -> int:
    from . import ingest, report  # only evaluate reads data and reports

    if args.composition_range is not None and args.composition_reference is None:
        raise IngestError("--composition-range needs --composition-reference")
    _, doc = _load_policy(args.policy)
    if args.composition_reference is not None and doc.protected is None:
        raise IngestError(
            "composition audit needs a protected_attribute in the policy")

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
            _warn(f"note: {bound.excluded} row(s) excluded "
                  "(protected value matched neither group)")

    gp = None
    if args.predictions:
        labels = ()
        if doc.protected is not None:
            labels = (doc.protected.privileged_value,
                      doc.protected.unprivileged_value)
        # Each shard of the prediction pass counts its own calibration bins.
        bins = [c.bins for c in doc.metrics if c.metric_id == "calibration"]
        gp = ingest.read_predictions(args.predictions, *labels,
                                     calibration_bins=bins)

    metrics = _compute_metrics(doc, bound, gp)
    del gp  # the tally is freed before the report is built
    if args.predictions:
        _trim_c_heap()

    audit = None
    if args.composition_reference is not None:
        labels = Counter()
        for key, n in counts.items():
            labels[key[0]] += n
        audit = ingest.composition_from_counts(
            labels, doc.protected.unprivileged_value, args.composition_reference,
            args.composition_range or Interval(-0.05, 0.05))

    strategy = decisions.decide(doc.decision) if doc.decision else None

    created_at = None
    if not args.deterministic:
        import datetime
        created_at = datetime.datetime.now(datetime.timezone.utc).isoformat()

    result = report.evaluate(doc, metrics, audit=audit, findings=findings,
                             strategy=strategy,
                             display_mode=args.mode in ("display", "both"),
                             agent_mode=args.mode in ("agent", "both"),
                             created_at=created_at)
    if args.json:
        _write_bytes(args.json, report.to_json(result))
    _write("stdout", _maybe_colorize(report.render_auto(result)))
    if result["overall_status"] != report.COMPLY:
        return EXIT_VIOLATION
    return EXIT_OK


def _trim_c_heap() -> None:
    """Give the free pages of the C heap back to the OS, where glibc can.

    glibc returns freed heap memory only from the top of its heap, so one
    live block allocated above the freed prediction tally keeps all of
    the tally's pages resident through the report phase. Whether one is
    there depends on allocation order alone: on a 200k-row prediction file
    with about 39k strata it moved peak RSS between about 33 and 36 MB
    from one environment to the next.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes
    except ImportError:  # built without ctypes
        return
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def cmd_decide(args) -> int:
    lam = args.hurwicz_lambda
    if lam is not None and args.criterion != "hurwicz":
        raise decisions.DecisionError("--lambda needs --criterion hurwicz")
    matrix = decisions.PayoffMatrix.from_csv(args.matrix)
    choice = decisions.choose(matrix, args.criterion,
                              policy.DEFAULT_LAMBDA if lam is None else lam)
    lines = [f"criterion: {choice.criterion}"]
    for label, score in zip(matrix.actions, choice.scores):
        lines.append(f"  {label}: {score!r}")
    if choice.regret_matrix is not None:
        lines.append("regret matrix:")
        for label, row in zip(matrix.actions, choice.regret_matrix):
            lines.append(f"  {label}: {list(row)}")
    lines.append(f"chosen: {choice.action_label} (value {choice.value!r})")
    _write("stdout", "\n".join(lines) + "\n")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    def print_help(self, file=None):
        """Write the help to `file`, or by `_write` to stdout: argparse
        drops a failed write, so `--help` into a full disk would exit 0."""
        if file is None:
            _write("stdout", self.format_help())
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    p_eval.add_argument("--composition-range", type=_parse_range, metavar="LO,HI",
                        help="legitimate interval for the composition deviation "
                             "(default -0.05,0.05; needs a reference)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_decide = sub.add_parser("decide",
                              help="choose a strategy from a payoff matrix")
    p_decide.add_argument("--matrix", required=True,
                          help="CSV: header = states, first column = actions")
    p_decide.add_argument("--criterion", required=True,
                          choices=decisions.CRITERIA)
    p_decide.add_argument("--lambda", dest="hurwicz_lambda", type=_finite_float,
                          help="hurwicz only: optimism weight (default 0.5)")
    p_decide.set_defaults(func=cmd_decide)

    p_fmt = sub.add_parser("fmt", help="rewrite a policy in canonical form")
    p_fmt.add_argument("policy")
    p_fmt.add_argument("--write", action="store_true",
                       help="rewrite the file in place")
    p_fmt.set_defaults(func=cmd_fmt)

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        _warn()  # argparse writes its usage errors unchecked
        return code
    except _StreamError:  # stderr's, from _run
        # No fault can be reported, so the exit code alone says it.
        _discard("stderr")
        return EXIT_ERROR


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # parse_args exits 2 on bad usage, matching our operational-error
        # code, and 0 after --help
        return EXIT_ERROR if exc.code else EXIT_OK
    except policy.PolicyError as exc:
        _warn(*(f"{args.policy}:{diag}" for diag in exc.diagnostics))
    except (IngestError, decisions.DecisionError) as exc:
        _warn(str(exc))
    except _StreamError as exc:
        if exc.stream != "stdout":
            raise  # for main
        # The reader of stdout went away, its file is full, or it was
        # closed at start-up.
        _discard("stdout")
        if exc.errno != errno.EPIPE:
            _warn(f"cannot write stdout: {exc.strerror}")
    except Exception as exc:
        # Exit code 1 means "violation", so no crash may end with it.
        import traceback
        _warn(f"internal error: {type(exc).__name__}: {exc}",
              traceback.format_exc().rstrip("\n"))
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
