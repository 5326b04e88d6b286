"""One complykit benchmark run (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program under test is the
checkout's `src/complykit`, run through `python -m complykit.cli`.

--trace 0 measures end to end. Each sample is one `complykit evaluate` in
a fresh child process, run one at a time, timed from spawn to reap, with
its CPU time and peak RSS taken from `os.wait4`. Set-up time is the wall
time of `complykit check` on the workload's policy. Runs of `calibrate.py`
interleaved with them give the host's slowdown over the window, and the
reported times are scaled to the reference host speed (see
`end_to_end_metrics`). Every evaluate passes the correctness gate: exit code,
byte-identical stdout and JSON, strict JSON, and four metric values
recomputed bit for bit from the generator's counts.

--trace 1 measures per layer: `tracer.py` runs the pipeline in process with
a span around every public call; its JSON bytes must equal the CLI's.

The last line of stdout is the result object; the lines before it are a
human-readable summary and one `info` JSON line with the environment,
input and output digests, and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import NamedTuple

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
MIN_ROUNDS = 3
# A typical wall time of calibrate.py on the machine the benchmark was
# defined on (2 vCPUs, Python 3.11.7); end-to-end times are scaled to the
# host speed at which calibrate.py takes this long.
CALIBRATION_REFERENCE_S = 0.8
IMPORT_REPEATS = 5
# A run must end well inside the 180 s a benchmark run may take.
DEADLINE_S = 165.0


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


class Child(NamedTuple):
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(args, stdout_path, stderr_path, deadline):
    """Run `python args...` with the checkout's src on the path and wait.

    posix_spawn and wait4 keep the harness's own work out of the timed
    interval; the child's CPU time and peak RSS come from its rusage.
    """
    exe = sys.executable
    env = dict(os.environ, PYTHONPATH=SRC)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644)]
    remaining = deadline - time.monotonic()
    if remaining < 1:
        raise Timeout()
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(int(remaining))
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(exe, [exe] + list(args), env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    finally:
        signal.alarm(0)
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def summary(values):
    """n, median and quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def git_sha():
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha()}


# ---------------------------------------------------------------------------
# Correctness gate

def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def _spd(favorable_u, total_u, favorable_p, total_p):
    """statistical_parity_from_counts: P(fav | unpriv) - P(fav | priv)."""
    return favorable_u / total_u - favorable_p / total_p


def reference_values(expected) -> dict:
    """The four gated metric values, computed from the generator's counts
    with the formulas the report documents."""
    fu, tu = expected["favorable_total"][gen.UNPRIVILEGED]
    fp, tp = expected["favorable_total"][gen.PRIVILEGED]
    values = {"statistical_parity_difference": _spd(fu, tu, fp, tp)}
    confusion = expected.get("confusion")
    if confusion:
        cu = confusion[gen.UNPRIVILEGED]  # [tp, fp, tn, fn]
        cp = confusion[gen.PRIVILEGED]
        values["equal_acceptance_rate"] = _spd(
            cu[0] + cu[1], sum(cu), cp[0] + cp[1], sum(cp))
        values["accuracy_equality"] = ((cu[0] + cu[2]) / sum(cu)
                                       - (cp[0] + cp[2]) / sum(cp))
        a = cu[3] * cp[1]
        b = cp[3] * cu[1]
        values["treatment_equality"] = (a - b) / max(1, a + b)
    return values


class Gate:
    """Checks each evaluate's output and keeps one problem per failed run."""

    def __init__(self, workload, expected, recorded):
        self.expected_exit = gen.WORKLOADS[workload].expected_exit
        self.values = reference_values(expected)
        self.recorded = recorded  # {"stdout_sha256", "json_sha256"} or None
        self.problems = []

    def check(self, exit_code, stdout: bytes, report: bytes) -> bool:
        problem = self._problem(exit_code, stdout, report)
        if problem:
            self.problems.append(problem)
        return problem is None

    def _problem(self, exit_code, stdout, report):
        if exit_code != self.expected_exit:
            return f"exit code {exit_code}, expected {self.expected_exit}"
        digests = {"stdout_sha256": sha256(stdout),
                   "json_sha256": sha256(report)}
        if self.recorded is None:
            # No recorded reference for this seed: the first run's bytes
            # become the reference for the rest of this run.
            self.recorded = digests
        for key, digest in digests.items():
            if digest != self.recorded[key]:
                return f"{key} {digest} differs from reference {self.recorded[key]}"
        try:
            obj = json.loads(report.decode("utf-8"),
                             parse_constant=_reject_constant)
        except ValueError as exc:
            return f"report is not strict JSON: {exc}"
        got = {v["constraint"]: v["value"] for v in obj["verdicts"]}
        for metric_id, want in self.values.items():
            if got.get(metric_id) != want:
                return f"{metric_id} = {got.get(metric_id)!r}, expected {want!r}"
        return None


# ---------------------------------------------------------------------------
# Runs

def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Run:
    def __init__(self, workload, seed, seconds, work_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = work_dir
        self.inputs = os.path.join(work_dir, "inputs")
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.outputs = None

    def prepare(self):
        self.expected = gen.generate(self.workload, self.seed, self.inputs)
        self.rows = (self.expected["excluded"]
                     + sum(t for _, t in self.expected["favorable_total"].values())
                     + sum(sum(c) for c in self.expected.get("confusion", {}).values()))
        recorded = (load_reference()["outputs"].get(self.workload, {})
                    .get(str(self.seed)))
        self.input_problem = None
        if recorded and recorded["inputs"] != self.expected["inputs"]:
            self.input_problem = "generated inputs differ from the recorded digests"
        self.gate = Gate(self.workload, self.expected,
                         {k: recorded[k] for k in ("stdout_sha256", "json_sha256")}
                         if recorded else None)

    def path(self, name):
        return os.path.join(self.dir, name)

    def check(self):
        """Wall time of one `complykit check` on the workload's policy."""
        child = spawn(["-m", "complykit.cli", "check",
                       os.path.join(self.inputs, "policy.law")],
                      self.path("check.out"), self.path("check.err"),
                      self.deadline)
        if child.exit_code != 0:
            raise RuntimeError("complykit check failed: "
                               + read_bytes(self.path("check.err")).decode(
                                   "utf-8", "replace").strip())
        return child.wall_s

    def evaluate(self):
        """One CLI evaluate through the gate; returns the Child."""
        out, report = self.path("evaluate.out"), self.path("report.json")
        if os.path.exists(report):
            os.remove(report)
        child = spawn(["-m", "complykit.cli"]
                      + gen.evaluate_argv(self.inputs, report),
                      out, self.path("evaluate.err"), self.deadline)
        stdout = read_bytes(out)
        data = read_bytes(report) if os.path.exists(report) else b""
        self.attempted += 1
        if not self.gate.check(child.exit_code, stdout, data):
            self.failed += 1
        if self.outputs is None:
            self.outputs = {"stdout_sha256": sha256(stdout),
                            "json_sha256": sha256(data)}
            self.cli_stdout, self.cli_json = stdout, data
        return child

    def calibrate(self):
        """Wall time of one calibrate.py child: the host's current speed."""
        child = spawn([os.path.join(HERE, "calibrate.py")],
                      self.path("calibrate.out"), self.path("calibrate.err"),
                      self.deadline)
        if child.exit_code != 0:
            raise RuntimeError("calibrate.py failed: "
                               + read_bytes(self.path("calibrate.err")).decode(
                                   "utf-8", "replace").strip()[-2000:])
        return child.wall_s

    def another_round(self, start, rounds):
        """True until MIN_ROUNDS rounds ran and another round of the mean
        length so far would end past the window."""
        elapsed = time.monotonic() - start
        return (rounds < MIN_ROUNDS
                or elapsed * (rounds + 1) / rounds <= self.seconds)

    def measure_end_to_end(self):
        """Rounds of SETUP_REPEATS checks, one evaluate and one calibration
        until the window ends; returns every sample, in seconds and MB.

        A calibration also runs before the first round, so that the
        calibrations bracket every round.
        """
        self.check()  # compiles the package's bytecode; not counted
        start = time.monotonic()
        samples = {"calibrate_s": [self.calibrate()], "setup_s": [],
                   "evaluate_s": [], "evaluate_cpu_s": [], "peak_rss_mb": []}
        while self.another_round(start, len(samples["evaluate_s"])):
            samples["setup_s"] += [self.check() for _ in range(SETUP_REPEATS)]
            child = self.evaluate()
            samples["evaluate_s"].append(child.wall_s)
            samples["evaluate_cpu_s"].append(child.cpu_s)
            samples["peak_rss_mb"].append(child.peak_rss_mb)
            samples["calibrate_s"].append(self.calibrate())
        return samples

    def end_to_end_metrics(self, samples):
        """Times scaled to the reference host speed, and peak RSS.

        On a shared host the speed of the CPU moves by a third and more,
        from seconds to minutes, for every process alike. The calibrations
        are interleaved with the measured runs over the whole window, so the
        ratio of their mean to CALIBRATION_REFERENCE_S is the host's mean
        slowdown over the window, and each time is the mean of its samples
        divided by it. (Medians of the raw times spread by 12-45% between
        runs; scaled per round, long evaluates spread more than unscaled.)
        """
        slowdown = (statistics.fmean(samples["calibrate_s"])
                    / CALIBRATION_REFERENCE_S)
        evaluate = statistics.fmean(samples["evaluate_s"]) / slowdown
        return {
            "setup_s": statistics.fmean(samples["setup_s"]) / slowdown,
            "evaluate_s": evaluate,
            "evaluate_cpu_s":
                statistics.fmean(samples["evaluate_cpu_s"]) / slowdown,
            "rows_per_s": self.rows / evaluate,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }

    def trace(self, prefix, run_id):
        """One traced run in its own interpreter; returns the Child."""
        child = spawn([os.path.join(HERE, "tracer.py"), self.inputs,
                       prefix, run_id],
                      self.path("tracer.out"), self.path("tracer.err"),
                      self.deadline)
        if child.exit_code != 0:
            raise RuntimeError(
                "tracer failed: " + read_bytes(self.path("tracer.err"))
                .decode("utf-8", "replace").strip()[-2000:])
        return child

    def measure_per_layer(self):
        """Pairs of one traced run and one CLI evaluate on the same inputs,
        until the window ends; which runs first alternates.

        Both are whole child processes that start, import, parse, run the
        pipeline, write their output and exit, so the difference of their
        wall times is the tracing overhead of the pair. (The pipeline span
        alone leaves out writing the output and the exit, which frees the
        heap: about 0.17 s on dataset-wide.)
        """
        self.check()  # compiles the package's bytecode; not counted
        imports = [spawn(["-c", "import complykit.cli"],
                         self.path("import.out"), self.path("import.err"),
                         self.deadline).wall_s
                   for _ in range(IMPORT_REPEATS)]
        start = time.monotonic()
        traces, overheads = [], []
        while self.another_round(start, len(traces)):
            rep = len(traces)
            prefix = self.path(f"trace{rep}")
            run_id = f"{self.workload}/{self.seed}/{rep}"
            if rep % 2:
                child = self.trace(prefix, run_id)
                evaluate = self.evaluate().wall_s
            else:
                evaluate = self.evaluate().wall_s
                child = self.trace(prefix, run_id)
            self.attempted += 1
            if (read_bytes(prefix + ".json") != self.cli_json
                    or read_bytes(prefix + ".txt") != self.cli_stdout):
                self.failed += 1
                self.gate.problems.append(
                    "traced report bytes differ from the CLI's")
            with open(prefix + ".trace.json", encoding="utf-8") as fh:
                traces.append(json.load(fh))
            overheads.append(child.wall_s - evaluate)
        return self.layer_metrics(traces, overheads, imports)

    def layer_metrics(self, traces, overheads, imports):
        def med(get):
            return statistics.median(get(t) for t in traces)

        def span(name):
            return med(lambda t: t["durations_s"].get(name, 0.0))

        first = traces[0]["counts"]
        read_dataset = span("ingest.read_dataset")
        read_predictions = span("ingest.read_predictions")
        m = {
            "policy.parse_s": span("policy.parse"),
            "policy.check_manifest_s": span("policy.check_manifest"),
            "ingest.read_manifest_s": span("ingest.read_manifest"),
            "ingest.read_dataset_s": read_dataset,
            "ingest.bind_groups_s": span("ingest.bind_groups"),
            "ingest.read_predictions_s": read_predictions,
            "ingest.composition_audit_s": span("ingest.composition_audit"),
            "ingest.read_dataset_rows_per_s":
                first["dataset_rows"] / read_dataset if read_dataset else 0.0,
            "ingest.read_predictions_rows_per_s":
                first["prediction_rows"] / read_predictions
                if read_predictions else 0.0,
            "ingest.dataset_rows": first["dataset_rows"],
            "ingest.excluded_rows": first["excluded_rows"],
            "ingest.prediction_rows": first["prediction_rows"],
            "ingest.read_dataset_rss_mb":
                med(lambda t: t["rss_growth_mb"]["read_dataset"]),
            "ingest.read_predictions_rss_mb":
                med(lambda t: t["rss_growth_mb"]["read_predictions"]),
        }
        for metric_id in gen.METRIC_IDS:
            m[f"fairness.{metric_id}_s"] = span(f"fairness.{metric_id}")
        m["fairness.total_s"] = span("fairness.total")
        for key in ("strata_compared", "strata_skipped",
                    "bins_compared", "bins_skipped"):
            m[f"fairness.{key}"] = first[key]
        m["decisions.decide_s"] = span("decisions.decide")
        m["report.evaluate_s"] = span("report.evaluate")
        m["report.render_s"] = span("report.render")
        m["report.to_json_s"] = span("report.to_json")
        m["report.text_bytes"] = len(self.cli_stdout)
        m["report.json_bytes"] = len(self.cli_json)
        m["cli.import_s"] = statistics.median(imports)
        m["trace.overhead_s"] = statistics.median(overheads)
        self.trace_doc = {
            "workload": self.workload, "seed": self.seed,
            "self_s": {layer: statistics.median(t["self_s"].get(layer, 0.0)
                                                for t in traces)
                       for layer in sorted({k for t in traces
                                            for k in t["self_s"]})},
            "counts": first, "runs": traces,
        }
        return m


def main(argv=None):
    ap = argparse.ArgumentParser(description="one complykit benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "complykit", "cli.py")):
        print(f"no complykit source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    units = layer_units if args.trace else e2e_units

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    run = Run(args.workload, args.seed, args.seconds, work_dir)
    try:
        run.prepare()
        if args.trace:
            samples = None
            metrics = run.measure_per_layer()
        else:
            samples = run.measure_end_to_end()
            metrics = run.end_to_end_metrics(samples)
    except Timeout:
        print("benchmark run exceeded its deadline", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    if set(metrics) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    problems = list(run.gate.problems)
    if run.input_problem:
        problems.insert(0, run.input_problem)
    correct = not problems

    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_path = os.path.join(
            WORK, "traces", f"{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(run.trace_doc, fh, sort_keys=True)
        for name in units:
            print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    else:
        for name, values in samples.items():
            s = summary(values)
            print(f"raw {name:16s} n={s['n']:<3d} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g}")
        for name in units:
            print(f"{name:16s} {metrics[name]:16.6g} {units[name]}")
    for problem in dict.fromkeys(problems):
        print(f"FAIL ({problems.count(problem)}x): {problem}")
    info = {"workload": args.workload, "seed": args.seed, "env": env,
            "inputs": run.expected["inputs"], "outputs": run.outputs,
            "problems": problems}
    if samples is not None:
        info["samples"] = samples
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
