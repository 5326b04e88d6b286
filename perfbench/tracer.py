"""Traced in-process run of the complykit evaluate pipeline.

Calls the public functions of `policy`, `ingest`, `fairness`, `decisions`
and `report` in the order `cli.cmd_evaluate` calls them, with a span around
each call. Spans (name, start, end, parent, run id) stay in memory and are
written once, at the end, together with each layer's self time, the work
counts read from the results, and the peak-RSS growth of the two readers.
The rendered text and the JSON bytes are written next to the trace so the
caller can compare them with the CLI's output for the same inputs.

Run in a fresh interpreter per repetition, so that the RSS growth is
measured from the same starting point each time:

    PYTHONPATH=src python3 perfbench/tracer.py INPUT_DIR OUT_PREFIX RUN_ID
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import contextmanager

import gen


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self._open = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self) -> dict:
        """Total wall time per span name."""
        out = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict:
        """Per layer (the name up to the first dot): span time not covered
        by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers = {}
        for (name, *_), seconds in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def records(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "run": self.run_id}
                for name, start, end, parent in self.spans]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pipeline(tr: Tracer, input_dir: str):
    """The evaluate pipeline for one workload directory.

    Returns (rendered text, JSON bytes, counts, RSS growth per reader).
    """
    from complykit import decisions, fairness, ingest, policy, report
    from complykit.intervals import Interval

    def path(name):
        return os.path.join(input_dir, name)

    predictions = path("predictions.csv")
    has_predictions = os.path.exists(predictions)
    counts = {"dataset_rows": 0, "excluded_rows": 0, "prediction_rows": 0,
              "strata_compared": 0, "strata_skipped": 0,
              "bins_compared": 0, "bins_skipped": 0}
    rss = {"read_dataset": 0.0, "read_predictions": 0.0}

    with tr.span("pipeline"):
        with tr.span("policy.parse"):
            with open(path("policy.law"), encoding="utf-8") as fh:
                doc = policy.parse_policy(fh.read())
        with tr.span("ingest.read_manifest"):
            manifest = ingest.read_manifest(path("run.manifest"))
        with tr.span("policy.check_manifest"):
            findings = policy.check_manifest(doc, manifest)

        before = _peak_rss_mb()
        with tr.span("ingest.read_dataset"):
            dataset = ingest.read_dataset(path("dataset.csv"))
        rss["read_dataset"] = _peak_rss_mb() - before
        counts["dataset_rows"] = len(dataset.rows)

        with tr.span("ingest.bind_groups"):
            bound = ingest.bind_groups(dataset, doc)
        counts["excluded_rows"] = bound.excluded

        gp = None
        if has_predictions:
            before = _peak_rss_mb()
            with tr.span("ingest.read_predictions"):
                gp = ingest.read_predictions(
                    predictions,
                    privileged_label=doc.protected.privileged_value,
                    unprivileged_label=doc.protected.unprivileged_value)
            rss["read_predictions"] = _peak_rss_mb() - before
            counts["prediction_rows"] = len(gp.records)

        metrics = {}
        with tr.span("fairness.total"):
            for constraint in doc.metrics:
                info = fairness.METRIC_REGISTRY[constraint.metric_id]
                with tr.span(f"fairness.{constraint.metric_id}"):
                    if info.dataset_level:
                        value = fairness.statistical_parity_from_counts(
                            bound.favorable_unprivileged, bound.total_unprivileged,
                            bound.favorable_privileged, bound.total_privileged)
                    elif gp is not None:
                        value = info.compute(gp, constraint)
                    else:
                        value = None
                metrics[constraint.metric_id] = value

        with tr.span("ingest.composition_audit"):
            lo, hi = (float(part) for part in gen.COMPOSITION_RANGE.split(","))
            labels = dataset.column(doc.protected.attribute)
            audit = ingest.composition_audit(
                labels, doc.protected.unprivileged_value,
                float(gen.COMPOSITION_REFERENCE), Interval(lo, hi))

        with tr.span("decisions.decide"):
            strategy = decisions.decide(doc.decision)

        with tr.span("report.evaluate"):
            result = report.evaluate(doc, metrics, audit=audit,
                                     findings=findings, strategy=strategy,
                                     display_mode=True, agent_mode=True,
                                     created_at=None)
        with tr.span("report.render"):
            text = report.render_auto(result)
        with tr.span("report.to_json"):
            data = report.to_json(result)

    csp = metrics.get("conditional_statistical_parity")
    if csp is not None:
        counts["strata_compared"] = len(csp.trace.get("per_stratum_gap", ()))
        counts["strata_skipped"] = len(csp.trace.get("skipped_strata", ()))
    cal = metrics.get("calibration")
    if cal is not None:
        counts["bins_compared"] = len(cal.trace.get("per_bin_gap", ()))
        counts["bins_skipped"] = len(cal.trace.get("skipped_bins", ()))
    return text, data, counts, rss


def main(argv):
    input_dir, out_prefix, run_id = argv
    tr = Tracer(run_id)
    text, data, counts, rss = run_pipeline(tr, input_dir)
    with open(out_prefix + ".txt", "wb") as fh:
        fh.write(text.encode("utf-8"))
    with open(out_prefix + ".json", "wb") as fh:
        fh.write(data)
    with open(out_prefix + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "durations_s": tr.durations(),
                   "self_s": tr.self_times(), "counts": counts,
                   "rss_growth_mb": rss, "spans": tr.records()},
                  fh, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
