"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py --seeds 1-10 [--trace 1] [--record] [--baseline]

Each (workload, seed) is one `run.py` run of BENCHMARK.json's run_seconds,
made one at a time, over every workload in BENCHMARK.json. For every
metric the table gives its unit, the number of runs, the median of the
per-run values, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. The summary, with the Python version, nproc, git SHA and
the load average at start and end, is written to .perfbench/suite-*.json.

--record stores the output and input digests of the default and held-out
seeds in reference.json; --baseline appends the summary there to the
baseline sets of the commit measured, so that repeated sets of the same
code show how far the figures vary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import run as bench


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="complykit benchmark suite")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = bench.environment()
    env["loadavg_start"] = os.getloadavg()
    results = {}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(bench.HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=bench.ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         + proc.stderr)
            result = json.loads(lines[-1])
            info = json.loads(lines[-2][len("info "):])
            all_correct &= result["correct"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if k in ("setup_s", "evaluate_s", "trace.overhead_s")),
                  flush=True)
            runs.append({"seed": seed, "result": result, "info": info})
        results[workload] = runs

    env["loadavg_end"] = os.getloadavg()
    table = {}
    print(f"\npython {env['python']}  nproc {env['nproc']}  "
          f"git {env['git_sha']}  load {env['loadavg_start'][0]:.2f}"
          f" -> {env['loadavg_end'][0]:.2f}")
    for workload, runs in results.items():
        table[workload] = {}
        print(f"\n{workload}")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = bench.summary(values)
            s["spread"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            table[workload][m["name"]] = s
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound={bound:<5} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {m['name']:40s} {m['unit']:6s} n={s['n']:<3d} "
                  f"median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                  f"q3={s['q3']:<12.6g} spread={s['spread']:.2%} {flag}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"  fail_rate = {failed}/{attempted}")

    os.makedirs(bench.WORK, exist_ok=True)
    out = os.path.join(bench.WORK, f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seconds": spec["run_seconds"],
                   "trace": args.trace, "summary": table, "runs": results},
                  fh, indent=1, sort_keys=True)
    print(f"\nwrote {out}")

    if args.record or args.baseline:
        reference = bench.load_reference()
        keep = {str(reference["default_seed"]), str(reference["heldout_seed"])}
        for workload, runs in results.items():
            for r in runs:
                if args.record and str(r["seed"]) in keep:
                    reference["outputs"].setdefault(workload, {})[str(r["seed"])] = {
                        "inputs": r["info"]["inputs"], **r["info"]["outputs"]}
        if args.baseline:
            reference["baseline"]["trace" if args.trace else "end_to_end"].append({
                "env": env, "seconds": spec["run_seconds"],
                "seeds": args.seeds, "summary": table})
        with open(os.path.join(bench.HERE, "reference.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
