"""Seeded input generator for the complykit benchmark (stdlib only).

Each workload writes a policy, a dataset, an optional prediction file and
a run manifest into a directory, plus `expected.json`: the per-group
favorable/total counts and confusion counts tallied while the rows were
generated. The correctness gate recomputes metric values from those counts,
so the reference never comes from complykit itself.

The same seed gives byte-identical files. Only `random.Random.random`,
`getrandbits` and `shuffle` are used, whose outputs are stable across
CPython releases.

    python3 perfbench/gen.py --workload predictions-1m --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from dataclasses import dataclass

PRIVILEGED = "Male"
UNPRIVILEGED = "Female"
FAVORABLE = "Exec-managerial"
OTHER_OCCUPATIONS = ("Prof-specialty", "Craft-repair", "Adm-clerical", "Sales",
                     "Other-service", "Machine-op-inspct", "Transport-moving")
UNMATCHED_SEX = ("?", "Unknown", "Intersex")

# Published group counts of the scenario-1 (Adult) dataset:
# (favorable, total) per group.
SCENARIO1 = {PRIVILEGED: (4338, 31648), UNPRIVILEGED: (1748, 15351)}

COMPOSITION_REFERENCE = "0.33"
COMPOSITION_RANGE = "-0.05,0.05"

MANIFEST = """\
dataset_source=https://archive.ics.uci.edu/dataset/2/adult
model_id=google/gemma-2-2b-it
declared_use=recruitment
synthetic=false
"""

METRIC_IDS = (
    "statistical_parity_difference", "equal_acceptance_rate",
    "predictive_parity", "equal_opportunity", "predictive_equality",
    "equalized_odds", "accuracy_equality", "conditional_use_accuracy",
    "treatment_equality", "conditional_statistical_parity", "calibration",
    "balance_positive", "balance_negative",
)

# Formatted once: scores are written as 0.kkkk with k in [0, 9999].
SCORE_TEXT = tuple(f"0.{k:04d}" for k in range(10000))


@dataclass(frozen=True)
class Workload:
    name: str
    expected_exit: int
    generate: object  # callable(rng, out_dir) -> expected counts dict


def _policy(name, metrics, decision):
    lines = [
        f'policy "{name}" {{',
        "  protected_attribute sex {",
        f'    privileged = "{PRIVILEGED}"',
        f'    unprivileged = "{UNPRIVILEGED}"',
        "  }",
        f'  favorable_outcome occupation {{ value = "{FAVORABLE}" }}',
    ]
    for metric_id, lo, hi, bins in metrics:
        lines.append(f"  metric {metric_id} {{")
        lines.append(f"    range = [{lo}, {hi}]")
        if bins is not None:
            lines.append(f"    bins = {bins}")
        lines.append("  }")
    lines += [
        '  approved_sources { "https://archive.ics.uci.edu/dataset/2/adult" }',
        '  approved_model "google/gemma-2-2b-it" {',
        '    acceptable_uses = ["recruitment"]',
        "    synthetic_data_capability = true",
        "  }",
    ]
    lines += decision
    lines.append("}")
    return "\n".join(lines) + "\n"


def _wald_3x3():
    return [
        "  decision {",
        '    actions = ["Strictly comply", "Reasonably comply", "Somehow comply"]',
        '    states = ["High losses", "Average losses", "Low losses"]',
        "    payoffs = [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]",
        "    criterion = wald",
        "  }",
    ]


def _savage(rng, n):
    names = ", ".join(f'"a{i:03d}"' for i in range(n))
    states = ", ".join(f'"s{i:03d}"' for i in range(n))
    rows = []
    for _ in range(n):
        row = ", ".join(str(int(rng.random() * 201) - 100) for _ in range(n))
        rows.append(f"      [{row}]")
    return (["  decision {", f"    actions = [{names}]",
             f"    states = [{states}]", "    payoffs = ["]
            + [",\n".join(rows)]
            + ["    ]", "    criterion = savage", "  }"])


def _write(out_dir, name, text):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)


def _shuffled_codes(rng, counts):
    """A shuffled list with `n` copies of each code, for exact group counts."""
    codes = []
    for code, n in counts:
        codes.extend([code] * n)
    rng.shuffle(codes)
    return codes


def _write_scenario1(rng, out_dir, scale, wide):
    """Dataset with `scale` times the scenario-1 group counts, shuffled.

    `wide` writes all 15 Adult columns plus 60-179 rows whose protected
    value matches neither group; otherwise the file has only the `sex` and
    `occupation` columns. Returns (favorable, total) per group and the
    number of unmatched rows, all tallied from the rows written.
    """
    (fp, tp), (fu, tu) = SCENARIO1[PRIVILEGED], SCENARIO1[UNPRIVILEGED]
    unmatched = 60 + int(rng.random() * 120) if wide else 0
    codes = _shuffled_codes(rng, [
        ((PRIVILEGED, True), fp * scale), ((PRIVILEGED, False), (tp - fp) * scale),
        ((UNPRIVILEGED, True), fu * scale), ((UNPRIVILEGED, False), (tu - fu) * scale),
        ((None, False), unmatched)])
    tally = {PRIVILEGED: [0, 0], UNPRIVILEGED: [0, 0]}
    excluded = 0
    if wide:
        # Pools of pre-built cell runs keep generation cheap while every row
        # still carries all 15 Adult columns for the reader to split.
        head = ["%d,%s,%d,%s,%d,%s" % (
            17 + int(rng.random() * 60),
            ("Private", "Self-emp-not-inc", "Local-gov", "State-gov")[int(rng.random() * 4)],
            10000 + int(rng.random() * 990000),
            ("Bachelors", "HS-grad", "Masters", "Some-college")[int(rng.random() * 4)],
            1 + int(rng.random() * 16),
            ("Married-civ-spouse", "Never-married", "Divorced")[int(rng.random() * 3)])
            for _ in range(1024)]
        mid = ["%s,%s" % (
            ("Husband", "Not-in-family", "Own-child", "Unmarried")[int(rng.random() * 4)],
            ("White", "Black", "Asian-Pac-Islander", "Other")[int(rng.random() * 4)])
            for _ in range(1024)]
        tail = ["%d,%d,%d,%s,%s" % (
            int(rng.random() * 2) * int(rng.random() * 20000),
            int(rng.random() * 2) * int(rng.random() * 2000),
            10 + int(rng.random() * 60),
            ("United-States", "Mexico", "Philippines", "Germany")[int(rng.random() * 4)],
            ("<=50K", ">50K")[int(rng.random() * 2)])
            for _ in range(1024)]
        lines = ["age,workclass,fnlwgt,education,education-num,marital-status,"
                 "occupation,relationship,race,sex,capital-gain,capital-loss,"
                 "hours-per-week,native-country,income"]
    else:
        lines = ["sex,occupation"]
    bits = rng.getrandbits
    for group, favorable in codes:
        occupation = FAVORABLE if favorable else OTHER_OCCUPATIONS[bits(16) % 7]
        if group is None:
            sex = UNMATCHED_SEX[bits(16) % 3]
            excluded += 1
        else:
            sex = group
            tally[group][0] += favorable
            tally[group][1] += 1
        if wide:
            lines.append(f"{head[bits(10)]},{occupation},{mid[bits(10)]},"
                         f"{sex},{tail[bits(10)]}")
        else:
            lines.append(f"{sex},{occupation}")
    _write(out_dir, "dataset.csv", "\n".join(lines) + "\n")
    return {"favorable_total": tally, "excluded": excluded}


def _write_predictions(rng, out_dir, rows, strata_of):
    """Prediction rows with a seeded bias against the unprivileged group.

    Scores are calibrated (P(actual = 1) equals the score), but the
    unprivileged group needs a higher score for a positive decision, so
    its acceptance rate is lower and the report explains the gap.
    Returns per-group confusion counts [tp, fp, tn, fn].
    """
    confusion = {PRIVILEGED: [0, 0, 0, 0], UNPRIVILEGED: [0, 0, 0, 0]}
    threshold = {PRIVILEGED: 5000, UNPRIVILEGED: 5600}
    index = {(1, 1): 0, (1, 0): 1, (0, 0): 2, (0, 1): 3}
    rand = rng.random
    chunk = ["group,predicted,actual,score,legitimate"]
    with open(os.path.join(out_dir, "predictions.csv"), "w",
              encoding="utf-8", newline="") as fh:
        for _ in range(rows):
            group = UNPRIVILEGED if rand() < 0.33 else PRIVILEGED
            k = int(rand() * 10000)
            actual = 1 if rand() * 10000 < k else 0
            predicted = 1 if k >= threshold[group] else 0
            confusion[group][index[predicted, actual]] += 1
            chunk.append(f"{group},{predicted},{actual},{SCORE_TEXT[k]},"
                         f"{strata_of(rand())}")
            if len(chunk) >= 65536:
                fh.write("\n".join(chunk) + "\n")
                chunk = []
        if chunk:
            fh.write("\n".join(chunk) + "\n")
    return confusion


def _all_metrics(bins):
    return [(m, -0.02, 0.02, bins if m == "calibration" else None)
            for m in METRIC_IDS]


def gen_dataset_wide(rng, out_dir):
    expected = _write_scenario1(rng, out_dir, scale=10, wide=True)
    _write(out_dir, "policy.law", _policy(
        "dataset-wide", [("statistical_parity_difference", -0.05, 0.05, None)],
        _wald_3x3()))
    return expected


PREDICTIONS_1M_STRATA = ("band-a", "band-b", "band-c", "band-d")


def gen_predictions_1m(rng, out_dir):
    expected = _write_scenario1(rng, out_dir, scale=1, wide=False)
    strata = PREDICTIONS_1M_STRATA
    expected["confusion"] = _write_predictions(
        rng, out_dir, 1_000_000, lambda u: strata[int(u * 4)])
    _write(out_dir, "policy.law", _policy(
        "predictions-1m", _all_metrics(None), _wald_3x3()))
    return expected


STRATA_HEAVY_ROWS = 200_000
STRATA_HEAVY_KEYS = 40_000


def gen_strata_heavy(rng, out_dir):
    expected = _write_scenario1(rng, out_dir, scale=1, wide=False)
    # Squaring the uniform draw makes low keys dense and high keys sparse,
    # so many strata hold only one group and are skipped.
    keys = [f"k{i:05d}" for i in range(STRATA_HEAVY_KEYS)]
    expected["confusion"] = _write_predictions(
        rng, out_dir, STRATA_HEAVY_ROWS,
        lambda u: keys[int(u * u * STRATA_HEAVY_KEYS)])
    _write(out_dir, "policy.law", _policy(
        "strata-heavy", _all_metrics(1000), _savage(rng, 150)))
    return expected


WORKLOADS = {w.name: w for w in (
    Workload("dataset-wide", 0, gen_dataset_wide),
    Workload("predictions-1m", 1, gen_predictions_1m),
    Workload("strata-heavy", 1, gen_strata_heavy),
)}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs for `seed` into `out_dir`.

    Returns the expected counts plus the sha256 of every file written.
    """
    os.makedirs(out_dir, exist_ok=True)
    # One stream per (workload, seed); str seeds hash with sha512, which is
    # stable across runs and releases.
    rng = random.Random(f"complykit-bench/{workload}/{seed}")
    expected = WORKLOADS[workload].generate(rng, out_dir)
    _write(out_dir, "run.manifest", MANIFEST)
    with open(os.path.join(out_dir, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True)
    expected["inputs"] = {
        name: sha256_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))}
    return expected


def evaluate_argv(out_dir: str, json_path: str) -> list:
    """complykit CLI arguments for one deterministic evaluate."""
    argv = ["evaluate", os.path.join(out_dir, "policy.law"),
            "--dataset", os.path.join(out_dir, "dataset.csv")]
    predictions = os.path.join(out_dir, "predictions.csv")
    if os.path.exists(predictions):
        argv += ["--predictions", predictions]
    return argv + ["--manifest", os.path.join(out_dir, "run.manifest"),
                   "--composition-reference", COMPOSITION_REFERENCE,
                   f"--composition-range={COMPOSITION_RANGE}",
                   "--deterministic", "--json", json_path]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out),
                     sort_keys=True))


if __name__ == "__main__":
    main()
