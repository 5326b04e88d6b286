"""End-to-end compliance run: dataset audit under a hiring policy.

Builds a census-style dataset whose group counts reproduce a published
disparity (female executives are under-represented), binds it to a
policy, and produces a comply-or-explain report in both modalities.

Run with: python3 demos/demo_scenario1.py
"""

import sys
import tempfile
from pathlib import Path

from complykit import (
    Interval,
    composition_audit,
    decide,
    evaluate,
    parse_policy,
    render,
    statistical_parity_from_counts,
    to_json,
)

POLICY = '''
policy "scenario-1" {
    protected_attribute sex {
        privileged = "Male"
        unprivileged = "Female"
    }
    favorable_outcome occupation { value = "Exec-managerial" }

    metric statistical_parity_difference { range = [-0.01, 0.01] }

    decision {
        actions = ["Strictly comply", "Reasonably comply", "Somehow comply"]
        states = ["High losses", "Average losses", "Low losses"]
        payoffs = [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]
        criterion = wald
    }
}
'''

# Group tallies matching the Adult census extract: favorable = executive.
COUNTS = {
    ("Female", True): 1748, ("Female", False): 13603,
    ("Male", True): 4338, ("Male", False): 27310,
}


def main():
    doc = parse_policy(POLICY)

    spd = statistical_parity_from_counts(
        COUNTS[("Female", True)],
        COUNTS[("Female", True)] + COUNTS[("Female", False)],
        COUNTS[("Male", True)],
        COUNTS[("Male", True)] + COUNTS[("Male", False)])
    print(f"statistical parity difference = {spd.value!r}")

    # A shortlist of 20 candidates, 3 of them women, audited against the
    # 2023 world labour-force female share.
    shortlist = ["Female"] * 3 + ["Male"] * 17
    audit = composition_audit(shortlist, "Female", 0.4975,
                              Interval(-0.05, 0.05))
    print(f"shortlist female share = {audit.shares['Female']}, "
          f"deviation = {audit.deviation!r}, "
          f"within range = {audit.within_range}")

    strategy = decide(doc.decision)
    print(f"strategy under {strategy.criterion}: {strategy.action_label}\n")

    rpt = evaluate(doc, {"statistical_parity_difference": spd},
                   audit=audit, strategy=strategy)
    print("=== agent modality ===")
    sys.stdout.write(render(rpt, "agent"))
    print("\n=== display modality ===")
    sys.stdout.write(render(rpt, "display"))

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        out.write_bytes(to_json(rpt))
        print(f"\nJSON report written to {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
