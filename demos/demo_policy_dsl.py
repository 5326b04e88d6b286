"""Tour of the .law policy language: parse, inspect, diagnose, format.

Run with: python3 demos/demo_policy_dsl.py
"""

from complykit import (
    check_manifest,
    parse_policy,
    parse_policy_with_diagnostics,
    serialize_policy,
)
from complykit.ingest import RunManifest

POLICY = '''
# A hiring policy with a fairness constraint and an approved model.
policy "hiring-demo" {
    protected_attribute sex {
        privileged = "Male"
        unprivileged = "Female"
    }
    favorable_outcome occupation { value = "Exec-managerial" }

    metric statistical_parity_difference {
        range = [-0.01, 0.01]
        tolerance = 0.005
    }

    approved_sources {
        "https://archive.ics.uci.edu/dataset/2/adult"
    }

    approved_model "google/gemma-2-2b-it" {
        acceptable_uses = ["recruitment"]
        synthetic_data_capability = true
    }
}
'''


def main():
    doc = parse_policy(POLICY)
    print(f"policy name: {doc.name}")
    print(f"protected:   {doc.protected.attribute} "
          f"({doc.protected.unprivileged_value} vs "
          f"{doc.protected.privileged_value})")
    for m in doc.metrics:
        print(f"constraint:  {m.metric_id} in {m.range}, "
              f"tolerance {m.tolerance}")

    print("\ncanonical form (defaults elided, sources sorted):\n")
    print(serialize_policy(doc))

    # Round trip: formatting then parsing gives back the same document.
    assert parse_policy(serialize_policy(doc)) == doc
    print("round trip: parse(serialize(doc)) == doc\n")

    # Parsing is total -- broken input yields diagnostics, never a crash.
    broken = 'policy "oops" { metric not_a_metric { range = [1, } }'
    _, diags = parse_policy_with_diagnostics(broken)
    print("diagnostics for a broken policy:")
    for d in diags:
        print(f"  {d}")

    # Context checking against a run manifest.
    print("\nmanifest check:")
    manifest = RunManifest(
        dataset_source="https://archive.ics.uci.edu/dataset/2/adult",
        model_id="google/gemma-2-2b-it",
        declared_use="credit-scoring")
    for finding in check_manifest(doc, manifest):
        print(f"  [{finding.status}] {finding.subject}: {finding.reason}")


if __name__ == "__main__":
    main()
