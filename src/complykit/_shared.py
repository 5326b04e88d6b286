"""What `check` needs of `ingest` and `fairness`, without loading them."""


class IngestError(ValueError):
    pass


def read_text(path) -> str:
    """The whole UTF-8 text of `path`, less a leading byte-order mark;
    IngestError if it cannot be read."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not valid UTF-8: {exc}") from exc


# Every metric id, in the order of `fairness.METRIC_REGISTRY` (a test pins it).
METRIC_IDS = (
    "statistical_parity_difference", "equal_acceptance_rate", "predictive_parity",
    "equal_opportunity", "predictive_equality", "equalized_odds", "accuracy_equality",
    "conditional_use_accuracy", "treatment_equality", "conditional_statistical_parity",
    "calibration", "balance_positive", "balance_negative",
)

# Accepted legacy spelling from existing operational-context dictionaries.
METRIC_ALIASES = {"stat_mean_difference": "statistical_parity_difference"}


def resolve_metric_id(name: str) -> str | None:
    name = METRIC_ALIASES.get(name, name)
    return name if name in METRIC_IDS else None
