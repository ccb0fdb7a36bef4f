"""Reading a triage class off a probability vector over the classes, as the
ML classifiers' outputs are read, and the one-hot vector of a class."""

from wardsim.vitals import SEVERITY_ORDER, TriageClass


def class_from_probs(probs) -> TriageClass:
    """Argmax over the severity-ordered simplex; ties go to the more severe class."""
    best = max(probs)
    for cls, p in zip(SEVERITY_ORDER, probs):
        if p == best:
            return cls
    raise AssertionError("unreachable")


def one_hot(cls: TriageClass) -> tuple[float, float, float]:
    return tuple(1.0 if c is cls else 0.0 for c in SEVERITY_ORDER)
