"""A labeled dataset's CSV form, a model report's confusion matrix as CSV,
and a fitted tree's root split, for the classifier tests to inspect."""

import csv

import numpy as np

from wardsim.ml import FEATURE_NAMES, LabeledDataset
from wardsim.ml.dataset import CLASS_NAMES

CSV_HEADER = FEATURE_NAMES + ("label",)


def save_csv(dataset: LabeledDataset, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for row, label in zip(dataset.features, dataset.labels):
            w.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv(path) -> LabeledDataset:
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = tuple(next(r))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        feats, labels = [], []
        for row in r:
            feats.append([float(v) for v in row[:4]])
            labels.append(int(row[4]))
    return LabeledDataset(np.array(feats), np.array(labels, dtype=int))


def save_confusion_csv(report, path) -> None:
    """A `ModelReport`'s confusion matrix, rows true and columns predicted."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["true\\pred"] + list(CLASS_NAMES))
        for i, name in enumerate(CLASS_NAMES):
            w.writerow([name] + [int(v) for v in report.confusion[i]])


def first_split(tree) -> tuple[int, float] | None:
    """(feature, threshold) at a fitted `DecisionTree`'s root; None if a leaf."""
    root = tree._root
    if root is None or root.is_leaf:
        return None
    return root.feature, root.threshold
