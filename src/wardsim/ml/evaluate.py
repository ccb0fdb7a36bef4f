"""Stratified train/test evaluation and model reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_NAMES, N_CLASSES, LabeledDataset


@dataclass(frozen=True)
class ModelReport:
    model_name: str
    accuracy: float
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    confusion: np.ndarray  # rows = true class, cols = predicted
    split: str

    def as_text(self) -> str:
        lines = [
            f"model: {self.model_name}",
            f"split: {self.split}",
            f"accuracy: {self.accuracy:.4f}",
        ]
        for i, name in enumerate(CLASS_NAMES):
            lines.append(f"precision[{name}]: {self.precision[i]:.4f}")
            lines.append(f"recall[{name}]: {self.recall[i]:.4f}")
        return "\n".join(lines) + "\n"


def stratified_split(labels: np.ndarray, split_seed: int):
    """Deterministic per-class shuffle that holds out a fifth of each class
    for testing; returns (train_idx, test_idx)."""
    rng = np.random.default_rng(split_seed)
    train, test = [], []
    for cls in range(N_CLASSES):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n_test = max(1, int(round(len(idx) * 0.2))) if len(idx) else 0
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return np.sort(np.array(train, dtype=int)), np.sort(np.array(test, dtype=int))


def evaluate(model, dataset: LabeledDataset, split_seed: int = 0,
             name: str | None = None) -> ModelReport:
    """Fit on a stratified 80/20 split and report test-set performance."""
    if len(dataset) < 10:
        raise ValueError("dataset must have at least 10 rows")
    train_idx, test_idx = stratified_split(dataset.labels, split_seed)
    x, y = dataset.features, dataset.labels
    model.fit(x[train_idx], y[train_idx])

    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    for i in test_idx:
        pred, _ = model.predict(x[i])
        confusion[y[i], pred] += 1
    total = confusion.sum()
    accuracy = float(np.trace(confusion)) / total
    precision, recall = [], []
    for c in range(N_CLASSES):
        col = confusion[:, c].sum()
        row = confusion[c, :].sum()
        precision.append(confusion[c, c] / col if col else 0.0)
        recall.append(confusion[c, c] / row if row else 0.0)
    return ModelReport(
        model_name=name or type(model).__name__,
        accuracy=accuracy,
        precision=tuple(precision),
        recall=tuple(recall),
        confusion=confusion,
        split=f"stratified 80%/20% seed={split_seed}",
    )
