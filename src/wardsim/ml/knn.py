"""K-nearest-neighbors with z-score standardization and vote-fraction probs."""

from __future__ import annotations

import numpy as np

from .dataset import N_CLASSES


class KnnClassifier:
    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._x = None
        self._y = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "KnnClassifier":
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if len(features) == 0:
            raise ValueError("training set is empty")
        if self.k > len(features):
            raise ValueError("k exceeds training-set size")
        self._mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        self._std = std
        self._x = (features - self._mean) / self._std
        self._y = labels
        return self

    def predict_proba(self, query) -> np.ndarray:
        if self._x is None:
            raise ValueError("model is not fitted")
        q = (np.asarray(query, dtype=float) - self._mean) / self._std
        d2 = np.einsum("ij,ij->i", self._x - q, self._x - q)
        # stable partial sort keeps neighbor choice deterministic under ties
        idx = np.argsort(d2, kind="stable")[: self.k]
        probs = np.zeros(N_CLASSES)
        for label in self._y[idx]:
            probs[label] += 1.0
        return probs / self.k

    def predict(self, query) -> tuple[int, np.ndarray]:
        probs = self.predict_proba(query)
        return int(np.argmax(probs)), probs  # argmax takes the lowest (most severe) index on ties
