"""Decision tree: greedy axis-aligned splits by Gini-impurity decrease.

Split ties (equal impurity decrease) resolve to the lowest feature index,
then the lowest threshold, so a fit is fully deterministic. Leaves predict
the majority class with class frequencies as probabilities; majority ties
break toward the more severe (lower-index) class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_CLASSES


def gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.dot(p, p))


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    probs: np.ndarray | None = None  # set on leaves

    @property
    def is_leaf(self):
        return self.probs is not None


def _leaf(labels: np.ndarray) -> _Node:
    counts = np.bincount(labels, minlength=N_CLASSES).astype(float)
    return _Node(probs=counts / counts.sum())


def _best_split(x: np.ndarray, y: np.ndarray, feature_indices, min_leaf: int):
    """Scan candidate thresholds (midpoints of consecutive distinct values)
    on each allowed feature; returns (gain, feature, threshold) or None."""
    n = len(y)
    parent = gini(np.bincount(y, minlength=N_CLASSES).astype(float))
    best = None
    for f in sorted(feature_indices):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        # cumulative class counts for prefix (left) sides
        onehot = np.zeros((n, N_CLASSES))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)
        total = left_counts[-1]
        boundaries = np.flatnonzero(xs[:-1] < xs[1:])  # split after position i
        for i in boundaries:
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            lc = left_counts[i]
            rc = total - lc
            child = (n_left * gini(lc) + n_right * gini(rc)) / n
            gain = parent - child
            thr = 0.5 * (xs[i] + xs[i + 1])
            cand = (gain, -f, -thr)
            if best is None or cand > (best[0], -best[1], -best[2]):
                best = (gain, f, thr)
    if best is None or best[0] <= 1e-12:
        return None
    return best


class DecisionTree:
    def __init__(self, max_depth: int | None = 8, min_leaf: int = 5,
                 feature_subsample: int | None = None):
        if min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature_subsample = feature_subsample
        self._root: _Node | None = None

    def fit(self, features, labels, rng: np.random.Generator | None = None) -> "DecisionTree":
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=int)
        if len(y) == 0:
            raise ValueError("training set is empty")
        self._n_features = x.shape[1]
        self._rng = rng
        self._root = self._grow(x, y, depth=0)
        return self

    def _grow(self, x, y, depth) -> _Node:
        if len(np.unique(y)) == 1:
            return _leaf(y)
        if self.max_depth is not None and depth >= self.max_depth:
            return _leaf(y)
        if len(y) < 2 * self.min_leaf:
            return _leaf(y)
        feats = range(self._n_features)
        if self.feature_subsample is not None and self.feature_subsample < self._n_features:
            if self._rng is None:
                raise ValueError("feature subsampling requires an rng")
            feats = self._rng.choice(self._n_features, size=self.feature_subsample, replace=False)
        split = _best_split(x, y, feats, self.min_leaf)
        if split is None:
            return _leaf(y)
        _, f, thr = split
        mask = x[:, f] <= thr
        node = _Node(feature=f, threshold=thr)
        node.left = self._grow(x[mask], y[mask], depth + 1)
        node.right = self._grow(x[~mask], y[~mask], depth + 1)
        return node

    def predict_proba(self, query) -> np.ndarray:
        if self._root is None:
            raise ValueError("model is not fitted")
        q = np.asarray(query, dtype=float)
        node = self._root
        while not node.is_leaf:
            node = node.left if q[node.feature] <= node.threshold else node.right
        return node.probs.copy()

    def predict(self, query) -> tuple[int, np.ndarray]:
        probs = self.predict_proba(query)
        return int(np.argmax(probs)), probs
