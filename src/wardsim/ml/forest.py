"""Bagged random forest over the decision tree.

Each tree gets its own rng derived from (seed, tree index), so fitting is
reproducible regardless of any cross-tree parallelism in the caller.
"""

from __future__ import annotations

import numpy as np

from .dataset import N_CLASSES
from .tree import DecisionTree


class RandomForest:
    def __init__(self, n_trees: int = 50, max_depth: int | None = 8, min_leaf: int = 5,
                 feature_subsample: int | None = 2, seed: int = 0):
        if n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature_subsample = feature_subsample
        self.seed = seed
        self.trees: list[DecisionTree] = []

    def fit(self, features, labels) -> "RandomForest":
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=int)
        n = len(y)
        self.trees = []
        for i in range(self.n_trees):
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))
            idx = rng.integers(0, n, size=n)  # a bootstrap sample
            tree = DecisionTree(max_depth=self.max_depth, min_leaf=self.min_leaf,
                                feature_subsample=self.feature_subsample)
            tree.fit(x[idx], y[idx], rng=rng)
            self.trees.append(tree)
        return self

    def predict_proba(self, query) -> np.ndarray:
        if not self.trees:
            raise ValueError("model is not fitted")
        acc = np.zeros(N_CLASSES)
        for tree in self.trees:
            acc += tree.predict_proba(query)
        return acc / len(self.trees)

    def predict(self, query) -> tuple[int, np.ndarray]:
        probs = self.predict_proba(query)
        return int(np.argmax(probs)), probs
