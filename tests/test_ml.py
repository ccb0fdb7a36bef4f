"""From-scratch classifiers: memorization, simplex outputs, determinism,
and frozen evaluation figures."""

import numpy as np
import pytest

from _ml import first_split, load_csv, save_confusion_csv, save_csv
from wardsim.ml import (DecisionTree, KnnClassifier, RandomForest,
                        generate_dataset, evaluate)
from wardsim.ml.dataset import rule_label
from wardsim.ml.evaluate import stratified_split
from wardsim.ml.tree import gini


CLEAN = generate_dataset(n=400, noise_rate=0.0, seed=3)


def train_accuracy(model, data):
    hits = sum(model.predict(x)[0] == y
               for x, y in zip(data.features, data.labels))
    return hits / len(data)


# ---------------------------------------------------------------------------
# dataset


def test_dataset_shapes_and_label_range():
    d = generate_dataset(n=200, noise_rate=0.05, seed=1)
    assert d.features.shape == (200, 4)
    assert d.labels.shape == (200,)
    assert set(np.unique(d.labels)) <= {0, 1, 2}
    assert np.all(d.features[:, 3] >= 0) and np.all(d.features[:, 3] <= 1)


def test_noise_free_labels_match_threshold_rule():
    for row, label in zip(CLEAN.features, CLEAN.labels):
        assert rule_label(*row) == label


def test_label_noise_flips_about_the_requested_fraction():
    noisy = generate_dataset(n=4000, noise_rate=0.10, seed=3)
    clean = np.array([rule_label(*row) for row in noisy.features])
    flip_rate = np.mean(noisy.labels != clean)
    assert 0.07 <= flip_rate <= 0.13


def test_dataset_generation_is_deterministic():
    a = generate_dataset(n=100, noise_rate=0.05, seed=9)
    b = generate_dataset(n=100, noise_rate=0.05, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_dataset_validates_arguments():
    with pytest.raises(ValueError):
        generate_dataset(n=5)
    with pytest.raises(ValueError):
        generate_dataset(noise_rate=1.0)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "triage.csv"
    save_csv(CLEAN, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, CLEAN.features)
    assert np.array_equal(loaded.labels, CLEAN.labels)


# ---------------------------------------------------------------------------
# knn


def test_knn_k1_memorizes_clean_training_data():
    model = KnnClassifier(k=1).fit(CLEAN.features, CLEAN.labels)
    assert train_accuracy(model, CLEAN) == 1.0


def test_knn_probs_are_vote_fractions_on_simplex():
    model = KnnClassifier(k=5).fit(CLEAN.features, CLEAN.labels)
    for x in CLEAN.features[:50]:
        probs = model.predict_proba(x)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)
        assert set(np.round(probs * 5)) <= {0, 1, 2, 3, 4, 5}


def test_knn_standardization_makes_feature_scaling_irrelevant():
    scale = np.array([100.0, 0.01, 7.0, 1.0])
    a = KnnClassifier(k=3).fit(CLEAN.features, CLEAN.labels)
    b = KnnClassifier(k=3).fit(CLEAN.features * scale, CLEAN.labels)
    for x in CLEAN.features[:100]:
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x * scale))


def test_knn_validates_k():
    with pytest.raises(ValueError):
        KnnClassifier(k=0)
    with pytest.raises(ValueError):
        KnnClassifier(k=500).fit(CLEAN.features, CLEAN.labels)
    with pytest.raises(ValueError):
        KnnClassifier().predict_proba(CLEAN.features[0])


# ---------------------------------------------------------------------------
# decision tree


def test_gini_pure_and_uniform():
    assert gini(np.array([10.0, 0.0, 0.0])) == 0.0
    assert gini(np.array([5.0, 5.0, 5.0])) == pytest.approx(2 / 3)
    assert gini(np.array([0.0, 0.0, 0.0])) == 0.0


def test_unbounded_tree_memorizes_clean_training_data():
    model = DecisionTree(max_depth=None, min_leaf=1).fit(CLEAN.features, CLEAN.labels)
    assert train_accuracy(model, CLEAN) == 1.0


def test_tree_first_split_separates_fever():
    """On the clean synthetic data the best single cut is on temperature at
    the severe-fever boundary (frozen from an independent impurity scan)."""
    model = DecisionTree().fit(CLEAN.features, CLEAN.labels)
    feature, threshold = first_split(model)
    assert feature == 2
    assert threshold == pytest.approx(39.5016, abs=0.1)


def test_tree_fit_is_deterministic():
    a = DecisionTree().fit(CLEAN.features, CLEAN.labels)
    b = DecisionTree().fit(CLEAN.features, CLEAN.labels)
    for x in CLEAN.features[:100]:
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))
    assert first_split(a) == first_split(b)


def test_tree_probs_on_simplex():
    model = DecisionTree().fit(CLEAN.features, CLEAN.labels)
    for x in CLEAN.features[:50]:
        probs = model.predict_proba(x)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)


def test_tree_depth_zero_predicts_majority_class():
    model = DecisionTree(max_depth=0).fit(CLEAN.features, CLEAN.labels)
    counts = np.bincount(CLEAN.labels, minlength=3)
    pred, probs = model.predict(CLEAN.features[0])
    assert pred == int(np.argmax(counts))
    assert probs == pytest.approx(counts / counts.sum())


def test_tree_validates_arguments():
    with pytest.raises(ValueError):
        DecisionTree(min_leaf=0)
    with pytest.raises(ValueError):
        DecisionTree().predict_proba(CLEAN.features[0])
    with pytest.raises(ValueError):
        # feature subsampling without an rng cannot pick columns
        DecisionTree(feature_subsample=2).fit(CLEAN.features, CLEAN.labels)


# ---------------------------------------------------------------------------
# random forest


def test_forest_probs_average_member_trees():
    model = RandomForest(n_trees=7, seed=1).fit(CLEAN.features, CLEAN.labels)
    x = CLEAN.features[0]
    manual = sum(t.predict_proba(x) for t in model.trees) / 7
    assert model.predict_proba(x) == pytest.approx(manual)


def test_forest_fit_is_deterministic_in_seed():
    a = RandomForest(n_trees=10, seed=4).fit(CLEAN.features, CLEAN.labels)
    b = RandomForest(n_trees=10, seed=4).fit(CLEAN.features, CLEAN.labels)
    c = RandomForest(n_trees=10, seed=5).fit(CLEAN.features, CLEAN.labels)
    probe = CLEAN.features[:50]
    assert all(np.array_equal(a.predict_proba(x), b.predict_proba(x)) for x in probe)
    assert any(not np.array_equal(a.predict_proba(x), c.predict_proba(x))
               for x in probe)


def test_forest_validates_arguments():
    with pytest.raises(ValueError):
        RandomForest(n_trees=0)
    with pytest.raises(ValueError):
        RandomForest().predict_proba(CLEAN.features[0])


# ---------------------------------------------------------------------------
# evaluation


def test_stratified_split_preserves_class_mix_and_partitions():
    labels = generate_dataset(n=1000, noise_rate=0.05, seed=0).labels
    train, test = stratified_split(labels, split_seed=0)
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == 1000
    for cls in range(3):
        n_cls = np.sum(labels == cls)
        n_test = np.sum(labels[test] == cls)
        assert n_test == pytest.approx(0.2 * n_cls, abs=1)


def test_frozen_forest_accuracy_on_noisy_data():
    """Frozen figure: with 5 % label noise the ceiling is ~0.95 and this
    configuration measures 0.9196 on the held-out split."""
    data = generate_dataset(n=1000, noise_rate=0.05, seed=0)
    model = RandomForest(n_trees=50, max_depth=8, min_leaf=5,
                         feature_subsample=2, seed=0)
    report = evaluate(model, data, split_seed=0)
    assert report.accuracy == pytest.approx(0.9196, abs=1e-4)
    assert report.accuracy >= 0.85
    assert report.confusion.sum() == 199  # 1000 rows, stratified 20 % test


def test_report_text_and_confusion_csv(tmp_path):
    data = generate_dataset(n=300, noise_rate=0.0, seed=2)
    report = evaluate(KnnClassifier(k=5), data, split_seed=1)
    text = report.as_text()
    assert "accuracy:" in text and "recall[no_hospital]:" in text
    path = tmp_path / "confusion.csv"
    save_confusion_csv(report, path)
    assert path.read_text().splitlines()[0].startswith("true\\pred")
