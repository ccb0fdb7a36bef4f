"""From-scratch triage classifiers over a synthetic labeled vitals dataset.

Classes are indexed by severity: 0 = go to hospital, 1 = monitor at home,
2 = no hospital. All probability outputs are simplex points over that
ordering, and every argmax tie breaks toward the lower (more severe) index.
"""

from .dataset import FEATURE_NAMES, N_CLASSES, LabeledDataset, generate_dataset
from .knn import KnnClassifier
from .tree import DecisionTree
from .forest import RandomForest
from .evaluate import ModelReport, evaluate

__all__ = [
    "FEATURE_NAMES", "LabeledDataset", "generate_dataset",
    "KnnClassifier", "DecisionTree", "RandomForest",
    "ModelReport", "evaluate", "N_CLASSES",
]
