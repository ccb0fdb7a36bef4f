"""Synthetic labeled vitals dataset.

Rows are drawn from a mixture of nominal and abnormal regimes, then labeled
by the same threshold rule the live triage uses (on the noise-free drawn
features), with an optional label-noise flip. The real patient data behind
the reported figures is unavailable, so this generator stands in for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vitals import SEVERITY_ORDER, Vitals, classify

FEATURE_NAMES = ("spo2", "bpm", "temp", "fall_flag")
# a label is an index into SEVERITY_ORDER
N_CLASSES = len(SEVERITY_ORDER)
CLASS_NAMES = tuple(cls.value for cls in SEVERITY_ORDER)

# regime name -> mixture weight
_REGIMES = (
    ("nominal", 0.30),
    ("low_spo2", 0.12),
    ("severe_spo2", 0.10),
    ("fever", 0.12),
    ("severe_fever", 0.10),
    ("abnormal_hr", 0.14),
    ("fall", 0.12),
)


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (n, 4) float
    labels: np.ndarray    # (n,) int, an index into SEVERITY_ORDER

    def __len__(self):
        return len(self.labels)


def _draw_row(name: str, rng: np.random.Generator) -> tuple[float, float, float, float]:
    spo2 = float(np.clip(rng.normal(97.0, 1.2), 93.0, 100.0))
    bpm = float(np.clip(rng.normal(78.0, 12.0), 55.0, 115.0))
    temp = float(np.clip(rng.normal(36.8, 0.35), 35.8, 37.8))
    fall = 0.0
    if name == "low_spo2":
        spo2 = rng.uniform(85.0, 90.0)
    elif name == "severe_spo2":
        spo2 = rng.uniform(70.0, 85.0)
    elif name == "fever":
        temp = rng.uniform(38.0, 39.5)
    elif name == "severe_fever":
        temp = rng.uniform(39.5, 41.5)
    elif name == "abnormal_hr":
        bpm = rng.uniform(25.0, 49.0) if rng.random() < 0.5 else rng.uniform(121.0, 180.0)
    elif name == "fall":
        fall = 1.0
    return spo2, bpm, temp, fall


def rule_label(spo2: float, bpm: float, temp: float, fall: float) -> int:
    """Severity-ordered class index from the threshold triage rule."""
    v = Vitals(sample_time=0, valid=True, spo2=spo2, bpm=bpm, temp=temp)
    decision = classify(v, fall_flag=bool(fall))
    return SEVERITY_ORDER.index(decision.triage_class)


def generate_dataset(n: int = 1000, noise_rate: float = 0.05, seed: int = 0) -> LabeledDataset:
    if n < 10:
        raise ValueError("n must be at least 10")
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise_rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    names = [r[0] for r in _REGIMES]
    weights = np.array([r[1] for r in _REGIMES])
    picks = rng.choice(len(names), size=n, p=weights / weights.sum())

    features = np.empty((n, 4))
    labels = np.empty(n, dtype=int)
    for i, pick in enumerate(picks):
        row = _draw_row(names[pick], rng)
        features[i] = row
        labels[i] = rule_label(*row)

    if noise_rate > 0:
        flip = rng.random(n) < noise_rate
        for i in np.flatnonzero(flip):
            others = [c for c in range(N_CLASSES) if c != labels[i]]
            labels[i] = others[rng.integers(len(others))]
    return LabeledDataset(features, labels)
