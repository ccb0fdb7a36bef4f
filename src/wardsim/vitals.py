"""Wearable vitals sampling with sensor noise, threshold triage, and the
fall-detector and triage-latency models.

Screening bands (`BANDS`, one fixed `TriageThresholds`; no scenario key
sets them): SpO2 below 90% flags low oxygen and below 85% is severe;
temperature at or above 38.0 C flags fever and 39.5 C is severe; heart
rate outside [50, 120] BPM is abnormal. `screen` applies the bands to one
sample. `triage_class` is the one class rule: severe conditions
and falls are GoToHospital, any other flag MonitorAtHome, no flag
NoHospital. `classify` applies it to a single sample; the engine applies it
to the debounced state instead, where each numeric flag and severity itself
latch only after several consecutive samples agree. Both take the rule's
decision for a (flags, severe) pair from `rule_decision`, which builds each
one once.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import require
from .rng import Doubles, symmetric_range, symmetric_range_checks

SPO2_RANGE = (50.0, 100.0)
BPM_RANGE = (20.0, 220.0)
TEMP_RANGE = (34.0, 43.0)


class Posture(enum.Enum):
    STANDING = "standing"
    FALLEN = "fallen"


class TriageClass(enum.Enum):
    GO_TO_HOSPITAL = "go_to_hospital"
    MONITOR_AT_HOME = "monitor_at_home"
    NO_HOSPITAL = "no_hospital"

    # members are singletons and compare by identity, so the identity hash
    # is consistent with ==; Enum's own hashes the name in Python code
    __hash__ = object.__hash__


# most severe first; used for tie-breaking throughout
SEVERITY_ORDER = (TriageClass.GO_TO_HOSPITAL, TriageClass.MONITOR_AT_HOME, TriageClass.NO_HOSPITAL)


class Flag(enum.Enum):
    LOW_SPO2 = "low_spo2"
    FEVER = "fever"
    ABNORMAL_HR = "abnormal_hr"
    FALL = "fall"
    NO_VITALS = "no_vitals"

    # as for TriageClass; set order then follows addresses, so nothing may
    # be written out in the iteration order of a set of flags
    __hash__ = object.__hash__


@dataclass
class PatientState:
    true_spo2: float = 98.0
    true_bpm: float = 72.0
    true_temp: float = 36.8
    posture: Posture = Posture.STANDING
    wearing_sensor: bool = True

    def __post_init__(self):
        self.true_spo2 = min(max(self.true_spo2, SPO2_RANGE[0]), SPO2_RANGE[1])
        self.true_bpm = min(max(self.true_bpm, BPM_RANGE[0]), BPM_RANGE[1])
        self.true_temp = min(max(self.true_temp, TEMP_RANGE[0]), TEMP_RANGE[1])


class Vitals(NamedTuple):
    """One wearable sample. A NamedTuple, as Packet is: the engine makes two
    per sample, and a NamedTuple costs under half as much to build as a
    frozen dataclass."""
    sample_time: int
    valid: bool
    spo2: float | None = None
    bpm: float | None = None
    temp: float | None = None


@dataclass(frozen=True)
class SensorNoiseModel:
    spo2_tol: float = 3.0          # uniform bound, percent points
    bpm_tol: float = 5.0           # uniform bound, BPM
    temp_mean_abs_err: float = 0.6  # target mean |error|, degrees C

    def __post_init__(self):
        require(*symmetric_range_checks(self.spo2_tol, "spo2_tol"),
                *symmetric_range_checks(self.bpm_tol, "bpm_tol"),
                (self.temp_mean_abs_err >= 0, "temp_mean_abs_err must be nonnegative"))
        # each uniform draw's (low, span); as ChannelConfig.jitter_range
        object.__setattr__(self, "spo2_range", symmetric_range(self.spo2_tol))
        object.__setattr__(self, "bpm_range", symmetric_range(self.bpm_tol))

    # computed once per model: cached_property keeps the value in the
    # instance's __dict__, which a frozen dataclass leaves writable

    @functools.cached_property
    def temp_sigma(self) -> float:
        # Gaussian with E|eps| = sigma*sqrt(2/pi); truncated at 3x mean abs
        return self.temp_mean_abs_err * math.sqrt(math.pi / 2.0)

    @functools.cached_property
    def temp_trunc(self) -> float:
        return 3.0 * self.temp_mean_abs_err


def sample_vitals(patient: PatientState, noise: SensorNoiseModel,
                  rng: np.random.Generator, now_ms: int) -> Vitals:
    """One wearable sample; invalid when the sensor is not worn.

    The draws are numpy's own formulas written out: `uniform(low, high)` is
    `low + (high - low) * random()` and `normal(0.0, sigma)` is
    `0.0 + sigma * standard_normal()`, so they take the same words from
    `rng` and give the same values, at a fraction of a scalar call's cost.
    Each clamp is `min(max(v, lo), hi)` written as comparisons."""
    if not patient.wearing_sensor:
        return Vitals(sample_time=now_ms, valid=False)
    spo2 = patient.true_spo2
    bpm = patient.true_bpm
    temp = patient.true_temp
    low, span = noise.spo2_range
    if span > 0:
        spo2 += low + span * rng.random()
    low, span = noise.bpm_range
    if span > 0:
        bpm += low + span * rng.random()
    if noise.temp_mean_abs_err > 0:
        eps = noise.temp_sigma * rng.standard_normal()
        trunc = noise.temp_trunc
        temp += -trunc if eps < -trunc else trunc if eps > trunc else eps
    lo, hi = SPO2_RANGE
    spo2 = lo if spo2 < lo else hi if spo2 > hi else spo2
    lo, hi = BPM_RANGE
    bpm = lo if bpm < lo else hi if bpm > hi else bpm
    lo, hi = TEMP_RANGE
    temp = lo if temp < lo else hi if temp > hi else temp
    return Vitals(sample_time=now_ms, valid=True, spo2=spo2, bpm=bpm, temp=temp)


@dataclass(frozen=True)
class TriageThresholds:
    low_spo2: float = 90.0
    severe_spo2: float = 85.0
    fever: float = 38.0
    severe_fever: float = 39.5
    hr_low: float = 50.0
    hr_high: float = 120.0


# the screening bands of every run
BANDS = TriageThresholds()


@dataclass(frozen=True)
class TriageDecision:
    """A rule decision: a class and the flags behind it. Its probs follow
    from the class, as the class's one-hot vector."""
    triage_class: TriageClass
    flags: frozenset[Flag]

    @property
    def probs(self) -> tuple[float, float, float]:
        """One-hot over the classes, ordered per SEVERITY_ORDER."""
        return _ONE_HOT[self.triage_class]

    @functools.cached_property
    def flag_names(self) -> tuple[str, ...]:
        """The flags' values in sorted order, as the event log lists them."""
        return tuple(sorted(f.value for f in self.flags))


_ONE_HOT = {cls: tuple(1.0 if c is cls else 0.0 for c in SEVERITY_ORDER)
            for cls in SEVERITY_ORDER}


def triage_class(severe: bool, flags) -> TriageClass:
    """The class rule: severe (or a fall) goes to hospital, any other flag
    is monitored at home, a clean sample needs no hospital."""
    if severe or Flag.FALL in flags:
        return TriageClass.GO_TO_HOSPITAL
    if flags:
        return TriageClass.MONITOR_AT_HOME
    return TriageClass.NO_HOSPITAL


def _rule_decisions() -> dict[tuple[frozenset[Flag], bool], TriageDecision]:
    table = {}
    for n in range(len(Flag) + 1):
        for flags in map(frozenset, itertools.combinations(Flag, n)):
            for severe in (False, True):
                table[flags, severe] = TriageDecision(triage_class(severe, flags), flags)
    return table


# decisions are immutable and there are 64 (flags, severe) pairs, so each
# decision is built once
_RULE_DECISIONS = _rule_decisions()


def rule_decision(severe: bool, flags: frozenset[Flag]) -> TriageDecision:
    """The class rule's decision, with one-hot probs, for a flag set and a
    severity; the same object for the same pair."""
    return _RULE_DECISIONS[flags, severe]


# the flag set of each outcome of the three numeric checks, indexed by
# LOW_SPO2 + 2 * FEVER + 4 * ABNORMAL_HR
_NUMERIC_FLAGS = tuple(
    frozenset(f for bit, f in enumerate((Flag.LOW_SPO2, Flag.FEVER, Flag.ABNORMAL_HR))
              if index >> bit & 1)
    for index in range(8))
_NO_VITALS = frozenset({Flag.NO_VITALS})


def screen(vitals: Vitals) -> tuple[frozenset[Flag], bool]:
    """The threshold checks of one sample against `BANDS`: its flags, and
    whether it is severe."""
    if not vitals.valid:
        return _NO_VITALS, False
    spo2, temp, bands = vitals.spo2, vitals.temp, BANDS
    flags = _NUMERIC_FLAGS[(spo2 < bands.low_spo2)
                           + 2 * (temp >= bands.fever)
                           + 4 * (not bands.hr_low <= vitals.bpm <= bands.hr_high)]
    return flags, spo2 < bands.severe_spo2 or temp >= bands.severe_fever


def classify(vitals: Vitals, fall_flag: bool = False) -> TriageDecision:
    """Threshold triage: the rule-based class of one sample, with one-hot probs."""
    flags, severe = screen(vitals)
    if fall_flag:
        flags |= {Flag.FALL}
    return rule_decision(severe, flags)


class FallOutcome(enum.Enum):
    FALLEN_DETECTED = "fallen_detected"
    STANDING_DETECTED = "standing_detected"
    MISCLASSIFIED = "misclassified"


@dataclass(frozen=True)
class FallDetectorModel:
    sensitivity_fallen: float = 0.80
    sensitivity_standing: float = 0.20
    check_period_ms: int = 100  # periodic checks while the patient is down

    def __post_init__(self):
        require((0.0 <= self.sensitivity_fallen <= 1.0, "sensitivity_fallen must be a probability"),
                (0.0 <= self.sensitivity_standing <= 1.0,
                 "sensitivity_standing must be a probability"),
                (self.check_period_ms >= 0, "check_period_ms must be nonnegative"))


def detect_fall(posture: Posture, model: FallDetectorModel, rng: Doubles) -> FallOutcome:
    """One camera check: Bernoulli at the sensitivity for the true posture."""
    if posture is Posture.FALLEN:
        correct = rng.random() < model.sensitivity_fallen
        return FallOutcome.FALLEN_DETECTED if correct else FallOutcome.MISCLASSIFIED
    correct = rng.random() < model.sensitivity_standing
    return FallOutcome.STANDING_DETECTED if correct else FallOutcome.MISCLASSIFIED


@dataclass(frozen=True)
class LatencyConfig:
    vitals_transmit_ms: int = 1200
    ai_decision_ms: int = 3200
    threshold_decision_ms: int = 900
    fall_path_ms: int = 2500
    # flags whose triage is routed through the slow AI recommendation path
    ai_flags: frozenset[Flag] = frozenset({Flag.FEVER})

    def __post_init__(self):
        require(*((getattr(self, key) >= 0, f"{key} must be nonnegative")
                  for key in ("vitals_transmit_ms", "ai_decision_ms",
                              "threshold_decision_ms", "fall_path_ms")))


def triage_delay_ms(flags, config: LatencyConfig) -> int:
    """Decision-stage delay for a flag set: the AI path when any flag is
    routed to it, else the fast threshold path."""
    if not config.ai_flags.isdisjoint(flags):
        return config.ai_decision_ms
    return config.threshold_decision_ms
