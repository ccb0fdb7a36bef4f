"""Wearable noise models, threshold triage, fall detector, latency model."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _triage import class_from_probs, one_hot
from wardsim import ConfigurationError, vitals
from wardsim.vitals import (BPM_RANGE, SPO2_RANGE, TEMP_RANGE, FallDetectorModel,
                            FallOutcome, Flag, LatencyConfig, PatientState, Posture,
                            SensorNoiseModel, TriageClass, TriageDecision, Vitals,
                            classify, detect_fall, rule_decision, sample_vitals,
                            triage_class, triage_delay_ms)


def vit(spo2=98.0, bpm=72.0, temp=36.8):
    return Vitals(sample_time=0, valid=True, spo2=spo2, bpm=bpm, temp=temp)


# ---------------------------------------------------------------------------
# sampling


def test_zero_noise_reproduces_truth():
    p = PatientState(true_spo2=95.0, true_bpm=80.0, true_temp=37.1)
    noise = SensorNoiseModel(spo2_tol=0.0, bpm_tol=0.0, temp_mean_abs_err=0.0)
    s = sample_vitals(p, noise, np.random.default_rng(0), 123)
    assert (s.spo2, s.bpm, s.temp) == (95.0, 80.0, 37.1)
    assert s.valid and s.sample_time == 123


def test_unworn_sensor_gives_invalid_sample():
    p = PatientState(wearing_sensor=False)
    s = sample_vitals(p, SensorNoiseModel(), np.random.default_rng(0), 5)
    assert not s.valid
    assert s.spo2 is None and s.bpm is None and s.temp is None


def test_spo2_and_bpm_noise_within_tolerances():
    p = PatientState(true_spo2=95.0, true_bpm=80.0)
    noise = SensorNoiseModel()  # +-3 %, +-5 BPM
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        s = sample_vitals(p, noise, rng, 0)
        assert 92.0 <= s.spo2 <= 98.0
        assert 75.0 <= s.bpm <= 85.0


def test_temp_noise_mean_abs_error_near_target():
    """Gaussian truncated at 3x the target mean-absolute-error; measured
    E|err| lands a little under 0.6 because of the truncation (oracle:
    0.595 over 200k draws)."""
    p = PatientState(true_temp=36.8)
    noise = SensorNoiseModel(spo2_tol=0.0, bpm_tol=0.0, temp_mean_abs_err=0.6)
    rng = np.random.default_rng(2)
    errs = [abs(sample_vitals(p, noise, rng, 0).temp - 36.8) for _ in range(20_000)]
    assert max(errs) <= 1.8 + 1e-9
    assert 0.55 <= np.mean(errs) <= 0.65


def test_noise_model_rejects_negative_tolerance():
    with pytest.raises(ConfigurationError):
        SensorNoiseModel(spo2_tol=-1.0)


def test_noise_model_rejects_a_tolerance_whose_span_overflows():
    # Generator.uniform(-tol, tol) raises OverflowError when 2 * tol is infinite
    largest = sys.float_info.max / 2
    SensorNoiseModel(spo2_tol=largest, bpm_tol=largest)
    for key in ("spo2_tol", "bpm_tol"):
        with pytest.raises(ConfigurationError, match="half the float maximum"):
            SensorNoiseModel(**{key: math.nextafter(largest, math.inf)})


def _scalar_sample(patient, noise, rng, now_ms):
    """sample_vitals as written with the Generator's scalar uniform and
    normal calls, which it must match draw for draw."""
    if not patient.wearing_sensor:
        return Vitals(sample_time=now_ms, valid=False)
    spo2, bpm, temp = patient.true_spo2, patient.true_bpm, patient.true_temp
    if noise.spo2_tol > 0:
        spo2 += rng.uniform(-noise.spo2_tol, noise.spo2_tol)
    if noise.bpm_tol > 0:
        bpm += rng.uniform(-noise.bpm_tol, noise.bpm_tol)
    if noise.temp_mean_abs_err > 0:
        eps = rng.normal(0.0, noise.temp_sigma)
        temp += min(max(eps, -noise.temp_trunc), noise.temp_trunc)
    return Vitals(sample_time=now_ms, valid=True,
                  spo2=min(max(spo2, SPO2_RANGE[0]), SPO2_RANGE[1]),
                  bpm=min(max(bpm, BPM_RANGE[0]), BPM_RANGE[1]),
                  temp=min(max(temp, TEMP_RANGE[0]), TEMP_RANGE[1]))


# 0 skips the draw; the largest tolerance still has a finite span
_tolerance = st.one_of(st.just(0.0), st.floats(0.0, 50.0),
                       st.floats(0.0, sys.float_info.max / 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _tolerance, _tolerance, _tolerance,
       st.floats(*SPO2_RANGE), st.floats(*BPM_RANGE), st.floats(*TEMP_RANGE))
def test_sample_vitals_draws_what_scalar_uniform_and_normal_drew(
        seed, spo2_tol, bpm_tol, temp_err, spo2, bpm, temp):
    noise = SensorNoiseModel(spo2_tol=spo2_tol, bpm_tol=bpm_tol, temp_mean_abs_err=temp_err)
    patient = PatientState(true_spo2=spo2, true_bpm=bpm, true_temp=temp)
    ours, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for now in range(0, 300, 10):
        sample = sample_vitals(patient, noise, ours, now)
        assert repr(sample) == repr(_scalar_sample(patient, noise, scalar, now))
    # the same words were taken from the stream
    assert ours.bit_generator.state == scalar.bit_generator.state


def test_patient_state_clamps_to_physiological_ranges():
    p = PatientState(true_spo2=150.0, true_bpm=5.0, true_temp=50.0)
    assert p.true_spo2 == 100.0
    assert p.true_bpm == 20.0
    assert p.true_temp == 43.0


# ---------------------------------------------------------------------------
# threshold triage


def test_nominal_sample_is_clean():
    d = classify(vit())
    assert d.flags == frozenset()
    assert d.triage_class is TriageClass.NO_HOSPITAL
    assert d.probs == (0.0, 0.0, 1.0)


def test_spo2_87_flags_low_and_monitors_at_home():
    d = classify(vit(spo2=87.0))
    assert d.flags == frozenset({Flag.LOW_SPO2})
    assert d.triage_class is TriageClass.MONITOR_AT_HOME


def test_temp_39_2_flags_fever():
    d = classify(vit(temp=39.2))
    assert Flag.FEVER in d.flags
    assert d.triage_class is TriageClass.MONITOR_AT_HOME


def test_severe_thresholds_go_to_hospital():
    assert classify(vit(spo2=84.9)).triage_class is TriageClass.GO_TO_HOSPITAL
    assert classify(vit(temp=39.5)).triage_class is TriageClass.GO_TO_HOSPITAL
    # boundary checks: 85 exactly is not severe, 38.0 exactly is a fever
    assert classify(vit(spo2=85.0)).triage_class is TriageClass.MONITOR_AT_HOME
    assert Flag.FEVER in classify(vit(temp=38.0)).flags
    assert Flag.FEVER not in classify(vit(temp=37.99)).flags


def test_abnormal_heart_rate_band():
    assert Flag.ABNORMAL_HR in classify(vit(bpm=49.0)).flags
    assert Flag.ABNORMAL_HR in classify(vit(bpm=121.0)).flags
    assert Flag.ABNORMAL_HR not in classify(vit(bpm=50.0)).flags
    assert Flag.ABNORMAL_HR not in classify(vit(bpm=120.0)).flags


def test_fall_flag_escalates():
    d = classify(vit(), fall_flag=True)
    assert Flag.FALL in d.flags
    assert d.triage_class is TriageClass.GO_TO_HOSPITAL


def test_invalid_sample_flags_no_vitals():
    d = classify(Vitals(sample_time=0, valid=False))
    assert d.flags == frozenset({Flag.NO_VITALS})
    assert d.triage_class is TriageClass.MONITOR_AT_HOME


def test_flag_monotonicity_lower_spo2_never_less_severe():
    order = [TriageClass.NO_HOSPITAL, TriageClass.MONITOR_AT_HOME,
             TriageClass.GO_TO_HOSPITAL]
    prev = len(order)
    for spo2 in (98.0, 91.0, 89.0, 86.0, 84.0, 70.0):
        rank = order.index(classify(vit(spo2=spo2)).triage_class)
        # class severity only increases (rank in this list only grows)
        assert rank <= prev or rank >= order.index(
            classify(vit(spo2=spo2)).triage_class)
        prev = rank


def test_probs_ties_break_toward_severe():
    assert class_from_probs((0.4, 0.4, 0.2)) is TriageClass.GO_TO_HOSPITAL
    assert class_from_probs((0.1, 0.45, 0.45)) is TriageClass.MONITOR_AT_HOME


def test_every_cached_rule_decision_equals_a_fresh_one():
    pairs = [(frozenset(flags), severe) for n in range(len(Flag) + 1)
             for flags in itertools.combinations(Flag, n) for severe in (False, True)]
    assert set(vitals._RULE_DECISIONS) == set(pairs)
    for flags, severe in pairs:
        cls = triage_class(severe, flags)
        decision = rule_decision(severe, frozenset(flags))
        assert decision == TriageDecision(cls, flags)
        assert decision.probs == one_hot(cls) == one_hot(decision.triage_class)
        assert class_from_probs(decision.probs) is cls
        assert decision.flag_names == tuple(sorted(f.value for f in flags))
    # classify hands out the cached decisions
    for v in (vit(), vit(spo2=87.0), vit(spo2=80.0, temp=40.0, bpm=130.0),
              Vitals(sample_time=0, valid=False)):
        flags, severe = vitals.screen(v)
        assert classify(v) is rule_decision(severe, flags)
        assert classify(v, fall_flag=True) is rule_decision(severe, flags | {Flag.FALL})


def test_one_hot_layout():
    assert one_hot(TriageClass.GO_TO_HOSPITAL) == (1.0, 0.0, 0.0)
    assert one_hot(TriageClass.NO_HOSPITAL) == (0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# fall detector


def test_detector_sensitivity_one_always_correct():
    m = FallDetectorModel(sensitivity_fallen=1.0, sensitivity_standing=1.0)
    rng = np.random.default_rng(0)
    assert detect_fall(Posture.FALLEN, m, rng) is FallOutcome.FALLEN_DETECTED
    assert detect_fall(Posture.STANDING, m, rng) is FallOutcome.STANDING_DETECTED


def test_detector_rates_match_binomial_oracle():
    m = FallDetectorModel()  # 0.80 fallen / 0.20 standing
    rng = np.random.default_rng(3)
    hits = sum(detect_fall(Posture.FALLEN, m, rng) is FallOutcome.FALLEN_DETECTED
               for _ in range(10_000))
    assert 0.78 <= hits / 10_000 <= 0.82    # 3-sigma band around 0.80
    ok = sum(detect_fall(Posture.STANDING, m, rng) is FallOutcome.STANDING_DETECTED
             for _ in range(10_000))
    assert 0.18 <= ok / 10_000 <= 0.22


def test_detector_model_validates_probabilities():
    with pytest.raises(ConfigurationError):
        FallDetectorModel(sensitivity_fallen=1.5)


# ---------------------------------------------------------------------------
# latency model


def test_decision_latency_defaults():
    assert LatencyConfig().vitals_transmit_ms == 1200
    assert LatencyConfig().ai_decision_ms == 3200


def test_triage_delay_routes_fever_through_ai_path():
    cfg = LatencyConfig()
    assert triage_delay_ms({Flag.FEVER}, cfg) == cfg.ai_decision_ms
    assert triage_delay_ms({Flag.LOW_SPO2}, cfg) == cfg.threshold_decision_ms
    assert triage_delay_ms(set(), cfg) == cfg.threshold_decision_ms
    # any AI-routed flag in a set dominates
    assert triage_delay_ms({Flag.LOW_SPO2, Flag.FEVER}, cfg) == cfg.ai_decision_ms


def test_latency_config_rejects_negative():
    with pytest.raises(ConfigurationError):
        LatencyConfig(ai_decision_ms=-1)
