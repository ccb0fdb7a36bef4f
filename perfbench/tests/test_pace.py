"""Self-test of the benchmark's host-pace scaling.

    python3 -m pytest perfbench/tests -q
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pace  # noqa: E402


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_are_taken_during_the_block_and_left_out_of_its_time(monkeypatch):
    # sample often, so that the samples take a tenth of the block
    monkeypatch.setattr(pace, "INTERVAL_S", 0.002)
    with pace.Paced() as paced:
        busy(0.3)  # ends 0.3 s after it starts, samples included
    inside = sum(paced.samples[1:-1])
    assert len(paced.samples) > 20
    assert inside > 0.01
    assert paced.wall_s == pytest.approx(0.3 - inside, abs=0.003)
    assert paced.pace_s == pytest.approx(sum(paced.samples) / len(paced.samples))
    assert paced.scaled_s == pytest.approx(paced.wall_s * pace.REFERENCE_PACE_S / paced.pace_s)


def test_the_previous_handler_is_restored_and_the_timer_stopped():
    def previous(_signum, _frame):
        raise AssertionError("the timer was left running")

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with pytest.raises(ValueError):
            with pace.Paced():
                raise ValueError
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        busy(2 * pace.INTERVAL_S)
    finally:
        signal.signal(signal.SIGALRM, old)
