"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q

Runs one traced operation of each workload and checks that every span sees
the work it is mapped to, and that the counts agree with what the scenario
implies. These guard the tracer against a function that is called through a
name it did not patch.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

wl.use_source_tree()

SETUP = ["scenario.validate", "rng.derive_streams", "engine.Engine.__init__"]
CORRIDOR = ["track.Track.query", "line_following.LineFollower.step",
            "line_following.simulate_ir", "line_following.sensor_positions",
            "kinematics.MotionSimulator.step", "kinematics.DeadReckoner.update",
            "kinematics.pose_update", "kinematics.Pose"]
PROTOCOL = ["protocol.Leader.step", "protocol.Leader.handle_triage", "protocol.Follower.step",
            "rf_channel.Channel.send", "rf_channel.Channel.deliveries_due",
            "vitals.sample_vitals", "vitals.classify", "vitals.detect_fall"]
LOG = ["metrics.EventLog.append", "metrics.MetricsAccumulator.consume", "engine.Engine.run",
       "engine.run"]
EXPORT_REPLAY = ["metrics.EventLog.to_jsonl", "engine.export_outputs",
                 "metrics.EventLog.load", "metrics.replay_metrics"]

MAPPED = {
    "patrol": SETUP + ["scenario.load_preset"] + CORRIDOR + LOG + EXPORT_REPLAY,
    "ward_shift": SETUP + PROTOCOL + LOG + EXPORT_REPLAY,
}

# spans that no other span encloses in a simulate() operation
ROOTS = ["engine.run", "engine.export_outputs", "metrics.EventLog.load",
         "metrics.replay_metrics"]
CONFIG_ROOT = {"patrol": "scenario.load_preset", "ward_shift": "scenario.validate"}


class Traced:
    def __init__(self, workload, out_dir):
        self.spans = tracer.Tracer()
        self.nav = 0
        self.root_ns = 0
        self.spans.after("engine.Engine.run", self._count_nav)
        for name in ROOTS + [CONFIG_ROOT[workload]]:
            self.spans.after(name, self._add_root)
        # the same traced work as run.py --trace 1
        with self.spans:
            wl.simulate(workload, wl.POOLS[workload][0], out_dir)

    def _count_nav(self, _args, result, _ns):
        self.nav += sum(r["kind"] == "nav" for r in result[0].records)

    def _add_root(self, _args, _result, ns):
        self.root_ns += ns


@pytest.fixture(scope="module", params=sorted(MAPPED))
def traced(request, tmp_path_factory):
    return request.param, Traced(request.param, tmp_path_factory.mktemp(request.param))


def test_every_mapped_span_is_called(traced):
    workload, t = traced
    silent = [name for name in MAPPED[workload] if t.spans.calls[name] == 0]
    assert not silent, f"{workload}: no calls recorded for {silent}"


def test_self_times_partition_the_root_spans(traced):
    _, t = traced
    assert sum(t.spans.self_ns.values()) == t.root_ns


def test_track_query_runs_seven_times_per_nav_record(traced):
    workload, t = traced
    if workload != "patrol":
        pytest.skip("checked on patrol")
    assert t.nav > 0
    assert t.spans.calls["track.Track.query"] == 7 * t.nav


def test_one_vitals_sample_per_sample_period(traced):
    workload, t = traced
    if workload != "ward_shift":
        pytest.skip("checked on ward_shift")
    config = wl.ward_shift_config(wl.POOLS[workload][0])
    ticks = config.duration_ms // config.dt_ms
    per_sample = config.vitals_sample_period_ms // config.dt_ms
    assert t.spans.calls["vitals.sample_vitals"] == ticks // per_sample


def test_uninstall_restores_every_site():
    from wardsim import engine, kinematics, metrics, vitals
    before = (engine.sample_vitals, vitals.classify, engine.Engine.run, kinematics.Pose.__init__,
              vars(metrics.EventLog)["load"])
    with tracer.Tracer():
        assert engine.sample_vitals is not before[0]
        assert engine.classify is vitals.classify
    after = (engine.sample_vitals, vitals.classify, engine.Engine.run, kinematics.Pose.__init__,
             vars(metrics.EventLog)["load"])
    assert after == before


def test_an_unpatched_binding_is_refused(monkeypatch):
    from wardsim import engine, vitals
    monkeypatch.setattr(engine, "classify_alias", vitals.classify, raising=False)
    original = engine.sample_vitals
    with pytest.raises(RuntimeError, match="classify_alias"):
        tracer.Tracer().install()
    assert engine.sample_vitals is original
