"""Per-layer spans for wardsim, installed from outside the program.

A span wraps one public function of a wardsim module. It counts calls and
adds up self time: the span's duration minus the time its child spans cover.
Spans are aggregated by name as they close, so memory stays constant however
long the traced run is.

A function is patched at every place it is looked up, not only where it is
defined: ``engine`` binds ``sample_vitals``, ``classify``, ``detect_fall`` and
``derive_streams`` with ``from ... import``, so those names are patched in
``engine`` as well. ``install`` refuses to finish while any traced module
still holds an unpatched reference to a wrapped function.
"""

from __future__ import annotations

import functools
import importlib
import time

# The layers of wardsim that the benchmark traces, one module each.
LAYERS = ("scenario", "rng", "engine", "track", "line_following", "kinematics",
          "rf_channel", "protocol", "vitals", "metrics")

# (span name, where the function is looked up: "module" or "module.Class",
#  attribute). A span with several sites shares one wrapper.
SPANS = (
    ("scenario.load_preset", [("scenario", "load_preset")]),
    ("scenario.validate", [("scenario", "validate")]),
    ("rng.derive_streams", [("rng", "derive_streams"), ("engine", "derive_streams")]),
    ("engine.Engine.__init__", [("engine.Engine", "__init__")]),
    ("track.Track.query", [("track.Track", "query")]),
    ("line_following.LineFollower.step", [("line_following.LineFollower", "step")]),
    ("line_following.simulate_ir", [("line_following", "simulate_ir")]),
    ("line_following.sensor_positions", [("line_following", "sensor_positions")]),
    ("kinematics.MotionSimulator.step", [("kinematics.MotionSimulator", "step")]),
    ("kinematics.DeadReckoner.update", [("kinematics.DeadReckoner", "update")]),
    ("kinematics.pose_update", [("kinematics", "pose_update")]),
    ("protocol.Leader.step", [("protocol.Leader", "step")]),
    ("protocol.Leader.handle_triage", [("protocol.Leader", "handle_triage")]),
    ("protocol.Follower.step", [("protocol.Follower", "step")]),
    ("rf_channel.Channel.send", [("rf_channel.Channel", "send")]),
    ("rf_channel.Channel.deliveries_due", [("rf_channel.Channel", "deliveries_due")]),
    ("vitals.sample_vitals", [("vitals", "sample_vitals"), ("engine", "sample_vitals")]),
    ("vitals.classify", [("vitals", "classify"), ("engine", "classify")]),
    ("vitals.detect_fall", [("vitals", "detect_fall"), ("engine", "detect_fall")]),
    ("metrics.EventLog.append", [("metrics.EventLog", "append")]),
    ("metrics.MetricsAccumulator.consume", [("metrics.MetricsAccumulator", "consume")]),
    ("metrics.EventLog.to_jsonl", [("metrics.EventLog", "to_jsonl")]),
    ("engine.export_outputs", [("engine", "export_outputs")]),
    ("metrics.EventLog.load", [("metrics.EventLog", "load")]),
    ("metrics.replay_metrics", [("metrics", "replay_metrics")]),
    ("engine.Engine.run", [("engine.Engine", "run")]),
    ("engine.run", [("engine", "run")]),
)

# Constructors too small to time: only their calls are counted.
COUNTERS = (
    ("kinematics.Pose", [("kinematics.Pose", "__init__")]),
)


def _resolve(site: str):
    module, _, cls = site.partition(".")
    owner = importlib.import_module(f"wardsim.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs spans, aggregates them by name, and restores the originals."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self._open: list[int] = []  # child time covered so far, per open span
        self._patches: list[tuple[object, str, object]] = []
        self._after: dict[str, object] = {}

    def after(self, name: str, hook):
        """Call hook(args, result, duration_ns) each time span `name` returns;
        register before install."""
        self._after[name] = hook

    def _span(self, name: str, fn):
        self.calls[name] = 0
        self.self_ns[name] = 0
        calls, self_ns, open_spans = self.calls, self.self_ns, self._open
        hook = self._after.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                children = open_spans.pop()
                calls[name] += 1
                self_ns[name] += total - children
                if open_spans:
                    open_spans[-1] += total
            if hook is not None:
                hook(args, result, total)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        self.calls[name] = 0
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        try:
            self._patch_all()
        except BaseException:
            self.uninstall()
            raise

    def _patch_all(self):
        originals = []
        for make, table in ((self._span, SPANS), (self._counter, COUNTERS)):
            for name, sites in table:
                owners = [(_resolve(site), attr) for site, attr in sites]
                raw = vars(owners[0][0])[owners[0][1]]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapper = make(name, fn)
                for owner, attr in owners:
                    found = vars(owner)[attr]
                    if (found.__func__ if isinstance(found, classmethod) else found) is not fn:
                        raise RuntimeError(f"{name}: {owner.__name__}.{attr} is not the traced function")
                    self._patches.append((owner, attr, found))
                    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
                originals.append((name, fn))
        self._check_bindings(originals)

    @staticmethod
    def _check_bindings(originals):
        for layer in LAYERS:
            module = importlib.import_module(f"wardsim.{layer}")
            for attr, value in vars(module).items():
                for name, fn in originals:
                    if value is fn:
                        raise RuntimeError(f"wardsim.{layer}.{attr} binds {name} but is not patched")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
