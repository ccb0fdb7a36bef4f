"""The event-log loader: batch-decoded `EventLog.load` accepts exactly the
files that one `json.loads` per line accepts, with the same records, and
names the same first bad record; it keeps one object per distinct kind and
source string, which keeps a loaded log within 1.35 times the size of the
live one. The metrics fold: `consume`'s table of folds skips and refuses
the records that one `==` test per kind did. The export's rows, which two
line writers make from their lines' text: equal to a walk per file with
`csv.writer`, for odd values near a batch edge. The run reports: metrics.txt
and metrics.csv, for the rows no preset reaches."""

import enum
import functools
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import reference_export
from test_golden import ward_shift_config
from wardsim import metrics
from wardsim.engine import export_outputs, run
from wardsim.metrics import EventLog, RunMetrics
from wardsim.scenario import load_preset, preset_names, validate

B = metrics._BATCH_LINES


def reference_load(path) -> EventLog:
    """EventLog.load before batching: one json.loads per line."""
    log = EventLog()
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                log.append(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"malformed event log at record {i}: {exc}") from exc
    return log


@functools.cache
def run_lines() -> tuple[str, ...]:
    """The lines of a real run's log: nav, packet, vitals, triage (with flag
    lists), task and notification records; 4,460 of them."""
    log, _ = run(load_preset("alert_fall"))
    return tuple(log.to_jsonl().splitlines())


def split_at_member(line: str, at: int) -> list[str]:
    # cut at a ", " between two members, and drop it: a comma-joined batch
    # glues exactly these halves back into one record
    cuts = [i for i in range(len(line)) if line.startswith(", ", i)]
    i = cuts[at % len(cuts)]
    return [line[:i], line[i + 2:]]


def swap_times(a: str, b: str) -> list[str]:
    ra, rb = json.loads(a), json.loads(b)
    ra["time_ms"], rb["time_ms"] = rb["time_ms"], ra["time_ms"]
    return [json.dumps(ra, sort_keys=True), json.dumps(rb, sort_keys=True)]


def corrupt(lines: list[str], kind: str, pos: int, at: int) -> list[str]:
    """`lines` with one line-level corruption at line `pos`; `at` picks a
    place within the line."""
    line = lines[pos]
    if kind == "truncate":
        new = [line[:1 + at % (len(line) - 1)]]
    elif kind == "blank":
        new = ["", line]
    elif kind == "two_on_a_line":
        new = [line + [", ", " ", ""][at % 3] + lines[(pos + 1) % len(lines)]]
    elif kind == "split":
        new = split_at_member(line, at)
    elif kind == "form_feed":
        # a line that each json.loads takes once strip() has dropped the form
        # feed, and that a batch refuses, since JSON does not count it as space
        new = [line + "\x0c"]
    elif kind == "swap_times":
        if pos + 1 == len(lines):
            return lines
        return lines[:pos] + swap_times(line, lines[pos + 1]) + lines[pos + 2:]
    else:
        new = [["5", "null", '"text"', "[1, 2]", "true"][at % 5]]
    return lines[:pos] + new + lines[pos + 1:]


CORRUPTIONS = ["truncate", "blank", "two_on_a_line", "split", "form_feed", "swap_times", "scalar"]


def log_lines(n: int, start: int, corruptions) -> list[str]:
    """`n` lines of the run from line `start` (modulo what is there), with
    each (kind, line, place in the line) corruption applied in turn."""
    source = run_lines()
    start %= len(source) - n + 1
    lines = list(source[start:start + n])
    for kind, pos, at in corruptions:
        lines = corrupt(lines, kind, pos, at)
    return lines


# lengths around the batch size, with at most one corruption
LOGS = st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 10**4),
    st.lists(st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, max(n - 1, 0)),
                       st.integers(0, 10**4)),
             max_size=min(n, 1))))


def expected_load(path, lines: list[str]) -> tuple[list | None, str | None]:
    """The reference's records, or the message that EventLog.load must
    raise."""
    try:
        return reference_load(path).records, None
    except ValueError as exc:
        return None, str(exc)
    except TypeError:
        # a record that is not an object, which the per-line loop did not catch
        i, value = next((i, json.loads(line)) for i, line in enumerate(lines)
                        if line.strip() and not line.lstrip().startswith("{"))
        return None, (f"malformed event log at record {i}: "
                      f"a record must be an object, not {type(value).__name__}")


def assert_strings_shared(records):
    """Equal `str` kinds and sources, of any records, are one object."""
    first = {}
    for r in records:
        for value in (r.get("kind"), r.get("source")):
            if type(value) is str:
                assert first.setdefault(value, value) is value, value


@settings(deadline=None)
@given(LOGS)
# A record split over two lines and two records on one line, in one batch:
# the batch then holds as many values as lines, so a batch check that only
# counts values accepts a file that the per-line loop refuses.
@example((B, 0, [("split", 3, 0), ("two_on_a_line", 10, 0)]))
# With a mark between the lines, a record cut inside a list (line 269 is a
# triage record, cut in its `probs`) takes one mark into the list; two more
# records on the second half's line make the count right again, and every
# even place of the batch still holds an object.
@example((B, 0, [("split", 269, 3), ("two_on_a_line", 270, 0), ("two_on_a_line", 270, 0)]))
# The second batch is read line by line and loads: its strings are the first
# batch's.
@example((B + 1, 0, [("form_feed", B, 0)]))
def test_batch_load_equals_the_per_line_loop(tmp_path_factory, spec):
    lines = log_lines(*spec)
    path = tmp_path_factory.getbasetemp() / "log_property.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    records, message = expected_load(path, lines)
    if message is None:
        loaded = EventLog.load(path).records
        assert loaded == records
        assert_strings_shared(loaded)
    else:
        with pytest.raises(ValueError) as got:
            EventLog.load(path)
        assert str(got.value) == message


def test_a_loaded_run_log_keeps_one_object_per_kind_and_source(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(line + "\n" for line in run_lines()))
    loaded = EventLog.load(path).records
    assert loaded == reference_load(path).records
    assert_strings_shared(loaded)
    # 11 kinds from 9 sources, "script" being both
    assert len({id(r[key]) for r in loaded for key in ("kind", "source")}) == 19


def log_size(make) -> int:
    """The bytes that tracemalloc sees freed when the log that `make()`
    returns, and that nothing else holds, is dropped."""
    tracemalloc.start()
    try:
        log = make()
        held = tracemalloc.get_traced_memory()[0]
        del log
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def ward_shift_log_sizes(path) -> tuple[int, int]:
    """The traced sizes of the 20 s ward shift's live log, and of that log
    saved to `path` and loaded."""
    run(ward_shift_config())[0].save(path)
    return log_size(lambda: run(ward_shift_config())[0]), log_size(lambda: EventLog.load(path))


def test_a_loaded_ward_shift_log_is_at_most_1_35_times_the_size_of_the_live_one(tmp_path):
    # json decodes a new string for every value; shared kinds and sources
    # took the ratio from 1.51 to 1.27
    live, loaded = ward_shift_log_sizes(tmp_path / "events.jsonl")
    assert loaded <= 1.35 * live, (live, loaded)


def test_to_jsonl_writes_what_json_dumps_writes():
    records = [{"time_ms": 0, "kind": "x", "payload": {"b": [1.5, float("inf"), None],
                                                      "a": "é\n", "nan": float("nan")}},
               {"time_ms": 1, "source": "s", "kind": "y"}]
    log = EventLog()
    for r in records:
        log.append(r)
    assert log.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert EventLog().to_jsonl() == ""


def log_of(lines) -> EventLog:
    log = EventLog()
    log.records += map(json.loads, lines)
    return log


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_save_writes_what_to_jsonl_writes_at_the_batch_edges(tmp_path, n):
    log = log_of(run_lines()[:n])
    path = tmp_path / "events.jsonl"
    log.save(path)
    text = log.to_jsonl()
    assert text == "".join(line + "\n" for line in run_lines()[:n])
    assert path.read_bytes() == text.encode()
    assert "".join(log.to_jsonl(i, i + B) for i in range(0, n, B)) == text


def test_a_record_that_fails_to_encode_leaves_the_whole_batches_before_it(tmp_path):
    log = log_of(run_lines()[:2 * B])
    log.records.insert(B + 5, {"time_ms": log.records[B + 4]["time_ms"], "kind": "x",
                               "payload": {"bad": object()}})
    path = tmp_path / "events.jsonl"
    with pytest.raises(TypeError):
        log.save(path)
    assert path.read_text() == log.to_jsonl(0, B)


# -- the line writers ---------------------------------------------------------

class Level(enum.IntEnum):
    ONE = 1


class Tag(str):
    """A `str` subclass: json writes the string it holds."""


class Liar(str):
    """A `str` subclass equal to every value; json writes the string it holds."""

    def __eq__(self, other):
        return True

    __hash__ = str.__hash__


_INTS = st.integers(-2 ** 70, 2 ** 70)
# as large as the engine's values get, and more: seven of them never sum to
# an overflow, which would send a record to the encoder
_FLOATS = st.floats(-1e300, 1e300)
_TEXT = st.text(max_size=6) | st.sampled_from(['é"\\%s\n', "%d%%", "\u2028\x00", "🚑"])

# each kind with a line writer: its source, and its payloads as the engine
# logs them
WRITTEN = {
    "packet_send": ("channel", st.fixed_dictionaries({
        "src": _INTS, "dst": _INTS, "packet_kind": _TEXT, "seq": _INTS, "condition": _TEXT,
        "outcome": _TEXT, "delay_ms": _FLOATS})),
    "vitals_sample": ("wearable", st.fixed_dictionaries({
        "spo2": _FLOATS, "bpm": _FLOATS, "temp": _FLOATS, "valid": st.booleans()})
        | st.fixed_dictionaries({"spo2": st.none(), "bpm": st.none(), "temp": st.none(),
                                 "valid": st.booleans()})),
    "packet_deliver": ("channel", st.fixed_dictionaries({
        "src": _INTS, "dst": _INTS, "packet_kind": _TEXT, "seq": _INTS})),
    "triage": ("leader", st.fixed_dictionaries({
        "sample_time": _INTS, "flags": st.lists(_TEXT, max_size=3), "class": _TEXT,
        "probs": st.lists(_FLOATS, max_size=4)})),
    "nav": ("navigation", st.fixed_dictionaries({
        "x": _FLOATS, "y": _FLOATS, "theta": _FLOATS, "distance_to_line": _FLOATS,
        "tag": _TEXT, "on_line": st.booleans(), "drift_raw": _FLOATS,
        "drift_corrected": _FLOATS, "energy": _FLOATS})),
}

# a value that a change puts in a record: of another type than the engine's,
# or of its type but one that json writes its own way
ODD_VALUES = [math.nan, math.inf, -math.inf, True, False, 0, 1, -1, 2 ** 64, 2.5, -0.0,
              1.7976931348623157e308, Level.ONE, None, "é\\\"%s", Tag("straight"), [1, [2.5]],
              {"b": 1, "a": [None]}]
_ODD_VALUES = st.one_of(
    st.sampled_from(ODD_VALUES), _INTS, st.floats(), _TEXT, st.builds(Tag, _TEXT),
    st.recursive(st.none() | st.booleans() | st.floats() | _INTS | _TEXT,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6))
CHANGES = ("none", "value", "time", "drop_key", "add_key", "rename_key", "drop_envelope_key",
           "add_envelope_key", "source", "kind")


@st.composite
def written_records(draw) -> tuple[str, dict]:
    """A record of a kind with a line writer, with one thing changed or
    none; returns (the change, the record)."""
    kind = draw(st.sampled_from(sorted(WRITTEN)))
    source, payloads = WRITTEN[kind]
    p = draw(payloads)
    r = {"time_ms": draw(_INTS), "source": source, "kind": kind, "payload": p}
    change = draw(st.sampled_from(CHANGES))
    if change == "value":
        p[draw(st.sampled_from(sorted(p)))] = draw(_ODD_VALUES)
    elif change == "time":
        r["time_ms"] = draw(_ODD_VALUES)
    elif change in ("drop_key", "rename_key"):
        value = p.pop(draw(st.sampled_from(sorted(p))))
        if change == "rename_key":
            p[draw(_TEXT.filter(lambda key: key not in p))] = value
    elif change == "add_key":
        p[draw(_TEXT.filter(lambda key: key not in p))] = draw(_ODD_VALUES)
    elif change == "drop_envelope_key":
        del r[draw(st.sampled_from(["payload", "source", "time_ms"]))]
    elif change == "add_envelope_key":
        r[draw(_TEXT.filter(lambda key: key not in r))] = draw(_ODD_VALUES)
    elif change == "source":
        r["source"] = draw(st.sampled_from([s for s, _ in WRITTEN.values() if s != source])
                           | st.just(Tag(source)) | _ODD_VALUES)
    elif change == "kind":  # unhashable kinds must not reach the writers' table
        r["kind"] = draw(st.sampled_from([[kind], {kind: 1}, Tag(kind), kind.upper()]))
    return change, r


def one_thing_changes(r) -> list[dict]:
    """Record `r`, and a copy of it for each one-thing change: each value of
    its time and payload set to each odd value, each payload key dropped,
    renamed or joined by another, each envelope key dropped or joined by
    another, another source, and a kind that is not a `str`."""
    kind, source, p = r["kind"], r["source"], r["payload"]
    out = [r]
    for key in p:
        out += [{**r, "payload": {**p, key: value}} for value in ODD_VALUES]
        rest = {k: v for k, v in p.items() if k != key}
        out += [{**r, "payload": rest}, {**r, "payload": {**rest, key + "_": p[key]}}]
    out += [{**r, "time_ms": value} for value in ODD_VALUES]
    out += [{**r, "payload": {**p, "extra": 1}}, {**r, "extra": 1}]
    out += [{k: v for k, v in r.items() if k != key} for key in ("payload", "source", "time_ms")]
    out += [{**r, "source": other} for other in ("channel", "leader", Tag(source), None,
                                                 Liar("camera")) if source != other]
    out += [{**r, "kind": other} for other in ([kind], {kind: 1}, Tag(kind))]
    return out


def test_each_one_thing_change_of_a_written_kind_is_written_as_json_dumps_writes():
    firsts = {}
    for line in run_lines():
        r = json.loads(line)
        firsts.setdefault(r["kind"], r)
    worn = firsts["vitals_sample"]
    records = [firsts[kind] for kind in sorted(WRITTEN)]
    records.append({**worn, "payload": {**worn["payload"], "spo2": None, "bpm": None,
                                        "temp": None, "valid": False}})
    log = EventLog()
    for r in records:
        assert metrics._LINE_WRITERS[r["kind"]](r) is not None, r
        log.records += one_thing_changes(r)
    assert len(log.records) > 500
    lines = log.to_jsonl().splitlines(keepends=True)
    assert lines == [json.dumps(r, sort_keys=True) + "\n" for r in log.records]


@settings(deadline=None)
@given(st.lists(written_records(), min_size=1, max_size=5))
def test_the_line_writers_write_what_json_dumps_writes(tmp_path_factory, drawn):
    records = [r for _, r in drawn]
    log = EventLog()
    log.records += records
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert log.to_jsonl() == expected
    path = tmp_path_factory.getbasetemp() / "line_writers.jsonl"
    log.save(path)
    assert path.read_text() == expected
    for change, r in drawn:
        if change == "none":  # the engine's shape is never left to the encoder
            assert metrics._LINE_WRITERS[r["kind"]](r) == json.dumps(r, sort_keys=True) + "\n"


def test_every_record_of_a_kind_with_a_writer_in_a_run_comes_back_from_it():
    # a payload change that sends these kinds to the encoder fails here
    seen = set()
    for config in [*map(load_preset, preset_names()), ward_shift_config()]:
        for r in run(config)[0].records:
            write = metrics._LINE_WRITERS.get(r["kind"])
            if write is not None:
                assert write(r) == json.dumps(r, sort_keys=True) + "\n", (config.name, r)
                seen.add(r["kind"])
    assert seen == set(WRITTEN) == set(metrics._LINE_WRITERS)


# -- the export rows ------------------------------------------------------------

@functools.cache
def ward_shift_run():
    """The 20 s ward shift's records and metrics: 7,810 records, with
    packet_send, vitals_sample and triage records on every tick."""
    log, live = run(ward_shift_config())
    return tuple(log.records), live


EXPORTED = ("events.jsonl", "channel.csv", "tasks.csv", "vitals.csv", "notifications.log",
            "metrics.txt", "metrics.csv")
# strings that csv must quote, or that json escapes, and the empty one
_ROW_STRINGS = [",", "a,b", '"', 'say "hi"', "\r", "\n", "a\r\nb", "é", "", "é,\""]
# floats that repr writes in exponent form or with a sign, and an int, a
# bool and None in a float's place
_ROW_NUMBERS = [-0.0, 1e16, 5e-324, 3, True, False, None]
# each kind whose rows the writers make, its payload keys that a change
# sets, and the values it sets them to; "worn_off" sets all three vitals to
# None. A class of 1, 1.0 or True is one dict key but three csv cells
ROW_CHANGES = {
    "packet_send": {"packet_kind": _ROW_STRINGS, "condition": _ROW_STRINGS,
                    "outcome": _ROW_STRINGS, "delay_ms": _ROW_NUMBERS},
    "vitals_sample": {"spo2": _ROW_NUMBERS, "bpm": _ROW_NUMBERS, "temp": _ROW_NUMBERS,
                      "worn_off": [None]},
    "triage": {"class": [*_ROW_STRINGS, 1, 1.0, True, 2.5, None],
               "flags": [[","], ["fever", "a,b"], ['"'], ["é", "\n"], [], ["", ""]]},
}


def changed(r, key, value) -> dict:
    """Record `r` with its payload's `key` set to `value`, or all three
    vitals for "worn_off"."""
    keys = ("spo2", "bpm", "temp") if key == "worn_off" else (key,)
    return {**r, "payload": {**r["payload"], **dict.fromkeys(keys, value)}}


def assert_exports_equal(records, live, out):
    log = EventLog()
    log.records = list(records)
    export_outputs(log, live, out / "one_pass")
    reference_export(log, live, out / "reference")
    for name in EXPORTED:
        assert (out / "one_pass" / name).read_bytes() == (out / "reference" / name).read_bytes(), \
            name


@st.composite
def changed_stretches(draw) -> list[dict]:
    """A stretch of the ward shift's log one batch and up to 64 records
    long, so that the export's batch edge falls in it, with one to six
    records near the edge each given one change of `ROW_CHANGES`."""
    records, _ = ward_shift_run()
    extra = draw(st.integers(1, 64))
    start = draw(st.integers(0, len(records) - B - extra))
    stretch = list(records[start:start + B + extra])
    near = [i for i in range(B - 48, len(stretch)) if stretch[i]["kind"] in ROW_CHANGES]
    for i in draw(st.lists(st.sampled_from(near), min_size=1, max_size=6)):
        slots = ROW_CHANGES[stretch[i]["kind"]]
        key = draw(st.sampled_from(sorted(slots)))
        stretch[i] = changed(stretch[i], key, draw(st.sampled_from(slots[key])))
    return stretch


@settings(deadline=None)
@given(changed_stretches())
def test_the_export_rows_equal_a_walk_per_file_for_changed_records(tmp_path_factory, records):
    assert_exports_equal(records, ward_shift_run()[1], tmp_path_factory.getbasetemp() / "rows")


def test_every_row_change_exports_as_a_walk_per_file_writes(tmp_path):
    # each change of ROW_CHANGES once, on its own record, from 200 records
    # before the first batch edge on
    records, live = ward_shift_run()
    records = list(records[:2 * B])
    todo = [(kind, key, value) for kind, slots in ROW_CHANGES.items()
            for key, values in slots.items() for value in values]
    for i in range(B - 200, len(records)):
        r = records[i]
        j = next((j for j, (kind, _, _) in enumerate(todo) if kind == r["kind"]), None)
        if j is not None:
            _, key, value = todo.pop(j)
            records[i] = changed(r, key, value)
    assert not todo
    assert_exports_equal(records, live, tmp_path)


class ElifAccumulator(metrics.MetricsAccumulator):
    """The fold with `consume` as it was before its table: one `==` test per
    folded kind, in turn, so any kind that equals none of them is skipped."""

    def consume(self, record):
        kind = record["kind"]
        t = record["time_ms"]
        p = record.get("payload", {})
        for name in ("meta", "packet_send", "nav", "task", "script", "notification"):
            if kind == name:
                getattr(self, "_" + name)(t, p)
                break


# kinds with no fold: JSON values that are not strings, and strings that
# name no folded kind; each sits on a payload that a fold would read
ODD_KINDS = [["nav"], [], 3, 2.5, 0, None, True, False, {"nav": 1}, "", "Nav", "nav ",
             "navigation", "payload", "packet_deliver"]


def with_odd_kinds(records) -> list[dict]:
    """`records` with a record of each odd kind after every fifth, carrying
    the payload and time of the record before it."""
    out = []
    odd = iter(ODD_KINDS * len(records))
    for i, r in enumerate(records):
        out.append(r)
        if i % 5 == 0:
            out.append({**r, "kind": next(odd)})
    return out


@pytest.mark.parametrize("preset", ["task_suite", "alert_fall"])
def test_records_whose_kind_has_no_fold_replay_as_before(preset, tmp_path, monkeypatch):
    log, live = run(load_preset(preset))
    odd = EventLog()
    for r in with_odd_kinds(log.records):
        odd.append(r)
    path = tmp_path / "events.jsonl"
    odd.save(path)
    loaded = EventLog.load(path)
    assert loaded.records == odd.records
    assert_strings_shared(loaded.records)
    # == takes True for 1 and 0 for False: each kind keeps its type too
    assert [type(r["kind"]) for r in loaded.records] == [type(r["kind"]) for r in odd.records]
    replayed = [metrics.replay_metrics(odd), metrics.replay_metrics(loaded)]
    monkeypatch.setattr(metrics, "MetricsAccumulator", ElifAccumulator)
    assert [metrics.replay_metrics(odd), metrics.replay_metrics(loaded)] == replayed
    assert replayed == [live, live]


@pytest.mark.parametrize("record", [
    {"kind": ["nav"], "payload": {}},           # no time
    {"time_ms": 5, "payload": {}},              # no kind
    {"time_ms": 5, "kind": "nav", "payload": {"tag": "straight"}},  # a fold's key missing
    {"time_ms": 5, "kind": "packet_send", "payload": [1]},          # a payload that is no object
    {"time_ms": 5, "kind": 7, "payload": [1]},  # the same, with no fold
])
def test_a_malformed_record_fails_replay_as_before(record, monkeypatch):
    log = EventLog()
    # a meta record with all of its fields, which replay checks
    meta = {"scenario": "x", "seed": 0, "dt_ms": 10, "duration_ms": 0, "budgets_ms": {},
            "line_width": 0.02}
    log.records += [{"time_ms": 0, "kind": "meta", "payload": meta}, record]

    def replay():
        try:
            return metrics.replay_metrics(log)
        except ValueError as exc:
            return str(exc)

    got = replay()
    monkeypatch.setattr(metrics, "MetricsAccumulator", ElifAccumulator)
    assert replay() == got


def reports(m: RunMetrics, tmp_path) -> tuple[str, str]:
    """metrics.txt and metrics.csv of `m`, as the text they hold."""
    m.save_csv(tmp_path / "metrics.csv")
    return m.as_text(), (tmp_path / "metrics.csv").read_bytes().decode()


def test_the_reports_write_none_obstructed_and_an_alert_with_no_budget(tmp_path):
    # no RTT, no settled task, no drift: each a line left out of metrics.txt
    # and an empty cell in metrics.csv; an alert with no budget has no verdict
    m = RunMetrics(pdr={"clear": 0.96, "obstructed": 0.9}, line_on_track={"straight": 1.0},
                   tasks_created=1, alert_latency_ms={"fall": 1234.0}, energy_units=1.5)
    assert reports(m, tmp_path) == (
        "pdr[clear]: 0.9600\n"
        "pdr[obstructed]: 0.9000\n"
        "line_on_track[straight]: 1.0000\n"
        "tasks_created: 1\n"
        "tasks_completed: 0\n"
        "tasks_escalated: 0\n"
        "alert_latency_ms[fall]: 1234 (n/a)\n"
        "energy_units: 1.50\n",
        "metric,value\r\n"
        "pdr_clear,0.96\r\n"
        "pdr_obstructed,0.9\r\n"
        "rtt_mean_ms,\r\n"
        "rtt_std_ms,\r\n"
        "line_on_track_straight,1.0\r\n"
        "tasks_created,1\r\n"
        "tasks_completed,0\r\n"
        "tasks_escalated,0\r\n"
        "task_success_rate,\r\n"
        "alert_latency_ms_fall,1234.0\r\n"
        "alert_verdict_fall,\r\n"
        "drift_final_raw_m,\r\n"
        "drift_final_corrected_m,\r\n"
        "energy_units,1.5\r\n")


def test_the_reports_write_a_missed_alert(tmp_path):
    # the onset at 9.5 s has a 3 s budget, and the run ends at 10 s before
    # any notification answers it
    _, m = run(validate({"name": "late", "seed": 3, "duration_ms": 10_000,
                         "patient_script": [{"time_ms": 9500, "kind": "low_spo2", "spo2": 87}],
                         "budgets_ms": {"low_spo2": 3000}}))
    assert m.alert_latency_ms == {} and m.alert_verdicts == {"low_spo2": "fail"}
    text, table = reports(m, tmp_path)
    assert "alert_latency_ms[low_spo2]: none (fail)\n" in text
    assert "\r\nalert_latency_ms_low_spo2,\r\nalert_verdict_low_spo2,fail\r\n" in table
    # in the sorted order of both dicts' kinds, whatever order they hold them in
    m = RunMetrics(alert_latency_ms={"low_spo2": 900.0, "fall": 1000.0},
                   alert_verdicts={"no_vitals": "fail", "low_spo2": "pass"})
    text, table = reports(m, tmp_path)
    assert text == ("tasks_created: 0\ntasks_completed: 0\ntasks_escalated: 0\n"
                    "alert_latency_ms[fall]: 1000 (n/a)\n"
                    "alert_latency_ms[low_spo2]: 900 (pass)\n"
                    "alert_latency_ms[no_vitals]: none (fail)\n"
                    "energy_units: 0.00\n")
    assert ("task_success_rate,\r\n"
            "alert_latency_ms_fall,1000.0\r\nalert_verdict_fall,\r\n"
            "alert_latency_ms_low_spo2,900.0\r\nalert_verdict_low_spo2,pass\r\n"
            "alert_latency_ms_no_vitals,\r\nalert_verdict_no_vitals,fail\r\n"
            "drift_final_raw_m,\r\n") in table


def test_the_readme_lists_the_report_rows_in_file_order(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = [re.sub(r"<\w+>", "<>", key) for cell in cells for key in re.findall(r"`(.+?)`", cell)]
    # task_suite has a row of each key: two alert kinds, each with a verdict
    _, table = reports(run(load_preset("task_suite"))[1], tmp_path)
    keys = [re.sub(r"^(pdr|line_on_track|alert_latency_ms|alert_verdict)_.*", r"\1_<>", line)
            for line in (row.split(",")[0] for row in table.splitlines()[1:])]
    assert list(dict.fromkeys(keys)) == documented
