"""The event-log loader: batch-decoded `EventLog.load` accepts exactly the
files that one `json.loads` per line accepts, with the same records, and
names the same first bad record. The metrics fold: `consume`'s table of
folds skips and refuses the records that one `==` test per kind did."""

import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardsim import metrics
from wardsim.engine import run
from wardsim.metrics import EventLog
from wardsim.scenario import load_preset

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
    elif kind == "swap_times":
        if pos + 1 == len(lines):
            return lines
        return lines[:pos] + swap_times(line, lines[pos + 1]) + lines[pos + 2:]
    else:
        new = [["5", "null", '"text"', "[1, 2]", "true"][at % 5]]
    return lines[:pos] + new + lines[pos + 1:]


CORRUPTIONS = ["truncate", "blank", "two_on_a_line", "split", "swap_times", "scalar"]


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
def test_batch_load_equals_the_per_line_loop(tmp_path_factory, spec):
    lines = log_lines(*spec)
    path = tmp_path_factory.getbasetemp() / "log_property.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    records, message = expected_load(path, lines)
    if message is None:
        assert EventLog.load(path).records == records
    else:
        with pytest.raises(ValueError) as got:
            EventLog.load(path)
        assert str(got.value) == message


def test_to_jsonl_writes_what_json_dumps_writes():
    records = [{"time_ms": 0, "kind": "x", "payload": {"b": [1.5, float("inf"), None],
                                                      "a": "é\n", "nan": float("nan")}},
               {"time_ms": 1, "source": "s", "kind": "y"}]
    log = EventLog()
    for r in records:
        log.append(r)
    assert log.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert EventLog().to_jsonl() == ""


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
    log.records += [{"time_ms": 0, "kind": "meta", "payload": {}}, record]

    def replay():
        try:
            return metrics.replay_metrics(log)
        except ValueError as exc:
            return str(exc)

    got = replay()
    monkeypatch.setattr(metrics, "MetricsAccumulator", ElifAccumulator)
    assert replay() == got
