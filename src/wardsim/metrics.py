"""Event log and metrics.

Every metric is a pure fold over the event stream: the engine hands each
record to its kind's fold in `MetricsAccumulator.FOLDS`, and replay_metrics
feeds a saved log to a fresh accumulator's `consume`, which looks up the
same table, so live and replayed metrics agree by construction.

Building a log allocates a tuple per record (a row, see `EventLog`), and
loading one also a dict per record and per payload as json decodes them,
and CPython's cyclic garbage collector starts a pass every 700 container
allocations. A log is a list of rows and dicts, holding lists and dicts,
with no reference cycles, and no engine or accumulator sits in one, so
reference counting frees a dropped log at once and those passes free
nothing: a 120 s ward shift's run triggered about 100 of them, and its
`EventLog.load` about 200. `gc_paused` turns the
collector off while `EventLog.load` and `Engine.run`'s tick loop build a log;
nothing else pauses it. Once on again, the collector would still walk the
whole new log in its next young-generation pass, which took about 20 ms
after a 120 s ward shift's run or load; so the outermost pause collects the
young generations when it starts, and when it ends moves what its block
built straight to the oldest generation, which only a full pass walks.
Cyclic garbage made inside a pause therefore waits for a full pass.
"""

from __future__ import annotations

import collections.abc
import contextlib
import csv
import gc
import itertools
import json
import math
import operator
import os
import statistics
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from types import MappingProxyType, NoneType, SimpleNamespace

# notification cause -> scenario kind used for alert budgets
_CAUSE_TO_KIND = {
    "fall": "fall",
    "low_spo2": "low_spo2",
    "fever": "high_temp",
    "no_vitals": "no_vitals",
}


# lines that EventLog.load decodes with one json.loads call, and that
# EventLog.save encodes and writes at a time
_BATCH_LINES = 1024

# json.dumps(record, sort_keys=True) builds this C encoder anew for every
# record; to_jsonl builds it once. The arguments are the ones dumps passes,
# except that markers is None: a shared markers dict would keep the ids of
# the containers being encoded when an encode fails, and the engine's
# records hold no cycles to detect.
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", ", ", True, False, True)


def success_rate(completed: int, escalated: int) -> float | None:
    """The share of settled tasks that completed; None when none settled."""
    settled = completed + escalated
    return completed / settled if settled else None


@dataclass
class RunMetrics:
    pdr: dict[str, float] = field(default_factory=dict)          # per condition
    rtt_mean_ms: float | None = None
    rtt_std_ms: float | None = None
    line_on_track: dict[str, float] = field(default_factory=dict)  # per segment tag
    tasks_created: int = 0
    tasks_completed: int = 0
    tasks_escalated: int = 0
    alert_latency_ms: dict[str, float] = field(default_factory=dict)  # per scenario kind
    alert_verdicts: dict[str, str] = field(default_factory=dict)      # "pass" | "fail"
    drift_final_raw_m: float | None = None
    drift_final_corrected_m: float | None = None
    energy_units: float = 0.0

    @property
    def task_success_rate(self) -> float | None:
        return success_rate(self.tasks_completed, self.tasks_escalated)

    def _rows(self) -> list[tuple[str, object, str | None]]:
        """Each metric once, in file order, as (metrics.csv key, value,
        metrics.txt line or None). A value of None is an empty cell and no
        line; a verdict has no line of its own, since its alert's line ends
        with it, and an alert that never came reads "none"."""
        def row(name, value, spec, sub=None):
            key, label = (name, name) if sub is None else (f"{name}_{sub}", f"{name}[{sub}]")
            return key, value, None if value is None else f"{label}: {value:{spec}}"

        rows = [row("pdr", v, ".4f", cond) for cond, v in sorted(self.pdr.items())]
        rows += [row("rtt_mean_ms", self.rtt_mean_ms, ".2f"),
                 row("rtt_std_ms", self.rtt_std_ms, ".2f")]
        rows += [row("line_on_track", v, ".4f", tag) for tag, v in sorted(self.line_on_track.items())]
        rows += [row(name, getattr(self, name), "d")
                 for name in ("tasks_created", "tasks_completed", "tasks_escalated")]
        rows.append(row("task_success_rate", self.task_success_rate, ".4f"))
        for kind in sorted(self.alert_latency_ms.keys() | self.alert_verdicts.keys()):
            latency, verdict = self.alert_latency_ms.get(kind), self.alert_verdicts.get(kind)
            shown = "none" if latency is None else f"{latency:.0f}"
            rows += [(f"alert_latency_ms_{kind}", latency,
                      f"alert_latency_ms[{kind}]: {shown} ({verdict or 'n/a'})"),
                     (f"alert_verdict_{kind}", verdict, None)]
        return rows + [row("drift_final_raw_m", self.drift_final_raw_m, ".4f"),
                       row("drift_final_corrected_m", self.drift_final_corrected_m, ".4f"),
                       row("energy_units", self.energy_units, ".2f")]

    def as_text(self) -> str:
        return "".join(line + "\n" for _, _, line in self._rows() if line is not None)

    def save_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["metric", "value"])
            w.writerows((key, value) for key, value, _ in self._rows())


class MetricsAccumulator:
    """The metrics of a log, folded one record at a time. A fold reads a row
    by place (`_places`); it reads a dict record's time and payload through
    a `_Payload`, by the same places, with the errors that reading the
    payload by key raises."""

    def __init__(self):
        self._budgets: dict[str, int] = {}
        self._sent: dict[str, int] = {}
        self._delivered: dict[str, int] = {}
        self._cmd_sends: dict[tuple, float] = {}
        self._rtts: list[float] = []
        self._nav_counts: dict[str, list[int]] = {}   # tag -> [on, total]
        self._task_terminal: dict[int, str] = {}
        self._task_seen: set[int] = set()
        self._onsets: dict[str, float] = {}           # scenario kind -> onset time
        self._latencies: dict[str, float] = {}
        self._drift_raw = None
        self._drift_corr = None
        self._energy = 0.0

    def consume(self, record):
        if type(record) is tuple:  # a row: its kind is one of RECORD_KINDS
            fold = self.FOLDS.get(record[1])
            if fold is not None:
                fold(self, record)
            return
        kind, t, p = record["kind"], record["time_ms"], record.get("payload", _NO_PAYLOAD)
        try:
            fold = self.FOLDS.get(kind)
        except TypeError:  # an unhashable kind, such as a list, has no fold
            return
        if fold is not None:
            fold(self, _Payload(t, p, _FIELD_NAMES[kind]))

    def _meta(self, v):
        if type(v) is _Payload:  # a row has its fields' types
            _check_meta(v.payload)
        self._budgets = dict(v[_META_BUDGETS])

    def _packet_send(self, v):
        cond = v[_SEND_CONDITION]
        self._sent[cond] = self._sent.get(cond, 0) + 1
        if v[_SEND_OUTCOME] == "delivered":
            self._delivered[cond] = self._delivered.get(cond, 0) + 1
            kind = v[_SEND_KIND]
            if kind == "command":
                self._cmd_sends[(v[_SEND_SRC], v[_SEND_DST], v[_SEND_SEQ])] = v[0]
            elif kind == "ack":
                send_t = self._cmd_sends.pop((v[_SEND_DST], v[_SEND_SRC], v[_SEND_SEQ]), None)
                if send_t is not None:
                    self._rtts.append(v[0] + v[_SEND_DELAY] - send_t)

    def _nav(self, v):
        tag = v[_NAV_TAG]
        bucket = self._nav_counts.setdefault(tag, [0, 0])
        bucket[1] += 1
        if v[_NAV_ON_LINE]:
            bucket[0] += 1
        self._drift_raw = v[_NAV_DRIFT_RAW]
        self._drift_corr = v[_NAV_DRIFT_CORRECTED]
        self._energy = v[_NAV_ENERGY]

    def _task(self, v):
        self._task_seen.add(v[_TASK_ID])
        if v[_TASK_STATE] in ("completed", "escalated"):
            self._task_terminal[v[_TASK_ID]] = v[_TASK_STATE]

    # a script or notification record that is not a row may lack the field
    # its fold reads, which then reads as None
    def _script(self, v):
        sk = v[_SCRIPT_KIND] if type(v) is tuple else v.get(_SCRIPT_KIND)
        if sk and sk not in self._onsets:
            self._onsets[sk] = v[0]

    def _notification(self, v):
        sk = _CAUSE_TO_KIND.get(v[_NOTE_CAUSE] if type(v) is tuple else v.get(_NOTE_CAUSE))
        if sk and sk in self._onsets and sk not in self._latencies:
            self._latencies[sk] = v[0] - self._onsets[sk]

    def result(self) -> RunMetrics:
        # the values sorted here or formatted in RunMetrics' reports must have
        # the engine's types, which a dict record need not; checked once a
        # log, not once a record
        for what, keys in (("packet condition", self._sent), ("nav tag", self._nav_counts)):
            for key in keys:
                if type(key) is not str:
                    raise ValueError(f"{what} must be a string, not {key!r}")
        _check_number("nav energy", self._energy)
        if self._drift_raw is not None:
            _check_number("nav drift_raw", self._drift_raw)
            _check_number("nav drift_corrected", self._drift_corr)
        m = RunMetrics()
        m.pdr = {c: self._delivered.get(c, 0) / n for c, n in sorted(self._sent.items())}
        if self._rtts:
            m.rtt_mean_ms = statistics.fmean(self._rtts)
            m.rtt_std_ms = statistics.pstdev(self._rtts) if len(self._rtts) > 1 else 0.0
        m.line_on_track = {tag: on / total for tag, (on, total) in sorted(self._nav_counts.items())}
        m.tasks_created = len(self._task_seen)
        m.tasks_completed = sum(1 for s in self._task_terminal.values() if s == "completed")
        m.tasks_escalated = sum(1 for s in self._task_terminal.values() if s == "escalated")
        m.alert_latency_ms = dict(sorted(self._latencies.items()))
        for sk, onset in self._onsets.items():
            budget = self._budgets.get(sk)
            if budget is None:
                continue
            _check_number(f"budgets_ms[{sk}]", budget)
            latency = self._latencies.get(sk)
            m.alert_verdicts[sk] = "pass" if latency is not None and latency <= budget else "fail"
        m.drift_final_raw_m = self._drift_raw
        m.drift_final_corrected_m = self._drift_corr
        m.energy_units = self._energy
        return m


class _Payload:
    """A dict record's time and payload as a fold reads a row: place 0 is
    the time, and the place of each field of its kind is the payload's
    value at that field's key, with the KeyError or TypeError that reading
    the payload raises; `get` reads as the payload's own `get` does."""

    __slots__ = ("time_ms", "payload", "_names")

    def __init__(self, time_ms, payload, names):
        self.time_ms, self.payload, self._names = time_ms, payload, names

    def __getitem__(self, place):
        return self.time_ms if place == 0 else self.payload[self._names[place - 2]]

    def get(self, place):
        return self.payload.get(self._names[place - 2])


def _check_meta(p):
    # a run's one meta record is checked in full: one without its budgets
    # would read as a run with none
    fields = {name: types for name, *types in RECORD_KINDS["meta"][2]}
    if p.keys() != fields.keys():
        raise ValueError(f"a meta payload must have exactly the keys {', '.join(fields)}, "
                         f"not {', '.join(map(str, p)) or 'none'}")
    for name, value in p.items():
        if type(value) not in fields[name]:
            raise ValueError(f"meta {name} must be "
                             f"{' or '.join(c.__name__ for c in fields[name])}, not {value!r}")


def _check_number(name: str, value):
    if type(value) is not int and type(value) is not float:
        raise ValueError(f"{name} must be a number, not {value!r}")


# the payload that `consume` passes a fold for a record that has none, and
# that `EventLog.load` accepts; read-only, so no fold can change it
_NO_PAYLOAD = MappingProxyType({})

# The event log's schema, and the one place that states a kind's source and
# payload: every kind of record the engine logs, with its source, its fold
# in the metrics (None for a kind they do not read) and its payload's fields
# in the order in which the engine builds the payload. A field is its name
# and the exact types its value may have (a bool is no int); a field that may
# be null lists NoneType. README's "Event log" table writes it out. A fold is
# a plain function, called as fold(acc, row), so no accumulator refers back
# to itself.
RECORD_KINDS = {
    "meta": ("engine", MetricsAccumulator._meta, (
        ("scenario", str), ("seed", int), ("dt_ms", int), ("duration_ms", int),
        ("budgets_ms", dict), ("line_width", float))),
    "script": ("script", MetricsAccumulator._script, (
        ("scenario_kind", str, NoneType), ("spo2", float, NoneType), ("bpm", float, NoneType),
        ("temp", float, NoneType), ("posture", str, NoneType), ("wearing", bool, NoneType))),
    "vitals_sample": ("wearable", None, (
        ("spo2", float, NoneType), ("bpm", float, NoneType), ("temp", float, NoneType),
        ("valid", bool))),
    "triage": ("leader", None, (
        ("sample_time", int), ("flags", list), ("class", str), ("probs", list))),
    "task": ("protocol", MetricsAccumulator._task, (
        ("task_id", int), ("kind", str), ("origin", str), ("assignee", int, NoneType),
        ("state", str), ("emergency", bool), ("retry_count", int))),
    "packet_send": ("channel", MetricsAccumulator._packet_send, (
        ("src", int), ("dst", int), ("packet_kind", str), ("seq", int), ("condition", str),
        ("outcome", str), ("delay_ms", float))),
    "packet_deliver": ("channel", None, (
        ("src", int), ("dst", int), ("packet_kind", str), ("seq", int))),
    "fall_check": ("camera", None, (("posture", str), ("outcome", str))),
    "nav_fault": ("navigation", None, (("x", float), ("y", float))),
    "battery_low": ("power", None, (("energy", float),)),
    "nav": ("navigation", MetricsAccumulator._nav, (
        ("x", float), ("y", float), ("theta", float), ("distance_to_line", float), ("tag", str),
        ("on_line", bool), ("drift_raw", float), ("drift_corrected", float), ("energy", float))),
    "status_light": ("corridor", None, (("value", str),)),
    "notification": ("leader", MetricsAccumulator._notification, (
        ("severity", str), ("text", str), ("cause", str), ("recipients", list))),
}
MetricsAccumulator.FOLDS = {kind: fold for kind, (_, fold, _) in RECORD_KINDS.items() if fold}


# A record is stored as a row: the tuple (time_ms, kind, *values), with the
# values of its payload in its kind's field order. The source is the kind's.
_FIELD_NAMES = {kind: tuple(f[0] for f in fields) for kind, (_, _, fields) in RECORD_KINDS.items()}


def _places(kind: str, *names: str) -> tuple[int, ...]:
    """The places of `kind`'s fields `names` in its rows."""
    return tuple(_FIELD_NAMES[kind].index(name) + 2 for name in names)


def _getter(*keys):
    """A function that returns the items of a dict or tuple at `keys`, as a
    tuple even for one key, with the KeyError or TypeError of the first
    that fails."""
    get = operator.itemgetter(*keys)
    return get if len(keys) > 1 else lambda x: (get(x),)


(_META_BUDGETS,) = _places("meta", "budgets_ms")
(_SCRIPT_KIND,) = _places("script", "scenario_kind")
_TASK_ID, _TASK_STATE = _places("task", "task_id", "state")
_SEND_SRC, _SEND_DST, _SEND_KIND, _SEND_SEQ, _SEND_CONDITION, _SEND_OUTCOME, _SEND_DELAY = (
    _places("packet_send", "src", "dst", "packet_kind", "seq", "condition", "outcome", "delay_ms"))
_NAV_TAG, _NAV_ON_LINE, _NAV_DRIFT_RAW, _NAV_DRIFT_CORRECTED, _NAV_ENERGY = _places(
    "nav", "tag", "on_line", "drift_raw", "drift_corrected", "energy")
(_NOTE_CAUSE,) = _places("notification", "cause")

_isfinite = math.isfinite

# kind -> the values of a payload dict of that kind, in field order
PAYLOAD_VALUES = {kind: _getter(*names) for kind, names in _FIELD_NAMES.items()}


def _row_builder(kind: str):
    """`build(r, share, last_time)`: the row of a `kind` record dict `r` if
    it is exactly the kind's schema, else None. That is the envelope keys
    kind, payload, source and time_ms, the kind's source, an int time and a
    payload dict of exactly the kind's keys, each value of one of its
    field's exact types (a bool is no int) and each float finite. Each
    string of the row is the one that `share`, a dict's `setdefault`, keeps
    for an equal string, and a time equal to the int `last_time` is that
    object, as the engine's records of one tick share their time.

    Its source is made from the kind's fields and run, as
    `collections.namedtuple` makes its class: a `type(v) is T` test written
    out per value costs about half of a loop over the fields."""
    source, _, fields = RECORD_KINDS[kind]
    names, tests, values = [f"v{i}" for i in range(len(fields))], [], []
    for v, (_, *types) in zip(names, fields):
        (t,) = (t for t in types if t is not NoneType)
        test, value = f"type({v}) is {t.__name__}", f"share({v}, {v})" if t is str else v
        if t is float:  # v - v is 0.0 only for a finite v
            test += f" and {v} - {v} == 0.0"
        if NoneType in types:
            test = f"({v} is None or {test})"
            if t is str:
                value = f"(None if {v} is None else {value})"
        tests.append(test)
        values.append(value)
    code = (f"def build(r, share, last_time):\n"
            f"    try:\n"
            f"        t, p, s = r['time_ms'], r['payload'], r['source']\n"
            f"        if not (len(r) == 4 and type(t) is int and type(s) is str\n"
            f"                and s == {source!r} and type(p) is dict and len(p) == {len(fields)}):\n"
            f"            return None\n"
            f"        {', '.join(names)}, = {', '.join(f'p[{f[0]!r}]' for f in fields)},\n"
            f"    except KeyError:\n"
            f"        return None\n"
            f"    if {' and '.join(tests)}:\n"
            f"        return (last_time if t == last_time and type(last_time) is int else t,\n"
            f"                {kind!r}, {', '.join(values)})\n"
            f"    return None\n")
    namespace = {}
    exec(code, namespace)
    return namespace["build"]


# kind -> its row builder
_ROW_BUILDERS = {kind: _row_builder(kind) for kind in RECORD_KINDS}
# each kind and source string of the table, as itself
_TABLE_STRINGS = {s: s for kind, (source, _, _) in RECORD_KINDS.items() for s in (kind, source)}


def _as_row(record, share, last_time=None):
    """The row of `record` if it is a dict whose `str` kind has a row
    builder that takes it (`_row_builder`), else `record` itself."""
    kind = record.get("kind") if type(record) is dict else None
    build = _ROW_BUILDERS.get(kind) if type(kind) is str else None
    return record if build is None else build(record, share, last_time) or record


def _record(row) -> dict:
    """The record dict of a row; a dict record is itself."""
    if type(row) is not tuple:
        return row
    kind = row[1]
    return {"time_ms": row[0], "source": RECORD_KINDS[kind][0], "kind": kind,
            "payload": dict(zip(_FIELD_NAMES[kind], row[2:]))}


# Line writers for the five kinds that make 99 % of a run's records. For
# each record the C encoder sorts and escapes the keys of both of its dicts
# again, which is most of its cost; a writer takes a row and has its kind's
# keys written out in sorted order in one %-format. It returns exactly
# `json.dumps(record, sort_keys=True) + "\n"` for the row's record, or None
# for a row that `to_jsonl` must give to `_encode`: one with a non-finite
# float, which no row that `_as_row` makes holds, and a vitals sample whose
# values are neither all floats nor all None. A finite float is written by
# repr, as json does; a sum of floats is finite only when each of them is,
# and one that overflows only sends the record to `_encode`. A string is
# written by json's own escaper, and a list by `_encode`.
#
# Each writer takes a `RowSink` or None. Given one, the packet_send and
# vitals_sample writers also add their record's row of channel.csv or
# vitals.csv, whose columns are the row's, made from the same text as the
# line: csv writes an int by str, a float by repr and a string as it is
# unless it holds a delimiter, a quote or a line break. A string whose json
# escape is itself in quotes holds no quote, backslash, control or
# non-ASCII character, so one with no comma needs no csv quoting either. A
# row that the writer gives to `_encode`, or that would need quoting, gets
# its csv row from `csv.writer`; the triage writer keeps the vitals.csv tail
# of its flags and class.
def _packet_send_line(r, rows=None):
    t, _, src, dst, kind, seq, cond, outcome, delay = r
    if not _isfinite(delay):
        if rows is not None:
            rows.channel_csv.writerow((t, *r[2:]))
        return None
    cond_j, outcome_j, kind_j = (encode_basestring_ascii(cond), encode_basestring_ascii(outcome),
                                 encode_basestring_ascii(kind))
    t_s, delay_s, dst_s, seq_s, src_s = str(t), repr(delay), str(dst), str(seq), str(src)
    if rows is not None:
        # an escape is never shorter than its string and two quotes
        if (len(cond_j) + len(outcome_j) + len(kind_j) == len(cond) + len(outcome) + len(kind) + 6
                and "," not in cond and "," not in outcome and "," not in kind):
            rows.channel.append("%s,%s,%s,%s,%s,%s,%s,%s\r\n" % (
                t_s, src_s, dst_s, kind, seq_s, cond, outcome, delay_s))
        else:
            rows.channel_csv.writerow((t, *r[2:]))
    return ('{"kind": "packet_send", "payload": {"condition": %s, "delay_ms": %s, '
            '"dst": %s, "outcome": %s, "packet_kind": %s, "seq": %s, "src": %s}, '
            '"source": "channel", "time_ms": %s}\n'
            % (cond_j, delay_s, dst_s, outcome_j, kind_j, seq_s, src_s, t_s))


def _vitals_sample_line(r, rows=None):
    t, _, spo2, bpm, temp, valid = r
    if float is type(bpm) is type(spo2) is type(temp) and _isfinite(bpm + spo2 + temp):
        t, bpm, spo2, temp = str(t), repr(bpm), repr(spo2), repr(temp)
        if rows is not None:
            rows.vitals.append("%s,%s,%s,%s,%s%s" % (t, spo2, bpm, temp, valid, rows.tail))
        return ('{"kind": "vitals_sample", "payload": {"bpm": %s, "spo2": %s, '
                '"temp": %s, "valid": %s}, "source": "wearable", "time_ms": %s}\n'
                % (bpm, spo2, temp, "true" if valid else "false", t))
    if bpm is spo2 is temp is None:  # a sample of a wearable that is not worn
        if rows is not None:  # csv writes None as an empty cell
            rows.vitals.append("%d,,,,%s%s" % (t, valid, rows.tail))
        return ('{"kind": "vitals_sample", "payload": {"bpm": null, "spo2": null, '
                '"temp": null, "valid": %s}, "source": "wearable", "time_ms": %d}\n'
                % ("true" if valid else "false", t))
    if rows is not None:
        rows.vitals_csv.writerow((t, *r[2:], rows.flags, rows.cls))
    return None


def _packet_deliver_line(r, rows=None):
    t, _, src, dst, kind, seq = r
    return ('{"kind": "packet_deliver", "payload": {"dst": %d, "packet_kind": %s, '
            '"seq": %d, "src": %d}, "source": "channel", "time_ms": %d}\n'
            % (dst, encode_basestring_ascii(kind), seq, src, t))


def _triage_line(r, rows=None):
    t, _, sample_time, flags, cls, probs = r
    if rows is not None:
        rows.triage("|".join(flags), cls)
    # `_encode` writes the two lists as json does
    return ('{"kind": "triage", "payload": {"class": %s, "flags": %s, "probs": %s, '
            '"sample_time": %d}, "source": "leader", "time_ms": %d}\n'
            % (encode_basestring_ascii(cls), "".join(_encode(flags, 0)),
               "".join(_encode(probs, 0)), sample_time, t))


def _nav_line(r, rows=None):
    t, _, x, y, theta, dist, tag, on_line, drift_raw, drift_corr, energy = r
    if _isfinite(dist + drift_corr + drift_raw + energy + theta + x + y):
        return ('{"kind": "nav", "payload": {"distance_to_line": %r, "drift_corrected": %r, '
                '"drift_raw": %r, "energy": %r, "on_line": %s, "tag": %s, "theta": %r, '
                '"x": %r, "y": %r}, "source": "navigation", "time_ms": %d}\n'
                % (dist, drift_corr, drift_raw, energy, "true" if on_line else "false",
                   encode_basestring_ascii(tag), theta, x, y, t))
    return None


# the payload values of a tasks.csv row, after the record's time: by key in
# a dict record's payload, and by place in a row
_TASK_COLUMNS = ("task_id", "kind", "origin", "assignee", "state", "retry_count")
_task_keys = operator.itemgetter(*_TASK_COLUMNS)
_task_cells = operator.itemgetter(*_places("task", *_TASK_COLUMNS))


# the kinds that have no line writer but a row: each adds its row's csv row
# and leaves the line to `_encode`
def _task_row(r, rows):
    rows.tasks_csv.writerow((r[0], *_task_cells(r)))


def _notification_row(r, rows):
    t, _, severity, text, cause, _ = r
    rows.notes.append(f"{t}\t{severity}\t{cause}\t{text}\n")


# kind -> its row's line writer. With a row sink `to_jsonl` reads
# `_ROW_WRITERS`, which adds the kinds that only have a csv row
_LINE_WRITERS = {"packet_send": _packet_send_line, "vitals_sample": _vitals_sample_line,
                 "packet_deliver": _packet_deliver_line, "triage": _triage_line,
                 "nav": _nav_line}
_ROW_WRITERS = {**_LINE_WRITERS, "task": _task_row, "notification": _notification_row}


# A dict record is any record that is not exactly its kind's schema: its
# line is `_encode`'s, and its csv row, by its kind, is `csv.writer`'s of its
# payload's values at the kind's keys, with the KeyError or TypeError of the
# first that fails
def _dict_packet_send_row(r, rows):
    rows.channel_csv.writerow((r["time_ms"], *PAYLOAD_VALUES["packet_send"](r["payload"])))


def _dict_vitals_sample_row(r, rows):
    rows.vitals_csv.writerow((r["time_ms"], *PAYLOAD_VALUES["vitals_sample"](r["payload"]),
                              rows.flags, rows.cls))


def _dict_triage_row(r, rows):
    p = r["payload"]
    rows.triage("|".join(p["flags"]), p["class"])


def _dict_task_row(r, rows):
    rows.tasks_csv.writerow((r["time_ms"], *_task_keys(r["payload"])))


def _dict_notification_row(r, rows):
    p = r["payload"]
    rows.notes.append(f"{r['time_ms']}\t{p['severity']}\t{p['cause']}\t{p['text']}\n")


_DICT_ROWS = {"packet_send": _dict_packet_send_row, "vitals_sample": _dict_vitals_sample_row,
              "triage": _dict_triage_row, "task": _dict_task_row,
              "notification": _dict_notification_row}


class RowSink:
    """The rows of channel.csv (one per packet_send record), tasks.csv (task),
    vitals.csv (vitals_sample, with the flags and class of the last triage
    record before it) and notifications.log (notification), as text, that
    `EventLog.to_jsonl` adds beside its lines. `batches` holds each file's
    rows since the caller last wrote and cleared them, in that file order;
    `HEADERS` holds each file's first line. The last triage carries over
    from one batch to the next.

    Each `*_csv` is a `csv.writer` that appends to its file's list, so a row
    that csv must quote takes its place among the rows made as text."""

    HEADERS = ("time_ms,src,dst,kind,seq,condition,outcome,delay_ms\r\n",
               "time_ms,task_id,kind,origin,assignee,state,retry_count\r\n",
               "time_ms,spo2,bpm,temp,valid,flags,class\r\n", "")

    def __init__(self):
        self.batches = self.channel, self.tasks, self.vitals, self.notes = [], [], [], []
        self._tail_text = []
        self.channel_csv, self.tasks_csv, self.vitals_csv, self._tail_csv = (
            csv.writer(SimpleNamespace(write=rows.append))
            for rows in (self.channel, self.tasks, self.vitals, self._tail_text))
        self.flags = self.cls = ""
        self.tail = ",,\r\n"  # the vitals.csv cells after `valid`
        self._tails = {}

    def triage(self, flags, cls):
        """Take `flags` (joined) and `cls` as the last triage's. csv quotes
        each cell on its own, so a row's tail after `valid` is what csv
        writes for `("", flags, cls)`; it is kept once per pair of `str`s."""
        self.flags, self.cls = flags, cls
        key = (flags, cls) if type(cls) is str else None
        tail = self._tails.get(key)
        if tail is None:
            self._tail_csv.writerow(("", flags, cls))
            tail = self._tail_text.pop()
            if key is not None:
                self._tails[key] = tail
        self.tail = tail


@contextlib.contextmanager
def gc_paused():
    """Turn the cyclic garbage collector off for the `with` block. Use it only
    around code whose garbage has no reference cycles: the collector does not
    run at all inside the block, and what the block built is not walked
    before a full pass.

    A pause entered with the collector on first collects the two young
    generations, so that the cyclic garbage made before the block is freed
    as at any young pass, and they then hold only what the block builds.
    When the block ends, `gc.freeze()` then `gc.unfreeze()` move those
    objects to the oldest generation in O(1) and reset the young count, and
    the collector goes back on. The move is skipped while the caller has
    frozen objects of its own, which `gc.unfreeze()` would release. A pause
    entered with the collector off, such as a nested one, does neither, and
    leaves the collector off."""
    if not gc.isenabled():
        yield
        return
    gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()


class Records(collections.abc.Sequence):
    """A read-only view of a log's records as dicts, in log order: a row's
    dict (`_record`) is built each time the record is read, so reading the
    view holds no more than the records that the caller keeps; a dict record
    is itself. A slice is a list. It equals a list, tuple or view of equal
    records."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if type(i) is slice:
            return list(map(_record, self._rows[i]))
        return _record(self._rows[i])

    def __iter__(self):
        return map(_record, self._rows)

    def __eq__(self, other):
        if not isinstance(other, (Records, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self):
        return f"Records({list(self)!r})"


class EventLog:
    """Append-only, monotonically timestamped list of records.

    `rows` holds each record as the row of its kind (`_as_row`): the tuple
    (time_ms, kind, *values), with the payload's values in `RECORD_KINDS`
    field order, which holds a record in well under half the memory of its
    two dicts. A record that is not exactly its kind's schema is kept as the
    dict it is. `records` reads the log as dicts.

    Saved as JSON lines: one object per line, written with sorted keys, with
    non-decreasing `time_ms`; `load` skips blank lines. `load` decodes
    `_BATCH_LINES` lines with one `json.loads` of them joined into an array:
    one call per line spends more time around json's C decoder than in it,
    and one call shares the key strings of all its records. A batch that
    does not decode to one object per line, or that holds a bad record, is
    read again line by line, which names the first bad record; a batch can
    also fail where each of its lines loads, such as a line that ends in a
    form feed, which `str.strip` drops and JSON does not count as space.
    `json.loads` decodes a new string for every value, so a log keeps one
    object per distinct string value of its rows, and per distinct `kind`
    and `source` string of its dict records (`_extend`), as the live log
    does. `load` runs with the cyclic garbage collector paused
    (`gc_paused`), since the records it builds hold no reference cycles.
    """

    def __init__(self):
        self.rows: list = []
        # the log's string for each distinct string value; a row's kind and
        # source are the table's, so a dict record's are too
        self._share = dict(_TABLE_STRINGS).setdefault

    @property
    def records(self) -> Records:
        return Records(self.rows)

    def append(self, record):
        """Append a record dict, as its row when it is exactly its kind's
        schema (`_as_row`), or a row."""
        rows = self.rows
        t = record[0] if type(record) is tuple else record["time_ms"]
        last_time = None
        if rows:
            last = rows[-1]
            last_time = last[0] if type(last) is tuple else last["time_ms"]
            if t < last_time:
                raise ValueError("event timestamps must be non-decreasing")
        if type(record) is not tuple:
            record = _as_row(record, self._share, last_time)
        rows.append(record)

    def to_jsonl(self, start=0, stop=None, rows: RowSink | None = None) -> str:
        """The lines of `records[start:stop]`, each what
        `json.dumps(record, sort_keys=True)` writes and ended by a newline:
        a row's by its kind's line writer when it has one that takes the
        row, else by `_encode`. Given `rows`, it also adds each record's
        csv row to the sink, by the record's kind; a record that is not a
        row or a dict with a `str` kind adds none."""
        parts = []
        writers = _LINE_WRITERS if rows is None else _ROW_WRITERS
        for r in self.rows[start:stop]:
            if type(r) is tuple:
                write = writers.get(r[1])
                if write is not None and (line := write(r, rows)) is not None:
                    parts.append(line)
                    continue
                r = _record(r)
            elif rows is not None and type(r) is dict:
                kind = r.get("kind")
                add = _DICT_ROWS.get(kind) if type(kind) is str else None
                if add is not None:
                    add(r, rows)
            parts += _encode(r, 0)
            parts.append("\n")
        return "".join(parts)

    def save(self, path):
        """Write the log `_BATCH_LINES` records at a time, so that no more
        than one batch is held as text. A record that fails to encode raises
        before its batch is written: the file then holds the whole lines of
        the batches before it."""
        with open(path, "w") as f:
            for i in range(0, len(self.rows), _BATCH_LINES):
                f.write(self.to_jsonl(i, i + _BATCH_LINES))

    @classmethod
    def load(cls, path) -> "EventLog":
        log = cls()
        # a per-load random string between the lines: only a batch in which
        # every line holds exactly one JSON value decodes to value, mark,
        # value, ..., so a line with two values cannot offset a value split
        # over two lines
        mark = os.urandom(16).hex()
        joint = f',"{mark}",'
        with gc_paused(), open(path) as f:
            first = 0
            while lines := list(itertools.islice(f, _BATCH_LINES)):
                texts = [line for line in lines if not line.isspace()]
                size = len(log.rows)
                try:
                    values = json.loads("[" + joint.join(texts) + "]")
                    n = len(texts)
                    if len(values) != 2 * n - 1 or values[1::2].count(mark) != n - 1:
                        raise ValueError("the batch does not decode to one value per line")
                    log._extend(values[::2])
                except (KeyError, ValueError):
                    del log.rows[size:]
                    log._load_lines(lines, first)
                first += len(lines)
        return log

    def _load_lines(self, lines, first):
        for i, line in enumerate(lines, first):
            line = line.strip()
            if not line:
                continue
            try:
                self._extend((json.loads(line),))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"malformed event log at record {i}: {exc}") from exc

    def _extend(self, records):
        """Append each of the decoded `records` with `append`, as its row when
        it is exactly its kind's schema. Raise ValueError (KeyError for a
        missing time) at the first other record without the shape that
        `append` and `MetricsAccumulator.consume` read; such a record gets
        the log's shared string for its `str` kind and source. The checks
        sit inline, not in a function per record, since every record of a
        load passes them. The batch's first row does not share the time of
        the row before it."""
        append, isfinite, share, last_time = self.append, math.isfinite, self._share, None
        for record in records:
            # `_as_row`, inline: it is called for every record of a load
            kind = record.get("kind") if type(record) is dict else None
            build = _ROW_BUILDERS.get(kind) if type(kind) is str else None
            row = None if build is None else build(record, share, last_time)
            if row is None:
                if type(record) is not dict:
                    raise ValueError(f"a record must be an object, not {type(record).__name__}")
                t = record["time_ms"]
                if not (type(t) is int or type(t) is float and isfinite(t)):
                    raise ValueError(f"time_ms must be a finite number, not {t!r}")
                payload = record.get("payload", _NO_PAYLOAD)
                if type(payload) is not dict and payload is not _NO_PAYLOAD:
                    raise ValueError("payload must be an object")
                if type(kind) is str:
                    record["kind"] = share(kind, kind)
                source = record.get("source")
                if type(source) is str:
                    record["source"] = share(source, source)
                append(record)
                last_time = None
            else:
                append(row)
                last_time = row[0]


def replay_metrics(log: EventLog) -> RunMetrics:
    acc = MetricsAccumulator()
    for i, record in enumerate(log.rows):
        try:
            acc.consume(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed event log at record {i}: {exc}") from exc
    try:
        return acc.result()
    except ValueError as exc:
        raise ValueError(f"malformed event log: {exc}") from exc
