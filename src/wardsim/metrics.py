"""Event log and metrics.

Every metric is a pure fold over the event stream: the engine hands each
record to its kind's fold in `MetricsAccumulator.FOLDS`, and replay_metrics
feeds a saved log to a fresh accumulator's `consume`, which looks up the
same table, so live and replayed metrics agree by construction.

Building a log allocates a dict per record and per payload, and CPython's
cyclic garbage collector starts a pass every 700 container allocations. A
log is a tree of dicts and lists with no reference cycles, and no engine or
accumulator sits in one, so reference counting frees a dropped log at once
and those passes free nothing: a 120 s ward shift's run and its
`EventLog.load` each triggered about 170 of them. `gc_paused` turns the
collector off while `EventLog.load` and `Engine.run`'s tick loop build a log;
nothing else pauses it. Once on again, the collector would still walk the
whole new log in its next young-generation pass, which took about 20 ms
after a 120 s ward shift's run or load; so the outermost pause collects the
young generations when it starts, and when it ends moves what its block
built straight to the oldest generation, which only a full pass walks.
Cyclic garbage made inside a pause therefore waits for a full pass.
"""

from __future__ import annotations

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

    def consume(self, record: dict):
        kind, t, p = record["kind"], record["time_ms"], record.get("payload", _NO_PAYLOAD)
        try:
            fold = self.FOLDS.get(kind)
        except TypeError:  # an unhashable kind, such as a list, has no fold
            return
        if fold is not None:
            fold(self, t, p)

    def _meta(self, t, p):
        # a run's one meta record is checked in full: one without its
        # budgets would read as a run with none
        fields = {name: types for name, *types in RECORD_KINDS["meta"][2]}
        if p.keys() != fields.keys():
            raise ValueError(f"a meta payload must have exactly the keys {', '.join(fields)}, "
                             f"not {', '.join(map(str, p)) or 'none'}")
        for name, value in p.items():
            if type(value) not in fields[name]:
                raise ValueError(f"meta {name} must be "
                                 f"{' or '.join(c.__name__ for c in fields[name])}, not {value!r}")
        self._budgets = dict(p["budgets_ms"])

    def _packet_send(self, t, p):
        cond = p["condition"]
        self._sent[cond] = self._sent.get(cond, 0) + 1
        if p["outcome"] == "delivered":
            self._delivered[cond] = self._delivered.get(cond, 0) + 1
            if p["packet_kind"] == "command":
                self._cmd_sends[(p["src"], p["dst"], p["seq"])] = t
            elif p["packet_kind"] == "ack":
                send_t = self._cmd_sends.pop((p["dst"], p["src"], p["seq"]), None)
                if send_t is not None:
                    self._rtts.append(t + p["delay_ms"] - send_t)

    def _nav(self, t, p):
        tag = p["tag"]
        bucket = self._nav_counts.setdefault(tag, [0, 0])
        bucket[1] += 1
        if p["on_line"]:
            bucket[0] += 1
        self._drift_raw = p["drift_raw"]
        self._drift_corr = p["drift_corrected"]
        self._energy = p["energy"]

    def _task(self, t, p):
        self._task_seen.add(p["task_id"])
        if p["state"] in ("completed", "escalated"):
            self._task_terminal[p["task_id"]] = p["state"]

    def _script(self, t, p):
        sk = p.get("scenario_kind")
        if sk and sk not in self._onsets:
            self._onsets[sk] = t

    def _notification(self, t, p):
        sk = _CAUSE_TO_KIND.get(p.get("cause"))
        if sk and sk in self._onsets and sk not in self._latencies:
            self._latencies[sk] = t - self._onsets[sk]

    def result(self) -> RunMetrics:
        # the values sorted here or formatted in RunMetrics' reports must have
        # the engine's types; checked once a log, not once a record
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
# a plain function, called as fold(acc, t, payload), so no accumulator refers
# back to itself.
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


# Line writers for the five kinds that make 99 % of a run's records. For
# each record the C encoder sorts and escapes the keys of both of its dicts
# again, which is most of its cost; a writer has its kind's keys written out
# in sorted order in one %-format. It returns exactly
# `json.dumps(record, sort_keys=True) + "\n"`, or None for a record that is
# not exactly its kind's shape as `RECORD_KINDS` states it: the envelope keys
# kind, payload, source and time_ms, the kind's own source, an int time, the
# kind's payload keys, and each value of the exact type the engine gives it.
# A finite float is written by repr, as json does; a sum of floats is finite
# only when each of them is, and one that overflows only sends the record to
# `_encode`. A string is written by json's own escaper, and a list by
# `_encode`, which writes any value as json does, so its type is not checked.
#
# Each writer takes a `RowSink` or None. Given one, the packet_send and
# vitals_sample writers also add their record's row of channel.csv or
# vitals.csv, made from the same text as the line: csv writes an int by
# str, a float by repr and a string as it is unless it holds a delimiter, a
# quote or a line break. A string whose json escape is itself in quotes
# holds no quote, backslash, control or non-ASCII character, so one with no
# comma needs no csv quoting either. A record that is not its kind's shape,
# or whose row would need quoting, gets its row from `csv.writer`; the
# triage writer keeps the vitals.csv tail of its flags and class.
def _payload_reader(kind: str):
    """A function that returns the payload values of a record `r` in sorted
    key order if `r` has exactly the envelope keys, with `kind`'s source, an
    int time and a payload dict of exactly `kind`'s keys; else None."""
    source, _, fields = RECORD_KINDS[kind]
    size, keys = len(fields), operator.itemgetter(*sorted(field[0] for field in fields))

    def values(r):
        if len(r) == 4:
            p, s, t = r.get("payload"), r.get("source"), r.get("time_ms")
            if type(p) is dict and len(p) == size and type(s) is str and s == source \
                    and type(t) is int:
                try:
                    return keys(p)
                except KeyError:
                    return None
        return None
    return values


_packet_send_values, _vitals_sample_values, _packet_deliver_values, _triage_values, _nav_values = (
    map(_payload_reader, ("packet_send", "vitals_sample", "packet_deliver", "triage", "nav")))
# the payload values of a channel.csv, vitals.csv and tasks.csv row, after
# the record's time; the first two are the payload in emit order
_channel_cells, _vitals_cells = (operator.itemgetter(*(f[0] for f in RECORD_KINDS[kind][2]))
                                 for kind in ("packet_send", "vitals_sample"))
_task_cells = operator.itemgetter("task_id", "kind", "origin", "assignee", "state",
                                  "retry_count")
_isfinite = math.isfinite


def _packet_send_line(r, rows=None):
    if (values := _packet_send_values(r)) is not None:
        cond, delay, dst, outcome, kind, seq, src = values
        if (int is type(dst) is type(seq) is type(src) and str is type(cond) is type(outcome)
                is type(kind) and type(delay) is float and _isfinite(delay)):
            cond_j, outcome_j, kind_j = (encode_basestring_ascii(cond),
                                         encode_basestring_ascii(outcome),
                                         encode_basestring_ascii(kind))
            t, delay_s = str(r["time_ms"]), repr(delay)
            dst_s, seq_s, src_s = str(dst), str(seq), str(src)
            if rows is not None:
                # an escape is never shorter than its string and two quotes
                if (len(cond_j) + len(outcome_j) + len(kind_j)
                        == len(cond) + len(outcome) + len(kind) + 6
                        and "," not in cond and "," not in outcome and "," not in kind):
                    rows.channel.append("%s,%s,%s,%s,%s,%s,%s,%s\r\n" % (
                        t, src_s, dst_s, kind, seq_s, cond, outcome, delay_s))
                else:
                    rows.channel_csv.writerow((r["time_ms"], src, dst, kind, seq, cond, outcome,
                                              delay))
            return ('{"kind": "packet_send", "payload": {"condition": %s, "delay_ms": %s, '
                    '"dst": %s, "outcome": %s, "packet_kind": %s, "seq": %s, "src": %s}, '
                    '"source": "channel", "time_ms": %s}\n'
                    % (cond_j, delay_s, dst_s, outcome_j, kind_j, seq_s, src_s, t))
    if rows is not None:
        rows.channel_csv.writerow((r["time_ms"], *_channel_cells(r["payload"])))
    return None


def _vitals_sample_line(r, rows=None):
    if (values := _vitals_sample_values(r)) is not None:
        bpm, spo2, temp, valid = values
        if type(valid) is bool:
            if float is type(bpm) is type(spo2) is type(temp) and _isfinite(bpm + spo2 + temp):
                t, bpm, spo2, temp = str(r["time_ms"]), repr(bpm), repr(spo2), repr(temp)
                if rows is not None:
                    rows.vitals.append("%s,%s,%s,%s,%s%s" % (t, spo2, bpm, temp, valid, rows.tail))
                return ('{"kind": "vitals_sample", "payload": {"bpm": %s, "spo2": %s, '
                        '"temp": %s, "valid": %s}, "source": "wearable", "time_ms": %s}\n'
                        % (bpm, spo2, temp, "true" if valid else "false", t))
            if bpm is spo2 is temp is None:  # a sample of a wearable that is not worn
                t = str(r["time_ms"])
                if rows is not None:  # csv writes None as an empty cell
                    rows.vitals.append("%s,,,,%s%s" % (t, valid, rows.tail))
                return ('{"kind": "vitals_sample", "payload": {"bpm": null, "spo2": null, '
                        '"temp": null, "valid": %s}, "source": "wearable", "time_ms": %s}\n'
                        % ("true" if valid else "false", t))
    if rows is not None:
        rows.vitals_csv.writerow((r["time_ms"], *_vitals_cells(r["payload"]), rows.flags,
                                  rows.cls))
    return None


def _packet_deliver_line(r, rows=None):
    if (values := _packet_deliver_values(r)) is None:
        return None
    dst, kind, seq, src = values
    if int is type(dst) is type(seq) is type(src) and type(kind) is str:
        return ('{"kind": "packet_deliver", "payload": {"dst": %d, "packet_kind": %s, '
                '"seq": %d, "src": %d}, "source": "channel", "time_ms": %d}\n'
                % (dst, encode_basestring_ascii(kind), seq, src, r["time_ms"]))
    return None


def _triage_line(r, rows=None):
    if rows is not None:
        p = r["payload"]
        rows.triage("|".join(p["flags"]), p["class"])
    if (values := _triage_values(r)) is None:
        return None
    cls, flags, probs, sample_time = values
    # `_encode` writes the two lists, or any value in their place, as json does
    if type(cls) is str and type(sample_time) is int:
        return ('{"kind": "triage", "payload": {"class": %s, "flags": %s, "probs": %s, '
                '"sample_time": %d}, "source": "leader", "time_ms": %d}\n'
                % (encode_basestring_ascii(cls), "".join(_encode(flags, 0)),
                   "".join(_encode(probs, 0)), sample_time, r["time_ms"]))
    return None


def _nav_line(r, rows=None):
    if (values := _nav_values(r)) is None:
        return None
    dist, drift_corr, drift_raw, energy, on_line, tag, theta, x, y = values
    if (type(on_line) is bool and type(tag) is str and float is type(dist) is type(drift_corr)
            is type(drift_raw) is type(energy) is type(theta) is type(x) is type(y)
            and _isfinite(dist + drift_corr + drift_raw + energy + theta + x + y)):
        return ('{"kind": "nav", "payload": {"distance_to_line": %r, "drift_corrected": %r, '
                '"drift_raw": %r, "energy": %r, "on_line": %s, "tag": %s, "theta": %r, '
                '"x": %r, "y": %r}, "source": "navigation", "time_ms": %d}\n'
                % (dist, drift_corr, drift_raw, energy, "true" if on_line else "false",
                   encode_basestring_ascii(tag), theta, x, y, r["time_ms"]))
    return None


# the kinds that have no line writer but a row: each adds its record's row
# and leaves the line to `_encode`
def _task_row(r, rows):
    rows.tasks_csv.writerow((r["time_ms"], *_task_cells(r["payload"])))


def _notification_row(r, rows):
    p = r["payload"]
    rows.notes.append(f"{r['time_ms']}\t{p['severity']}\t{p['cause']}\t{p['text']}\n")


# kind -> its line writer; `to_jsonl` reads it only for a `str` kind, since
# a kind can be any JSON value and a list or dict does not hash. With a row
# sink it reads `_ROW_WRITERS`, which adds the kinds that only have a row
_LINE_WRITERS = {"packet_send": _packet_send_line, "vitals_sample": _vitals_sample_line,
                 "packet_deliver": _packet_deliver_line, "triage": _triage_line,
                 "nav": _nav_line}
_ROW_WRITERS = {**_LINE_WRITERS, "task": _task_row, "notification": _notification_row}


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



class EventLog:
    """Append-only, monotonically timestamped record list.

    Saved as JSON lines: one object per line, written with sorted keys, with
    non-decreasing `time_ms`; `load` skips blank lines. `load` decodes
    `_BATCH_LINES` lines with one `json.loads` of them joined into an array:
    one call per line spends more time around json's C decoder than in it,
    and one call shares the key strings of all its records. A batch that
    does not decode to one object per line, or that holds a bad record, is
    read again line by line, which names the first bad record; a batch can
    also fail where each of its lines loads, such as a line that ends in a
    form feed, which `str.strip` drops and JSON does not count as space.
    `json.loads` decodes a new string for every value, so `load` keeps one
    object per distinct `kind` string and `source` string, as the live log
    does (`_extend`). `load` runs with the cyclic garbage collector paused
    (`gc_paused`), since the records it builds hold no reference cycles.
    """

    def __init__(self):
        self.records: list[dict] = []

    def append(self, record: dict):
        t = record["time_ms"]
        records = self.records
        if records and t < records[-1]["time_ms"]:
            raise ValueError("event timestamps must be non-decreasing")
        records.append(record)

    def to_jsonl(self, start=0, stop=None, rows: RowSink | None = None) -> str:
        """The lines of `records[start:stop]`, each what
        `json.dumps(record, sort_keys=True)` writes and ended by a newline:
        written by its kind's line writer when it has one that takes the
        record, else by `_encode`. Given `rows`, it also adds each record's
        row to the sink, by the record's kind; a record that is not a dict
        with a `str` kind adds none."""
        parts = []
        writers = _LINE_WRITERS if rows is None else _ROW_WRITERS
        for r in self.records[start:stop]:
            kind = r.get("kind") if type(r) is dict else None
            write = writers.get(kind) if type(kind) is str else None
            line = None if write is None else write(r, rows)
            if line is None:
                parts += _encode(r, 0)
                parts.append("\n")
            else:
                parts.append(line)
        return "".join(parts)

    def save(self, path):
        """Write the log `_BATCH_LINES` records at a time, so that no more
        than one batch is held as text. A record that fails to encode raises
        before its batch is written: the file then holds the whole lines of
        the batches before it."""
        with open(path, "w") as f:
            for i in range(0, len(self.records), _BATCH_LINES):
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
        share = {}.setdefault
        with gc_paused(), open(path) as f:
            first = 0
            while lines := list(itertools.islice(f, _BATCH_LINES)):
                texts = [line for line in lines if not line.isspace()]
                size = len(log.records)
                try:
                    values = json.loads("[" + joint.join(texts) + "]")
                    n = len(texts)
                    if len(values) != 2 * n - 1 or values[1::2].count(mark) != n - 1:
                        raise ValueError("the batch does not decode to one value per line")
                    log._extend(values[::2], share)
                except (KeyError, ValueError):
                    del log.records[size:]
                    log._load_lines(lines, first, share)
                first += len(lines)
        return log

    def _load_lines(self, lines, first, share):
        for i, line in enumerate(lines, first):
            line = line.strip()
            if not line:
                continue
            try:
                self._extend((json.loads(line),), share)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"malformed event log at record {i}: {exc}") from exc

    def _extend(self, records, share):
        """Append each of the decoded `records` with `append`, its `str` kind
        and source replaced by the first equal string passed to `share`, a
        dict's `setdefault`. Raise ValueError (KeyError for a missing time)
        at the first record without the shape that `append` and
        `MetricsAccumulator.consume` read. The checks sit inline, not in a
        function per record, since every record of a load passes them."""
        append, isfinite = self.append, math.isfinite
        for record in records:
            if type(record) is not dict:
                raise ValueError(f"a record must be an object, not {type(record).__name__}")
            t = record["time_ms"]
            if not (type(t) is int or type(t) is float and isfinite(t)):
                raise ValueError(f"time_ms must be a finite number, not {t!r}")
            payload = record.get("payload", _NO_PAYLOAD)
            if type(payload) is not dict and payload is not _NO_PAYLOAD:
                raise ValueError("payload must be an object")
            kind = record.get("kind")
            if type(kind) is str:
                record["kind"] = share(kind, kind)
            source = record.get("source")
            if type(source) is str:
                record["source"] = share(source, source)
            append(record)


def replay_metrics(log: EventLog) -> RunMetrics:
    acc = MetricsAccumulator()
    for i, record in enumerate(log.records):
        try:
            acc.consume(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed event log at record {i}: {exc}") from exc
    try:
        return acc.result()
    except ValueError as exc:
        raise ValueError(f"malformed event log: {exc}") from exc
