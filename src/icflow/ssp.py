"""Bounded-staleness parameter store.

Workers commit timestamped sparse updates and advance a per-worker clock. A
foreign update becomes visible to a worker once it has arrived there. A worker
at clock t waits for and sees every update with timestamp at or before
t - s - 1 (s is the staleness bound) plus all of its own writes; it may
additionally see newer updates from others that have arrived. A worker that
runs more than s clocks ahead of the slowest one blocks until the gap closes.
With s = 0 the protocol degenerates to fully synchronous lock-step execution.

All store activity can be recorded as a trace (one CSV line per event) that an
independent checker replays to verify the protocol guarantees, on an int64
table whose rows it selects by event code. The whole checker lives here
(`check_staleness_invariants`, and `replay`, which `icflow replay` runs), and
it imports no simulator.
"""
from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, NamedTuple, Optional, TextIO

import numpy as np

from .errors import ProtocolError, StateCorruptionError, TraceParseError
from .fabric import sparse_codec_size

# every event name, sorted; an event's code in a trace table is its index here
_EVENTS = ("apply", "block", "clock", "commit", "compute_end", "compute_start",
           "finish", "msg_deliver", "msg_send", "read", "unblock")
_CODE = {name: code for code, name in enumerate(_EVENTS)}
# subset replayed by the staleness checker; the rest are simulator events
_PROTOCOL_EVENTS = {"commit", "clock", "block", "unblock", "read", "apply", "finish"}


class TraceEvent(NamedTuple):
    tick: int
    event: str
    worker: int
    clock: int
    seq: int
    timestamp: int
    key_count: int
    bytes: int

    @classmethod
    def from_line(cls, line: str, line_number: int = 0) -> "TraceEvent":
        parts = line.strip().split(",")
        if len(parts) != 8:
            raise TraceParseError(line_number, f"expected 8 fields, got {len(parts)}")
        if parts[1] not in _CODE:
            raise TraceParseError(line_number, f"unknown event {parts[1]!r}")
        try:
            nums = [int(parts[i]) for i in (0, 2, 3, 4, 5, 6, 7)]
        except ValueError as e:
            raise TraceParseError(line_number, str(e)) from None
        if not all(-(2**63) <= n < 2**63 for n in nums):
            raise TraceParseError(line_number, "integer outside int64")
        return cls(nums[0], parts[1], nums[1], nums[2], nums[3], nums[4], nums[5], nums[6])


TRACE_HEADER = ",".join(TraceEvent._fields)
_ROW_FORMAT = ",".join(["%s"] * len(TraceEvent._fields)) + "\n"
_CHUNK_ROWS = 1024  # rows per piece of text that `Trace.to_text` writes

# A trace as a column table: one int64 record per event, one field per
# TraceEvent field; the event field holds the event's code.
_TABLE_DTYPE = np.dtype([(name, np.int64) for name in TraceEvent._fields])
# The characters of a well-formed trace. np.loadtxt reads some other text
# differently from int() and str (non-ASCII characters as digits, "\x1f" as
# blank space, trailing NULs dropped), so such text is parsed line by line.
_TABLE_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz_,+- \t\r\n"


def _read_table(text: str, lines: list[str]) -> Optional[np.ndarray]:
    """The lines after the header as a column table in one pass, or None if
    any is not a well-formed event; `TraceEvent.from_line` then decides, line
    by line, whether and where the text is malformed."""
    if not text.isascii() or text.encode("ascii").translate(None, _TABLE_CHARS):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=_TABLE_DTYPE, delimiter=",", comments=None,
                              skiprows=1, ndmin=1, converters={1: _CODE.__getitem__})
        except (KeyError, ValueError, Warning):
            return None


class Trace:
    """An ordered event log with CSV round-tripping, held as one record.

    A trace that the store and the simulator build is one flat list, which
    they extend by each event's 8 fields in ``TraceEvent`` order (70-85
    bytes an event, against 115-130 for a tuple). A trace read by
    ``from_text`` is a column table of event codes (see ``table``) and has no
    flat list, so nothing appends to it. ``events`` builds new, named
    ``TraceEvent`` objects on each read. The table of a built trace is
    rebuilt when the trace's length has changed since it was built."""

    def __init__(self, events: Iterable[TraceEvent] = ()):
        self._flat: Optional[list] = list(chain.from_iterable(events))
        self._table: Optional[np.ndarray] = None

    @property
    def events(self) -> list[TraceEvent]:
        return list(map(TraceEvent._make, zip(*[self._fields()] * 8)))

    def _fields(self):
        """The fields of every event, in trace order, as one iterator."""
        if self._flat is None:
            return chain.from_iterable((row[0], _EVENTS[row[1]], *row[2:])
                                       for row in self._table.tolist())
        return iter(self._flat)

    def table(self) -> np.ndarray:
        """The events as an int64 structured array with one field per
        TraceEvent field, in trace order; the event field is the code."""
        if self._table is None or len(self._table) != len(self):
            flat, table = self._flat, np.empty(len(self), _TABLE_DTYPE)
            for i, name in enumerate(TraceEvent._fields):
                table[name] = list(map(_CODE.__getitem__, flat[1::8])) if i == 1 else flat[i::8]
            self._table = table
        return self._table

    def __len__(self) -> int:
        return len(self._table) if self._flat is None else len(self._flat) // 8

    def __iter__(self):
        return iter(self.events)

    def to_text(self, file: Optional[TextIO] = None) -> Optional[str]:
        """The trace as CSV text; given a text file, write it there instead,
        `_CHUNK_ROWS` rows at a time, so that its whole text is never held."""
        out = io.StringIO() if file is None else file
        out.write(TRACE_HEADER + "\n")
        fields = self._fields()
        while chunk := tuple(islice(fields, 8 * _CHUNK_ROWS)):
            out.write((_ROW_FORMAT * (len(chunk) // 8)) % chunk)
        return out.getvalue() if file is None else None

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        lines = text.splitlines()
        if not lines:
            raise TraceParseError(0, "empty trace")
        if lines[0].strip() != TRACE_HEADER:
            raise TraceParseError(1, f"bad header {lines[0]!r}")
        table = _read_table(text, lines)
        if table is not None:
            trace = cls()
            trace._flat, trace._table = None, table
            return trace
        events = []
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            events.append(TraceEvent.from_line(line, i))
        return cls(events)


@dataclass
class _Update:
    seq: int
    worker: int
    timestamp: int
    keys: np.ndarray  # int64, in the payload's key order
    vals: np.ndarray  # float64, one per key
    nbytes: int  # wire size, set at commit


class SspCore:
    """Single-threaded bounded-staleness store driven by an external clock.

    The caller owns the notion of time (it sets ``tick``, which stamps each
    trace row) and the network. ``owed`` holds, per worker and timestamp, the
    foreign commits that have not yet arrived there. ``deliver`` takes one
    message: its seqs must be distinct and all owed to the worker at one
    timestamp, so a commit arrives once. ``catch_up`` applies every arrived
    update (a read may be fresher than required); ``missing_required``
    counts the owed commits the protocol obliges a worker to see. The gate
    minimum is kept, not scanned for: ``_at_clock`` counts the unfinished
    workers at each clock and ``_low`` is the lowest clock that has one;
    ``advance_clock`` and ``finish`` update both. Updates are kept as key
    and value arrays; one ``np.add.at`` per apply adds them in commit order,
    so each element's additions come in that order.
    """

    def __init__(self, P: int, staleness: int, m: int):
        if P < 1:
            raise ProtocolError("P must be >= 1")
        if staleness < 0:
            raise ProtocolError("staleness bound must be >= 0")
        self.P = P
        self.staleness = staleness
        self.trace = Trace()
        self.tick = 0
        self.clocks = [0] * P
        self.finished = [False] * P
        self.blocked = [False] * P
        self._at_clock = [P]
        self._low = 0
        self.views = [np.zeros(m) for _ in range(P)]
        self.log: list[_Update] = []
        # per worker: foreign seqs that have arrived and are not yet applied
        self.arrived: list[set[int]] = [set() for _ in range(P)]
        # per worker: timestamp -> the foreign seqs committed and not yet arrived
        self.owed: list[dict[int, set[int]]] = [{} for _ in range(P)]
        # per worker: how many of those it is obliged to see, the ones with a
        # timestamp at or before its horizon, clock - staleness - 1; kept as a
        # count, so that no delivery scans `owed`
        self._missing = [0] * P
        self._append = self.trace._flat.extend  # the one path for trace rows

    # -- event helpers ------------------------------------------------------

    def _emit(self, event: str, worker: int, seq: int = 0, timestamp: int = 0,
              key_count: int = 0, nbytes: int = 0) -> None:
        self._append((self.tick, event, worker, self.clocks[worker], seq,
                      timestamp, key_count, nbytes))

    # -- protocol -----------------------------------------------------------

    def min_clock(self) -> int:
        """Minimum clock over unfinished workers; finished ones do not hold
        anyone back; once all have finished, the maximum clock."""
        return self._low if self._at_clock[self._low] else max(self.clocks)

    def commit(self, worker: int, payload: dict[int, float], timestamp: int) -> int:
        """Publish a timestamped update; the writer sees it immediately."""
        self._check_worker(worker)
        if timestamp != self.clocks[worker]:
            raise ProtocolError(
                f"commit timestamp {timestamp} != worker {worker} clock "
                f"{self.clocks[worker]}"
            )
        n = len(payload)
        upd = _Update(len(self.log), worker, timestamp, np.fromiter(payload, np.int64, n),
                      np.fromiter(payload.values(), np.float64, n), sparse_codec_size(n))
        self.log.append(upd)
        for p in range(self.P):
            if p != worker:
                owed = self.owed[p].get(timestamp)
                if owed is None:
                    self.owed[p][timestamp] = {upd.seq}
                else:
                    owed.add(upd.seq)
                if timestamp <= self.clocks[p] - self.staleness - 1:  # p's horizon
                    self._missing[p] += 1
        np.add.at(self.views[worker], upd.keys, upd.vals)
        self._emit("commit", worker, seq=upd.seq, timestamp=timestamp,
                   key_count=n, nbytes=upd.nbytes)
        return upd.seq

    def advance_clock(self, worker: int) -> bool:
        """End the worker's current clock period. Returns True if the worker
        must now wait for stragglers before computing again."""
        self._check_worker(worker)
        if self.finished[worker]:
            raise ProtocolError(f"worker {worker} already finished")
        clock = self.clocks[worker] = self.clocks[worker] + 1
        at = self._at_clock
        if clock == len(at):
            at.append(0)
        at[clock - 1] -= 1
        at[clock] += 1
        if not at[self._low]:  # it was the last worker at the minimum clock
            self._low = clock
        horizon = clock - self.staleness - 1
        self._missing[worker] += len(self.owed[worker].get(horizon, ()))
        self._emit("clock", worker)
        if clock - self._low > self.staleness:
            self.blocked[worker] = True
            self._emit("block", worker)
            return True
        return False

    def release_unblocked(self) -> list[int]:
        """Clear the blocked flag for workers whose gap has closed."""
        if True not in self.blocked:
            return []
        limit = self.min_clock() + self.staleness
        released = []
        for p in range(self.P):
            if self.blocked[p] and self.clocks[p] <= limit:
                self.blocked[p] = False
                self._emit("unblock", p)
                released.append(p)
        return released

    def deliver(self, worker: int, seqs: list[int]) -> None:
        """Record that one message's foreign commits `seqs`, which share one
        timestamp, have arrived at `worker`; a faulty message changes nothing."""
        log, n = self.log, len(seqs)
        if not (0 <= worker < self.P and seqs and 0 <= seqs[0] < len(log)):
            raise ProtocolError(f"invalid worker id {worker} or seq in {seqs}")
        ts = log[seqs[0]].timestamp
        owed = self.owed[worker].get(ts)
        # a seq out of range, of another timestamp, the worker's own or
        # already arrived is not owed
        if owed is None or (seqs[0] not in owed if n == 1 else
                            not owed.issuperset(seqs) or len(set(seqs)) < n):
            raise ProtocolError(f"seqs {seqs} are not owed to worker {worker} "
                                f"at timestamp {ts}")
        if ts <= self.clocks[worker] - self.staleness - 1:  # horizon
            if self._missing[worker] < n:
                raise StateCorruptionError(
                    f"{n} required seqs arrived at worker {worker}, whose count of "
                    f"required commits in flight is {self._missing[worker]}")
            self._missing[worker] -= n
        if n == 1:  # every halton and full P2P message
            owed.remove(seqs[0])
            self.arrived[worker].add(seqs[0])
        else:
            owed.difference_update(seqs)
            self.arrived[worker].update(seqs)
        if not owed:
            del self.owed[worker][ts]

    def catch_up(self, worker: int) -> list[_Update]:
        """Fold every arrived foreign update into the worker's view, in commit
        order, and return them: those the protocol obliges it to see
        (timestamp <= t_p - staleness - 1) and any fresher ones."""
        self._check_worker(worker)
        arrived, log = self.arrived[worker], self.log
        if not arrived:
            return []
        applied = [log[seq] for seq in sorted(arrived)]
        arrived.clear()
        append, tick, clock = self._append, self.tick, self.clocks[worker]
        for upd in applied:
            append((tick, "apply", worker, clock, upd.seq, upd.timestamp,
                    len(upd.keys), upd.nbytes))
        np.add.at(self.views[worker], np.concatenate([u.keys for u in applied]),
                  np.concatenate([u.vals for u in applied]))
        return applied

    # One body under two names. perfbench/probe.py patches both names, so a
    # call through either is timed once as `ssp.apply`; a method that called
    # the other would be timed and counted twice.
    apply_pending = catch_up

    def missing_required(self, worker: int) -> int:
        """How many foreign commits the protocol obliges this worker to see
        are still owed to it."""
        if not 0 <= worker < self.P:  # not `_check_worker`: runs per delivery
            raise ProtocolError(f"invalid worker id {worker}")
        return self._missing[worker]

    def would_block_if_advanced(self, worker: int) -> bool:
        self._check_worker(worker)
        return self.clocks[worker] + 1 - self.min_clock() > self.staleness

    def read(self, worker: int) -> np.ndarray:
        """Snapshot meeting the staleness guarantee once `missing_required` is 0."""
        self._check_worker(worker)
        self.catch_up(worker)
        self._emit("read", worker)
        return self.views[worker].copy()

    def finish(self, worker: int) -> None:
        """Mark a worker done; its clock stops counting toward the minimum."""
        self._check_worker(worker)
        if not self.finished[worker]:
            at = self._at_clock
            at[self.clocks[worker]] -= 1
            while not at[self._low] and self._low < len(at) - 1:
                self._low += 1
        self.finished[worker] = True
        self.blocked[worker] = False
        self._emit("finish", worker)

    def _check_worker(self, worker: int) -> None:
        if not (0 <= worker < self.P):
            raise ProtocolError(f"invalid worker id {worker}")


# ---------------------------------------------------------------------------
# independent trace checker


@dataclass
class InvariantReport:
    ok: bool
    violations: list[str]


def check_staleness_invariants(trace: Trace, staleness: int, P: int) -> InvariantReport:
    """Replay a trace and verify the bounded-staleness protocol.

    Checked, independently of any store internals:

    1. bounded clock drift: no worker computes (commits or reads) at clock t
       while an unfinished worker sits below t - staleness;
    2. every update's timestamp equals its writer's clock at commit time;
    3. state guarantee: at each read by a worker at clock t, every committed
       update with timestamp <= t - staleness - 1 has been applied at that
       worker (extra fresher applies are fine);
    4. read-my-writes: a worker's own commits are visible to it immediately,
       so they must never appear in its applied-from-others stream.
    """
    violations: list[str] = []
    clocks = [0] * P
    finished = [False] * P
    blocked = [False] * P
    committed: dict[int, int] = {}  # seq -> writer
    applied: list[set[int]] = [set() for _ in range(P)]
    # per worker, committed foreign seqs not yet applied there (small, since
    # workers catch up every clock; avoids rescanning all commits per read)
    outstanding: list[dict[int, int]] = [dict() for _ in range(P)]  # seq -> ts

    def active_min() -> int:
        active = [clocks[p] for p in range(P) if not finished[p]]
        return min(active) if active else max(clocks)

    table = trace.table()
    # only protocol rows are replayed; each keeps its index in the whole trace
    rows = np.flatnonzero(np.isin(table["event"], [_CODE[e] for e in _PROTOCOL_EVENTS]))
    columns = [table[name][rows].tolist()
               for name in ("event", "worker", "clock", "seq", "timestamp")]
    columns[0] = list(map(_EVENTS.__getitem__, columns[0]))
    for i, event, w, clock, seq, ts in zip(rows.tolist(), *columns):
        if not (0 <= w < P):
            violations.append(f"event {i}: worker {w} out of range")
            continue
        if event == "clock":
            clocks[w] += 1
            if clock != clocks[w]:
                violations.append(
                    f"event {i}: worker {w} clock field {clock} != "
                    f"replayed clock {clocks[w]}"
                )
        elif event == "block":
            blocked[w] = True
        elif event == "unblock":
            if clocks[w] - active_min() > staleness:
                violations.append(
                    f"event {i}: worker {w} unblocked at clock {clocks[w]} "
                    f"while min clock is {active_min()}"
                )
            blocked[w] = False
        elif event == "finish":
            finished[w] = True
        elif event == "commit":
            if blocked[w]:
                violations.append(f"event {i}: worker {w} committed while blocked")
            if ts != clocks[w]:
                violations.append(
                    f"event {i}: commit timestamp {ts} != worker "
                    f"{w} clock {clocks[w]}"
                )
            if clocks[w] - active_min() > staleness:
                violations.append(
                    f"event {i}: worker {w} computing at clock {clocks[w]} "
                    f"while min clock is {active_min()} (bound {staleness})"
                )
            if seq in committed:
                violations.append(f"event {i}: duplicate commit seq {seq}")
            committed[seq] = w
            for p in range(P):
                if p != w:
                    outstanding[p][seq] = ts
        elif event == "apply":
            if seq not in committed:
                violations.append(f"event {i}: applied unknown seq {seq}")
                continue
            if committed[seq] == w:
                violations.append(
                    f"event {i}: worker {w} re-applied its own seq {seq} "
                    "(own writes must already be visible)"
                )
            if seq in applied[w]:
                violations.append(f"event {i}: worker {w} double-applied seq {seq}")
            applied[w].add(seq)
            outstanding[w].pop(seq, None)
        elif event == "read":
            if blocked[w]:
                violations.append(f"event {i}: worker {w} read while blocked")
            horizon = clocks[w] - staleness - 1
            for pending, pending_ts in outstanding[w].items():
                if pending_ts <= horizon:
                    violations.append(
                        f"event {i}: worker {w} read at clock {clocks[w]} "
                        f"missing required update seq {pending} (timestamp {pending_ts})"
                    )

    return InvariantReport(ok=not violations, violations=violations)


@dataclass
class ReplayCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class ReplayReport:
    checks: list[ReplayCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            lines.append(f"{status} {c.name}: {c.detail}")
        return "\n".join(lines) + "\n"


def replay(trace: Trace, staleness: int, P: int) -> ReplayReport:
    """Re-verify a recorded trace without consulting any simulator state."""
    checks: list[ReplayCheck] = []
    table = trace.table()
    event = table["event"]

    # well-formedness: ticks non-decreasing
    tick = table["tick"]
    back = np.flatnonzero(tick[1:] < tick[:-1])
    bad = int(back[0]) + 1 if len(back) else None
    checks.append(ReplayCheck(
        "ticks_non_decreasing", bad is None,
        "ok" if bad is None else f"first violation at event {bad}",
    ))

    # every block is matched by an unblock or the worker finishes
    blocked: dict[int, int] = {}
    finished: set[int] = set()
    pair_bad = None
    rows = np.flatnonzero(np.isin(event, [_CODE["block"], _CODE["unblock"], _CODE["finish"]]))
    for i, name, worker in zip(rows.tolist(), map(_EVENTS.__getitem__, event[rows].tolist()),
                               table["worker"][rows].tolist()):
        if name == "block":
            if worker in blocked:
                pair_bad = i
                break
            blocked[worker] = i
        elif name == "unblock":
            if worker not in blocked:
                pair_bad = i
                break
            del blocked[worker]
        else:
            finished.add(worker)
            blocked.pop(worker, None)
    dangling = [w for w in blocked if w not in finished]
    ok = pair_bad is None and not dangling
    checks.append(ReplayCheck(
        "block_unblock_matched", ok,
        "ok" if ok else (
            f"first violation at event {pair_bad}" if pair_bad is not None
            else f"workers left blocked: {sorted(dangling)}"
        ),
    ))

    # every message send has a matching delivery: per id, the sends are
    # half of its message rows
    sent = event == _CODE["msg_send"]
    rows = sent | (event == _CODE["msg_deliver"])
    ids, inverse = np.unique(table["seq"][rows], return_inverse=True)
    sends = np.bincount(inverse[sent[rows]], minlength=len(ids))
    unmatched = ids[2 * sends != np.bincount(inverse, minlength=len(ids))].tolist()
    checks.append(ReplayCheck(
        "messages_delivered", not unmatched,
        "ok" if not unmatched else f"unmatched message ids: {unmatched[:5]}",
    ))

    report = check_staleness_invariants(trace, staleness, P)
    checks.append(ReplayCheck(
        "staleness_protocol", report.ok,
        "ok" if report.ok else report.violations[0],
    ))
    return ReplayReport(checks)
