"""Bounded-staleness parameter store.

Workers commit timestamped sparse updates and advance a per-worker clock. A
foreign update becomes visible to a worker once it has arrived there. A worker
at clock t waits for and sees every update with timestamp at or before
t - s - 1 (s is the staleness bound) plus all of its own writes; it may
additionally see newer updates from others that have arrived. A worker that
runs more than s clocks ahead of the slowest one blocks until the gap closes.
With s = 0 the protocol degenerates to fully synchronous lock-step execution.

All store activity can be recorded as a trace (one CSV line per event) that an
independent checker replays to verify the protocol guarantees. The whole
checker lives here (`check_staleness_invariants`, and `replay`, which `icflow
replay` runs), and it imports no simulator.
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

_EVENTS = {
    "commit", "clock", "block", "unblock", "read", "apply", "finish",
    "compute_start", "compute_end", "msg_send", "msg_deliver",
}
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
        if parts[1] not in _EVENTS:
            raise TraceParseError(line_number, f"unknown event {parts[1]!r}")
        try:
            nums = [int(parts[i]) for i in (0, 2, 3, 4, 5, 6, 7)]
        except ValueError as e:
            raise TraceParseError(line_number, str(e)) from None
        return cls(nums[0], parts[1], nums[1], nums[2], nums[3], nums[4], nums[5], nums[6])


TRACE_HEADER = ",".join(TraceEvent._fields)
_ROW_FORMAT = ",".join(["%s"] * len(TraceEvent._fields)) + "\n"
_CHUNK_ROWS = 1024  # rows per piece of text that `Trace.to_text` writes

# A trace as a column table: one record per event, one field per TraceEvent
# field. The event name is one character wider than the longest known name,
# so a longer name is cut to a still unknown one, never to a known one.
_TABLE_DTYPE = np.dtype([
    (name, f"<U{max(map(len, _EVENTS)) + 1}" if name == "event" else np.int64)
    for name in TraceEvent._fields
])
# the same with Python integers, for a trace holding one beyond int64
_WIDE_TABLE_DTYPE = np.dtype([
    (name, _TABLE_DTYPE[name] if name == "event" else object)
    for name in TraceEvent._fields
])
_EVENT_NAMES = np.array(sorted(_EVENTS))
# The characters of a well-formed trace. np.loadtxt reads some other text
# differently from int() and str (non-ASCII characters as digits, "\x1f" as
# blank space, trailing NULs dropped), so such text is parsed line by line.
_TABLE_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz_,+- \t\r\n"


def _read_table(text: str, body: list[str]) -> Optional[np.ndarray]:
    """The trace body as a column table in one pass, or None if any line is
    not a well-formed event; `TraceEvent.from_line` then decides, line by
    line, whether and where the text is malformed."""
    if not text.isascii() or text.encode("ascii").translate(None, _TABLE_CHARS):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(body, dtype=_TABLE_DTYPE, delimiter=",",
                               comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    if not np.isin(table["event"], _EVENT_NAMES).all():
        return None
    return table


class Trace:
    """An ordered event log with CSV round-tripping, held as one record.

    A trace that the store and the simulator build is one flat list, which
    they extend by each event's 8 fields in ``TraceEvent`` order (70-85
    bytes an event, against 115-130 for a tuple). A trace read by
    ``from_text`` is a column table (see ``table``) and has no flat list, so
    nothing appends to it. ``events`` builds new ``TraceEvent`` objects on
    each read. The table of a built trace is rebuilt when the trace's length
    has changed since it was built."""

    def __init__(self, events: Iterable[TraceEvent] = ()):
        self._flat: Optional[list] = list(chain.from_iterable(events))
        self._table: Optional[np.ndarray] = None

    @property
    def events(self) -> list[TraceEvent]:
        return list(map(TraceEvent._make, zip(*[self._fields()] * 8)))

    def _fields(self):
        """The fields of every event, in trace order, as one iterator."""
        if self._flat is None:
            return chain.from_iterable(self._table.tolist())
        return iter(self._flat)

    def table(self) -> np.ndarray:
        """The events as a structured array with one field per TraceEvent
        field, in trace order."""
        if self._table is None or len(self._table) != len(self):
            rows = list(zip(*[self._fields()] * 8))
            try:
                self._table = np.array(rows, dtype=_TABLE_DTYPE)
            except OverflowError:
                self._table = np.array(rows, dtype=_WIDE_TABLE_DTYPE)
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
        table = _read_table(text, lines[1:])
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

    The caller owns the notion of time (``tick``) and the network: ``deliver``
    records that a foreign update has arrived at a worker, and only arrived
    updates are applied. ``catch_up`` applies every arrived one (a read may
    be fresher than required); ``missing_required`` counts the ones the
    protocol obliges a worker to see that are still in flight.
    Updates are kept as key and value arrays; one ``np.add.at`` per apply
    adds them in commit order, so each element's additions come in that order.
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
        self.views = [np.zeros(m) for _ in range(P)]
        self.log: list[_Update] = []
        # per worker: foreign seqs that have arrived and are not yet applied
        self.arrived: list[set[int]] = [set() for _ in range(P)]
        # per worker: timestamp -> number of foreign commits not yet arrived
        self.in_flight: list[dict[int, int]] = [{} for _ in range(P)]
        # per worker: how many of those it is obliged to see, the ones with a
        # timestamp at or before its horizon, clock - staleness - 1
        self._missing = [0] * P
        self._append = self.trace._flat.extend  # the one path for trace rows

    # -- event helpers ------------------------------------------------------

    def _emit(self, event: str, worker: int, seq: int = 0, timestamp: int = 0,
              key_count: int = 0, nbytes: int = 0) -> None:
        self._append((self.tick, event, worker, self.clocks[worker], seq,
                      timestamp, key_count, nbytes))

    def set_tick(self, tick: int) -> None:
        self.tick = tick

    # -- protocol -----------------------------------------------------------

    def min_clock(self) -> int:
        """Minimum clock over unfinished workers; finished ones do not hold
        anyone back."""
        active = [self.clocks[p] for p in range(self.P) if not self.finished[p]]
        if not active:
            return max(self.clocks)
        return min(active)

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
                flight = self.in_flight[p]
                flight[timestamp] = flight.get(timestamp, 0) + 1
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
        self.clocks[worker] += 1
        horizon = self.clocks[worker] - self.staleness - 1
        self._missing[worker] += self.in_flight[worker].get(horizon, 0)
        self._emit("clock", worker)
        if self.would_block(worker):
            self.blocked[worker] = True
            self._emit("block", worker)
            return True
        return False

    def would_block(self, worker: int) -> bool:
        return self.clocks[worker] - self.min_clock() > self.staleness

    def release_unblocked(self) -> list[int]:
        """Clear the blocked flag for workers whose gap has closed."""
        limit = self.min_clock() + self.staleness
        released = []
        for p in range(self.P):
            if self.blocked[p] and self.clocks[p] <= limit:
                self.blocked[p] = False
                self._emit("unblock", p)
                released.append(p)
        return released

    def deliver(self, worker: int, seq: int) -> _Update:
        """Record that foreign commit `seq` has arrived at `worker`."""
        if not 0 <= worker < self.P:
            raise ProtocolError(f"invalid worker id {worker}")
        if not 0 <= seq < len(self.log):
            raise ProtocolError(f"invalid seq {seq}")
        upd = self.log[seq]
        flight = self.in_flight[worker]
        left = flight.pop(upd.timestamp, 0) - 1
        if left < 0 or upd.worker == worker:
            raise ProtocolError(f"seq {seq} is not in flight to worker {worker}")
        if left:
            flight[upd.timestamp] = left
        if upd.timestamp <= self.clocks[worker] - self.staleness - 1:  # horizon
            if not self._missing[worker]:
                raise StateCorruptionError(f"seq {seq} arrived at worker {worker}, "
                                           "whose count of required commits in flight is 0")
            self._missing[worker] -= 1
        self.arrived[worker].add(seq)
        return upd

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
        for upd in applied:
            self._emit("apply", worker, upd.seq, upd.timestamp, len(upd.keys), upd.nbytes)
        np.add.at(self.views[worker], np.concatenate([u.keys for u in applied]),
                  np.concatenate([u.vals for u in applied]))
        return applied

    # One body under two names. perfbench/probe.py patches both names, so a
    # call through either is timed once as `ssp.apply`; a method that called
    # the other would be timed and counted twice.
    apply_pending = catch_up

    def missing_required(self, worker: int) -> int:
        """How many foreign commits the protocol obliges this worker to see
        are still in flight to it."""
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
    rows = np.flatnonzero(np.isin(table["event"], list(_PROTOCOL_EVENTS)))
    columns = [table[name][rows].tolist()
               for name in ("event", "worker", "clock", "seq", "timestamp")]
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


def sorted_union(arrays: list[np.ndarray]) -> np.ndarray:
    """The sorted union of int arrays, by sort and neighbour compare. (Not
    plain `np.unique` or `np.union1d`, whose first call imports `numpy.ma`;
    `np.unique(..., return_counts=True)` does not, on numpy 2.4.6.)"""
    keys = np.sort(np.concatenate(arrays or [np.empty(0, np.int64)]))
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


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
    rows = np.flatnonzero(np.isin(event, ["block", "unblock", "finish"]))
    for i, name, worker in zip(rows.tolist(), event[rows].tolist(),
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

    # every message send has a matching delivery: equal counts per id
    seq = table["seq"]
    sent, n_sent = np.unique(seq[event == "msg_send"], return_counts=True)
    got, n_got = np.unique(seq[event == "msg_deliver"], return_counts=True)
    ids = sorted_union([sent, got])
    counts = np.zeros((2, len(ids)), dtype=np.int64)
    counts[0, np.searchsorted(ids, sent)] = n_sent
    counts[1, np.searchsorted(ids, got)] = n_got
    unmatched = ids[counts[0] != counts[1]].tolist()
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
