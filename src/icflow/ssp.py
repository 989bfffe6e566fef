"""Bounded-staleness parameter store.

Workers commit timestamped sparse updates and advance a per-worker clock. A
foreign update becomes visible to a worker once it has arrived there. A worker
at clock t waits for and sees every update with timestamp at or before
t - s - 1 (s is the staleness bound) plus all of its own writes; it may
additionally see newer updates from others that have arrived. A worker that
runs more than s clocks ahead of the slowest one blocks until the gap closes.
With s = 0 the protocol degenerates to fully synchronous lock-step execution.

All store activity can be recorded as a trace (one CSV line per event) that an
independent checker replays to verify the protocol guarantees.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .engine import apply_sparse
from .errors import ProtocolError, TraceParseError
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

    def to_line(self) -> str:
        return _LINE_FORMAT % self

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
_LINE_FORMAT = ",".join(["%s"] * len(TraceEvent._fields))

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
    """An ordered event log with CSV round-tripping.

    A trace read by ``from_text`` keeps its events as a column table (see
    ``table``) and builds ``TraceEvent`` objects only when ``events`` is
    first asked for; from then on the list is the record. The table is
    built at most once between appends."""

    def __init__(self, events: Optional[list[TraceEvent]] = None):
        self._events: Optional[list[TraceEvent]] = events or []
        self._table: Optional[np.ndarray] = None

    @property
    def events(self) -> list[TraceEvent]:
        if self._events is None:
            self._events = list(map(TraceEvent._make, self._table.tolist()))
        return self._events

    def table(self) -> np.ndarray:
        """The events as a structured array with one field per TraceEvent
        field, in trace order."""
        if self._table is None:
            try:
                self._table = np.array(self._events, dtype=_TABLE_DTYPE)
            except OverflowError:
                self._table = np.array(self._events, dtype=_WIDE_TABLE_DTYPE)
        return self._table

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)
        self._table = None

    def __len__(self) -> int:
        return len(self._table) if self._events is None else len(self._events)

    def __iter__(self):
        return iter(self.events)

    def to_text(self) -> str:
        lines = [TRACE_HEADER]
        lines.extend(e.to_line() for e in self.events)
        return "\n".join(lines) + "\n"

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
            trace._events, trace._table = None, table
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
    payload: dict[int, float]
    nbytes: int  # wire size, set at commit


class SspCore:
    """Single-threaded bounded-staleness store driven by an external clock.

    The caller owns the notion of time (``tick``) and the network: ``deliver``
    records that a foreign update has arrived at a worker, and only arrived
    updates are applied. ``catch_up`` applies those the protocol obliges a
    worker to see, ``apply_pending`` all of them (fresher-than-required reads
    are allowed); ``missing_required`` counts obligatory ones still in flight.
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
        self._seq = 0

    # -- event helpers ------------------------------------------------------

    def _emit(self, event: str, worker: int, seq: int = 0, timestamp: int = 0,
              key_count: int = 0, nbytes: int = 0) -> None:
        self.trace.append(
            TraceEvent(self.tick, event, worker, self.clocks[worker], seq,
                       timestamp, key_count, nbytes)
        )

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
        upd = _Update(self._seq, worker, timestamp, dict(payload),
                      sparse_codec_size(len(payload)))
        self._seq += 1
        self.log.append(upd)
        for p in range(self.P):
            if p != worker:
                flight = self.in_flight[p]
                flight[timestamp] = flight.get(timestamp, 0) + 1
        apply_sparse(self.views[worker], upd.payload)
        self._emit("commit", worker, seq=upd.seq, timestamp=timestamp,
                   key_count=len(upd.payload), nbytes=upd.nbytes)
        return upd.seq

    def advance_clock(self, worker: int) -> bool:
        """End the worker's current clock period. Returns True if the worker
        must now wait for stragglers before computing again."""
        self._check_worker(worker)
        if self.finished[worker]:
            raise ProtocolError(f"worker {worker} already finished")
        self.clocks[worker] += 1
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
        upd = self.log[seq]
        flight = self.in_flight[worker]
        left = flight.pop(upd.timestamp, 0) - 1
        if left < 0 or upd.worker == worker:
            raise ProtocolError(f"seq {seq} is not in flight to worker {worker}")
        if left:
            flight[upd.timestamp] = left
        self.arrived[worker].add(seq)
        return upd

    def catch_up(self, worker: int) -> list[_Update]:
        """Apply the arrived foreign updates the protocol requires this worker
        to see (timestamp <= t_p - staleness - 1) and return them."""
        return self._apply(worker, self._horizon(worker))

    def apply_pending(self, worker: int) -> list[_Update]:
        """Apply every arrived foreign update, however fresh, and return them."""
        self._check_worker(worker)
        return self._apply(worker, None)

    def _horizon(self, worker: int) -> int:
        """Newest timestamp the protocol obliges this worker to see."""
        self._check_worker(worker)
        return self.clocks[worker] - self.staleness - 1

    def _apply(self, worker: int, horizon: Optional[int]) -> list[_Update]:
        """Fold into the worker's view, in commit order, each arrived seq with
        a timestamp <= `horizon` (None: no limit); newer ones stay arrived."""
        arrived = self.arrived[worker]
        applied = [self.log[seq] for seq in sorted(arrived)
                   if horizon is None or self.log[seq].timestamp <= horizon]
        for upd in applied:
            arrived.remove(upd.seq)
            apply_sparse(self.views[worker], upd.payload)
            self._emit("apply", worker, seq=upd.seq, timestamp=upd.timestamp,
                       key_count=len(upd.payload), nbytes=upd.nbytes)
        return applied

    def missing_required(self, worker: int) -> int:
        """How many foreign commits the protocol obliges this worker to see
        are still in flight to it."""
        horizon = self._horizon(worker)
        return sum(n for ts, n in self.in_flight[worker].items() if ts <= horizon)

    def would_block_if_advanced(self, worker: int) -> bool:
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
    max_clock_gap: int
    mean_read_staleness: float


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
    committed: dict[int, TraceEvent] = {}
    applied: list[set[int]] = [set() for _ in range(P)]
    # per worker, committed foreign seqs not yet applied there (small, since
    # workers catch up every clock; avoids rescanning all commits per read)
    outstanding: list[dict[int, int]] = [dict() for _ in range(P)]  # seq -> ts
    max_gap = 0
    read_staleness_sum = 0.0
    read_count = 0

    def active_min() -> int:
        active = [clocks[p] for p in range(P) if not finished[p]]
        return min(active) if active else max(clocks)

    table = trace.table()
    # only protocol rows are replayed; each keeps its index in the whole trace
    rows = np.flatnonzero(np.isin(table["event"], list(_PROTOCOL_EVENTS)))
    for i, ev in zip(rows.tolist(), map(TraceEvent._make, table[rows].tolist())):
        w = ev.worker
        if not (0 <= w < P):
            violations.append(f"event {i}: worker {w} out of range")
            continue
        if ev.event == "clock":
            clocks[w] += 1
            if ev.clock != clocks[w]:
                violations.append(
                    f"event {i}: worker {w} clock field {ev.clock} != "
                    f"replayed clock {clocks[w]}"
                )
            max_gap = max(max_gap, clocks[w] - active_min())
        elif ev.event == "block":
            blocked[w] = True
        elif ev.event == "unblock":
            if clocks[w] - active_min() > staleness:
                violations.append(
                    f"event {i}: worker {w} unblocked at clock {clocks[w]} "
                    f"while min clock is {active_min()}"
                )
            blocked[w] = False
        elif ev.event == "finish":
            finished[w] = True
        elif ev.event == "commit":
            if blocked[w]:
                violations.append(f"event {i}: worker {w} committed while blocked")
            if ev.timestamp != clocks[w]:
                violations.append(
                    f"event {i}: commit timestamp {ev.timestamp} != worker "
                    f"{w} clock {clocks[w]}"
                )
            if clocks[w] - active_min() > staleness:
                violations.append(
                    f"event {i}: worker {w} computing at clock {clocks[w]} "
                    f"while min clock is {active_min()} (bound {staleness})"
                )
            if ev.seq in committed:
                violations.append(f"event {i}: duplicate commit seq {ev.seq}")
            committed[ev.seq] = ev
            for p in range(P):
                if p != w:
                    outstanding[p][ev.seq] = ev.timestamp
        elif ev.event == "apply":
            if ev.seq not in committed:
                violations.append(f"event {i}: applied unknown seq {ev.seq}")
                continue
            src = committed[ev.seq]
            if src.worker == w:
                violations.append(
                    f"event {i}: worker {w} re-applied its own seq {ev.seq} "
                    "(own writes must already be visible)"
                )
            if ev.seq in applied[w]:
                violations.append(f"event {i}: worker {w} double-applied seq {ev.seq}")
            applied[w].add(ev.seq)
            outstanding[w].pop(ev.seq, None)
            read_staleness_sum += clocks[w] - src.timestamp
            read_count += 1
        elif ev.event == "read":
            if blocked[w]:
                violations.append(f"event {i}: worker {w} read while blocked")
            horizon = clocks[w] - staleness - 1
            for seq, ts in outstanding[w].items():
                if ts <= horizon:
                    violations.append(
                        f"event {i}: worker {w} read at clock {clocks[w]} "
                        f"missing required update seq {seq} (timestamp {ts})"
                    )

    return InvariantReport(
        ok=not violations,
        violations=violations,
        max_clock_gap=max_gap,
        mean_read_staleness=read_staleness_sum / read_count if read_count else 0.0,
    )
