import gc
import tracemalloc

import numpy as np
import pytest

from icflow import ssp
from icflow.engine import apply_sparse
from icflow.errors import ProtocolError, TraceParseError
from icflow.simcluster import FuzzWorkload, SimCluster, SimConfig, run_simulation
from icflow.ssp import (
    TRACE_HEADER,
    SspCore,
    Trace,
    TraceEvent,
    check_staleness_invariants,
    replay,
)


def test_trace_event_round_trip():
    e = TraceEvent(5, "commit", 2, 3, 7, 3, 4, 73)
    line = Trace([e]).to_text().splitlines()[1]
    assert TraceEvent.from_line(line) == e


def test_trace_text_round_trip():
    tr = Trace([
        TraceEvent(0, "clock", 0, 1, 0, 0, 0, 0),
        TraceEvent(1, "commit", 1, 0, 0, 0, 2, 49),
    ])
    back = Trace.from_text(tr.to_text())
    assert back.events == tr.events
    # events is a view built afresh on each read, never the trace's record
    assert tr.events is not tr.events and back.events is not back.events


def test_trace_parse_errors_carry_line_numbers():
    with pytest.raises(TraceParseError):
        Trace.from_text("")
    with pytest.raises(TraceParseError) as e:
        Trace.from_text("bad header\n")
    assert e.value.line_number == 1
    header = Trace([]).to_text()
    with pytest.raises(TraceParseError) as e:
        Trace.from_text(header + "1,clock,0\n")
    assert e.value.line_number == 2
    with pytest.raises(TraceParseError):
        Trace.from_text(header + "1,teleport,0,0,0,0,0,0\n")
    with pytest.raises(TraceParseError):
        Trace.from_text(header + "x,clock,0,0,0,0,0,0\n")


def _line_by_line(text):
    """The parse before the column table: one TraceEvent per line."""
    lines = text.splitlines()
    if not lines:
        raise TraceParseError(0, "empty trace")
    if lines[0].strip() != TRACE_HEADER:
        raise TraceParseError(1, f"bad header {lines[0]!r}")
    events = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        events.append(TraceEvent.from_line(line, i))
    return events


def _parse_outcome(parse, text):
    try:
        return "ok", list(parse(text))
    except TraceParseError as e:
        return "error", (e.line_number, str(e))


ROW = "3,clock,1,2,0,0,0,0"
# body -> whether the column table must read it (else the line-by-line parse)
PARSE_CASES = {
    "plain": (f"{ROW}\n0,commit,0,0,7,0,2,49\n", True),
    "crlf": (f"{ROW}\r\n{ROW}\r\n", True),
    "blank lines": (f"\n{ROW}\n\n{ROW}\n", True),
    "spaces around integers": (" 3 ,clock, 1 ,2,0 , 0,0,0 \n", True),
    "plus sign": ("+3,clock,+1,2,0,0,0,0\n", True),
    "negative": ("-3,clock,-1,2,0,0,0,-9223372036854775808\n", True),
    "whitespace-only line": (f"{ROW}\n   \n{ROW}\n", False),
    "comment line": (f"# note\n{ROW}\n", False),
    "comment after a row": (f"{ROW}\n#x,clock,1,2,0,0,0,0\n", False),
    "underscore": ("1_0,clock,1,2,0,0,0,0\n", False),
    "decimal point": ("1.0,clock,1,2,0,0,0,0\n", False),
    "beyond int64": (f"{ROW}\n9223372036854775808,clock,1,2,0,0,0,0\n", False),
    "far beyond int64": ("3,clock,1,2,0,0,0,-" + "9" * 40 + "\n", False),
    "7 fields": (f"{ROW}\n3,clock,1,2,0,0,0\n", False),
    "9 fields": ("3,clock,1,2,0,0,0,0,0\n", False),
    "trailing space in name": ("3,clock ,1,2,0,0,0,0\n", False),
    "leading space in name": ("3, clock,1,2,0,0,0,0\n", False),
    "unknown name": (f"{ROW}\n3,teleport,1,2,0,0,0,0\n", False),
    "name one wider than the widest": ("3,compute_start_,1,2,0,0,0,0\n", False),
    "name longer than the widest": ("3,compute_startstart,1,2,0,0,0,0\n", False),
    "NUL after name": ("3,clock\x00,1,2,0,0,0,0\n", False),
    "unit separator around integer": ("3,clock,\x1f1\x1f,2,0,0,0,0\n", False),
    "non-ASCII letter as digit": ("\u01fe3,clock,1,2,0,0,0,0\n", False),
    "non-ASCII digit": ("\u0663,clock,1,2,0,0,0,0\n", False),
    "empty field": ("3,clock,,2,0,0,0,0\n", False),
    "header only": ("", False),
    "empty body": ("\n\n", False),
}


def test_table_parse_matches_line_by_line_parse():
    for name, (body, tabled) in PARSE_CASES.items():
        text = TRACE_HEADER + "\n" + body
        assert (ssp._read_table(text, text.splitlines()[1:]) is not None) == tabled, name
        assert _parse_outcome(lambda t: Trace.from_text(t).events, text) == \
            _parse_outcome(_line_by_line, text), name
    for text in ("", "\n", "bad header\n" + ROW, TRACE_HEADER):
        assert _parse_outcome(lambda t: Trace.from_text(t).events, text) == \
            _parse_outcome(_line_by_line, text), repr(text)


def test_table_parse_round_trips_a_simulator_trace():
    # P-1 link sends per halton commit: 60 clocks give at least 10,000 events
    res = run_simulation(FuzzWorkload(48, 8, seed=3),
                         SimConfig(P=8, staleness=2, topology="halton", max_clocks=60))
    assert len(res.trace) >= 10_000
    text = res.trace.to_text()
    parsed = Trace.from_text(text)
    assert ssp._read_table(text, text.splitlines()[1:]) is not None
    assert len(parsed) == len(res.trace)
    assert np.array_equal(parsed.table(), res.trace.table())
    assert parsed.events == res.trace.events == _line_by_line(text)
    assert parsed.to_text() == text


def _halton_fuzz_run(max_clocks):
    return run_simulation(FuzzWorkload(48, 8, seed=3),
                          SimConfig(P=8, staleness=2, topology="halton",
                                    max_clocks=max_clocks))


def test_a_run_trace_holds_under_90_bytes_per_event():
    # a row of 8 fields in one flat list costs 64 bytes and the list's
    # slack; a tuple per event costs about 120 bytes
    _halton_fuzz_run(2)  # the first run's imports are not the trace's
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = _halton_fuzz_run(60).trace
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(trace) >= 10_000
    assert held / len(trace) < 90, held / len(trace)


def test_a_trace_written_to_a_file_is_never_held_whole(tmp_path):
    trace = _halton_fuzz_run(60).trace
    assert len(trace) > 2 * ssp._CHUNK_ROWS
    text = trace.to_text()
    path = tmp_path / "trace.txt"
    with open(path, "w") as f:
        tracemalloc.start()
        try:
            assert trace.to_text(f) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < len(text) / 2, (peak, len(text))
    assert path.read_text() == text


def test_replay_builds_the_table_of_an_in_memory_trace_once(monkeypatch):
    sim = SimCluster(FuzzWorkload(24, 4, seed=1), SimConfig(P=4, staleness=1, max_clocks=4))
    trace = sim.run().trace
    built = []
    table = Trace.table

    def counted(self):
        built.append(self._table is None)
        return table(self)

    monkeypatch.setattr(Trace, "table", counted)
    assert replay(trace, 1, 4).ok
    assert len(built) >= 2 and built.count(True) == 1
    first = trace.table()
    assert trace.table() is first
    # an append through the store drops the cached table
    sim.store.finish(0)
    assert trace.table() is not first and len(trace.table()) == len(first) + 1
    assert trace.table()["event"][-1] == "finish"


def test_commit_requires_current_clock_timestamp():
    store = SspCore(P=2, staleness=1, m=4)
    store.commit(0, {0: 1.0}, timestamp=0)
    with pytest.raises(ProtocolError):
        store.commit(0, {0: 1.0}, timestamp=3)
    with pytest.raises(ProtocolError):
        store.commit(5, {0: 1.0}, timestamp=0)


def test_read_my_writes_is_immediate():
    store = SspCore(P=2, staleness=3, m=4)
    store.commit(0, {1: 2.5}, timestamp=0)
    assert store.read(0)[1] == 2.5
    # the other worker is not obliged to see it yet at clock 0
    assert store.read(1)[1] == 0.0


def test_catch_up_applies_the_required_horizon_and_fresher_arrivals():
    store = SspCore(P=2, staleness=1, m=4)
    store.deliver(1, store.commit(0, {0: 1.0}, timestamp=0))
    store.advance_clock(0)
    store.deliver(1, store.commit(0, {0: 10.0}, timestamp=1))
    # reader at clock 2 with s=1 must see timestamps <= 0 and may see more:
    # both arrived commits are folded in, in commit order
    store.advance_clock(1)
    store.advance_clock(1)
    assert store.missing_required(1) == 0
    applied = store.catch_up(1)
    assert [u.timestamp for u in applied] == [0, 1]
    assert store.views[1][0] == 11.0
    # one apply body under both names, and nothing is left for it
    assert SspCore.apply_pending is SspCore.catch_up
    assert store.apply_pending(1) == [] and store.arrived[1] == set()


def test_catch_up_applies_what_arrived_and_leaves_the_rest_in_flight():
    store = SspCore(P=3, staleness=1, m=4)
    old = [store.commit(p, {p: 1.0}, 0) for p in (0, 1)]
    for p in (0, 1):
        store.advance_clock(p)
    new = [store.commit(p, {p: 10.0}, 1) for p in (0, 1)]
    store.advance_clock(2)
    store.advance_clock(2)
    # worker 2 at clock 2 must see timestamps <= 0; of those only old[1] has
    # arrived, and the fresher new[0] has arrived too
    for seq in (new[0], old[1]):
        store.deliver(2, seq)
    applied = store.catch_up(2)
    assert [u.seq for u in applied] == [old[1], new[0]]
    assert store.arrived[2] == set()
    assert store.missing_required(2) == 1  # old[0]
    assert store.in_flight[2] == {0: 1, 1: 1}  # old[0] and new[1]
    assert list(store.views[2]) == [10.0, 1.0, 0.0, 0.0]
    assert [e.seq for e in store.trace if e.event == "apply"] == [old[1], new[0]]


def test_gate_queries_reject_an_invalid_worker():
    store = SspCore(P=3, staleness=0, m=2)
    store.commit(0, {0: 1.0}, 0)
    # worker -1 once answered for worker 2, and worker 3 raised an IndexError
    for query in (store.missing_required, store.would_block_if_advanced):
        for worker in (-1, 3):
            with pytest.raises(ProtocolError, match="invalid worker id"):
                query(worker)
    assert store.missing_required(2) == 0 and store.would_block_if_advanced(2)


def test_release_unblocked_takes_the_clock_minimum_once(monkeypatch):
    store = SspCore(P=8, staleness=0, m=2)
    assert [store.advance_clock(p) for p in range(7)] == [True] * 7
    calls = []
    min_clock = store.min_clock
    monkeypatch.setattr(store, "min_clock", lambda: calls.append(1) or min_clock())
    assert store.release_unblocked() == []
    assert store.advance_clock(7) is False
    calls.clear()
    assert store.release_unblocked() == list(range(7))
    assert len(calls) == 1


def test_blocking_at_the_staleness_bound():
    store = SspCore(P=2, staleness=1, m=2)
    assert store.advance_clock(0) is False  # gap 1 <= s
    assert store.advance_clock(0) is True  # gap 2 > s, blocks
    assert store.blocked[0]
    assert store.release_unblocked() == []
    store.advance_clock(1)
    assert store.release_unblocked() == [0]
    assert not store.blocked[0]


def test_zero_staleness_is_lock_step():
    store = SspCore(P=3, staleness=0, m=2)
    assert store.advance_clock(0) is True
    assert store.advance_clock(1) is True
    assert store.advance_clock(2) is False  # last one through the barrier
    assert store.release_unblocked() == [0, 1]


def test_finished_workers_do_not_hold_the_minimum():
    store = SspCore(P=2, staleness=0, m=2)
    store.advance_clock(0)
    store.finish(0)
    assert store.min_clock() == 0
    assert store.advance_clock(1) is False
    assert store.min_clock() == 1


def test_snapshot_includes_all_commits():
    store = SspCore(P=2, staleness=2, m=3)
    store.commit(0, {0: 1.0}, 0)
    store.commit(1, {0: 2.0, 2: -1.0}, 0)
    state = np.zeros(3)
    for upd in store.log:
        apply_sparse(state, dict(zip(upd.keys.tolist(), upd.vals.tolist())))
    assert np.array_equal(state, np.array([3.0, 0.0, -1.0]))


def test_missing_required_reflects_undelivered_updates():
    store = SspCore(P=2, staleness=0, m=2)
    seq = store.commit(0, {0: 1.0}, 0)
    store.advance_clock(1)
    assert store.missing_required(1) == 1
    store.deliver(1, seq)
    assert store.missing_required(1) == 0


def test_arrival_order_does_not_change_apply_order():
    store = SspCore(P=2, staleness=0, m=2)
    for k in range(10):
        store.commit(0, {0: 2.0 ** k}, 0)
    # seqs 9 and 1 arrive newest first; they share a slot of a small set, so
    # applying in the arrived set's own order would apply 9 before 1
    store.deliver(1, 9)
    store.deliver(1, 1)
    assert [u.seq for u in store.apply_pending(1)] == [1, 9]
    assert [e.seq for e in store.trace if e.event == "apply"] == [1, 9]
    assert store.in_flight[1] == {0: 8} and store.arrived[1] == set()


def test_deliver_rejects_what_is_not_in_flight():
    store = SspCore(P=2, staleness=0, m=2)
    seq = store.commit(0, {0: 1.0}, 0)
    with pytest.raises(ProtocolError):
        store.deliver(0, seq)  # a worker's own commit never travels to it
    store.deliver(1, seq)
    with pytest.raises(ProtocolError):
        store.deliver(1, seq)


def test_deliver_rejects_an_invalid_worker_or_seq_before_any_change():
    store = SspCore(P=3, staleness=0, m=2)
    seq = store.commit(0, {0: 1.0}, 0)
    arrived = [set(a) for a in store.arrived]
    in_flight = [dict(f) for f in store.in_flight]
    # -1 once recorded an arrival at worker 2, and seq -1 a KeyError at the
    # next apply; worker 3 and seq 1 ended in an IndexError
    for worker, bad in ((-1, seq), (3, seq), (1, -1), (1, 1)):
        with pytest.raises(ProtocolError, match="invalid"):
            store.deliver(worker, bad)
        assert store.arrived == arrived and store.in_flight == in_flight
    store.deliver(2, seq)
    assert [u.seq for u in store.apply_pending(2)] == [seq]


def run_two_workers(staleness, rounds):
    store = SspCore(P=2, staleness=staleness, m=4)
    # interleave worker passes; worker 1 runs two clocks behind when allowed
    for t in range(rounds):
        for p in (0, 1):
            store.set_tick(t)
            store.read(p)
            store.deliver(1 - p, store.commit(p, {p: 1.0}, store.clocks[p]))
            store.advance_clock(p)
            store.release_unblocked()
    for p in (0, 1):
        store.finish(p)
    return store.trace


def test_checker_accepts_protocol_respecting_trace():
    for s in (0, 1, 3):
        report = check_staleness_invariants(run_two_workers(s, 6), s, 2)
        assert report.ok, report.violations


def test_checker_flags_forged_clock_gap():
    trace = run_two_workers(1, 4)
    # forge: extra clock events push worker 0 beyond the bound, then a commit
    # (with the finish events stripped so both workers still gate the minimum)
    forged = [e for e in trace if e.event != "finish"] + [
        TraceEvent(99, "clock", 0, 5, 0, 0, 0, 0),
        TraceEvent(99, "clock", 0, 6, 0, 0, 0, 0),
        TraceEvent(99, "commit", 0, 6, 50, 6, 1, 37),
    ]
    report = check_staleness_invariants(Trace(forged), 1, 2)
    assert not report.ok
    assert any("while min clock" in v for v in report.violations)


def test_checker_flags_missing_required_update():
    store = SspCore(P=2, staleness=0, m=2)
    store.commit(0, {0: 1.0}, 0)
    store.advance_clock(0)
    store.advance_clock(1)
    store.release_unblocked()
    # worker 1 reads at clock 1 without catching up first: protocol violation
    store._emit("read", 1)
    report = check_staleness_invariants(store.trace, 0, 2)
    assert not report.ok
    assert any("missing required update" in v for v in report.violations)


def test_checker_flags_self_apply_and_double_apply():
    base = run_two_workers(1, 3)
    commit = next(e for e in base if e.event == "commit")
    selfish = base.events + [TraceEvent(99, "apply", commit.worker, 3, commit.seq,
                                        commit.timestamp, 1, 37)]
    report = check_staleness_invariants(Trace(selfish), 1, 2)
    assert any("its own seq" in v for v in report.violations)

    other = 1 - commit.worker
    doubled = base.events + [TraceEvent(99, "apply", other, 3, commit.seq,
                                        commit.timestamp, 1, 37)]
    report = check_staleness_invariants(Trace(doubled), 1, 2)
    assert any("double-applied" in v for v in report.violations)


def test_checker_flags_bad_commit_timestamp():
    trace = Trace([TraceEvent(0, "commit", 0, 0, 0, 4, 1, 37)])
    report = check_staleness_invariants(trace, 2, 1)
    assert any("timestamp" in v for v in report.violations)
