import heapq
import math
import random
import signal

import numpy as np
import pytest

from icflow.algorithms.lasso import LassoCDProgram, LassoProblem
from icflow.cli import EXIT_CONFIG, main
from icflow.datasets import gen_lasso
from icflow.engine import (
    FixedBlockScheduler,
    StoppingCriterion,
    apply_sparse,
    run_model_parallel,
)
from icflow.errors import ConfigurationError, StateCorruptionError
from icflow.fabric import OutgoingQueue, sparse_codec_size, traffic_report
from icflow.sap import SapScheduler
from icflow.simcluster import (
    FuzzWorkload,
    LassoModelParallelWorkload,
    SimCluster,
    SimConfig,
    StragglerWindow,
    inject_straggler,
    merge_payloads,
    run_simulation,
)
from icflow.ssp import (
    _PROTOCOL_EVENTS,
    InvariantReport,
    ReplayCheck,
    ReplayReport,
    SspCore,
    Trace,
    TraceEvent,
    check_staleness_invariants,
    replay,
)
from test_sim_digests import CASES as GOLDEN_CASES
from test_sim_digests import golden_config


def lasso_workload(P, seed=7):
    ds = gen_lasso(120, 24, 5, seed=seed)
    return LassoModelParallelWorkload(LassoProblem.from_raw(ds.X, ds.y), P)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(P=0)
    with pytest.raises(ConfigurationError):
        SimConfig(P=2, bandwidth=0)
    with pytest.raises(ConfigurationError):
        SimConfig(P=2, staleness=-1)
    with pytest.raises(ConfigurationError):
        SimConfig(P=2, stragglers=(StragglerWindow(5, 2.0),))
    with pytest.raises(ConfigurationError):
        StragglerWindow(0, 0.5)
    with pytest.raises(ConfigurationError):  # would livelock
        SimConfig(P=2, staleness=0, slow_worker_extras=True)


def test_inject_straggler():
    cfg = SimConfig(P=4)
    assert inject_straggler(cfg, 1, 1.0) is cfg  # factor 1 is a no-op
    cfg2 = inject_straggler(cfg, 1, 5.0, window=(10.0, 20.0))
    assert cfg2.compute_factor(1, 15.0) == 5.0
    assert cfg2.compute_factor(1, 35.0) == 1.0
    assert cfg2.compute_factor(0, 15.0) == 1.0
    with pytest.raises(ConfigurationError):
        inject_straggler(cfg, 9, 2.0)


def test_single_worker_has_no_block_events():
    res = run_simulation(
        lasso_workload(1), SimConfig(P=1, staleness=0, max_clocks=10)
    )
    assert not any(e.event == "block" for e in res.trace)
    assert len(res.trajectory) == 10


class FixedCostWorkload(FuzzWorkload):
    def cost_units(self, p, t, indices):
        return 4.0


def test_bsp_lock_step_with_equal_costs():
    res = run_simulation(
        FixedCostWorkload(16, 4, seed=0),
        SimConfig(P=4, staleness=0, topology="master_slave", max_clocks=6),
    )
    by_clock = {}
    for e in res.trace:
        if e.event == "clock":
            by_clock.setdefault(e.clock, set()).add(e.tick)
    for clock, ticks in by_clock.items():
        assert len(ticks) == 1, f"clock {clock} spread over ticks {ticks}"


def test_straggler_slows_compute_by_factor():
    cfg = inject_straggler(
        SimConfig(P=4, staleness=2, max_clocks=6), 2, 5.0
    )
    res = run_simulation(FixedCostWorkload(16, 4, seed=0), cfg)
    starts = {}
    durations = {p: [] for p in range(4)}
    for e in res.trace:
        if e.event == "compute_start":
            starts[e.worker] = e.tick
        elif e.event == "compute_end":
            durations[e.worker].append(e.tick - starts[e.worker])
    assert all(d == 20 for d in durations[2])
    assert all(d == 4 for d in durations[0])


def test_straggler_blocks_other_workers_and_ssp_reduces_blocking():
    blocked = {}
    for s in (0, 2):
        cfg = inject_straggler(
            SimConfig(P=4, staleness=s, topology="master_slave", max_clocks=20),
            1, 5.0,
        )
        res = run_simulation(lasso_workload(4), cfg)
        blocked[s] = sum(res.blocked_ticks)
        blockers = {e.worker for e in res.trace if e.event == "block"}
        assert 1 not in blockers and blockers  # only the fast workers block
    assert blocked[2] < blocked[0]


def test_identical_config_and_seed_reproduces_trace_bytes():
    cfg = inject_straggler(
        SimConfig(P=4, staleness=1, topology="full_p2p", max_clocks=10, seed=5),
        3, 3.0,
    )
    r1 = run_simulation(FuzzWorkload(20, 4, seed=5), cfg)
    r2 = run_simulation(FuzzWorkload(20, 4, seed=5), cfg)
    assert r1.trace.to_text() == r2.trace.to_text()
    assert r1.metrics_text() == r2.metrics_text()
    assert np.array_equal(r1.values, r2.values)


def test_metrics_rows_are_emitted_per_round():
    res = run_simulation(
        lasso_workload(2), SimConfig(P=2, staleness=1, max_clocks=12)
    )
    assert len(res.metrics) == 12
    header = res.metrics_text().splitlines()[0]
    assert header == (
        "iteration,tick,objective,mean_staleness,max_staleness,"
        "blocked_ticks,bytes_sent"
    )
    objs = [float(r.split(",")[2]) for r in res.metrics]
    assert objs[-1] < objs[0]


def test_slow_worker_extras_run_while_waiting():
    cfg = inject_straggler(
        SimConfig(P=4, staleness=2, topology="master_slave", max_clocks=10,
                  slow_worker_extras=True),
        0, 4.0,
    )
    res = run_simulation(lasso_workload(4), cfg)
    assert res.extra_passes[0] == 0
    assert sum(res.extra_passes[1:]) > 0
    rep = replay(res.trace, 2, 4)
    assert rep.ok, rep.to_text()
    # the smallest staleness that allows extras finishes
    res = run_simulation(
        lasso_workload(2),
        SimConfig(P=2, staleness=1, max_clocks=5, slow_worker_extras=True),
    )
    assert len(res.metrics) == 5


def test_replay_detects_planted_clock_gap():
    res = run_simulation(
        lasso_workload(2), SimConfig(P=2, staleness=1, max_clocks=6)
    )
    events = [e for e in res.trace.events if e.event != "finish"]
    events.append(TraceEvent(9999, "clock", 0, 99, 0, 0, 0, 0))
    events.append(TraceEvent(9999, "commit", 0, 99, 999, 99, 1, 37))
    report = replay(Trace(events), 1, 2)
    assert not report.ok
    failing = [c.name for c in report.checks if not c.ok]
    assert "staleness_protocol" in failing


def test_replay_detects_undelivered_message():
    res = run_simulation(
        lasso_workload(2), SimConfig(P=2, staleness=0, max_clocks=4)
    )
    events = list(res.trace.events)
    events.append(TraceEvent(9999, "msg_send", 0, 0, 123456, 0, 1, 37))
    report = replay(Trace(events), 0, 2)
    assert not any(c.ok for c in report.checks if c.name == "messages_delivered")


def test_all_topologies_satisfy_the_protocol():
    for topo, P in (("master_slave", 4), ("full_p2p", 4), ("halton", 6)):
        for s in (0, 2):
            res = run_simulation(
                FuzzWorkload(24, P, seed=1),
                SimConfig(P=P, staleness=s, topology=topo, max_clocks=8),
            )
            rep = replay(res.trace, s, P)
            assert rep.ok, (topo, s, rep.to_text())


def test_large_halton_ring_delivers_everything_in_lock_step():
    # 128 workers at staleness 0: every delivery to a waiting worker asks
    # the store whether it may start, which must not rescan per-seq lists
    sim = SimCluster(FuzzWorkload(256, 128),
                     SimConfig(P=128, staleness=0, topology="halton", max_clocks=3))
    res = sim.run()
    assert replay(res.trace, 0, 128).ok
    assert all(owed == {} for owed in sim.store.owed)


def _assert_link_schedules_rebuilt(sim, trace):
    """A link sends in FIFO order at `bandwidth` bytes per tick: a message
    starts once it is sent and the previous one has finished, and arrives
    `latency` ticks after the tick its transmission ends in. Rebuilt from the
    msg_send and msg_deliver rows alone, with message ids in send order.
    Returns how many messages waited for their link."""
    cfg = sim.cfg
    sent = {e.seq: e for e in trace if e.event == "msg_send"}
    got = {e.seq: e for e in trace if e.event == "msg_deliver"}
    assert sent.keys() == got.keys()
    free_at, queued = {}, 0
    for mid in sorted(sent):
        send = sent[mid]
        link = (send.worker, got[mid].worker)
        start = max(send.tick, free_at.get(link, 0.0))
        queued += start > send.tick
        free_at[link] = start + send.bytes / cfg.bandwidth
        assert got[mid].tick == math.ceil(free_at[link]) + cfg.latency, (cfg, mid)
    assert free_at.keys() == sim.links.keys()
    # the run path keeps no per-send record
    assert all(q.transmissions == [] for q in sim.links.values())
    return queued


def test_every_link_schedule_rebuilt_from_the_trace_matches_its_deliveries():
    for topology in ("master_slave", "full_p2p", "halton"):
        for extras in (False, True):
            cfg = inject_straggler(
                SimConfig(P=5, staleness=1, topology=topology, bandwidth=20.0,
                          latency=2, max_clocks=7, slow_worker_extras=extras),
                3, 4.0, (5, 40),
            )
            sim = SimCluster(FuzzWorkload(40, 5, seed=4), cfg)
            # the links are slow enough to queue
            assert _assert_link_schedules_rebuilt(sim, sim.run().trace), (topology, extras)


def test_links_are_fabric_queues_and_traffic_is_their_stats():
    for topology in ("master_slave", "full_p2p", "halton"):
        sim = SimCluster(
            FuzzWorkload(24, 4, seed=3),
            SimConfig(P=4, staleness=1, topology=topology, max_clocks=6,
                      bandwidth=64.0),
        )
        res = sim.run()
        assert sim.links
        assert all(isinstance(q, OutgoingQueue) for q in sim.links.values())
        assert res.traffic.keys() == sim.links.keys()
        assert all(res.traffic[k] is q for k, q in sim.links.items())
        # every message sent was delivered
        assert all(q.inflight == 0 for q in sim.links.values())
        # the links carried every byte the trace sends; the last metrics row,
        # written as the last worker finishes, counts the bytes sent before
        events = list(res.trace)
        last = max(i for i, e in enumerate(events) if e.event == "finish")
        sends = [(i, e.bytes) for i, e in enumerate(events) if e.event == "msg_send"]
        assert sum(q.bytes for q in res.traffic.values()) == sum(b for _, b in sends)
        assert int(res.metrics[-1].rsplit(",", 1)[1]) == sum(b for i, b in sends if i < last)


def test_merge_payloads_is_a_key_union():
    assert merge_payloads([np.array([0, 1]), np.array([1, 4])]).tolist() == [0, 1, 4]
    # a key whose values cancel still counts
    store = SspCore(2, 0, 4)
    seqs = [store.commit(0, {2: 1.5}, 0), store.commit(1, {2: -1.5}, 0)]
    assert merge_payloads([store.log[s].keys for s in seqs]).tolist() == [2]
    assert merge_payloads([]).tolist() == []


def test_every_message_of_a_commit_carries_its_one_id_list():
    # `_broadcast` builds one `[seq]` per commit; each send and relay of the
    # commit passes that list on, so the deliveries hold one list per commit
    for topology in ("full_p2p", "halton"):
        res = run_simulation(FuzzWorkload(48, 8, seed=2),
                             SimConfig(P=8, staleness=1, topology=topology, max_clocks=4))
        lists = res.deliveries[2::3]
        assert len(lists) == 7 * len(res.commit_workers), topology
        distinct = {id(seqs): seqs for seqs in lists}.values()
        assert len(distinct) == len(res.commit_workers), topology
        assert sorted(distinct) == [[s] for s in range(len(distinct))]


def test_relay_sizes_each_message_as_the_union_of_the_other_origins_keys():
    # the key count a server message had when each was merged on its own:
    # overlapping keys, keys of one origin only, origins with several
    # commits, values that cancel, empty payloads and late single origins
    rng = np.random.default_rng(5)
    for _ in range(60):
        P = int(rng.integers(2, 9))
        sim = SimCluster(FuzzWorkload(12, P), SimConfig(P=P, topology="master_slave"))
        log, round_ = sim.store.log, {}
        for origin in rng.permutation(P)[:rng.integers(1, P + 1)].tolist():
            for _ in range(rng.integers(1, 4)):
                keys = rng.choice(12, size=rng.integers(0, 6), replace=False)
                payload = {int(k): float(rng.choice((1.5, -1.5))) for k in keys}
                round_.setdefault(origin, []).append(sim.store.commit(origin, payload, 0))
        sent = []
        sim._send = lambda src, dst, seqs, n, nbytes, *rest: sent.append(
            (dst, seqs, n, nbytes))
        sim._relay(round_, 0, 0)
        assert [d for d, *_ in sent] == [d for d in range(P) if set(round_) - {d}]
        for dst, seqs, n, nbytes in sent:
            assert seqs == [s for o, part in round_.items() if o != dst for s in part]
            assert n == len(merge_payloads([log[s].keys for s in seqs])), (round_, dst)
            assert nbytes == sparse_codec_size(n)


def test_each_delivered_server_message_is_one_store_call(monkeypatch):
    calls = []
    deliver = SspCore.deliver

    def counted(store, worker, seqs):
        calls.append(len(seqs))
        return deliver(store, worker, seqs)

    monkeypatch.setattr(SspCore, "deliver", counted)
    P, clocks = 6, 5
    run_simulation(FuzzWorkload(24, P), SimConfig(P=P, topology="master_slave",
                                                  max_clocks=clocks))
    # one call per server message, not one per commit it carries
    assert calls == [P - 1] * (P * clocks)


class CancellingWorkload(FixedCostWorkload):
    """Workers 0 and 1 add +1.5 and -1.5 to key 0 every round; worker 2
    writes key 5."""

    def delta(self, view, p, t, indices):
        return [{0: 1.5}, {0: -1.5}, {5: 1.0}][p]


def test_server_messages_count_keys_whose_values_cancel():
    sim = SimCluster(CancellingWorkload(8, 3),
                     SimConfig(P=3, staleness=0, topology="master_slave", max_clocks=3))
    res = sim.run()
    dst = {e.seq: e.worker for e in res.trace if e.event == "msg_deliver"}
    server = [e for e in res.trace if e.event == "msg_send" and e.worker == 3]
    assert len(server) == 3 * 3
    for e in server:
        # worker 2 gets the cancelling pair, so one key; the others get two
        keys = 1 if dst[e.seq] == 2 else 2
        assert (e.key_count, e.bytes) == (keys, sparse_codec_size(keys)), e
    assert np.array_equal(res.values[[0, 5]], [0.0, 3.0])


def test_master_slave_server_keeps_no_state_for_relayed_rounds():
    for extras in (False, True):
        cfg = inject_straggler(
            SimConfig(P=5, staleness=1, topology="master_slave", bandwidth=16.0,
                      max_clocks=8, slow_worker_extras=extras),
            2, 4.0, (6, 60),
        )
        sim = SimCluster(FuzzWorkload(40, 5, seed=11), cfg)
        assert replay(sim.run().trace, 1, 5).ok
        assert sim._srv_pending == {}
        assert sim._srv_next == 8


class _SpyScheduler(SapScheduler):
    """A SAP scheduler that records the changes of every round it observes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def observe(self, changes):
        self.seen.append(dict(changes))
        super().observe(changes)


def test_each_round_is_observed_once_in_order_and_then_dropped():
    P, clocks = 4, 8
    ds = gen_lasso(60, 24, 4, seed=5, block_size=4, block_rho=0.5)
    problem = LassoProblem.from_raw(ds.X, ds.y)
    spy = _SpyScheduler(problem.X, P, pool_size=12, seed=1, gram=problem.gram)
    workload = LassoModelParallelWorkload(problem, P, spy)
    cfg = inject_straggler(
        SimConfig(P=P, staleness=2, topology="halton", bandwidth=64.0,
                  max_clocks=clocks, slow_worker_extras=True),
        1, 4.0, (4, 40),
    )
    sim = SimCluster(workload, cfg)
    assert sum(sim.run().extra_passes) > 0
    # each round's changes are its committed payloads merged in commit order
    expected = [{} for _ in range(clocks)]
    for upd in sim.store.log:
        expected[upd.timestamp].update(zip(upd.keys.tolist(), upd.vals.tolist()))
    assert spy.seen == expected
    assert workload._rounds == {}


# ---------------------------------------------------------------------------
# the checkers against their object-per-event reference


def _reference_check_staleness_invariants(trace, staleness, P):
    """`check_staleness_invariants` as it was before the column table."""
    violations: list[str] = []
    clocks = [0] * P
    finished = [False] * P
    blocked = [False] * P
    committed: dict[int, TraceEvent] = {}
    applied: list[set[int]] = [set() for _ in range(P)]
    # per worker, committed foreign seqs not yet applied there (small, since
    # workers catch up every clock; avoids rescanning all commits per read)
    outstanding: list[dict[int, int]] = [dict() for _ in range(P)]  # seq -> ts

    def active_min() -> int:
        active = [clocks[p] for p in range(P) if not finished[p]]
        return min(active) if active else max(clocks)

    for i, ev in enumerate(trace):
        if ev.event not in _PROTOCOL_EVENTS:
            continue
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

    return InvariantReport(ok=not violations, violations=violations)


def _reference_replay(trace, staleness, P):
    """`replay` as it was before the column table: one object per event."""
    checks: list[ReplayCheck] = []

    # well-formedness: ticks non-decreasing
    events = trace.events  # built afresh on each read
    bad = next(
        (i for i in range(1, len(events)) if events[i].tick < events[i - 1].tick),
        None,
    )
    checks.append(ReplayCheck(
        "ticks_non_decreasing", bad is None,
        "ok" if bad is None else f"first violation at event {bad}",
    ))

    # every block is matched by an unblock or the worker finishes
    blocked: dict[int, int] = {}
    finished: set[int] = set()
    pair_bad = None
    for i, ev in enumerate(events):
        if ev.event == "block":
            if ev.worker in blocked:
                pair_bad = i
                break
            blocked[ev.worker] = i
        elif ev.event == "unblock":
            if ev.worker not in blocked:
                pair_bad = i
                break
            del blocked[ev.worker]
        elif ev.event == "finish":
            finished.add(ev.worker)
            blocked.pop(ev.worker, None)
    dangling = [w for w in blocked if w not in finished]
    ok = pair_bad is None and not dangling
    checks.append(ReplayCheck(
        "block_unblock_matched", ok,
        "ok" if ok else (
            f"first violation at event {pair_bad}" if pair_bad is not None
            else f"workers left blocked: {sorted(dangling)}"
        ),
    ))

    # every message send has a matching delivery
    sends: dict[int, int] = {}
    delivers: dict[int, int] = {}
    for ev in events:
        if ev.event == "msg_send":
            sends[ev.seq] = sends.get(ev.seq, 0) + 1
        elif ev.event == "msg_deliver":
            delivers[ev.seq] = delivers.get(ev.seq, 0) + 1
    unmatched = {m for m in sends if sends[m] != delivers.get(m, 0)}
    unmatched |= {m for m in delivers if m not in sends}
    checks.append(ReplayCheck(
        "messages_delivered", not unmatched,
        "ok" if not unmatched else f"unmatched message ids: {sorted(unmatched)[:5]}",
    ))

    report = _reference_check_staleness_invariants(trace, staleness, P)
    checks.append(ReplayCheck(
        "staleness_protocol", report.ok,
        "ok" if report.ok else report.violations[0],
    ))
    return ReplayReport(checks)


def _assert_checks_match_reference(trace, staleness, P, label):
    got = (replay(trace, staleness, P), check_staleness_invariants(trace, staleness, P))
    want = (_reference_replay(trace, staleness, P),
            _reference_check_staleness_invariants(trace, staleness, P))
    assert got == want, label
    return got


def _checked_in_memory_and_parsed(events, staleness, P, label):
    reports = _assert_checks_match_reference(Trace(list(events)), staleness, P, label)
    text = Trace(list(events)).to_text()
    parsed = _assert_checks_match_reference(Trace.from_text(text), staleness, P,
                                            label + " (parsed)")
    assert parsed == reports, label
    return reports


def test_checkers_match_reference_on_simulator_traces():
    checked = failed = 0
    for topo, P in (("master_slave", 4), ("full_p2p", 4), ("halton", 6)):
        for s in range(4):
            cfg = inject_straggler(
                SimConfig(P=P, staleness=s, topology=topo, max_clocks=6), 1, 3.0
            )
            events = run_simulation(FuzzWorkload(24, P, seed=s), cfg).trace.events
            for bound in range(4):
                rep, inv = _checked_in_memory_and_parsed(
                    events, bound, P, f"{topo} s={s} checked at {bound}"
                )
                assert rep.ok or bound < s
                checked += 1
                failed += not rep.ok
    assert checked == 48 and failed > 0


def _forgeries(events, P):
    """(name, check it must fail, events), each breaking what that check
    looks for."""
    def plus(*forged):
        return list(events) + [TraceEvent(*f) for f in forged]

    last = events[-1].tick
    mid = len(events) // 2
    commit = next(e for e in events if e.event == "commit")
    apply_ = next(e for e in events if e.event == "apply")
    other = (commit.worker + 1) % P
    unfinished = [e for e in events if e.event != "finish"]
    at = events.index(commit) + 1
    return [
        ("tick regression", "ticks_non_decreasing",
         events[:mid] + [events[mid]._replace(tick=-1)] + events[mid + 1:]),
        ("unmatched send", "messages_delivered",
         plus((last, "msg_send", 0, 0, 10**6, 0, 1, 37))),
        ("unmatched deliver", "messages_delivered",
         plus((last, "msg_deliver", 1, 0, 10**6 + 1, 0, 1, 37))),
        ("double block", "block_unblock_matched",
         plus((last, "block", 0, 0, 0, 0, 0, 0), (last, "block", 0, 0, 0, 0, 0, 0))),
        ("dangling block", "block_unblock_matched",
         unfinished + [TraceEvent(last, "block", 2, 0, 0, 0, 0, 0)]),
        ("unblock without block", "block_unblock_matched",
         plus((last, "unblock", 0, 0, 0, 0, 0, 0))),
        ("duplicate commit seq", "staleness_protocol",
         events[:at] + [commit] + events[at:]),
        ("apply of an unknown seq", "staleness_protocol",
         plus((last, "apply", other, 0, 10**6, 0, 1, 37))),
        ("read while blocked", "staleness_protocol",
         plus((last, "block", 0, 0, 0, 0, 0, 0), (last, "read", 0, 0, 0, 0, 0, 0))),
        ("self-apply", "staleness_protocol",
         plus((last, "apply", commit.worker, 0, commit.seq, commit.timestamp, 1, 37))),
        ("double-apply", "staleness_protocol", events + [apply_]),
        ("missing required update", "staleness_protocol",
         [e for e in events if not (e.event == "apply" and e.worker == other)]),
        ("worker out of range", "staleness_protocol",
         plus((last, "clock", P, 1, 0, 0, 0, 0), (last, "commit", -1, 0, 5, 0, 1, 37))),
        ("commit outside the bound", "staleness_protocol",
         unfinished + [TraceEvent(last, "clock", 0, 99, 0, 0, 0, 0),
                       TraceEvent(last, "commit", 0, 99, 999, 99, 1, 37)]),
    ]


def test_checkers_match_reference_on_forged_traces():
    P = 4
    cfg = inject_straggler(
        SimConfig(P=P, staleness=1, topology="full_p2p", max_clocks=6), 1, 3.0
    )
    events = run_simulation(FuzzWorkload(24, P, seed=4), cfg).trace.events
    assert replay(Trace(list(events)), 1, P).ok
    for name, check, forged in _forgeries(events, P):
        rep, _ = _checked_in_memory_and_parsed(forged, 1, P, name)
        assert check in [c.name for c in rep.checks if not c.ok], name


def test_replay_balances_message_ids_like_the_reference():
    P = 4
    events = run_simulation(FuzzWorkload(24, P, seed=4), SimConfig(
        P=P, staleness=1, topology="full_p2p", max_clocks=6)).trace.events
    last = events[-1].tick
    deliver = next(e for e in events if e.event == "msg_deliver")
    lo, hi = -2**63, 2**63 - 1

    def msg(event, mid):
        return TraceEvent(last, event, 0, 0, mid, 0, 1, 37)

    cases = {  # name: (events, the messages_delivered detail)
        "duplicated delivery": (events + [deliver._replace(tick=last)],
                                f"unmatched message ids: [{deliver.seq}]"),
        "delivery with no send": (events + [msg("msg_deliver", 10**6)],
                                  "unmatched message ids: [1000000]"),
        "send with no delivery": (events + [msg("msg_send", 10**6)],
                                  "unmatched message ids: [1000000]"),
        "ids at the int64 limits, matched": (
            events + [msg("msg_send", hi), msg("msg_send", lo),
                      msg("msg_deliver", lo), msg("msg_deliver", hi)], "ok"),
        "ids at the int64 limits, unmatched": (
            events + [msg("msg_send", hi), msg("msg_deliver", lo), msg("msg_send", hi),
                      msg("msg_deliver", hi)], f"unmatched message ids: [{lo}, {hi}]"),
        "seven unmatched ids": (
            events + [msg("msg_send", m) for m in (9, -3, 10**9, 7, -10**9, 8, 0)],
            "unmatched message ids: [-1000000000, -3, 0, 7, 8]"),
        "no message rows": ([e for e in events if not e.event.startswith("msg_")], "ok"),
        "no rows": ([], "ok"),
    }
    for name, (forged, detail) in cases.items():
        rep, _ = _checked_in_memory_and_parsed(forged, 1, P, name)
        assert rep.checks[2] == ReplayCheck("messages_delivered", detail == "ok", detail), name


def test_replay_of_a_trace_beyond_int64_exits_2(tmp_path, capsys):
    # no run writes an integer beyond int64, so the parse rejects one
    base = run_simulation(FuzzWorkload(12, 2, seed=1), SimConfig(P=2, max_clocks=3))
    text = base.trace.to_text()
    path = tmp_path / "trace.txt"
    path.write_text(text + (f"{2**70},msg_send,0,0,{2**64},0,1,37\n"
                            f"{2**70},clock,{-2**70},1,0,0,0,0\n"))
    assert main(["--quiet", "replay", str(path), "--staleness", "0",
                 "--workers", "2"]) == EXIT_CONFIG
    line = len(text.splitlines()) + 1
    assert capsys.readouterr().err == (
        f"cannot parse trace: trace parse error at line {line}: integer outside int64\n")


def _checked_run(sim, check):
    """Run `sim`, calling check(row) after each trace row is appended."""
    append = sim._append

    def checked(row):
        append(row)
        check(row)

    sim._append = sim.store._append = checked
    return sim.run()


def _fuzz_clusters(m=40, keys_per_update=3):
    for topology in ("master_slave", "full_p2p", "halton"):
        for staleness in range(4):
            for extras in (False, True) if staleness else (False,):
                cfg = inject_straggler(
                    SimConfig(P=5, staleness=staleness, topology=topology,
                              bandwidth=16.0, max_clocks=8, seed=3,
                              slow_worker_extras=extras),
                    2, 4.0, (6, 60))
                yield SimCluster(FuzzWorkload(m, 5, seed=11,
                                              keys_per_update=keys_per_update), cfg)


def test_missing_required_counter_equals_a_scan_of_owed():
    for sim in _fuzz_clusters():
        store = sim.store
        seen = []

        def check(row):
            seen.append(row)
            for p in range(store.P):
                horizon = store.clocks[p] - store.staleness - 1
                scan = sum(len(seqs) for ts, seqs in store.owed[p].items() if ts <= horizon)
                assert store.missing_required(p) == scan, (sim.cfg, len(seen), p)

        _checked_run(sim, check)
        assert len(seen) == len(sim.trace) > 0


def test_a_counter_fault_ends_in_an_error_not_a_hang(monkeypatch):
    # With advance_clock not counting the commits a new clock makes
    # required, the counter drops below 0 on their arrival. Unguarded, a
    # negative count kept a waiting worker from starting while its peers
    # took extra passes for ever.
    advance_clock = SspCore.advance_clock

    def uncounted(store, worker):
        missing = store._missing[worker]
        blocked = advance_clock(store, worker)
        store._missing[worker] = missing
        return blocked

    def hung(signum, frame):
        raise TimeoutError("the run did not end within 10 s")

    monkeypatch.setattr(SspCore, "advance_clock", uncounted)
    old = signal.signal(signal.SIGALRM, hung)
    try:
        for topology in ("master_slave", "full_p2p", "halton"):
            cfg = inject_straggler(
                SimConfig(P=4, staleness=1, topology=topology, max_clocks=10,
                          slow_worker_extras=True), 1, 3.0)
            signal.alarm(10)
            with pytest.raises(StateCorruptionError, match="required commits in flight is 0"):
                SimCluster(FuzzWorkload(24, 4), cfg).run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _replayed(upd, values):
    apply_sparse(values, dict(zip(upd.keys.tolist(), upd.vals.tolist())))


def test_every_read_sees_a_per_key_replay_of_the_log_bit_for_bit():
    for m, keys in ((40, 3), (60, 40)):
        for sim in _fuzz_clusters(m, keys):
            store = sim.store
            reference = [np.zeros(m) for _ in range(store.P)]
            reads = []

            def check(row):
                _, event, worker, _, seq, *_ = row
                if event in ("commit", "apply"):
                    _replayed(store.log[seq], reference[worker])
                elif event == "read":
                    reads.append(worker)
                    got, want = store.views[worker], reference[worker]
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                        (sim.cfg, len(reads))

            _checked_run(sim, check)
            assert len(reads) >= 5 * 8


def test_a_worker_left_waiting_is_named_with_its_state_and_clock():
    # worker 1's gate never opens; the others finish their one clock, and
    # the error names only the unfinished worker
    sim = SimCluster(FuzzWorkload(12, 3), SimConfig(P=3, max_clocks=1))
    sim.store.missing_required = lambda worker: int(worker == 1)
    with pytest.raises(StateCorruptionError) as e:
        sim.run()
    assert str(e.value) == "event queue drained with workers stuck: worker 1: waiting clock=0"


# -- tie order ----------------------------------------------------------------


class HeapOrderedCluster(SimCluster):
    """Orders events by a heap of (tick, (r, seq), handler, args) entries,
    `seq` the push count and `r` from `_rank` (0: plain push order, the
    order the simulator's one-list-per-tick queue must reproduce). Each push
    also queues one `_run_first` at its tick, which runs the heap's first
    entry, so the queue only says when a tick's next event runs and the heap
    says which: one pushed during a tick can run before older ones."""

    def __init__(self, workload, config):
        super().__init__(workload, config)
        self.heap = []
        self._heap_seq = 0

    def _rank(self, tick, handler, args):
        return 0

    def _push(self, tick, handler, *args):
        r = self._rank(tick, handler, args)
        heapq.heappush(self.heap, (tick, (r, self._heap_seq), handler, args))
        self._heap_seq += 1
        super()._push(tick, self._run_first)

    def _run_first(self, tick):
        at, _, handler, args = heapq.heappop(self.heap)
        assert at == tick
        handler(*args, tick)


class TieShuffledCluster(HeapOrderedCluster):
    """Runs the events of one tick in a random order instead of push order:
    `r` is drawn per event. Every delivery on one link at one tick shares
    one `r`, so its deliveries keep their push order: links are FIFO in the
    model, and the master-slave server relies on it (rounds flush in
    timestamp order)."""

    def __init__(self, workload, config, seed):
        super().__init__(workload, config)
        self._rng = random.Random(seed)
        self._link_r = {}  # (link, tick) -> r of its deliveries

    def _rank(self, tick, handler, args):
        if handler == self._deliver:
            key = (id(args[0]), tick)
            if key not in self._link_r:
                self._link_r[key] = self._rng.random()
            return self._link_r[key]
        return self._rng.random()


def _tie_fuzz_configs(n=36):
    """A fixed list of small configs over every topology, staleness 0, 1 and
    3, P from 2 to 8, slow or fast links, windowed stragglers and extras."""
    for i in range(n):
        rng = random.Random(i)
        P, staleness = 2 + i % 7, (0, 1, 3)[i % 3]
        cfg = SimConfig(P=P, staleness=staleness,
                        topology=("master_slave", "full_p2p", "halton")[i // 3 % 3],
                        bandwidth=rng.choice((40.0, 4096.0)), latency=rng.randrange(3),
                        max_clocks=6, slow_worker_extras=staleness > 0 and i % 2 == 0)
        yield i, inject_straggler(cfg, rng.randrange(P), rng.uniform(1.5, 5.0),
                                  (rng.randrange(10), rng.randrange(5, 40)))


def test_any_order_of_same_tick_events_keeps_the_protocol():
    extras = reordered = 0
    for i, cfg in _tie_fuzz_configs():
        sim = TieShuffledCluster(FuzzWorkload(4 * cfg.P, cfg.P, seed=i), cfg, seed=i)
        res = sim.run()
        rep = replay(res.trace, cfg.staleness, cfg.P)
        assert rep.ok, (i, cfg, rep.to_text())
        _assert_link_schedules_rebuilt(sim, res.trace)
        extras += sum(res.extra_passes)
        in_push_order = run_simulation(FuzzWorkload(4 * cfg.P, cfg.P, seed=i), cfg)
        reordered += res.trace.to_text() != in_push_order.trace.to_text()
    # the list reaches the extra passes, and the shuffle moves events
    assert extras and reordered


def test_the_tick_lists_run_events_in_the_order_of_a_heap():
    # the one-list-per-tick queue against the (tick, push seq) heap it
    # replaced: the three files a run writes are the same text
    runs = [(cfg, 4 * cfg.P, i) for i, cfg in _tie_fuzz_configs()]
    runs += [(golden_config(*case), 40, 11) for case in GOLDEN_CASES]
    for cfg, m, seed in runs:
        texts = []
        for cls in (SimCluster, HeapOrderedCluster):
            res = cls(FuzzWorkload(m, cfg.P, seed=seed), cfg).run()
            texts.append((res.trace.to_text(), res.metrics_text(),
                          traffic_report(res.traffic)))
        assert texts[0] == texts[1], cfg


def test_lock_step_lasso_matches_the_serial_reference_under_any_tie_order():
    ds = gen_lasso(120, 24, 5, seed=7)
    program = LassoCDProgram(LassoProblem.from_raw(ds.X, ds.y))
    P, clocks = 4, 8
    reference = []
    run_model_parallel(program, None, P, FixedBlockScheduler(24, P),
                       StoppingCriterion(max_iterations=clocks, window=64),
                       trajectory_out=reference)
    for seed in range(6):
        rng = random.Random(seed)
        cfg = inject_straggler(
            SimConfig(P=P, staleness=0, topology="master_slave", max_clocks=clocks),
            rng.randrange(P), rng.uniform(1.5, 5.0), (rng.randrange(10), 30))
        res = TieShuffledCluster(
            LassoModelParallelWorkload(program.problem, P), cfg, seed).run()
        assert len(res.trajectory) == clocks
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(reference, res.trajectory)), seed


def test_a_counter_fault_fails_under_any_tie_order(monkeypatch):
    # the forged fault of test_a_counter_fault_ends_in_an_error_not_a_hang
    advance_clock = SspCore.advance_clock

    def uncounted(store, worker):
        missing = store._missing[worker]
        blocked = advance_clock(store, worker)
        store._missing[worker] = missing
        return blocked

    def hung(signum, frame):
        raise TimeoutError("the run did not end within 10 s")

    monkeypatch.setattr(SspCore, "advance_clock", uncounted)
    old = signal.signal(signal.SIGALRM, hung)
    try:
        for topology in ("master_slave", "full_p2p", "halton"):
            cfg = inject_straggler(
                SimConfig(P=4, staleness=1, topology=topology, max_clocks=10,
                          slow_worker_extras=True), 1, 3.0)
            for seed in range(4):
                signal.alarm(10)
                try:
                    res = TieShuffledCluster(FuzzWorkload(24, 4), cfg, seed).run()
                except StateCorruptionError:
                    continue
                assert not replay(res.trace, 1, 4).ok, (topology, seed)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
