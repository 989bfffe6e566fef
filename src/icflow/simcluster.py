"""Deterministic simulated cluster.

P logical workers run an iterative workload over a bounded-staleness store.
Time is discrete-event: compute passes cost ticks (scaled by straggler
windows), committed updates travel as messages over rate-limited links of the
configured topology, and a worker may only fold in a foreign update once the
store records its arrival. Identical (config, seed) produces identical traces.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Callable, Optional

import numpy as np

from .engine import FixedBlockScheduler, _check_objective, apply_sparse
from .errors import ConfigurationError, StateCorruptionError
from .fabric import OutgoingQueue, make_topology, sparse_codec_size
from .ssp import SspCore, Trace, TraceEvent, check_staleness_invariants

METRICS_HEADER = (
    "iteration,tick,objective,mean_staleness,max_staleness,blocked_ticks,bytes_sent"
)


@dataclass(frozen=True)
class StragglerWindow:
    """Worker `worker` runs `factor` times slower in [start_tick, start_tick
    + duration)."""

    worker: int
    factor: float
    start_tick: float = 0.0
    duration: float = math.inf

    def __post_init__(self):
        if self.factor < 1:
            raise ConfigurationError("slowdown factor must be >= 1")
        if self.duration < 0:
            raise ConfigurationError("straggler duration must be >= 0")

    def active(self, tick: float) -> bool:
        return self.start_tick <= tick < self.start_tick + self.duration


@dataclass(frozen=True)
class SimConfig:
    P: int
    staleness: int = 0
    topology: str = "master_slave"
    bandwidth: float = 4096.0  # bytes per tick per link
    latency: int = 1  # ticks
    max_clocks: int = 50
    seed: int = 0
    slow_worker_extras: bool = False
    stragglers: tuple = ()

    def __post_init__(self):
        if self.P < 1:
            raise ConfigurationError("P must be >= 1")
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be > 0")
        if self.latency < 0:
            raise ConfigurationError("latency must be >= 0")
        if self.staleness < 0:
            raise ConfigurationError("staleness must be >= 0")
        if self.max_clocks < 1:
            raise ConfigurationError("max_clocks must be >= 1")
        if self.slow_worker_extras and self.staleness == 0:
            # every worker would block on advancing, so all take extra
            # passes and the clock never moves
            raise ConfigurationError("slow_worker_extras needs staleness >= 1")
        for w in self.stragglers:
            if not (0 <= w.worker < self.P):
                raise ConfigurationError(f"straggler worker {w.worker} out of range")

    def compute_factor(self, worker: int, tick: float) -> float:
        f = 1.0
        for w in self.stragglers:
            if w.worker == worker and w.active(tick):
                f = max(f, w.factor)
        return f


def inject_straggler(
    config: SimConfig, worker: int, factor: float, window=(0.0, math.inf)
) -> SimConfig:
    """Return a config with an extra straggler window; factor 1 is a no-op."""
    if not (0 <= worker < config.P):
        raise ConfigurationError(f"unknown worker {worker}")
    if factor == 1:
        return config
    win = StragglerWindow(worker, factor, window[0], window[1])
    return replace(config, stragglers=config.stragglers + (win,))


# ---------------------------------------------------------------------------
# workloads


class LassoModelParallelWorkload:
    """Block coordinate descent over a shared coefficient vector; each worker
    updates the index block the scheduler hands it for the current round."""

    def __init__(self, problem, P: int, scheduler=None):
        from .algorithms.lasso import LassoCDProgram

        self.program = LassoCDProgram(problem)
        self.m = problem.m
        self.scheduler = scheduler if scheduler is not None else FixedBlockScheduler(
            problem.m, P
        )
        self._assignments: dict[int, list[list[int]]] = {}

    def _assignment(self, t: int, values) -> list[list[int]]:
        if t not in self._assignments:
            self._assignments[t] = self.scheduler.rounds(t, values)
        return self._assignments[t]

    def block(self, p: int, t: int, view) -> list[int]:
        return self._assignment(t, view)[p]

    def delta(self, view, p: int, t: int, indices) -> dict[int, float]:
        return self.program.block_delta(view, None, indices)

    def cost_units(self, p: int, t: int, indices) -> float:
        return float(max(len(indices), 1))

    def objective(self, values) -> float:
        return self.program.objective(values)

    def observe(self, changes: dict[int, float]) -> None:
        self.scheduler.observe(changes)


class FuzzWorkload:
    """Random sparse updates on per-worker index stripes, with random per-pass
    costs. Exists to exercise the protocol and the trace checker, not to
    optimize anything."""

    def __init__(self, m: int, P: int, seed: int = 0, keys_per_update: int = 3):
        self.m = m
        self.stripes = FixedBlockScheduler(m, P).blocks
        self.rngs = [np.random.default_rng((seed, p)) for p in range(P)]
        self.keys_per_update = keys_per_update

    def block(self, p: int, t: int, view) -> list[int]:
        return self.stripes[p]

    def delta(self, view, p: int, t: int, indices) -> dict[int, float]:
        rng = self.rngs[p]
        k = int(rng.integers(1, self.keys_per_update + 1))
        k = min(k, len(indices))
        picks = rng.choice(len(indices), size=k, replace=False)
        return {int(indices[i]): float(rng.normal()) for i in sorted(picks)}

    def cost_units(self, p: int, t: int, indices) -> float:
        return float(self.rngs[p].integers(1, 6))

    def objective(self, values):
        return None

    def observe(self, changes: dict[int, float]) -> None:
        pass


# ---------------------------------------------------------------------------
# simulator


def merge_payloads(key_sets: list[AbstractSet[int]]) -> set[int]:
    """The keys a combined server message carries: the union of its parts'
    keys. A key whose values cancel still counts."""
    return set().union(*key_sets)


@dataclass
class _Msg:
    id: int
    seqs: list[int]
    keys: AbstractSet[int]  # the values stay in the store's log
    nbytes: int
    timestamp: int
    origin: int


@dataclass
class SimResult:
    values: np.ndarray
    trace: Trace
    metrics: list[str]
    traffic: dict
    blocked_ticks: list[int]
    extra_passes: list[int]
    trajectory: list[np.ndarray]
    final_tick: int
    stale_mean: float
    stale_max: int
    pair_staleness: dict = field(default_factory=dict)

    def metrics_text(self) -> str:
        return "\n".join([METRICS_HEADER] + self.metrics) + "\n"


class SimCluster:
    def __init__(self, workload, config: SimConfig):
        self.workload = workload
        self.cfg = config
        P = config.P
        self.topology = make_topology(config.topology, P)
        self.store = SspCore(P, config.staleness, workload.m)
        self.trace = self.store.trace
        self.links: dict[tuple[int, int], OutgoingQueue] = {}
        self.phase = ["waiting"] * P
        self.wait_since: list[Optional[int]] = [0] * P
        self.blocked_ticks = [0] * P
        self.extra_passes = [0] * P
        self.heap: list = []
        self._heap_seq = 0
        self.global_values = np.zeros(workload.m)
        self.trajectory: list[np.ndarray] = []
        self.metrics: list[str] = []
        self.round_changes: dict[int, dict[int, float]] = {}
        self.bytes_sent = 0
        self.stale_sum = 0
        self.stale_cnt = 0
        self.stale_max = 0
        self.last_min = 0
        self._msg_id = 0
        # delivered staleness samples keyed by (origin worker, destination)
        self.pair_staleness: dict[tuple[int, int], list[int]] = {}
        # master-slave server relay state
        self._srv_pending: dict[int, list[_Msg]] = {}
        self._srv_origins: dict[int, set[int]] = {}
        self._srv_next = 0  # oldest timestamp whose round is not yet relayed

    # -- event plumbing -----------------------------------------------------

    def _push(self, tick: int, handler: Callable, *args) -> None:
        """Schedule `handler(*args, tick)`; equal ticks run in push order."""
        heapq.heappush(self.heap, (tick, self._heap_seq, handler, args))
        self._heap_seq += 1

    def _link(self, a: int, b: int) -> OutgoingQueue:
        link = self.links.get((a, b))
        if link is None:
            link = self.links[(a, b)] = OutgoingQueue(
                self.cfg.bandwidth, self.cfg.latency
            )
        return link

    def _emit(self, tick: int, event: str, node: int, clock: int, seq: int,
              timestamp: int, key_count: int, nbytes: int) -> None:
        self.trace.append(
            TraceEvent(tick, event, node, clock, seq, timestamp, key_count, nbytes)
        )

    # -- network ------------------------------------------------------------

    def _send(self, src: int, dst: int, seqs: list[int], keys: AbstractSet[int],
              ts: int, origin: int, tick: int) -> None:
        """Put one new message (with a fresh id) on link src -> dst."""
        nbytes = sparse_codec_size(len(keys))
        msg = _Msg(self._msg_id, seqs, keys, nbytes, ts, origin)
        self._msg_id += 1
        delivery = self._link(src, dst).transmit(nbytes, tick)
        self.bytes_sent += nbytes
        clock = self.store.clocks[src] if src < self.cfg.P else 0
        self._emit(tick, "msg_send", src, clock, msg.id, ts, len(keys), nbytes)
        self._push(delivery, self._deliver, (src, dst), msg)

    def _broadcast(self, origin: int, seq: int, keys: AbstractSet[int], ts: int,
                   tick: int) -> None:
        """Send one commit to every other worker. The origin sends one
        message to each node it relays to (`Topology.relays`), and each
        receiving worker relays it on (`_deliver`): down the origin's
        broadcast tree, P-1 link messages in all, a star of direct messages
        on full P2P. On master-slave the origin sends to the server, which
        relays batched rounds (`_server_receive`)."""
        for dst in self.topology.relays(origin, origin):
            self._send(origin, dst, [seq], keys, ts, origin, tick)

    def _server_receive(self, msg: _Msg, tick: int) -> None:
        """Batch one full round per timestamp, then relay each worker the
        other workers' updates in a single combined message. Late commits at
        an already-flushed timestamp relay immediately."""
        ts = msg.timestamp
        srv = self.topology.server
        if ts < self._srv_next:
            self._relay(srv, [msg], ts, tick)
            return
        self._srv_pending.setdefault(ts, []).append(msg)
        self._srv_origins.setdefault(ts, set()).add(msg.origin)
        if len(self._srv_origins[ts]) == self.cfg.P:
            # rounds flush in ts order: links are FIFO, ts commits before ts + 1
            del self._srv_origins[ts]
            self._srv_next = ts + 1
            self._relay(srv, self._srv_pending.pop(ts), ts, tick)

    def _relay(self, srv: int, batch: list[_Msg], ts: int, tick: int) -> None:
        for dst in range(self.cfg.P):
            part = [m for m in batch if m.origin != dst]
            if not part:
                continue
            seqs = [s for m in part for s in m.seqs]
            keys = merge_payloads([m.keys for m in part])
            self._send(srv, dst, seqs, keys, ts, srv, tick)

    def _deliver(self, link: tuple[int, int], msg: _Msg, tick: int) -> None:
        lk = self.links[link]
        lk.inflight -= msg.nbytes
        dst = link[1]
        clock = self.store.clocks[dst] if dst < self.cfg.P else 0
        self._emit(tick, "msg_deliver", dst, clock, msg.id, msg.timestamp,
                   len(msg.keys), msg.nbytes)
        if dst == self.cfg.P:  # the master-slave server
            self._server_receive(msg, tick)
            return
        # relay down the origin's broadcast tree before taking it in
        for child in self.topology.relays(msg.origin, dst):
            self._send(dst, child, msg.seqs, msg.keys, msg.timestamp,
                       msg.origin, tick)
        for seq in msg.seqs:
            upd = self.store.deliver(dst, seq)
            st = clock - upd.timestamp
            lk.stats.staleness_sum += st
            lk.stats.staleness_count += 1
            self.pair_staleness.setdefault((upd.worker, dst), []).append(st)
        self._maybe_start(dst, tick)

    # -- worker state machine -----------------------------------------------

    def _maybe_start(self, p: int, tick: int) -> None:
        if self.phase[p] != "waiting":
            return
        self.store.set_tick(tick)
        if self.store.blocked[p]:
            return
        if self.store.missing_required(p):
            return
        if self.wait_since[p] is not None:
            self.blocked_ticks[p] += tick - self.wait_since[p]
            self.wait_since[p] = None
        self.phase[p] = "computing"
        self._push(tick, self._start_pass, p)

    def _start_pass(self, p: int, tick: int) -> None:
        store = self.store
        store.set_tick(tick)
        applied = store.apply_pending(p)
        for upd in applied:
            st = store.clocks[p] - upd.timestamp
            self.stale_sum += st
            self.stale_cnt += 1
            self.stale_max = max(self.stale_max, st)
        view = store.read(p)
        t = store.clocks[p]
        indices = self.workload.block(p, t, view)
        payload = self.workload.delta(view, p, t, indices)
        units = self.workload.cost_units(p, t, indices)
        cost = max(1, int(math.ceil(
            units * self.cfg.compute_factor(p, tick)
        )))
        self._emit(tick, "compute_start", p, t, 0, t, len(indices), 0)
        self._push(tick + cost, self._finish_pass, p, payload)

    def _finish_pass(self, p: int, payload: dict, tick: int) -> None:
        store = self.store
        store.set_tick(tick)
        t = store.clocks[p]
        self._emit(tick, "compute_end", p, t, 0, t, len(payload), 0)
        seq = store.commit(p, payload, t)
        apply_sparse(self.global_values, payload)
        self.round_changes.setdefault(t, {}).update(payload)
        self._broadcast(p, seq, store.log[seq].payload.keys(), t, tick)
        if t + 1 >= self.cfg.max_clocks:
            store.advance_clock(p)
            self.phase[p] = "done"
            store.finish(p)
            self._after_clock_change(tick)
            return
        if self.cfg.slow_worker_extras and store.would_block_if_advanced(p):
            # use the wait productively: another pass over the same block
            self.extra_passes[p] += 1
            self._push(tick, self._start_pass, p)
            return
        blocked = store.advance_clock(p)
        self.phase[p] = "waiting"
        self.wait_since[p] = tick
        self._after_clock_change(tick)
        if not blocked:
            self._maybe_start(p, tick)

    def _after_clock_change(self, tick: int) -> None:
        released = self.store.release_unblocked()
        for q in released:
            self._maybe_start(q, tick)
        new_min = self.store.min_clock()
        while self.last_min < new_min and self.last_min < self.cfg.max_clocks:
            r = self.last_min
            self.last_min += 1
            self.workload.observe(self.round_changes.pop(r, {}))
            self.trajectory.append(self.global_values.copy())
            obj = self.workload.objective(self.global_values)
            obj_s = "nan" if obj is None else f"{_check_objective(obj, r + 1):.12e}"
            mean_st = self.stale_sum / self.stale_cnt if self.stale_cnt else 0.0
            self.metrics.append(
                f"{r + 1},{tick},{obj_s},{mean_st:.6f},{self.stale_max},"
                f"{sum(self.blocked_ticks)},{self.bytes_sent}"
            )

    # -- main loop ------------------------------------------------------------

    def run(self) -> SimResult:
        for p in range(self.cfg.P):
            self._maybe_start(p, 0)
        last_tick = 0
        while self.heap:
            tick, _, handler, args = heapq.heappop(self.heap)
            if tick < last_tick:
                raise StateCorruptionError("event ticks went backwards")
            last_tick = tick
            handler(*args, tick)
        if any(ph != "done" for ph in self.phase):
            dump = ", ".join(
                f"worker {p}: phase={self.phase[p]} clock={self.store.clocks[p]}"
                for p in range(self.cfg.P)
            )
            raise StateCorruptionError(f"event queue drained with workers stuck: {dump}")
        return SimResult(
            values=self.global_values.copy(),
            trace=self.trace,
            metrics=self.metrics,
            traffic={k: v.stats for k, v in self.links.items()},
            blocked_ticks=list(self.blocked_ticks),
            extra_passes=list(self.extra_passes),
            trajectory=self.trajectory,
            final_tick=last_tick,
            stale_mean=self.stale_sum / self.stale_cnt if self.stale_cnt else 0.0,
            stale_max=self.stale_max,
            pair_staleness=self.pair_staleness,
        )


def run_simulation(workload, config: SimConfig) -> SimResult:
    return SimCluster(workload, config).run()


# ---------------------------------------------------------------------------
# replay: independent re-checking of a recorded trace


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
    ids = np.union1d(sent, got)
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
