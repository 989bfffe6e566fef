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
from typing import Callable, Optional

import numpy as np

from .engine import FixedBlockScheduler, _check_objective
from .errors import ConfigurationError, StateCorruptionError
from .fabric import _MAX_TICK, OutgoingQueue, make_topology, sparse_codec_size
from .ssp import SspCore, Trace, sorted_union

# extra passes a worker may take at one clock: a run's work stays bounded
MAX_EXTRA_PASSES = 6

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
    updates the index block the scheduler hands it for the current round.
    Round t is kept as (assignment, changes), the changes merging its passes'
    payloads in pass order, until `observe(t)` hands them on and drops it."""

    def __init__(self, problem, P: int, scheduler=None):
        from .algorithms.lasso import LassoCDProgram

        self.program = LassoCDProgram(problem)
        self.m = problem.m
        self.scheduler = scheduler if scheduler is not None else FixedBlockScheduler(
            problem.m, P
        )
        self._rounds: dict[int, tuple[list[list[int]], dict[int, float]]] = {}

    def block(self, p: int, t: int, view) -> list[int]:
        if t not in self._rounds:
            self._rounds[t] = (self.scheduler.rounds(t, view), {})
        return self._rounds[t][0][p]

    def delta(self, view, p: int, t: int, indices) -> dict[int, float]:
        payload = self.program.block_delta(view, None, indices)
        self._rounds[t][1].update(payload)
        return payload

    def cost_units(self, p: int, t: int, indices) -> float:
        return float(max(len(indices), 1))

    def objective(self, values) -> float:
        return self.program.objective(values)

    def observe(self, t: int) -> None:
        """Round t has closed: every worker has finished its passes at t."""
        self.scheduler.observe(self._rounds.pop(t)[1])


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

    def observe(self, t: int) -> None:
        pass


# ---------------------------------------------------------------------------
# simulator


# the keys a combined server message carries: the sorted union of its parts'
# key arrays, where a key whose values cancel still counts; a global of this
# module that `_relay` calls, so a wrapper put here sees every merge
merge_payloads = sorted_union


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
    """A message is a tuple (id, seqs, key_count, nbytes, timestamp,
    origin): it names commits by id, and their keys, values and wire sizes
    live only in the store's log. A delivery's heap entry carries its link,
    destination and message. Each link queue (`links`) is that link's
    traffic record. A worker waits for its gate exactly when `wait_since[p]`
    is set; it is done once the store has finished it, and computing
    otherwise."""

    def __init__(self, workload, config: SimConfig):
        self.workload = workload
        self.cfg = config
        P = config.P
        self.topology = make_topology(config.topology, P)
        self.store = SspCore(P, config.staleness, workload.m)
        self.trace = self.store.trace
        self._append = self.store._append
        self.links: dict[tuple[int, int], OutgoingQueue] = {}
        self.wait_since: list[Optional[int]] = [0] * P
        self.blocked_ticks = [0] * P
        self.extra_passes = [0] * P
        self._extras_now = [0] * P  # extra passes at the worker's current clock
        self.heap: list = []
        self._heap_seq = 0
        self.global_values = np.zeros(workload.m)
        self.trajectory: list[np.ndarray] = []
        self.metrics: list[str] = []
        self.stale_sum = 0
        self.stale_cnt = 0
        self.stale_max = 0
        self.last_min = 0
        self._msg_id = 0
        # delivered staleness samples keyed by (origin worker, destination)
        self.pair_staleness: dict[tuple[int, int], list[int]] = {}
        # master-slave server relay state
        self._srv_pending: dict[int, dict[int, list[int]]] = {}  # ts -> origin -> seqs
        self._srv_next = 0  # oldest timestamp whose round is not yet relayed

    # -- event plumbing -----------------------------------------------------

    def _push(self, tick: int, handler: Callable, *args) -> None:
        """Schedule `handler(*args, tick)`; equal ticks run in push order."""
        heapq.heappush(self.heap, (tick, self._heap_seq, handler, args))
        self._heap_seq += 1

    # -- network ------------------------------------------------------------

    def _send(self, src: int, dst: int, seqs: list[int], key_count: int,
              nbytes: int, ts: int, origin: int, tick: int) -> None:
        """Put one new message (with a fresh id) of `nbytes` on link src -> dst."""
        link = self.links.get((src, dst))
        if link is None:
            link = self.links[(src, dst)] = OutgoingQueue(
                self.cfg.bandwidth, self.cfg.latency
            )
        mid = self._msg_id
        self._msg_id = mid + 1
        delivery = link.transmit(nbytes, tick)
        clock = self.store.clocks[src] if src < self.cfg.P else 0
        self._append((tick, "msg_send", src, clock, mid, ts, key_count, nbytes))
        self._push(delivery, self._deliver, link, dst,
                   (mid, seqs, key_count, nbytes, ts, origin))

    def _broadcast(self, origin: int, seq: int, tick: int) -> None:
        """Send one commit to every other worker. The origin sends one
        message to each node it relays to (`Topology.relays`), and each
        receiving worker relays it on (`_deliver`): down the origin's
        broadcast tree, P-1 link messages in all, a star of direct messages
        on full P2P. On master-slave the origin sends to the server, which
        relays batched rounds (`_server_receive`)."""
        upd = self.store.log[seq]
        for dst in self.topology.relays(origin, origin):
            self._send(origin, dst, [seq], len(upd.keys), upd.nbytes, upd.timestamp,
                       origin, tick)

    def _server_receive(self, msg: tuple, tick: int) -> None:
        """Batch one full round per timestamp, kept as origin -> seqs, then
        relay each worker the other workers' updates in a single combined
        message. Late commits at an already-flushed timestamp relay
        immediately."""
        _, seqs, _, _, ts, origin = msg
        if ts < self._srv_next:
            self._relay({origin: seqs}, ts, tick)
            return
        round_ = self._srv_pending.setdefault(ts, {})
        round_.setdefault(origin, []).extend(seqs)
        if len(round_) == self.cfg.P:
            # rounds flush in ts order: links are FIFO, ts commits before ts + 1
            self._srv_next = ts + 1
            self._relay(self._srv_pending.pop(ts), ts, tick)

    def _relay(self, round_: dict[int, list[int]], ts: int, tick: int) -> None:
        log, srv = self.store.log, self.topology.server
        for dst in range(self.cfg.P):
            part = [s for origin, seqs in round_.items() if origin != dst for s in seqs]
            if not part:
                continue
            n = len(merge_payloads([log[s].keys for s in part]))
            self._send(srv, dst, part, n, sparse_codec_size(n), ts, srv, tick)

    def _deliver(self, link: OutgoingQueue, dst: int, msg: tuple, tick: int) -> None:
        mid, seqs, key_count, nbytes, ts, origin = msg
        link.inflight -= nbytes
        store = self.store
        clock = store.clocks[dst] if dst < self.cfg.P else 0
        self._append((tick, "msg_deliver", dst, clock, mid, ts, key_count, nbytes))
        if dst == self.cfg.P:  # the master-slave server
            self._server_receive(msg, tick)
            return
        # relay down the origin's broadcast tree before taking it in
        for child in self.topology.relays(origin, dst):
            self._send(dst, child, seqs, key_count, nbytes, ts, origin, tick)
        # every commit in a message carries its timestamp
        st = clock - ts
        link.staleness_sum += st * len(seqs)
        link.staleness_count += len(seqs)
        for seq in seqs:
            worker = store.deliver(dst, seq).worker
            self.pair_staleness.setdefault((worker, dst), []).append(st)
        # only a delivery that leaves nothing required in flight can open
        # the gate of a waiting worker
        if self.wait_since[dst] is not None and not store.missing_required(dst):
            self._maybe_start(dst, tick)

    # -- worker state machine -----------------------------------------------

    def _maybe_start(self, p: int, tick: int) -> None:
        if self.wait_since[p] is None:
            return
        self.store.set_tick(tick)
        if self.store.blocked[p] or self.store.missing_required(p):
            return
        self.blocked_ticks[p] += tick - self.wait_since[p]
        self.wait_since[p] = None
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
        factor = self.cfg.compute_factor(p, tick)
        span = self.workload.cost_units(p, t, indices) * factor
        if span > _MAX_TICK - tick:
            raise ConfigurationError(f"straggler factor {factor:g} makes worker {p}'s "
                                     f"pass at tick {tick} end after tick {_MAX_TICK}")
        cost = max(1, math.ceil(span))
        self._append((tick, "compute_start", p, t, 0, t, len(indices), 0))
        self._push(tick + cost, self._finish_pass, p, payload)

    def _finish_pass(self, p: int, payload: dict, tick: int) -> None:
        store = self.store
        store.set_tick(tick)
        t = store.clocks[p]
        self._append((tick, "compute_end", p, t, 0, t, len(payload), 0))
        seq = store.commit(p, payload, t)
        upd = store.log[seq]
        np.add.at(self.global_values, upd.keys, upd.vals)
        self._broadcast(p, seq, tick)
        if t + 1 >= self.cfg.max_clocks:
            store.advance_clock(p)
            store.finish(p)
            self._after_clock_change(tick)
            return
        if (self.cfg.slow_worker_extras and self._extras_now[p] < MAX_EXTRA_PASSES
                and store.would_block_if_advanced(p)):
            # use the wait productively: another pass over the same block
            self.extra_passes[p] += 1
            self._extras_now[p] += 1
            self._push(tick, self._start_pass, p)
            return
        self._extras_now[p] = 0
        blocked = store.advance_clock(p)
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
            self.workload.observe(r)
            self.trajectory.append(self.global_values.copy())
            obj = self.workload.objective(self.global_values)
            obj_s = "nan" if obj is None else f"{_check_objective(obj, r + 1):.12e}"
            mean_st = self.stale_sum / self.stale_cnt if self.stale_cnt else 0.0
            self.metrics.append(
                f"{r + 1},{tick},{obj_s},{mean_st:.6f},{self.stale_max},"
                f"{sum(self.blocked_ticks)},{sum(q.bytes for q in self.links.values())}"
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
        stuck = [p for p, done in enumerate(self.store.finished) if not done]
        if stuck:
            dump = ", ".join(
                f"worker {p}: {'computing' if self.wait_since[p] is None else 'waiting'} "
                f"clock={self.store.clocks[p]}" for p in stuck
            )
            raise StateCorruptionError(f"event queue drained with workers stuck: {dump}")
        return SimResult(
            values=self.global_values.copy(),
            trace=self.trace,
            metrics=self.metrics,
            traffic=self.links,
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
