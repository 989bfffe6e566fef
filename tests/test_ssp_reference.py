"""`SspCore` against a reference store, step by step.

The reference is written from the protocol as `icflow.ssp`'s docstring states
it, and it keeps everything whole: every commit, and per worker the seqs that
have arrived and those it has applied. Seeded random operation sequences run
on both stores. After each step the two must agree on the step's result, on
whether it raised and with which type, on `missing_required`,
`would_block_if_advanced`, `blocked` and `min_clock`, and on the views bit
for bit.
"""
import numpy as np
import pytest

from icflow.errors import ProtocolError
from icflow.ssp import SspCore


class ReferenceStore:
    def __init__(self, P, staleness, m):
        self.P, self.staleness = P, staleness
        self.clocks, self.finished, self.blocked = [0] * P, [False] * P, [False] * P
        self.commits = []  # (writer, timestamp, keys, vals), indexed by seq
        self.arrived = [set() for _ in range(P)]  # every foreign seq received
        self.applied = [set() for _ in range(P)]
        self.views = [np.zeros(m) for _ in range(P)]

    def _worker(self, w):
        if not 0 <= w < self.P:
            raise ProtocolError(f"invalid worker id {w}")

    def _min_clock(self):  # finished workers hold no one back
        active = [c for c, done in zip(self.clocks, self.finished) if not done]
        return min(active) if active else max(self.clocks)

    def commit(self, w, payload, timestamp):
        self._worker(w)
        if timestamp != self.clocks[w]:
            raise ProtocolError("an update carries its writer's clock")
        keys, vals = np.fromiter(payload, np.int64), np.fromiter(payload.values(), float)
        self.commits.append((w, timestamp, keys, vals))
        np.add.at(self.views[w], keys, vals)  # the writer sees it at once
        return len(self.commits) - 1

    def advance_clock(self, w):
        self._worker(w)
        if self.finished[w]:
            raise ProtocolError(f"worker {w} already finished")
        self.clocks[w] += 1
        if self.clocks[w] - self._min_clock() > self.staleness:
            self.blocked[w] = True
            return True
        return False

    def release_unblocked(self):
        limit = self._min_clock() + self.staleness
        released = [p for p in range(self.P) if self.blocked[p] and self.clocks[p] <= limit]
        for p in released:
            self.blocked[p] = False
        return released

    def deliver(self, w, seqs):
        self._worker(w)
        if not seqs or not all(0 <= seq < len(self.commits) for seq in seqs):
            raise ProtocolError(f"no such commit in {seqs}")
        if len({self.commits[seq][1] for seq in seqs}) > 1:
            raise ProtocolError("a message carries one timestamp")
        if len(set(seqs)) < len(seqs) or any(
                self.commits[seq][0] == w or seq in self.arrived[w] for seq in seqs):
            raise ProtocolError("a foreign commit arrives once")
        self.arrived[w].update(seqs)

    def missing_required(self, w):
        self._worker(w)
        horizon = self.clocks[w] - self.staleness - 1
        return sum(writer != w and ts <= horizon and seq not in self.arrived[w]
                   for seq, (writer, ts, _, _) in enumerate(self.commits))

    def would_block_if_advanced(self, w):
        self._worker(w)
        return self.clocks[w] + 1 - self._min_clock() > self.staleness

    def catch_up(self, w):
        self._worker(w)
        new = sorted(self.arrived[w] - self.applied[w])  # in commit order
        for seq in new:
            np.add.at(self.views[w], *self.commits[seq][2:])
        self.applied[w].update(new)
        return new

    def read(self, w):
        self.catch_up(w)
        return self.views[w].copy()

    def finish(self, w):
        self._worker(w)
        self.finished[w], self.blocked[w] = True, False


def _outcome(method, args):
    """The call's result in a form both stores share, or the type it raised."""
    try:
        result = method(*args)
    except Exception as e:
        return type(e)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, list):
        return [getattr(item, "seq", item) for item in result]
    return result


def _step_both(store, ref, op, args):
    got, want = _outcome(getattr(store, op), args), _outcome(getattr(ref, op), args)
    assert got == want, (op, args)
    assert store.blocked == ref.blocked, (op, args)
    assert store.min_clock() == ref._min_clock(), (op, args)
    for w in range(ref.P):
        assert store.missing_required(w) == ref.missing_required(w), (op, args, w)
        assert store.would_block_if_advanced(w) == ref.would_block_if_advanced(w)
        assert store.views[w].tobytes() == ref.views[w].tobytes(), (op, args, w)


def _random_message(rng, ref, w):
    """Mostly a subset of one timestamp's commits not yet at `w`; otherwise a
    repeat of one that has arrived, or seqs drawn from the whole log (own
    commits, mixed timestamps, out of range), sometimes with a seq twice."""
    owed = {}
    if 0 <= w < ref.P:
        for seq, (writer, ts, _, _) in enumerate(ref.commits):
            if writer != w and seq not in ref.arrived[w]:
                owed.setdefault(ts, []).append(seq)
    draw = rng.random()
    if owed and draw < 0.6:
        pool = owed[list(owed)[rng.integers(len(owed))]]
        seqs = rng.permutation(pool)[:rng.integers(1, len(pool) + 1)].tolist()
    elif 0 <= w < ref.P and ref.arrived[w] and draw < 0.75:
        seqs = [sorted(ref.arrived[w])[rng.integers(len(ref.arrived[w]))]]
    else:
        seqs = rng.integers(-1, len(ref.commits) + 1, rng.integers(0, 4)).tolist()
    if seqs and rng.random() < 0.1:
        seqs.append(seqs[0])
    return seqs


_OPS = ["commit", "advance_clock", "deliver", "catch_up", "read", "finish",
        "release_unblocked"]
_WEIGHTS = [0.25, 0.15, 0.3, 0.07, 0.08, 0.01, 0.14]


def _random_step(rng, ref, m):
    op = _OPS[rng.choice(len(_OPS), p=_WEIGHTS)]
    if op == "release_unblocked":
        return op, ()
    w = int(rng.integers(-1, ref.P + 1) if rng.random() < 0.05 else rng.integers(ref.P))
    if op == "commit":
        ts = ref.clocks[w] if 0 <= w < ref.P and rng.random() < 0.9 else int(rng.integers(3))
        keys = rng.choice(m, rng.integers(1, m + 1), replace=False).tolist()
        return op, (w, {k: float(rng.normal()) for k in keys}, ts)
    if op == "deliver":
        return op, (w, _random_message(rng, ref, w))
    return op, (w,)


@pytest.mark.parametrize("seed", range(24))
def test_store_agrees_with_the_reference_under_random_operations(seed):
    rng = np.random.default_rng(seed)
    P, staleness, m = 2 + seed % 3, seed // 3 % 3, 5
    store, ref = SspCore(P, staleness, m), ReferenceStore(P, staleness, m)
    for _ in range(250):
        _step_both(store, ref, *_random_step(rng, ref, m))


def test_a_repeated_delivery_is_rejected_while_its_timestamp_is_owed():
    store, ref = SspCore(3, 0, 2), ReferenceStore(3, 0, 2)
    steps = [("commit", (0, {0: 1.0}, 0)), ("commit", (1, {1: 2.0}, 0)),
             ("advance_clock", (2,)), ("deliver", (2, [0])), ("deliver", (2, [0])),
             ("deliver", (2, [1])), ("read", (2,))]
    for op, args in steps:
        _step_both(store, ref, op, args)


def _gate_steps(rng, ref, finish_share, anyone=False):
    """Clock advances of random unfinished workers and releases. A step in
    `finish_share` finishes a worker at the minimum clock while another is
    left, so that the minimum moves to the next clock that still has a
    worker; with `anyone`, any unfinished worker, the last one too."""
    live = [w for w in range(ref.P) if not ref.finished[w]]
    draw = rng.random()
    if len(live) > (0 if anyone else 1) and draw < finish_share:
        low = [w for w in live if anyone or ref.clocks[w] == ref._min_clock()]
        return "finish", (int(rng.choice(low)),)
    if live and draw < 0.75:
        return "advance_clock", (int(rng.choice(live)),)
    return "release_unblocked", ()


@pytest.mark.parametrize("seed", range(8))
def test_finishing_workers_at_the_minimum_clock_moves_the_gate_as_the_reference(seed):
    rng = np.random.default_rng(100 + seed)
    P, staleness = 3 + seed % 4, seed % 3
    store, ref = SspCore(P, staleness, 2), ReferenceStore(P, staleness, 2)
    jumps = 0  # finishes that move the minimum past a clock nobody holds
    for _ in range(120):
        low = ref._min_clock()
        op, args = _gate_steps(rng, ref, 0.04)
        _step_both(store, ref, op, args)
        jumps += op == "finish" and ref._min_clock() > low + 1
    assert jumps


@pytest.mark.parametrize("seed", range(4))
def test_finishing_every_worker_moves_the_gate_as_the_reference(seed):
    rng = np.random.default_rng(200 + seed)
    P, staleness = 2 + seed, seed % 2
    store, ref = SspCore(P, staleness, 2), ReferenceStore(P, staleness, 2)
    for _ in range(30):
        _step_both(store, ref, *_gate_steps(rng, ref, 0.0))
    while not all(ref.finished):
        _step_both(store, ref, *_gate_steps(rng, ref, 0.3, anyone=True))
    # once all have finished the minimum is the highest clock; a finished
    # worker cannot advance, and finishing it again changes nothing
    assert store.min_clock() == max(ref.clocks)
    for op, args in [("advance_clock", (0,)), ("finish", (P - 1,)),
                     ("release_unblocked", ()), ("would_block_if_advanced", (0,))]:
        _step_both(store, ref, op, args)


def test_finishing_a_worker_twice_leaves_the_minimum_where_it_was():
    # workers 0 and 1 share the minimum clock 1 until 1 moves on
    store, ref = SspCore(3, 1, 2), ReferenceStore(3, 1, 2)
    steps = [("advance_clock", (0,)), ("advance_clock", (1,)), ("advance_clock", (2,)),
             ("advance_clock", (2,)), ("finish", (0,)), ("finish", (0,)),
             ("release_unblocked", ()), ("advance_clock", (1,)), ("finish", (0,))]
    for op, args in steps:
        _step_both(store, ref, op, args)
    assert store.min_clock() == 2
