"""The Halton broadcast plan: one shortest-path tree per origin.

`SimCluster` sends each commit down its origin's tree (`Topology.relays`);
every node relays a fresh message to its children before it takes the commit
in. The per-destination unicast plan it replaced (one copy per destination,
forwarded hop by hop along `route(origin, dst)`) is kept here as the
reference the tree is measured against.
"""
import hashlib
import heapq

import numpy as np

from icflow.fabric import HaltonTopology, traffic_report
from icflow.simcluster import (
    FuzzWorkload,
    SimCluster,
    SimConfig,
    inject_straggler,
    replay,
)


class _RoutesOnly:
    """Halton's routes with no broadcast tree: nobody relays."""

    def __init__(self, P):
        self.halton = HaltonTopology(P)
        self.P = P

    def route(self, src, dst):
        return self.halton.route(src, dst)

    def relays(self, origin, node):
        return ()


class UnicastCluster(SimCluster):
    """The unicast plan: the origin sends one copy of a commit per
    destination; an intermediate node passes the copy on without taking it
    in, and only the destination delivers it."""

    def __init__(self, workload, config):
        super().__init__(workload, config)
        self.topology = _RoutesOnly(config.P)
        self.rest = {}  # message id -> the nodes it still has to reach

    def _broadcast(self, origin, seq, keys, ts, tick):
        for dst in range(self.cfg.P):
            if dst != origin:
                self._hop(self.topology.route(origin, dst), [seq], keys, ts,
                          origin, tick)

    def _hop(self, route, seqs, keys, ts, origin, tick):
        self.rest[self._msg_id] = route[1:]
        self._send(route[0], route[1], seqs, keys, ts, origin, tick)

    def _deliver(self, link, msg, tick):
        rest = self.rest.pop(msg.id)
        if len(rest) == 1:
            super()._deliver(link, msg, tick)
            return
        node = link[1]
        self.links[link].inflight -= msg.nbytes
        self.store.set_tick(tick)
        self._emit(tick, "msg_deliver", node, self.store.clocks[node], msg.id,
                   msg.timestamp, len(msg.keys), msg.nbytes)
        self._hop(rest, msg.seqs, msg.keys, msg.timestamp, msg.origin, tick)


def _config(P, staleness, latency, bandwidth):
    return inject_straggler(
        SimConfig(P=P, staleness=staleness, topology="halton", max_clocks=8,
                  latency=latency, bandwidth=bandwidth),
        1, 3.0, (5, 40),
    )


# (P, staleness, latency, bandwidth, seed) -> final tick, link messages,
# bytes sent and a digest of the metrics and traffic files, as the unicast
# plan produced them before the tree replaced it
UNICAST_FIGURES = {
    (6, 1, 2, 64.0, 1): (77, 432, 21098, "3dfa86389e792fb7"),
    (7, 2, 1, 100.0, 2): (63, 672, 34910, "b33d2a040ca271df"),
    (12, 0, 3, 4096.0, 3): (232, 3456, 150060, "7c4c717109dc2d67"),
    (16, 3, 0, 40.0, 4): (475, 8192, 227432, "1b93cd9f9229c2de"),
    (2, 1, 1, 50.0, 5): (62, 16, 796, "18f57ff08640bf2d"),
}


def _figures(res):
    digest = hashlib.sha256(
        (res.metrics_text() + traffic_report(res.traffic)).encode()
    ).hexdigest()[:16]
    messages = sum(st.messages for st in res.traffic.values())
    return res.final_tick, messages, int(res.metrics[-1].split(",")[-1]), digest


def test_unicast_reference_reproduces_the_replaced_plan():
    for (P, s, lat, bw, seed), want in UNICAST_FIGURES.items():
        ref = UnicastCluster(FuzzWorkload(24, P, seed=seed), _config(P, s, lat, bw))
        res = ref.run()
        assert _figures(res) == want, (P, s, lat, bw, seed)
        assert not ref.rest and replay(res.trace, s, P).ok


def _recorded_run(cluster):
    """Run `cluster`, recording each link send as (src, dst, seqs)."""
    sends = []
    send = cluster._send

    def record(src, dst, seqs, *rest):
        sends.append((src, dst, tuple(seqs)))
        send(src, dst, seqs, *rest)

    cluster._send = record
    return cluster.run(), sends


def test_each_commit_takes_p_minus_1_sends_one_per_route():
    for (P, s, lat, bw, seed) in UNICAST_FIGURES:
        sim = SimCluster(FuzzWorkload(24, P, seed=seed), _config(P, s, lat, bw))
        res, sends = _recorded_run(sim)
        topo = sim.topology
        log = sim.store.log
        assert len(log) == P * 8
        # the trace holds exactly P - 1 link sends per commit
        assert sum(e.event == "msg_send" for e in res.trace) == (P - 1) * len(log)
        by_seq = {}
        for src, dst, seqs in sends:
            assert len(seqs) == 1
            by_seq.setdefault(seqs[0], []).append((src, dst))
        assert sorted(by_seq) == list(range(len(log)))
        for seq, edges in by_seq.items():
            origin = log[seq].worker
            # every other worker receives the commit exactly once ...
            parent = {dst: src for src, dst in edges}
            assert len(edges) == len(parent) == P - 1
            assert set(parent) == set(range(P)) - {origin}
            # ... over exactly its route from the origin
            for dst in parent:
                path = [dst]
                while path[-1] != origin:
                    path.append(parent[path[-1]])
                assert path[::-1] == topo.route(origin, dst), (seq, dst)
        for p in range(P):
            assert sim.store.in_flight[p] == {}
        assert replay(res.trace, s, P).ok


def test_no_link_carries_more_than_under_unicast():
    for (P, s, lat, bw, seed) in UNICAST_FIGURES:
        tree = SimCluster(FuzzWorkload(24, P, seed=seed), _config(P, s, lat, bw)).run()
        uni = UnicastCluster(FuzzWorkload(24, P, seed=seed), _config(P, s, lat, bw)).run()
        # the tree uses exactly the links of the routes
        assert tree.traffic.keys() == uni.traffic.keys()
        for link, st in tree.traffic.items():
            assert st.messages <= uni.traffic[link].messages, link
            assert st.bytes <= uni.traffic[link].bytes, link
        # P=2 has one-hop routes only, where both plans send the same
        assert sum(st.bytes for st in tree.traffic.values()) < sum(
            st.bytes for st in uni.traffic.values()) or P == 2


def _arrivals(cls, P, bandwidth, latency, commits):
    """(commit, destination) -> arrival tick when only `commits`, a list of
    (tick, origin, keys) in tick order, travel a halton ring of P idle
    workers under the plan of `cls`."""
    sim = cls(FuzzWorkload(64, P),
              SimConfig(P=P, topology="halton", bandwidth=bandwidth,
                        latency=latency))
    sim.phase = ["done"] * P  # nobody computes; only the network runs
    arrived = {}
    pending = list(commits)
    while pending or sim.heap:
        if pending and (not sim.heap or pending[0][0] <= sim.heap[0][0]):
            tick, origin, keys = pending.pop(0)
            payload = {k: 1.0 for k in range(keys)}
            sim._broadcast(origin, sim.store.commit(origin, payload, 0),
                           payload.keys(), 0, tick)
            continue
        tick, _, handler, (link, msg) = heapq.heappop(sim.heap)
        assert handler == sim._deliver
        sim._deliver(link, msg, tick)
        for seq in msg.seqs:
            if seq in sim.store.arrived[link[1]]:
                arrived.setdefault((seq, link[1]), tick)
    assert all(q.inflight == 0 for q in sim.links.values())
    return arrived


def test_single_origin_tree_never_delivers_later():
    # one origin's copies never overtake each other on a FIFO link, and the
    # tree puts no more bytes ahead of any copy than unicast did
    rng = np.random.default_rng(9)
    later = total = 0
    for _ in range(120):
        P = int(rng.integers(3, 20))
        bandwidth = float(rng.choice([12.0, 37.0, 100.0, 4096.0]))
        latency = int(rng.integers(0, 4))
        origin = int(rng.integers(P))
        ticks = np.sort(rng.integers(0, 40, size=int(rng.integers(1, 12))))
        commits = [(int(t), origin, int(rng.integers(1, 40))) for t in ticks]
        tree = _arrivals(SimCluster, P, bandwidth, latency, commits)
        uni = _arrivals(UnicastCluster, P, bandwidth, latency, commits)
        assert tree.keys() == uni.keys()
        assert len(tree) == len(commits) * (P - 1)
        later += sum(tree[k] > uni[k] for k in tree)
        total += len(tree)
    assert later == 0 and total > 5000


def test_overlapping_origins_can_deliver_later():
    # With two origins the tree can deliver later, even a commit's last
    # delivery. P=6, 100 bytes per tick, latency 2, both commits at tick 2:
    # worker 3 sends 30 keys (385 bytes), worker 0 one key (37 bytes). Both
    # reach worker 4 at tick 8 under the tree, and worker 3's relay goes
    # first on link 4 -> 5, so worker 0's commit reaches worker 5 at tick 15
    # instead of 12. Under unicast, worker 3's copy for worker 5 was fourth
    # on link 3 -> 4 and reached worker 4 only at tick 20.
    commits = [(2, 3, 30), (2, 0, 1)]
    tree = _arrivals(SimCluster, 6, 100.0, 2, commits)
    uni = _arrivals(UnicastCluster, 6, 100.0, 2, commits)
    assert [k for k in tree if tree[k] > uni[k]] == [(1, 5)]
    assert (tree[(1, 5)], uni[(1, 5)]) == (15, 12)
    assert max(tree[(1, d)] for d in range(1, 6)) == 15
    assert max(uni[(1, d)] for d in range(1, 6)) == 12
    # worker 3's commit gains more than that: worker 5 has it at 14, not 26
    assert (tree[(0, 5)], uni[(0, 5)]) == (14, 26)
