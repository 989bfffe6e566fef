import functools
import math

import numpy as np
import pytest

from icflow.algorithms.mlr import gradient_from_factors
from icflow.engine import UpdateDelta
from icflow.errors import ConfigurationError, DecodeError
from icflow.fabric import (
    Codec,
    FullP2P,
    HaltonTopology,
    HEADER_BYTES,
    MasterSlave,
    Message,
    OutgoingQueue,
    decode_delta,
    encode_delta,
    full_codec_size,
    make_topology,
    sf_codec_size,
    sparse_codec_size,
    traffic_report,
)
from icflow.simcluster import FuzzWorkload, SimCluster, SimConfig


def test_header_is_25_bytes():
    assert HEADER_BYTES == 25


def test_sf_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    K, D, S = 6, 4, 3
    factors = [(rng.normal(size=K), rng.normal(size=D)) for _ in range(S)]
    d = UpdateDelta(payload=factors, timestamp=9, origin=2)
    wire = encode_delta(d, Codec.SUFFICIENT_FACTOR)
    assert len(wire) == sf_codec_size(K, D, S)
    back = decode_delta(wire)
    assert back.timestamp == 9 and back.origin == 2
    recon = gradient_from_factors(back.payload, K, D)
    expect = gradient_from_factors(factors, K, D)
    assert np.array_equal(recon, expect)


def test_sf_outer_product_example():
    recon = gradient_from_factors([(np.array([1.0, 2.0]), np.array([3.0, 4.0]))], 2, 2)
    assert np.array_equal(recon, np.array([[3.0, 4.0], [6.0, 8.0]]))
    assert np.array_equal(gradient_from_factors([], 2, 3), np.zeros((2, 3)))


def test_sf_mismatched_factor_shapes_rejected():
    factors = [(np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(2))]
    d = UpdateDelta(payload=factors, timestamp=0, origin=0)
    with pytest.raises(ConfigurationError):
        encode_delta(d, Codec.SUFFICIENT_FACTOR)


def test_only_the_sufficient_factor_codec_encodes():
    d = UpdateDelta(payload=[(np.ones(2), np.ones(3))], timestamp=0, origin=0)
    with pytest.raises(ConfigurationError):
        encode_delta(d, Codec.FULL)
    assert full_codec_size(2, 3) == HEADER_BYTES + 8 * 6
    assert sparse_codec_size(2) == HEADER_BYTES + 12 * 2


def test_published_mlr_shape_compression_ratio():
    # 325k x 10k parameter matrix, 100 factor pairs
    full = full_codec_size(325_000, 10_000)
    sf = sf_codec_size(325_000, 10_000, 100)
    assert full / sf == pytest.approx(
        (325_000 * 10_000) / (100 * 335_000), rel=1e-6
    )
    assert full / sf > 90


def test_decode_errors_carry_offsets():
    with pytest.raises(DecodeError) as e:
        decode_delta(b"\x03\x02")
    assert e.value.offset == 2
    factors = [(np.zeros(2), np.zeros(3))] * 2
    wire = encode_delta(
        UpdateDelta(payload=factors, timestamp=0, origin=0), Codec.SUFFICIENT_FACTOR
    )
    with pytest.raises(DecodeError) as e:
        decode_delta(wire[:-3])
    assert e.value.offset == len(wire) - 3
    # tags 1 and 2, the dense and sparse forms, are not on the wire
    for tag in (b"\x01", b"\x02", b"\x09"):
        with pytest.raises(DecodeError) as e:
            decode_delta(tag + wire[1:])
        assert e.value.offset == 0


def halton_neighbors(i, P):
    """The halton link rule: worker i links to i+1 and i+ceil(P/2)."""
    return {(i + 1) % P, (i + math.ceil(P / 2)) % P} - {i}


def test_halton_neighbors_and_published_route():
    t = HaltonTopology(6)
    assert halton_neighbors(0, 6) == {1, 3}
    assert halton_neighbors(4, 6) == {1, 5}
    # a route is one hop exactly when the rule links the pair
    for a in range(6):
        for b in set(range(6)) - {a}:
            assert (len(t.route(a, b)) == 2) == (b in halton_neighbors(a, 6))
    # the 6-worker worked example, zero-based: 0 -> 1 -> 4 -> 5
    assert t.route(0, 5) == [0, 1, 4, 5]
    with pytest.raises(ConfigurationError):
        t.route(3, 3)


def test_halton_route_table_matches_first_call_routes():
    for P in list(range(2, 17)) + [33]:
        pairs = [(s, d) for s in range(P) for d in range(P) if s != d]
        first = {pair: HaltonTopology(P).route(*pair) for pair in pairs}
        for order in (pairs, pairs[::-1]):
            t = HaltonTopology(P)
            for pair in order:
                assert t.route(*pair) == first[pair]
                assert t.route(*pair) == first[pair]
    t = HaltonTopology(6)
    route = t.route(0, 5)
    route.append(2)
    route[1] = 3
    assert t.route(0, 5) == [0, 1, 4, 5]
    # argument checks still run once the pair is in the table
    with pytest.raises(ConfigurationError):
        t.route(0, 6)
    with pytest.raises(ConfigurationError):
        t.route(5, 5)


def test_halton_routes_are_shortest_paths():
    for P in (4, 6, 9):
        t = HaltonTopology(P)
        for src in range(P):
            for dst in range(P):
                if src == dst:
                    continue
                route = t.route(src, dst)
                assert route[0] == src and route[-1] == dst
                for a, b in zip(route, route[1:]):
                    assert b in halton_neighbors(a, P)
                # oracle: BFS distance
                dist = {src: 0}
                frontier = [src]
                while frontier:
                    nxt = []
                    for n in frontier:
                        for nb in halton_neighbors(n, P):
                            if nb not in dist:
                                dist[nb] = dist[n] + 1
                                nxt.append(nb)
                    frontier = nxt
                assert len(route) - 1 == dist[dst]


@functools.lru_cache(maxsize=None)
def _hops(P, start, reverse=False):
    """BFS hop counts from `start`, or to it over the links reversed (m
    links to n when n - m is 1 or ceil(P/2))."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for n in frontier:
            for nb in ({(n - 1) % P, (n - math.ceil(P / 2)) % P} - {n} if reverse
                       else halton_neighbors(n, P)):
                if nb not in dist:
                    dist[nb] = dist[n] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def _enumerated_route(P, src, dst):
    """The route by its definition: enumerate every shortest path, then
    take the least by (first offset, minus each later offset)."""
    dist, left = _hops(P, src), _hops(P, dst, reverse=True)
    paths = []

    def extend(path):
        node = path[-1]
        if node == dst:
            paths.append(list(path))
            return
        for nb in sorted(halton_neighbors(node, P)):
            # nb is one hop further from src and on a shortest path to dst
            if dist[nb] == dist[node] + 1 and dist[nb] + left[nb] == dist[dst]:
                path.append(nb)
                extend(path)
                path.pop()

    extend([src])

    def key(path):
        offs = [(b - a) % P for a, b in zip(path, path[1:])]
        return (offs[0],) + tuple(-o for o in offs[1:])

    return min(paths, key=key)


def test_halton_routes_match_enumeration():
    for P in range(2, 41):
        t = HaltonTopology(P)
        for src in range(P):
            for dst in range(P):
                if src != dst:
                    assert t.route(src, dst) == _enumerated_route(P, src, dst), (
                        P, src, dst)
    # every other route is one of these shifted by its source
    for P in range(41, 129):
        t = HaltonTopology(P)
        for dst in range(1, P):
            assert t.route(0, dst) == _enumerated_route(P, 0, dst), (P, dst)


def _assert_is_route_tree(t, origin):
    P = t.P
    tree = [t.relays(origin, n) for n in range(P)]
    parent = {c: n for n in range(P) for c in tree[n]}
    assert sum(map(len, tree)) == len(parent)  # one sender per receiver
    assert sorted(parent) == sorted(set(range(P)) - {origin})
    routes = {dst: t.route(origin, dst) for dst in parent}
    for dst, route in routes.items():
        # prefix-closed: the route to the parent is this route less its end
        assert parent[dst] == route[-2]
        assert route[:-1] == ([origin] if parent[dst] == origin
                              else routes[parent[dst]])
    assert all(list(kids) == sorted(kids) for kids in tree)


def test_halton_broadcast_trees_follow_the_routes():
    for P in list(range(2, 21)) + [32, 33, 64]:
        t = HaltonTopology(P)
        for origin in range(P):
            _assert_is_route_tree(t, origin)
    # a shifted tree wraps around, and its relays stay in increasing order
    assert HaltonTopology(6).relays(4, 4) == (1, 5)
    # full P2P: a star
    assert [FullP2P(4).relays(2, n) for n in range(4)] == [(), (), (0, 1, 3), ()]
    # master-slave: the origin sends to the server and no worker relays
    ms = MasterSlave(4)
    assert [ms.relays(1, n) for n in range(4)] == [(), (4,), (), ()]


def test_halton_builds_every_tree_at_p_256():
    P = 256
    t = HaltonTopology(P)
    trees = [[t.relays(o, n) for n in range(P)] for o in range(P)]
    for origin in (0, 1, 127, 128, 255):
        _assert_is_route_tree(t, origin)
    # the graph is circulant: each tree is worker 0's shifted by its origin
    for o in range(P):
        assert trees[o] == [tuple(sorted((c + o) % P for c in trees[0][(n - o) % P]))
                            for n in range(P)]


def test_halton_trees_at_p_2048():
    t = HaltonTopology(2048)
    for origin in (0, 1024, 2047):
        _assert_is_route_tree(t, origin)


def test_make_topology_dispatch():
    assert type(make_topology("full_p2p", 3)) is FullP2P
    assert type(make_topology("halton", 4)) is HaltonTopology
    assert type(make_topology("master_slave", 2)) is MasterSlave
    with pytest.raises(ConfigurationError):
        make_topology("ring", 3)


def msg(nbytes, key=0, val=1.0, seq_payload=None):
    payload = seq_payload if seq_payload is not None else {key: val}
    d = UpdateDelta(payload=payload, timestamp=0, origin=0)
    return Message(d, 0, 1, [0, 1], 0, nbytes)


def test_drain_cumulative_capacity_example():
    # budget 100 bytes/tick, three 60-byte messages: done at ticks 1, 2, 2
    q = OutgoingQueue(budget=100.0, latency=0)
    for _ in range(3):
        q.enqueue(msg(60))
    out = q.drain(3.0)
    assert [t for _, t in out] == [1, 2, 2]
    assert q.drain(1.0) == []


def test_drain_respects_budget_over_time():
    q = OutgoingQueue(budget=50.0)
    for _ in range(4):
        q.enqueue(msg(100))
    released = q.drain(2.0)
    assert len(released) == 1  # only 100 bytes fit in 2 ticks
    released += q.drain(6.0)
    assert len(released) == 4
    # transmissions serialize and never exceed the budget rate
    for (s0, f0, b0), (s1, f1, b1) in zip(q.transmissions, q.transmissions[1:]):
        assert s1 >= f0 - 1e-12
    for s, f, b in q.transmissions:
        assert b / (f - s) <= 50.0 + 1e-9


def test_fifo_preserves_enqueue_order():
    q = OutgoingQueue(budget=1000.0)
    msgs = [msg(10, key=i) for i in range(5)]
    for m in msgs:
        q.enqueue(m)
    out = [m for m, _ in q.drain(1.0)]
    assert out == msgs


def test_enqueue_drain_agrees_with_transmit():
    # enqueue/drain at random times versus transmit on a second queue fed
    # the same (size, arrival) sequence
    rng = np.random.default_rng(12)
    q = OutgoingQueue(budget=70.0, latency=2)
    ref = OutgoingQueue(budget=70.0, latency=2)
    sent, released = [], []
    for _ in range(300):
        if rng.random() < 0.4:
            batch = q.drain(float(rng.uniform(0.0, 4.0)))
            # drain releases exactly the messages finished by now
            assert all(q.transmissions[m.enqueue_seq][1] <= q.now for m, _ in batch)
            assert all(finish > q.now for finish, _, _ in q.pending)
            released += batch
        m = msg(int(rng.integers(1, 400)))
        q.enqueue(m)
        sent.append((m, ref.transmit(m.bytes, q.now)))
        assert q.free_at == ref.free_at
    released += q.drain(1e6)
    assert [(id(m), t) for m, t in released] == [(id(m), t) for m, t in sent]
    assert [m.enqueue_seq for m, _ in released] == list(range(len(sent)))
    assert q.inflight == 0
    total = sum(m.bytes for m, _ in sent)
    assert (q.messages, q.bytes) == (len(sent), total)
    assert (ref.messages, ref.bytes) == (len(sent), total)


def test_broadcast_counts():
    # SimCluster._broadcast is the one broadcast plan: P-1 direct messages
    # on full P2P, one to the server on master-slave, one to each child of
    # the origin's tree on halton (the children relay on delivery)
    halton_children = HaltonTopology(6).relays(0, 0)
    assert halton_children == (1, 3)
    for topology, P, first_hops in (
        ("full_p2p", 4, {(0, 1), (0, 2), (0, 3)}),
        ("master_slave", 4, {(0, 4)}),
        ("halton", 6, {(0, c) for c in halton_children}),
    ):
        sim = SimCluster(FuzzWorkload(12, P), SimConfig(P=P, topology=topology))
        sim._broadcast(0, sim.store.commit(0, {0: 1.0, 3: 2.0}, 0), 0)
        sends = [e for e in sim.trace if e.event == "msg_send"]
        assert len(sends) == len(first_hops)
        assert all(e.bytes == sparse_codec_size(2) for e in sends)
        assert set(sim.links) == first_hops


def test_traffic_report_format():
    q = OutgoingQueue(budget=1.0)
    q.messages, q.bytes, q.max_inflight = 3, 120, 60
    text = traffic_report({(0, 1): q})
    lines = text.splitlines()
    assert lines[0] == "link,messages,bytes,max_inflight,mean_delivered_staleness"
    assert lines[1].startswith("0->1,3,120,60,")
