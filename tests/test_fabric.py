import numpy as np
import pytest

from icflow.engine import UpdateDelta
from icflow.errors import ConfigurationError, DecodeError, ProtocolError
from icflow.fabric import (
    Codec,
    FullP2P,
    HaltonTopology,
    HEADER_BYTES,
    MasterSlave,
    Message,
    OutgoingQueue,
    PriorityMode,
    broadcast,
    decode_delta,
    encode_delta,
    encoded_size,
    full_codec_size,
    make_topology,
    message_priority,
    prioritize_queue,
    server_to_worker_codec,
    sf_codec_size,
    sf_reconstruct,
    traffic_report,
)
from icflow.fabric import LinkStats


def test_header_is_25_bytes():
    assert HEADER_BYTES == 25


def test_dense_round_trip_and_size():
    rng = np.random.default_rng(0)
    for shape in ((7,), (3, 5)):
        arr = rng.normal(size=shape)
        d = UpdateDelta(payload=arr, timestamp=12, origin=3)
        wire = encode_delta(d, Codec.FULL)
        assert len(wire) == encoded_size(d, Codec.FULL) == HEADER_BYTES + 8 * arr.size
        back = decode_delta(wire)
        assert np.array_equal(back.payload, arr)
        assert back.timestamp == 12 and back.origin == 3


def test_sparse_round_trip_and_size():
    d = UpdateDelta(payload={5: 1.25, 2: -0.5}, timestamp=7, origin=1)
    wire = encode_delta(d, Codec.FULL)
    assert len(wire) == HEADER_BYTES + 12 * 2
    back = decode_delta(wire)
    assert back.payload == {2: -0.5, 5: 1.25}


def test_sf_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    K, D, S = 6, 4, 3
    factors = [(rng.normal(size=K), rng.normal(size=D)) for _ in range(S)]
    d = UpdateDelta(payload=factors, timestamp=9, origin=2)
    wire = encode_delta(d, Codec.SUFFICIENT_FACTOR)
    assert len(wire) == sf_codec_size(K, D, S)
    back = decode_delta(wire)
    recon = sf_reconstruct(back.payload, K, D)
    expect = sf_reconstruct(factors, K, D)
    assert np.array_equal(recon, expect)


def test_sf_outer_product_example():
    recon = sf_reconstruct([(np.array([1.0, 2.0]), np.array([3.0, 4.0]))], 2, 2)
    assert np.array_equal(recon, np.array([[3.0, 4.0], [6.0, 8.0]]))
    assert np.array_equal(sf_reconstruct([], 2, 3), np.zeros((2, 3)))


def test_sf_mismatched_factor_shapes_rejected():
    factors = [(np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(2))]
    d = UpdateDelta(payload=factors, timestamp=0, origin=0)
    with pytest.raises(ConfigurationError):
        encode_delta(d, Codec.SUFFICIENT_FACTOR)


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
        decode_delta(b"\x01\x02")
    assert e.value.offset == 2
    wire = encode_delta(
        UpdateDelta(payload=np.zeros(4), timestamp=0, origin=0), Codec.FULL
    )
    with pytest.raises(DecodeError):
        decode_delta(wire[:-3])
    bad_tag = b"\x09" + wire[1:]
    with pytest.raises(DecodeError):
        decode_delta(bad_tag)


def test_full_p2p_routes():
    t = FullP2P(4)
    assert t.route(1, 3) == [1, 3]
    assert len(t.links()) == 12
    with pytest.raises(ConfigurationError):
        t.route(2, 2)


def test_master_slave_has_no_worker_worker_route():
    t = MasterSlave(4)
    srv = t.server_ids()[0]
    assert t.route(0, srv) == [0, srv]
    assert t.route(srv, 2) == [srv, 2]
    with pytest.raises(ProtocolError):
        t.route(0, 1)
    with pytest.raises(ProtocolError):
        t.route(srv, srv)


def test_halton_neighbors_and_published_route():
    t = HaltonTopology(6)
    assert t.neighbors(0) == [1, 3]
    assert t.neighbors(4) == [1, 5]
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
                    assert b in t.neighbors(a)
                # oracle: BFS distance
                dist = {src: 0}
                frontier = [src]
                while frontier:
                    nxt = []
                    for n in frontier:
                        for nb in t.neighbors(n):
                            if nb not in dist:
                                dist[nb] = dist[n] + 1
                                nxt.append(nb)
                    frontier = nxt
                assert len(route) - 1 == dist[dst]


def test_make_topology_dispatch():
    assert make_topology("full_p2p", 3).kind == "full_p2p"
    assert make_topology("halton", 4).kind == "halton"
    assert make_topology("master_slave", 2).kind == "master_slave"
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


def test_priority_modes_reorder():
    q = OutgoingQueue(budget=1000.0, mode=PriorityMode.ABSOLUTE_MAGNITUDE)
    a = msg(10, key=0, val=0.9)
    b = msg(10, key=1, val=3.2)
    c = msg(10, key=2, val=1.1)
    for m in (a, b, c):
        q.enqueue(m)
    prioritize_queue(q)
    out = [m for m, _ in q.drain(1.0)]
    assert out == [b, c, a]


def test_relative_priority_clamps_tiny_values():
    snapshot = np.array([0.01, 100.0, 0.0])
    pa = message_priority(msg(10, key=0, val=0.9), PriorityMode.RELATIVE_MAGNITUDE, snapshot)
    pb = message_priority(msg(10, key=1, val=3.2), PriorityMode.RELATIVE_MAGNITUDE, snapshot)
    assert pa == pytest.approx(90.0)
    assert pb == pytest.approx(0.032)
    pc = message_priority(msg(10, key=2, val=1.0), PriorityMode.RELATIVE_MAGNITUDE, snapshot)
    assert pc == pytest.approx(1.0 / 1e-12)


def test_priority_reordering_preserves_multiset():
    q = OutgoingQueue(budget=1000.0, mode=PriorityMode.ABSOLUTE_MAGNITUDE)
    msgs = [msg(10, key=i, val=float(i)) for i in range(6)]
    for m in msgs:
        q.enqueue(m)
    prioritize_queue(q)
    out = [m for m, _ in q.drain(1.0)]
    assert sorted(id(m) for m in out) == sorted(id(m) for m in msgs)


def test_broadcast_counts():
    d = UpdateDelta(payload={0: 1.0}, timestamp=0, origin=0)
    assert len(broadcast(FullP2P(4), 0, d, Codec.FULL).messages) == 3
    plan = broadcast(MasterSlave(4), 0, d, Codec.FULL)
    assert len(plan.messages) == 1 + 4  # one up, P down
    plan = broadcast(HaltonTopology(6), 0, d, Codec.FULL)
    assert len(plan.messages) == 5


def test_server_to_worker_rejects_sufficient_factors():
    with pytest.raises(ProtocolError):
        server_to_worker_codec(Codec.SUFFICIENT_FACTOR)
    assert server_to_worker_codec(Codec.FULL) is Codec.FULL


def test_traffic_report_format():
    stats = {(0, 1): LinkStats(messages=3, bytes=120, max_inflight=60)}
    text = traffic_report(stats)
    lines = text.splitlines()
    assert lines[0] == "link,messages,bytes,max_inflight,mean_delivered_staleness"
    assert lines[1].startswith("0->1,3,120,60,")
