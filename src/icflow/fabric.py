"""Managed communication: topologies and routing, wire codecs with exact byte
accounting, and rate-limited priority queues."""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from math import ceil
from typing import Iterable, Optional

import numpy as np

from .engine import UpdateDelta
from .errors import ConfigurationError, DecodeError, ProtocolError

HEADER_FMT = "<BIIIqI"  # tag, K, D, S, timestamp, origin
HEADER_BYTES = struct.calcsize(HEADER_FMT)  # 25

_TAG_DENSE = 1
_TAG_SPARSE = 2
_TAG_SF = 3


class Codec(Enum):
    FULL = "full"
    SUFFICIENT_FACTOR = "sufficient_factor"


class PriorityMode(Enum):
    FIFO = "fifo"
    ABSOLUTE_MAGNITUDE = "absolute_magnitude"
    RELATIVE_MAGNITUDE = "relative_magnitude"


# ---------------------------------------------------------------------------
# codecs


def full_codec_size(K: int, D: int) -> int:
    return HEADER_BYTES + 8 * K * D


def sf_codec_size(K: int, D: int, S: int) -> int:
    return HEADER_BYTES + 8 * S * (K + D)


def sparse_codec_size(nnz: int) -> int:
    return HEADER_BYTES + 12 * nnz


def encoded_size(delta: UpdateDelta, codec: Codec) -> int:
    """Closed-form wire size: full = 8*K*D + header, SF = 8*S*(K+D) + header,
    sparse = 12*nnz + header."""
    p = delta.payload
    if codec is Codec.SUFFICIENT_FACTOR:
        if not p:
            return HEADER_BYTES
        k = len(p[0][0])
        d = len(p[0][1])
        return HEADER_BYTES + 8 * len(p) * (k + d)
    if isinstance(p, dict):
        return HEADER_BYTES + 12 * len(p)
    arr = np.asarray(p)
    return HEADER_BYTES + 8 * arr.size


def encode_delta(delta: UpdateDelta, codec: Codec) -> bytes:
    payload = delta.payload
    if codec is Codec.SUFFICIENT_FACTOR:
        factors = payload
        if factors:
            k = len(factors[0][0])
            d = len(factors[0][1])
        else:
            k = d = 0
        for b, c in factors:
            if len(b) != k or len(c) != d:
                raise ConfigurationError("sufficient factors must share shapes")
        head = struct.pack(
            HEADER_FMT, _TAG_SF, k, d, len(factors), delta.timestamp, delta.origin
        )
        body = b"".join(
            np.asarray(b, dtype="<f8").tobytes() + np.asarray(c, dtype="<f8").tobytes()
            for b, c in factors
        )
        return head + body
    if isinstance(payload, dict):
        keys = sorted(payload)
        head = struct.pack(
            HEADER_FMT, _TAG_SPARSE, 1, 0, len(keys), delta.timestamp, delta.origin
        )
        body = b"".join(
            struct.pack("<Id", k, payload[k]) for k in keys
        )
        return head + body
    arr = np.asarray(payload, dtype="<f8")
    if arr.ndim == 1:
        kk, dd = 1, arr.shape[0]
    elif arr.ndim == 2:
        kk, dd = arr.shape
    else:
        raise ConfigurationError("dense payload must be a vector or matrix")
    head = struct.pack(HEADER_FMT, _TAG_DENSE, kk, dd, 0, delta.timestamp, delta.origin)
    return head + arr.tobytes()


def decode_delta(data: bytes) -> UpdateDelta:
    if len(data) < HEADER_BYTES:
        raise DecodeError(len(data), "truncated header")
    tag, k, d, s, ts, origin = struct.unpack(HEADER_FMT, data[:HEADER_BYTES])
    body = data[HEADER_BYTES:]
    if tag == _TAG_DENSE:
        expected = 8 * k * d
        if len(body) != expected:
            raise DecodeError(HEADER_BYTES + min(len(body), expected),
                              f"dense body length {len(body)} != {expected}")
        arr = np.frombuffer(body, dtype="<f8").copy()
        payload = arr if k == 1 else arr.reshape(k, d)
        return UpdateDelta(payload=payload, timestamp=ts, origin=origin)
    if tag == _TAG_SPARSE:
        expected = 12 * s
        if len(body) != expected:
            raise DecodeError(HEADER_BYTES + min(len(body), expected),
                              f"sparse body length {len(body)} != {expected}")
        payload = {}
        for i in range(s):
            key, val = struct.unpack_from("<Id", body, 12 * i)
            payload[key] = val
        return UpdateDelta(payload=payload, timestamp=ts, origin=origin)
    if tag == _TAG_SF:
        expected = 8 * s * (k + d)
        if len(body) != expected:
            raise DecodeError(HEADER_BYTES + min(len(body), expected),
                              f"sufficient-factor body length {len(body)} != {expected}")
        factors = []
        stride = 8 * (k + d)
        for i in range(s):
            chunk = body[i * stride : (i + 1) * stride]
            b = np.frombuffer(chunk[: 8 * k], dtype="<f8").copy()
            c = np.frombuffer(chunk[8 * k :], dtype="<f8").copy()
            factors.append((b, c))
        return UpdateDelta(payload=factors, timestamp=ts, origin=origin)
    raise DecodeError(0, f"unknown codec tag {tag}")


def sf_reconstruct(factors, k: int, d: int) -> np.ndarray:
    """Sum of outer products b_i c_i^T in list order (fixed summation order)."""
    out = np.zeros((k, d))
    for b, c in factors:
        out += np.outer(b, c)
    return out


# ---------------------------------------------------------------------------
# topologies


class Topology:
    kind = "base"

    def __init__(self, P: int):
        if P < 1:
            raise ConfigurationError("P must be >= 1")
        self.P = P

    def check_worker(self, w: int) -> None:
        if not (0 <= w < self.P):
            raise ConfigurationError(f"invalid worker id {w} for P={self.P}")

    def route(self, src: int, dst: int) -> list[int]:
        raise NotImplementedError

    def links(self) -> list[tuple[int, int]]:
        raise NotImplementedError


class FullP2P(Topology):
    kind = "full_p2p"

    def route(self, src: int, dst: int) -> list[int]:
        self.check_worker(src)
        self.check_worker(dst)
        if src == dst:
            raise ConfigurationError("route requires src != dst")
        return [src, dst]

    def links(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.P) for j in range(self.P) if i != j]


class MasterSlave(Topology):
    """Bipartite topology: workers 0..P-1, servers P..P+servers-1.

    There is no worker-worker or server-server communication; the worker to
    worker path is two messages through a server, not a single route.
    """

    kind = "master_slave"

    def __init__(self, P: int, servers: int = 1):
        super().__init__(P)
        if servers < 1:
            raise ConfigurationError("server count must be >= 1")
        self.servers = servers

    def server_of(self, key: int) -> int:
        return self.P + (key % self.servers)

    def server_ids(self) -> list[int]:
        return list(range(self.P, self.P + self.servers))

    def is_server(self, node: int) -> bool:
        return self.P <= node < self.P + self.servers

    def route(self, src: int, dst: int) -> list[int]:
        src_server = self.is_server(src)
        dst_server = self.is_server(dst)
        if src_server == dst_server:
            kind = "server-server" if src_server else "worker-worker"
            raise ProtocolError(
                f"{kind} communication does not exist in a master-slave topology"
            )
        for node in (src, dst):
            if not (0 <= node < self.P + self.servers):
                raise ConfigurationError(f"invalid node id {node}")
        return [src, dst]

    def links(self) -> list[tuple[int, int]]:
        out = []
        for w in range(self.P):
            for srv in self.server_ids():
                out.append((w, srv))
                out.append((srv, w))
        return out


class HaltonTopology(Topology):
    """Partially-connected P2P graph: worker i links to i+1 and i+ceil(P/2).

    Routing picks a shortest path; among shortest paths the first hop prefers
    the ring (+1) edge and later hops prefer the skip edge, which reproduces
    the published 6-worker worked example (1 -> 2 -> 5 -> 6 in 1-based ids).
    """

    kind = "halton"

    def __init__(self, P: int):
        super().__init__(P)
        if P < 2:
            raise ConfigurationError("halton topology needs P >= 2")
        self._neighbors = {}
        # (src, dst) -> route, filled on first use; route() hands out copies
        self._routes: dict[tuple[int, int], list[int]] = {}
        half = ceil(P / 2)
        for i in range(P):
            nb = {(i + 1) % P, (i + half) % P} - {i}
            self._neighbors[i] = sorted(nb)
        # connectivity: the +1 ring edge alone reaches every node
        for i in range(P):
            if not self._reachable(i):
                raise ConfigurationError("halton topology is not connected")

    def neighbors(self, i: int) -> list[int]:
        self.check_worker(i)
        return list(self._neighbors[i])

    def _reachable(self, src: int) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            n = stack.pop()
            for nb in self._neighbors[n]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.P

    def _offset(self, a: int, b: int) -> int:
        return (b - a) % self.P

    def route(self, src: int, dst: int) -> list[int]:
        self.check_worker(src)
        self.check_worker(dst)
        if src == dst:
            raise ConfigurationError("route requires src != dst")
        path = self._routes.get((src, dst))
        if path is None:
            path = self._routes[(src, dst)] = self._shortest_route(src, dst)
        return list(path)

    def _shortest_route(self, src: int, dst: int) -> list[int]:
        # BFS layering, then enumerate shortest paths and pick by hop policy
        dist = {src: 0}
        frontier = [src]
        while frontier and dst not in dist:
            nxt = []
            for n in frontier:
                for nb in self._neighbors[n]:
                    if nb not in dist:
                        dist[nb] = dist[n] + 1
                        nxt.append(nb)
            frontier = nxt
        if dst not in dist:
            raise ProtocolError(f"destination {dst} unreachable from {src}")

        paths: list[list[int]] = []

        def extend(path: list[int]):
            node = path[-1]
            if node == dst:
                paths.append(list(path))
                return
            for nb in self._neighbors[node]:
                if dist.get(nb, -1) == dist[node] + 1 and dist[nb] <= dist[dst]:
                    path.append(nb)
                    extend(path)
                    path.pop()

        extend([src])
        paths = [p for p in paths if len(p) - 1 == dist[dst]]

        def key(path):
            offs = [self._offset(path[i], path[i + 1]) for i in range(len(path) - 1)]
            return (offs[0],) + tuple(-o for o in offs[1:])

        return min(paths, key=key)

    def links(self) -> list[tuple[int, int]]:
        return [(i, nb) for i in range(self.P) for nb in self._neighbors[i]]


def make_topology(kind: str, P: int, servers: int = 1) -> Topology:
    if kind == "full_p2p":
        return FullP2P(P)
    if kind == "master_slave":
        return MasterSlave(P, servers=servers)
    if kind == "halton":
        return HaltonTopology(P)
    raise ConfigurationError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# messages and rate-limited queues


@dataclass
class Message:
    payload: UpdateDelta
    source: int
    destination: int
    route: list[int]
    send_clock: int
    bytes: int
    enqueue_seq: int = 0
    priority: float = 0.0

    def min_key(self) -> int:
        p = self.payload.payload
        if isinstance(p, dict):
            return min(p) if p else 0
        return 0


class OutgoingQueue:
    """Rate-limited link queue: fluid-flow transmission at `budget` bytes per
    tick, plus fixed latency. Messages wait here until the link frees; waiting
    messages can be reordered by the prioritizer but never dropped."""

    def __init__(
        self,
        budget: float,
        latency: float = 0.0,
        mode: PriorityMode = PriorityMode.FIFO,
    ):
        if budget <= 0:
            raise ConfigurationError("byte budget must be > 0")
        self.budget = budget
        self.latency = latency
        self.mode = mode
        self.pending: list[Message] = []
        self.free_at = 0.0
        self.now = 0.0
        self._seq = 0
        self.delivered_bytes = 0
        self.delivered_count = 0
        # (start, finish, bytes) per completed transmission, for audits
        self.transmissions: list[tuple[float, float, int]] = []
        self._arrival: dict[int, float] = {}

    def enqueue(self, message: Message) -> None:
        message.enqueue_seq = self._seq
        self._seq += 1
        self._arrival[message.enqueue_seq] = self.now
        self.pending.append(message)

    def _pick(self) -> Message:
        if self.mode is PriorityMode.FIFO:
            idx = min(range(len(self.pending)), key=lambda i: self.pending[i].enqueue_seq)
        else:
            idx = min(
                range(len(self.pending)),
                key=lambda i: (
                    -self.pending[i].priority,
                    self.pending[i].min_key(),
                    self.pending[i].enqueue_seq,
                ),
            )
        return self.pending.pop(idx)

    def drain(self, elapsed: float) -> list[tuple[Message, float]]:
        """Advance time and release every message whose transmission (plus
        latency) completes within the window; in-flight bytes never exceed the
        fluid budget."""
        if elapsed < 0:
            raise ConfigurationError("elapsed time must be >= 0")
        self.now += elapsed
        out: list[tuple[Message, float]] = []
        while self.pending:
            msg = self._pick()
            # transmission cannot start before the message existed
            start = max(self.free_at, self._arrival[msg.enqueue_seq])
            finish = start + msg.bytes / self.budget
            if finish > self.now:
                self.pending.append(msg)
                break
            del self._arrival[msg.enqueue_seq]
            self.free_at = finish
            delivery = ceil(finish) + self.latency
            self.delivered_bytes += msg.bytes
            self.delivered_count += 1
            self.transmissions.append((start, finish, msg.bytes))
            out.append((msg, delivery))
        return out


def message_priority(
    message: Message, mode: PriorityMode, model_snapshot=None
) -> float:
    """Absolute mode: max recent accumulated change |delta_j|; relative mode:
    max |delta_j / A_j| with tiny |A_j| clamped to 1e-12."""
    p = message.payload.payload
    if isinstance(p, dict):
        items = p.items()
    else:
        arr = np.asarray(p).ravel()
        items = enumerate(arr.tolist())
    best = 0.0
    for j, v in items:
        if mode is PriorityMode.RELATIVE_MAGNITUDE:
            aj = 1e-12
            if model_snapshot is not None:
                aj = max(abs(float(np.asarray(model_snapshot).ravel()[j])), 1e-12)
            v = v / aj
        best = max(best, abs(v))
    return best


def prioritize_queue(queue: OutgoingQueue, model_snapshot=None) -> None:
    """Recompute priorities for all pending messages in place."""
    if queue.mode is PriorityMode.FIFO:
        return
    for msg in queue.pending:
        msg.priority = message_priority(msg, queue.mode, model_snapshot)


# ---------------------------------------------------------------------------
# broadcast planning


@dataclass
class BroadcastPlan:
    messages: list[Message]
    total_bytes: int


def broadcast(
    topology: Topology, src: int, delta: UpdateDelta, codec: Codec
) -> BroadcastPlan:
    """Static per-commit message plan for one broadcast.

    FullP2P: P-1 direct messages. MasterSlave: one worker->server message plus
    P server->worker messages (server->worker never uses the sufficient-factor
    codec: that direction carries actual parameters, which do not factor).
    Halton: one message per destination routed along neighbor links; per-hop
    delivery adds one clock of staleness and intermediate nodes may combine
    same-destination payloads.
    """
    msgs: list[Message] = []
    size = encoded_size(delta, codec)
    if isinstance(topology, FullP2P):
        for dst in range(topology.P):
            if dst == src:
                continue
            msgs.append(
                Message(delta, src, dst, [src, dst], delta.timestamp, size)
            )
    elif isinstance(topology, MasterSlave):
        srv = topology.server_ids()[0]
        msgs.append(Message(delta, src, srv, [src, srv], delta.timestamp, size))
        if codec is Codec.SUFFICIENT_FACTOR:
            down_codec = Codec.FULL  # parameters, not factorable updates
        else:
            down_codec = codec
        down_size = encoded_size(delta, down_codec)
        for dst in range(topology.P):
            msgs.append(
                Message(delta, srv, dst, [srv, dst], delta.timestamp, down_size)
            )
    elif isinstance(topology, HaltonTopology):
        for dst in range(topology.P):
            if dst == src:
                continue
            route = topology.route(src, dst)
            msgs.append(Message(delta, src, dst, route, delta.timestamp, size))
    else:
        raise ConfigurationError(f"cannot broadcast on topology {topology.kind}")
    return BroadcastPlan(messages=msgs, total_bytes=sum(m.bytes for m in msgs))


def server_to_worker_codec(codec: Codec) -> Codec:
    """Server->worker messages carry fresh parameters; reject SF there."""
    if codec is Codec.SUFFICIENT_FACTOR:
        raise ProtocolError(
            "sufficient-factor codec is not valid in the server-to-worker "
            "direction; servers send full parameter values"
        )
    return codec


@dataclass
class LinkStats:
    messages: int = 0
    bytes: int = 0
    max_inflight: int = 0
    staleness_sum: float = 0.0
    staleness_count: int = 0

    def mean_staleness(self) -> float:
        if self.staleness_count == 0:
            return 0.0
        return self.staleness_sum / self.staleness_count


def traffic_report(stats: dict[tuple[int, int], LinkStats]) -> str:
    """CSV: link,messages,bytes,max_inflight,mean_delivered_staleness."""
    lines = ["link,messages,bytes,max_inflight,mean_delivered_staleness"]
    for (a, b) in sorted(stats):
        st = stats[(a, b)]
        lines.append(
            f"{a}->{b},{st.messages},{st.bytes},{st.max_inflight},"
            f"{st.mean_staleness():.6f}"
        )
    return "\n".join(lines) + "\n"
