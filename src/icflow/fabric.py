"""Managed communication: topologies and routing, wire codecs with exact byte
accounting, and rate-limited FIFO link queues."""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import ceil

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


# ---------------------------------------------------------------------------
# codecs


def full_codec_size(K: int, D: int) -> int:
    return HEADER_BYTES + 8 * K * D


def sf_codec_size(K: int, D: int, S: int) -> int:
    return HEADER_BYTES + 8 * S * (K + D)


def sparse_codec_size(nnz: int) -> int:
    return HEADER_BYTES + 12 * nnz


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


# ---------------------------------------------------------------------------
# topologies


class Topology:
    def __init__(self, P: int):
        if P < 1:
            raise ConfigurationError("P must be >= 1")
        self.P = P
        # origin -> its broadcast tree, filled on first use
        self._trees: dict[int, list[tuple[int, ...]]] = {}

    def check_worker(self, w: int) -> None:
        if not (0 <= w < self.P):
            raise ConfigurationError(f"invalid worker id {w} for P={self.P}")

    def route(self, src: int, dst: int) -> list[int]:
        raise NotImplementedError

    def _parent(self, origin: int, dst: int) -> int:
        """The node before `dst` on its route from `origin`."""
        return self.route(origin, dst)[-2]

    def children(self, origin: int) -> list[tuple[int, ...]]:
        """The broadcast tree of worker `origin`: entry n lists, in increasing
        order, the workers that node n relays origin's commits to. A worker's
        parent is the node before it on its route from `origin`; the routes
        are prefix-closed, so every worker receives over exactly its route
        and each link carries a commit at most once. (Master-slave has no
        worker-to-worker routes; its server relays instead.)"""
        tree = self._trees.get(origin)
        if tree is None:
            kids: list[list[int]] = [[] for _ in range(self.P)]
            for dst in range(self.P):
                if dst != origin:
                    kids[self._parent(origin, dst)].append(dst)
            tree = self._trees[origin] = [tuple(k) for k in kids]
        return tree


class FullP2P(Topology):
    def route(self, src: int, dst: int) -> list[int]:
        self.check_worker(src)
        self.check_worker(dst)
        if src == dst:
            raise ConfigurationError("route requires src != dst")
        return [src, dst]


class MasterSlave(Topology):
    """Bipartite topology: workers 0..P-1 and one server, node P.

    There is no worker-worker communication; the worker to worker path is
    two messages through the server, not a single route.
    """

    def __init__(self, P: int):
        super().__init__(P)
        self.server = P

    def route(self, src: int, dst: int) -> list[int]:
        if (src == self.server) == (dst == self.server):
            kind = "server-server" if src == self.server else "worker-worker"
            raise ProtocolError(
                f"{kind} communication does not exist in a master-slave topology"
            )
        for node in (src, dst):
            if not (0 <= node <= self.server):
                raise ConfigurationError(f"invalid node id {node}")
        return [src, dst]


class HaltonTopology(Topology):
    """Partially-connected P2P graph: worker i links to i+1 and i+ceil(P/2).

    Routing picks a shortest path; among shortest paths the first hop prefers
    the ring (+1) edge and later hops prefer the skip edge, which reproduces
    the published 6-worker worked example (1 -> 2 -> 5 -> 6 in 1-based ids).
    The graph is circulant, so the route from a to b is the route from 0 to
    (b - a) mod P shifted by a. One BFS from worker 0 gives every distance,
    and a route is picked hop by hop among the links that keep it shortest.
    """

    def __init__(self, P: int):
        super().__init__(P)
        if P < 2:
            raise ConfigurationError("halton topology needs P >= 2")
        # link offsets, ring edge first; the ring edge alone reaches every node
        self._steps = sorted({1, ceil(P / 2)})
        # hops from worker 0 to worker r, i.e. between any a and (a + r) mod P
        self._dist = [0] + [-1] * (P - 1)
        frontier = [0]
        while frontier:
            nxt = []
            for n in frontier:
                for s in self._steps:
                    nb = (n + s) % P
                    if self._dist[nb] < 0:
                        self._dist[nb] = self._dist[n] + 1
                        nxt.append(nb)
            frontier = nxt
        # offset r -> route from 0 to r, filled on first use
        self._paths: dict[int, list[int]] = {}

    def route(self, src: int, dst: int) -> list[int]:
        self.check_worker(src)
        self.check_worker(dst)
        if src == dst:
            raise ConfigurationError("route requires src != dst")
        return [(src + n) % self.P for n in self._path((dst - src) % self.P)]

    def _parent(self, origin: int, dst: int) -> int:
        return (origin + self._path((dst - origin) % self.P)[-2]) % self.P

    def _path(self, off: int) -> list[int]:
        """The route from worker 0 to worker `off`: the first hop takes the
        smallest offset that stays on a shortest path, every later hop the
        largest."""
        path = self._paths.get(off)
        if path is None:
            dist, P = self._dist, self.P
            path, order = [0], self._steps
            while path[-1] != off:
                left = (off - path[-1]) % P
                step = next(s for s in order if dist[(left - s) % P] == dist[left] - 1)
                path.append((path[-1] + step) % P)
                order = self._steps[::-1]
            self._paths[off] = path
        return path


def make_topology(kind: str, P: int) -> Topology:
    if kind == "full_p2p":
        return FullP2P(P)
    if kind == "master_slave":
        return MasterSlave(P)
    if kind == "halton":
        return HaltonTopology(P)
    raise ConfigurationError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# messages and rate-limited links


@dataclass
class Message:
    payload: UpdateDelta
    source: int
    destination: int
    route: list[int]
    send_clock: int
    bytes: int
    enqueue_seq: int = 0


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


class OutgoingQueue:
    """Rate-limited FIFO link: fluid-flow transmission at `budget` bytes per
    tick, plus fixed latency. A message starts once the link is free and it
    has arrived, so its schedule is fixed the moment it is sent.

    `transmit` is the link model; the owner decrements `inflight` when the
    message is delivered. `enqueue`/`drain` wrap it for callers that step
    time: `drain` releases every message whose transmission has finished."""

    def __init__(self, budget: float, latency: float = 0.0):
        if budget <= 0:
            raise ConfigurationError("byte budget must be > 0")
        self.budget = budget
        self.latency = latency
        self.free_at = 0.0
        self.now = 0.0
        self.inflight = 0
        self.stats = LinkStats()
        # (start, finish, bytes) per transmission, for audits
        self.transmissions: list[tuple[float, float, int]] = []
        # (finish, delivery, message) sent by enqueue, not yet drained
        self.pending: deque = deque()

    def transmit(self, nbytes: int, now: float) -> float:
        """Send `nbytes` at time `now`; returns the delivery tick."""
        start = max(now, self.free_at)
        finish = start + nbytes / self.budget
        self.free_at = finish
        self.transmissions.append((start, finish, nbytes))
        self.inflight += nbytes
        st = self.stats
        st.messages += 1
        st.bytes += nbytes
        st.max_inflight = max(st.max_inflight, self.inflight)
        return ceil(finish) + self.latency

    def enqueue(self, message: Message) -> None:
        message.enqueue_seq = len(self.transmissions)
        delivery = self.transmit(message.bytes, self.now)
        self.pending.append((self.free_at, delivery, message))

    def drain(self, elapsed: float) -> list[tuple[Message, float]]:
        """Advance time and release, in FIFO order, every message whose
        transmission completes within the window; in-flight bytes never
        exceed the fluid budget."""
        if elapsed < 0:
            raise ConfigurationError("elapsed time must be >= 0")
        self.now += elapsed
        out: list[tuple[Message, float]] = []
        while self.pending and self.pending[0][0] <= self.now:
            _, delivery, msg = self.pending.popleft()
            self.inflight -= msg.bytes
            out.append((msg, delivery))
        return out


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
