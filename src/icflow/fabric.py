"""Managed communication: topologies and their broadcast trees, wire codecs
with exact byte accounting, and rate-limited FIFO link queues."""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import ceil, isfinite

import numpy as np

from .engine import UpdateDelta
from .errors import ConfigurationError, DecodeError

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
    """The worker-to-worker graphs are circulant, so origin o's broadcast
    tree is worker 0's shifted by o. `_kids` holds worker 0's tree as
    offsets: entry r lists the offsets that offset r relays to."""

    def __init__(self, P: int):
        if P < 1:
            raise ConfigurationError("P must be >= 1")
        self.P = P
        self._kids: list[tuple[int, ...]] = [()] * P

    def relays(self, origin: int, node: int) -> tuple[int, ...]:
        """The workers `node` forwards `origin`'s commits to, in increasing
        order (the send order fixes the event order). Each worker other
        than the origin has exactly one sender, so a commit costs P-1 link
        messages."""
        P = self.P
        return tuple(sorted((origin + c) % P for c in self._kids[(node - origin) % P]))


class FullP2P(Topology):
    """Every worker links to every other: a commit goes straight to each."""

    def __init__(self, P: int):
        super().__init__(P)
        self._kids[0] = tuple(range(1, P))


class MasterSlave(Topology):
    """Bipartite topology: workers 0..P-1 and one server, node P.

    There is no worker-worker communication: a worker sends its commits to
    the server, which relays them to the other workers in batched rounds.
    """

    def __init__(self, P: int):
        super().__init__(P)
        self.server = P

    def relays(self, origin: int, node: int) -> tuple[int, ...]:
        return (self.server,) if node == origin else ()


class HaltonTopology(Topology):
    """Partially-connected P2P graph: worker i links to i+1 and i+h, with
    h = ceil(P/2).

    A route is a shortest path; among shortest paths the first hop prefers
    the ring (+1) edge and later hops prefer the skip edge, which reproduces
    the published 6-worker worked example (1 -> 2 -> 5 -> 6 in 1-based ids).
    From worker 0 that gives a closed form (`_prev`): offsets below h are
    reached only along the ring, h takes the skip, and every offset above h
    goes 0 -> 1 -> h+1 and then along the ring.
    """

    def __init__(self, P: int):
        super().__init__(P)
        if P < 2:
            raise ConfigurationError("halton topology needs P >= 2")
        self._h = ceil(P / 2)
        kids: list[list[int]] = [[] for _ in range(P)]
        for r in range(1, P):
            kids[self._prev(r)].append(r)
        self._kids = [tuple(k) for k in kids]

    def _prev(self, r: int) -> int:
        """The offset before offset r on its route from worker 0."""
        return r - self._h if r in (self._h, self._h + 1) else r - 1

    def route(self, src: int, dst: int) -> list[int]:
        P = self.P
        for w in (src, dst):
            if not (0 <= w < P):
                raise ConfigurationError(f"invalid worker id {w} for P={P}")
        if src == dst:
            raise ConfigurationError("route requires src != dst")
        path = [(dst - src) % P]
        while path[-1]:
            path.append(self._prev(path[-1]))
        return [(src + r) % P for r in reversed(path)]


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
        if not isfinite(finish):
            raise ConfigurationError(f"a {nbytes}-byte message has no finite "
                                     f"transmission time at {self.budget!r} bytes per tick")
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
