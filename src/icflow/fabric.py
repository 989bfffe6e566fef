"""Managed communication: topologies and their broadcast trees, update sizes
and the sufficient-factor wire codec, and rate-limited FIFO link queues."""
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

# the last tick the trace's int64 columns hold
_MAX_TICK = 2**63 - 1

_TAG_SF = 3


# the `[runtime] codec` names: the form an MLR step's update is sized in
class Codec(Enum):
    FULL = "full"
    SUFFICIENT_FACTOR = "sufficient_factor"


# ---------------------------------------------------------------------------
# codecs


def full_codec_size(K: int, D: int) -> int:
    """Bytes of a dense K x D update: the header (S = 0), then the K * D
    values as little-endian float64, row by row."""
    return HEADER_BYTES + 8 * K * D


def sf_codec_size(K: int, D: int, S: int) -> int:
    return HEADER_BYTES + 8 * S * (K + D)


def sparse_codec_size(nnz: int) -> int:
    """Bytes of a sparse update of nnz keys: the header (K = 1, D = 0,
    S = nnz), then each key in ascending order as a little-endian uint32 id
    and float64 value."""
    return HEADER_BYTES + 12 * nnz


def encode_delta(delta: UpdateDelta, codec: Codec) -> bytes:
    """The sufficient-factor wire form of `delta`, whose payload lists (b, c)
    vector pairs of one shape: the header, then each pair's b and c as
    little-endian float64. A full update is only sized (`full_codec_size`)."""
    if codec is not Codec.SUFFICIENT_FACTOR:
        raise ConfigurationError(f"the {codec.value} codec sizes updates but encodes none")
    factors = delta.payload
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


def decode_delta(data: bytes) -> UpdateDelta:
    if len(data) < HEADER_BYTES:
        raise DecodeError(len(data), "truncated header")
    tag, k, d, s, ts, origin = struct.unpack(HEADER_FMT, data[:HEADER_BYTES])
    if tag != _TAG_SF:
        raise DecodeError(0, f"unknown codec tag {tag}")
    body = data[HEADER_BYTES:]
    expected = sf_codec_size(k, d, s) - HEADER_BYTES
    if len(body) != expected:
        raise DecodeError(HEADER_BYTES + min(len(body), expected),
                          f"sufficient-factor body length {len(body)} != {expected}")
    rows = np.frombuffer(body, dtype="<f8").reshape(s, k + d)
    factors = [(row[:k].copy(), row[k:].copy()) for row in rows]
    return UpdateDelta(payload=factors, timestamp=ts, origin=origin)


# ---------------------------------------------------------------------------
# topologies


class Topology:
    """The worker-to-worker graphs are circulant, so origin o's broadcast
    tree is worker 0's shifted by o. `_kids` holds worker 0's tree as
    offsets: entry r lists the offsets that offset r relays to. An origin's
    own tree, node -> relays, is built from it on its first use."""

    def __init__(self, P: int):
        if P < 1:
            raise ConfigurationError("P must be >= 1")
        self.P = P
        self._kids: list[tuple[int, ...]] = [()] * P
        self._trees: list[list[tuple[int, ...]] | None] = [None] * P

    def relays(self, origin: int, node: int) -> tuple[int, ...]:
        """The workers `node` forwards `origin`'s commits to, in increasing
        order (the send order fixes the event order). Each worker other
        than the origin has exactly one sender, so a commit costs P-1 link
        messages."""
        tree = self._trees[origin]
        if tree is None:  # worker 0's tree shifted: node n is offset n - origin
            tree = [tuple(sorted((origin + c) % self.P for c in k)) for k in self._kids]
            tree = self._trees[origin] = tree[-origin:] + tree[:-origin]
        return tree[node]


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


class OutgoingQueue:
    """Rate-limited FIFO link: fluid-flow transmission at `budget` bytes per
    tick, plus fixed latency. A message starts once the link is free and it
    has arrived, so its schedule is fixed the moment it is sent.

    `transmit` is the link model, and the queue is its own traffic record:
    it counts `messages`, `bytes` and `max_inflight`; the owner decrements
    `inflight` when a message is delivered and adds the delivered staleness
    to `staleness_sum` and `staleness_count`. `enqueue`/`drain` wrap it for
    callers that step time: `enqueue` records each send's (start, finish,
    bytes) in `transmissions` for audits, and `drain` releases every message
    whose transmission has finished."""

    def __init__(self, budget: float, latency: float = 0.0):
        if budget <= 0:
            raise ConfigurationError("byte budget must be > 0")
        self.budget = budget
        self.latency = latency
        self.free_at = 0.0
        self.now = 0.0
        self.inflight = self.max_inflight = 0
        self.messages = self.bytes = 0
        self.staleness_sum = 0.0
        self.staleness_count = 0
        self.transmissions: list[tuple[float, float, int]] = []
        # (finish, delivery, message) sent by enqueue, not yet drained
        self.pending: deque = deque()

    def transmit(self, nbytes: int, now: float) -> float:
        """Send `nbytes` at time `now`; returns the delivery tick."""
        start = self.free_at if self.free_at > now else now
        finish = start + nbytes / self.budget
        if not isfinite(finish):
            raise ConfigurationError(f"a {nbytes}-byte message has no finite "
                                     f"transmission time at {self.budget!r} bytes per tick")
        delivery = ceil(finish) + self.latency
        if delivery > _MAX_TICK:
            raise ConfigurationError(f"a {nbytes}-byte message sent at tick {start:.6g} "
                                     f"is delivered after tick {_MAX_TICK} at "
                                     f"{self.budget!r} bytes per tick")
        self.free_at = finish
        self.inflight += nbytes
        self.messages += 1
        self.bytes += nbytes
        if self.inflight > self.max_inflight:
            self.max_inflight = self.inflight
        return delivery

    def enqueue(self, message: Message) -> None:
        message.enqueue_seq = len(self.transmissions)
        start = max(self.now, self.free_at)  # as `transmit` takes it
        delivery = self.transmit(message.bytes, self.now)
        self.transmissions.append((start, self.free_at, message.bytes))
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


def traffic_report(links: dict[tuple[int, int], OutgoingQueue]) -> str:
    """CSV: link,messages,bytes,max_inflight,mean_delivered_staleness."""
    lines = ["link,messages,bytes,max_inflight,mean_delivered_staleness"]
    for (a, b) in sorted(links):
        q = links[(a, b)]
        mean = q.staleness_sum / q.staleness_count if q.staleness_count else 0.0
        lines.append(f"{a}->{b},{q.messages},{q.bytes},{q.max_inflight},{mean:.6f}")
    return "\n".join(lines) + "\n"
