"""Structure-aware parallelization: prioritization, dependency checks,
independent subsets, load balancing, and the LDA block-rotation plan."""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigurationError

# deterministic word-bucket hash (Knuth multiplicative)
_HASH_MULT = 2654435761
_HASH_MOD = 2**32

# A Gram product and a per-pair dot product may differ in the last bits
# (under 1e-15 on unit columns); build_independent_subsets hands pairs this
# close to kappa to dependency_check.
_KAPPA_TIE = 1e-9

# SapScheduler.weights[j]: the squared last change of coordinate j plus this floor
_PRIORITY_FLOOR = 1e-6
# the uniform share prioritize_sample mixes into its probabilities
_EXPLORE = 0.1


def dependency_check(j: int, k: int, X: np.ndarray) -> float:
    """|X_.j^T X_.k| on unit-normalized columns."""
    if j == k:
        raise ConfigurationError("self-dependency query (j == k) is not valid")
    return float(abs(X[:, j] @ X[:, k]))


class DependencyGraph:
    """The dependency graph of a Gram matrix at kappa, CSR-style: row j lists
    the k > j with |gram[j, k]| >= kappa - _KAPPA_TIE as ascending int32 ids
    ``cols[starts[j]:starts[j + 1]]``. Built in row chunks of about 64k weights
    (no m x m temporary); at most m(m-1)/2 ids, a quarter of gram.nbytes."""

    def __init__(self, gram: np.ndarray, kappa: float):
        self.gram, self.kappa, t = gram, kappa, kappa - _KAPPA_TIE
        step = max(1, (1 << 16) // max(len(gram), 1))
        counts, cols = [[0]], [np.zeros(0, np.int32)]
        for lo in range(0, len(gram), step):
            rows = gram[lo:lo + step, lo:]
            r, c = np.divmod(np.flatnonzero((rows >= t) | (rows <= -t)), rows.shape[1])
            r, c = r[c > r], c[c > r]
            counts.append(np.bincount(r, minlength=len(rows)))
            cols.append((c + lo).astype(np.int32))
        self.starts, self.cols = np.cumsum(np.concatenate(counts)), np.concatenate(cols)

    def pairs(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges among sorted distinct ids c: positions a < b and |gram|, row-major."""
        pos = np.full(len(self.starts) - 1, -1)
        pos[c] = np.arange(len(c))
        lengths = self.starts[c + 1] - self.starts[c]
        shift = self.starts[c] + lengths - np.cumsum(lengths)  # row start - its offset in ids
        ids = self.cols[np.arange(lengths.sum()) + np.repeat(shift, lengths)]
        a, b = np.repeat(np.arange(len(c)), lengths), pos[ids]
        a, b = a[b >= 0], b[b >= 0]
        return a, b, np.abs(self.gram[c[a], c[b]])


def build_independent_subsets(
    candidates, X: np.ndarray, graph: DependencyGraph
) -> list[list[int]]:
    """Group candidates into subsets safe for cross-worker parallel update.

    Any pair with dependency weight >= kappa lands in the same subset
    (connected components of the thresholded dependency graph); all
    cross-subset pairs have weight < kappa. Components stay whole however
    large, since a split component would update dependent columns on
    different workers.

    kappa is the one ``graph`` was built at. The pairs come from the
    candidates' rows of ``graph``, with their weights from its Gram matrix
    X.T @ X. A pair whose weight lies within ``_KAPPA_TIE`` of kappa is
    decided by ``dependency_check`` on X, so every grouping equals the one the
    pairwise checks give.
    """
    kappa = graph.kappa
    cand = sorted(set(candidates))
    rows, cols, weights = graph.pairs(np.array(cand, np.intp))
    parent = list(range(len(cand)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
        if w >= kappa + _KAPPA_TIE or dependency_check(cand[a], cand[b], X) >= kappa:
            parent[find(a)] = find(b)

    groups: dict[int, list[int]] = {}
    for a, j in enumerate(cand):
        groups.setdefault(find(a), []).append(j)
    return sorted(groups.values(), key=lambda g: g[0])


def prioritize_sample(
    weights: np.ndarray, count: int, rng: np.random.Generator
) -> list[int]:
    """Sample `count` distinct indices with probability proportional to weight.

    A uniform `_EXPLORE` share is mixed in so indices whose weight has
    decayed to the floor are still revisited occasionally; without it the
    sampler can starve coordinates that only become relevant after their
    correlated partners move.
    """
    m = len(weights)
    if count <= 0:
        raise ConfigurationError("sample count must be > 0")
    if count > m:
        raise ConfigurationError(f"cannot sample {count} of {m} indices")
    p = weights / weights.sum()
    p = (1.0 - _EXPLORE) * p + _EXPLORE / m
    return sorted(rng.choice(m, size=count, replace=False, p=p).tolist())


def balance_load(costs, P: int) -> list[list[int]]:
    """Longest-processing-time-first assignment of subsets to P workers.

    Returns per-worker lists of subset indices. Ties in both cost ordering and
    worker loads break deterministically by index.
    """
    if P <= 0:
        raise ConfigurationError("worker count must be > 0")
    for c in costs:
        if c <= 0:
            raise ConfigurationError("subset cost estimates must be > 0")
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    heap = [(0.0, p) for p in range(P)]
    heapq.heapify(heap)
    assignment: list[list[int]] = [[] for _ in range(P)]
    for i in order:
        load, p = heapq.heappop(heap)
        assignment[p].append(i)
        heapq.heappush(heap, (load + costs[i], p))
    return assignment


@dataclass
class RotationPlan:
    """Document ranges, word buckets, and the P-sub-epoch rotation."""

    doc_ranges: list[tuple[int, int]]
    word_buckets: list[list[int]]

    @property
    def P(self) -> int:
        return len(self.doc_ranges)

    def block(self, p: int, r: int) -> tuple[tuple[int, int], int]:
        """(document range of worker p, word-bucket index) in sub-epoch r."""
        return self.doc_ranges[p], (p + r) % self.P


def word_bucket(word: int, P: int) -> int:
    return (word * _HASH_MULT) % _HASH_MOD % P


def build_rotation_plan(doc_token_counts, V: int, P: int) -> RotationPlan:
    """Token-balanced contiguous document ranges; hashed word buckets."""
    N = len(doc_token_counts)
    if P < 1:
        raise ConfigurationError("P must be >= 1")
    if N < P or V < P:
        raise ConfigurationError(
            f"need at least P documents and P words (N={N}, V={V}, P={P})"
        )
    total = float(sum(doc_token_counts))
    ranges: list[tuple[int, int]] = []
    start = 0
    acc = 0.0
    for p in range(P):
        max_end = N - (P - 1 - p)  # leave >= 1 doc per remaining worker
        target = total * (p + 1) / P
        end = start + 1
        acc += doc_token_counts[start]
        while end < max_end and acc < target:
            acc += doc_token_counts[end]
            end += 1
        if p == P - 1:
            end = N
        ranges.append((start, end))
        start = end

    buckets: list[list[int]] = [[] for _ in range(P)]
    for v in range(V):
        buckets[word_bucket(v, P)].append(v)
    return RotationPlan(doc_ranges=ranges, word_buckets=buckets)


def _pool_size(m: int, P: int, pool_size: int | None) -> int:
    """Candidates a round: `pool_size`, by default max(8P, 32), at most m."""
    return min(m, pool_size or max(P * 8, 32))


def _deal(picks: list[int], P: int) -> list[list[int]]:
    """Pick i goes to worker i mod P."""
    return [picks[p::P] for p in range(P)]


class SapScheduler:
    """rounds(): prioritize a candidate pool, dependency-check it into
    independent subsets, and balance the subsets across P workers.

    The dependency graph at kappa is built once here from `gram`, X.T @ X (a
    Lasso problem has it already; else it is computed), and read each round."""

    def __init__(
        self,
        X: np.ndarray,
        P: int,
        kappa: float = 0.1,
        pool_size: int | None = None,
        seed: int = 0,
        gram: np.ndarray | None = None,
    ):
        self.X = X
        self.gram = X.T @ X if gram is None else gram
        self.P = P
        m = X.shape[1]
        self.pool_size = _pool_size(m, P, pool_size)
        self.weights = np.full(m, _PRIORITY_FLOOR)
        self.rng = np.random.default_rng(seed)
        self.graph = DependencyGraph(self.gram, kappa)
        self.column_costs = np.maximum(np.count_nonzero(X, axis=0), 1)
        self._last_emitted: list[int] = []

    def rounds(self, t: int, values) -> list[list[int]]:
        candidates = prioritize_sample(self.weights, self.pool_size, self.rng)
        self._last_emitted = candidates
        subsets = build_independent_subsets(candidates, self.X, self.graph)
        starts = np.cumsum([0] + [len(s) for s in subsets[:-1]])
        costs = np.add.reduceat(self.column_costs[list(chain.from_iterable(subsets))],
                                starts).tolist()
        return [[j for i in mine for j in subsets[i]] for mine in balance_load(costs, self.P)]

    def observe(self, changes: dict[int, float]) -> None:
        # emitted coordinates that did not move drop back to the floor,
        # otherwise their pre-convergence weights keep winning the sample
        self.weights[self._last_emitted] = _PRIORITY_FLOOR
        vals = np.fromiter(changes.values(), float, len(changes))
        self.weights[list(changes)] = vals * vals + _PRIORITY_FLOOR


class RandomScheduler:
    """Baseline: same candidate pool size, random split, no dependency checks."""

    def __init__(self, m: int, P: int, pool_size: int | None = None, seed: int = 0):
        self.m = m
        self.P = P
        self.pool_size = _pool_size(m, P, pool_size)
        self.rng = np.random.default_rng(seed)

    def rounds(self, t: int, values) -> list[list[int]]:
        picks = self.rng.choice(self.m, size=self.pool_size, replace=False)
        return _deal(picks.tolist(), self.P)

    def observe(self, changes: dict[int, float]) -> None:
        pass


class RoundRobinScheduler:
    """Baseline: cycle through all coordinates in fixed order."""

    def __init__(self, m: int, P: int, pool_size: int | None = None):
        self.m = m
        self.P = P
        self.pool_size = _pool_size(m, P, pool_size)
        self.cursor = 0

    def rounds(self, t: int, values) -> list[list[int]]:
        picks = [(self.cursor + i) % self.m for i in range(self.pool_size)]
        self.cursor = (self.cursor + self.pool_size) % self.m
        return _deal(picks, self.P)

    def observe(self, changes: dict[int, float]) -> None:
        pass
