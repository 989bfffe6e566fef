"""Structure-aware parallelization: prioritization, dependency checks,
independent subsets, load balancing, and the LDA block-rotation plan."""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# deterministic word-bucket hash (Knuth multiplicative)
_HASH_MULT = 2654435761
_HASH_MOD = 2**32

# A blocked Gram product and a per-pair dot product may differ in the last
# bits (under 1e-15 on unit columns); build_independent_subsets hands pairs
# this close to kappa to dependency_check.
_KAPPA_TIE = 1e-9


def dependency_check(j: int, k: int, X: np.ndarray) -> float:
    """|X_.j^T X_.k| on unit-normalized columns."""
    if j == k:
        raise ConfigurationError("self-dependency query (j == k) is not valid")
    return float(abs(X[:, j] @ X[:, k]))


def build_independent_subsets(
    candidates,
    kappa: float,
    X: np.ndarray,
    max_subset_factor: float = 4.0,
) -> list[list[int]]:
    """Group candidates into subsets safe for cross-worker parallel update.

    Any pair with dependency weight >= kappa lands in the same subset
    (connected components of the thresholded dependency graph); all
    cross-subset pairs have weight < kappa. Components larger than
    ``max_subset_factor`` times the average subset size are split with a
    warning, accepting a bounded number of dependency violations.

    All pair weights of a call come from one Gram product of the candidate
    columns. A pair whose blocked weight lies within ``_KAPPA_TIE`` of kappa
    is decided by ``dependency_check`` itself, so every grouping equals the
    one the pairwise checks give.
    """
    cand = sorted(set(candidates))
    if not cand:
        return []
    Xc = X[:, cand]
    gram = np.abs(Xc.T @ Xc)
    rows, cols = np.nonzero(np.triu(gram >= kappa - _KAPPA_TIE, k=1))
    parent = list(range(len(cand)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b, w in zip(rows.tolist(), cols.tolist(), gram[rows, cols].tolist()):
        if w >= kappa + _KAPPA_TIE or dependency_check(cand[a], cand[b], X) >= kappa:
            parent[find(a)] = find(b)

    groups: dict[int, list[int]] = {}
    for a, j in enumerate(cand):
        groups.setdefault(find(a), []).append(j)
    subsets = sorted(groups.values(), key=lambda g: g[0])

    if not np.isfinite(max_subset_factor):
        return subsets
    avg = len(cand) / len(subsets)
    cap = max(1, int(np.ceil(max_subset_factor * avg)))
    out: list[list[int]] = []
    for g in subsets:
        if len(g) > cap:
            warnings.warn(
                f"splitting dependency component of size {len(g)} (cap {cap}); "
                "some cross-worker dependencies may be violated",
                RuntimeWarning,
                stacklevel=2,
            )
            for i in range(0, len(g), cap):
                out.append(g[i : i + cap])
        else:
            out.append(g)
    return out


@dataclass
class PriorityState:
    """Per-parameter selection weights: recent squared change plus a floor."""

    m: int
    eps: float = 1e-6
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.eps <= 0:
            raise ConfigurationError("priority floor eps must be > 0")
        self.weights = np.full(self.m, self.eps)

    def observe(self, changes: dict[int, float]) -> None:
        """Record A_j(t-1) - A_j(t-2) for the coordinates updated this round."""
        for j, d in changes.items():
            self.weights[j] = d * d + self.eps


def prioritize_sample(
    priority: PriorityState,
    count: int,
    rng: np.random.Generator,
    explore: float = 0.1,
) -> list[int]:
    """Sample `count` distinct indices with probability proportional to weight.

    A uniform `explore` fraction is mixed in so indices whose weight has
    decayed to the floor are still revisited occasionally; without it the
    sampler can starve coordinates that only become relevant after their
    correlated partners move.
    """
    if count <= 0:
        raise ConfigurationError("sample count must be > 0")
    if count > priority.m:
        raise ConfigurationError(f"cannot sample {count} of {priority.m} indices")
    if not 0.0 <= explore <= 1.0:
        raise ConfigurationError("explore fraction must be in [0, 1]")
    p = priority.weights / priority.weights.sum()
    p = (1.0 - explore) * p + explore / priority.m
    return sorted(rng.choice(priority.m, size=count, replace=False, p=p).tolist())


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


def worker_loads(costs, assignment) -> list[float]:
    return [sum(costs[i] for i in subsets) for subsets in assignment]


def extra_update_passes(wait_ticks: float, pass_cost_ticks: float) -> int:
    """Minimum number of extra update passes that fit in an idle window."""
    if pass_cost_ticks <= 0:
        raise ConfigurationError("pass cost must be > 0")
    return int(wait_ticks // pass_cost_ticks)


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

    def blocks(self):
        for r in range(self.P):
            for p in range(self.P):
                yield r, p, self.doc_ranges[p], (p + r) % self.P


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


def format_schedule(rounds) -> str:
    """Human-readable dump of emitted rounds for debugging and docs."""
    lines = []
    for t, assignment in enumerate(rounds):
        lines.append(f"round {t}:")
        for p, subset in enumerate(assignment):
            lines.append(f"  worker {p}: {sorted(subset)}")
    return "\n".join(lines)


class SapScheduler:
    """schedule(): prioritize a candidate pool, dependency-check it into
    independent subsets, and balance the subsets across P workers."""

    def __init__(
        self,
        X: np.ndarray,
        P: int,
        kappa: float = 0.1,
        pool_size: int | None = None,
        seed: int = 0,
        column_costs=None,
        max_subset_factor: float = float("inf"),
    ):
        self.X = X
        self.P = P
        self.kappa = kappa
        # splitting a dependency component is only safe when its chunks stay
        # on one worker, so the scheduler keeps components whole by default;
        # a finite factor trades safety for balance on dense graphs
        self.max_subset_factor = max_subset_factor
        m = X.shape[1]
        self.pool_size = min(m, pool_size or max(P * 8, 32))
        self.priority = PriorityState(m=m)
        self.rng = np.random.default_rng(seed)
        if column_costs is None:
            column_costs = [max(1, int(np.count_nonzero(X[:, j]))) for j in range(m)]
        self.column_costs = column_costs
        self._last_emitted: list[int] = []

    def rounds(self, t: int, values) -> list[list[int]]:
        candidates = prioritize_sample(self.priority, self.pool_size, self.rng)
        self._last_emitted = candidates
        subsets = build_independent_subsets(
            candidates, self.kappa, self.X, self.max_subset_factor
        )
        costs = [sum(self.column_costs[j] for j in s) for s in subsets]
        assignment = balance_load(costs, self.P)
        out: list[list[int]] = []
        for p in range(self.P):
            block: list[int] = []
            for i in assignment[p]:
                block.extend(subsets[i])
            out.append(block)
        return out

    def observe(self, changes: dict[int, float]) -> None:
        # emitted coordinates that did not move drop back to the floor,
        # otherwise their pre-convergence weights keep winning the sample
        full = {j: changes.get(j, 0.0) for j in self._last_emitted}
        full.update(changes)
        self.priority.observe(full)


class RandomScheduler:
    """Baseline: same candidate pool size, random split, no dependency checks."""

    def __init__(self, m: int, P: int, pool_size: int | None = None, seed: int = 0):
        self.m = m
        self.P = P
        self.pool_size = min(m, pool_size or max(P * 8, 32))
        self.rng = np.random.default_rng(seed)

    def rounds(self, t: int, values) -> list[list[int]]:
        picks = self.rng.choice(self.m, size=self.pool_size, replace=False)
        out: list[list[int]] = [[] for _ in range(self.P)]
        for i, j in enumerate(picks.tolist()):
            out[i % self.P].append(j)
        return out

    def observe(self, changes: dict[int, float]) -> None:
        pass


class RoundRobinScheduler:
    """Baseline: cycle through all coordinates in fixed order."""

    def __init__(self, m: int, P: int, pool_size: int | None = None):
        self.m = m
        self.P = P
        self.pool_size = min(m, pool_size or max(P * 8, 32))
        self.cursor = 0

    def rounds(self, t: int, values) -> list[list[int]]:
        picks = [(self.cursor + i) % self.m for i in range(self.pool_size)]
        self.cursor = (self.cursor + self.pool_size) % self.m
        out: list[list[int]] = [[] for _ in range(self.P)]
        for i, j in enumerate(picks):
            out[i % self.P].append(j)
        return out

    def observe(self, changes: dict[int, float]) -> None:
        pass
