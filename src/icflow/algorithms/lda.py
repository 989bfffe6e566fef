"""Latent Dirichlet allocation via collapsed Gibbs sampling.

State is the usual trio of count tables (doc-topic, word-topic, topic totals)
plus per-token topic assignments. ``run_rotation`` executes the block-rotation
schedule: P workers own disjoint document ranges, word buckets rotate across
sub-epochs, and only the shared topic totals are read from a stale snapshot
within a sub-epoch. Because the workers of a sub-epoch share no count row,
``sample_blocks`` runs them in lockstep, one (P, K) numpy step per token
position, with the same draws and results as sampling block after block
with ``gibbs_token_update``, on one float64 ``count_table``; the state it
returns holds int64 tables. ``lda_log_likelihood`` needs no scipy: each
log-gamma argument is a whole-number count plus a prior, so it sums a table
of ``math.lgamma`` values indexed by count.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lgamma

import numpy as np

from ..errors import ConfigurationError, StateCorruptionError
from ..sap import RotationPlan, build_rotation_plan


@dataclass
class LdaState:
    doc_topic: np.ndarray  # (N, K) int
    word_topic: np.ndarray  # (V, K) int
    topic_totals: np.ndarray  # (K,) int
    z: list  # per-doc list of token topic assignments
    alpha: float
    beta: float

    @property
    def K(self) -> int:
        return self.doc_topic.shape[1]

    @property
    def V(self) -> int:
        return self.word_topic.shape[0]


def _assign(
    corpus: list[list[int]], V: int, K: int, rng: np.random.Generator
) -> tuple[LdaState, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``init_state``'s state without its per-document ``z`` lists, then the
    flat arrays it was built from: the N + 1 document start offsets, and each
    token's document, word id and topic, all tokens in document order."""
    if K < 1 or V < 1:
        raise ConfigurationError("K and V must be >= 1")
    N = len(corpus)
    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=N)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    try:
        words = np.fromiter(chain.from_iterable(corpus), dtype=np.int64,
                            count=int(starts[-1]))
    except OverflowError:
        words = None
    if words is None or not np.all((words >= 0) & (words < V)):
        w = next(w for doc in corpus for w in doc if not 0 <= w < V)
        raise ConfigurationError(f"word id {w} out of range for V={V}")
    docs = np.repeat(np.arange(N), lengths)
    z = rng.integers(K, size=words.size)
    doc_topic = np.bincount(docs * K + z, minlength=N * K).reshape(N, K)
    word_topic = np.bincount(words * K + z, minlength=V * K).reshape(V, K)
    totals = np.bincount(z, minlength=K)
    state = LdaState(doc_topic, word_topic, totals, [], 50.0 / K, 0.01)
    return state, starts, docs, words, z


def _per_doc(z: np.ndarray, starts: np.ndarray) -> list[list[int]]:
    """The flat per-token values ``z`` as one list per document."""
    flat, bounds = z.tolist(), starts.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def init_state(
    corpus: list[list[int]],
    V: int,
    K: int,
    rng: np.random.Generator,
) -> LdaState:
    """Random topic assignments, with the Dirichlet priors alpha = 50/K and
    beta = 0.01.

    One ``rng.integers(K, size=n)`` call draws the same topics, and leaves
    the generator in the same state, as n scalar ``rng.integers(K)`` calls.
    """
    state, starts, _, _, z = _assign(corpus, V, K, rng)
    state.z = _per_doc(z, starts)
    return state


def conditional_topic_distribution(
    state: LdaState, d: int, w: int, totals: np.ndarray | None = None
) -> np.ndarray:
    """P(z = k | rest) with the token already decremented from the counts.

    `totals` lets callers substitute a stale topic-totals vector; the doc and
    word counts are always read live (they are owned by a single worker under
    the rotation schedule).
    """
    if totals is None:
        totals = state.topic_totals
    num = (state.doc_topic[d] + state.alpha) * (state.word_topic[w] + state.beta)
    den = totals + state.V * state.beta
    p = num / den
    return p / p.sum()


def gibbs_token_update(
    state: LdaState,
    d: int,
    w: int,
    i: int,
    rng: np.random.Generator,
    totals: np.ndarray | None = None,
) -> int:
    """Resample token i of document d (word w): decrement, sample, increment."""
    old = state.z[d][i]
    state.doc_topic[d, old] -= 1
    state.word_topic[w, old] -= 1
    shared = totals is None
    t = state.topic_totals if shared else totals
    t[old] -= 1
    if state.doc_topic[d, old] < 0 or state.word_topic[w, old] < 0 or t[old] < 0:
        raise StateCorruptionError(
            f"negative count after decrement (doc {d}, word {w}, topic {old})"
        )
    # the draw of rng.choice(K, p=p): one uniform, searched in the cdf
    cdf = np.cumsum(conditional_topic_distribution(state, d, w, totals=t))
    cdf /= cdf[-1]
    new = int(cdf.searchsorted(rng.random(), side="right"))
    state.z[d][i] = new
    state.doc_topic[d, new] += 1
    state.word_topic[w, new] += 1
    t[new] += 1
    return new


def sweep_sequential(
    state: LdaState, corpus: list[list[int]], rng: np.random.Generator
) -> None:
    """One full collapsed-Gibbs sweep over every token."""
    for d, doc in enumerate(corpus):
        for i, w in enumerate(doc):
            gibbs_token_update(state, d, w, i, rng)


def _lgamma_sum(counts: np.ndarray, shift: float) -> float:
    """``np.sum(gammaln(counts + shift))`` for an array of non-negative whole
    numbers: lgamma is evaluated once per value 0..max, and the looked-up
    values are summed in the same shape, hence in the same order."""
    if counts.size == 0:
        return 0.0
    idx = counts.astype(np.int64)
    if idx.min() < 0:
        raise StateCorruptionError(f"negative count {idx.min()} in the log-likelihood")
    table = np.array([lgamma(n + shift) for n in range(int(idx.max()) + 1)])
    # the values overwrite idx; mode "raise" would buffer them in a second copy
    return float(np.sum(table.take(idx, None, idx.view(np.float64), "clip")))


def lda_log_likelihood(state: LdaState) -> float:
    """Collapsed joint log p(w, z) with topic and document simplexes
    integrated out."""
    a, b = state.alpha, state.beta
    K, V = state.K, state.V
    N = state.doc_topic.shape[0]
    ll = K * (lgamma(V * b) - V * lgamma(b))
    ll += _lgamma_sum(state.word_topic, b)
    ll -= _lgamma_sum(state.topic_totals, V * b)
    ll += N * (lgamma(K * a) - K * lgamma(a))
    ll += _lgamma_sum(state.doc_topic, a)
    ll -= _lgamma_sum(state.doc_topic.sum(axis=1), K * a)
    return ll


@dataclass
class RotationResult:
    state: LdaState
    plan: RotationPlan
    log_likelihoods: list[float]
    # (epoch, sub_epoch, worker, doc_range, bucket, tokens_sampled)
    schedule_log: list[tuple]


def count_table(doc_topic: np.ndarray, word_topic: np.ndarray, totals: np.ndarray,
                P: int) -> np.ndarray:
    """``sample_blocks``' float64 table: the doc-topic rows (N), the
    word-topic rows (V), ``totals`` once per block (P rows), 3·P spare rows."""
    N, V = len(doc_topic), len(word_topic)
    counts = np.zeros((N + V + 4 * P, doc_topic.shape[1]))
    counts[:N], counts[N : N + V], counts[N + V : N + V + P] = doc_topic, word_topic, totals
    return counts


def sample_blocks(
    counts: np.ndarray,
    N: int,
    z: np.ndarray,
    docs: np.ndarray,
    words: np.ndarray,
    blocks: list[np.ndarray],
    uniforms: list[np.ndarray],
    alpha: float,
    beta: float,
) -> None:
    """Resample P blocks of tokens in lockstep, one token per block a step.

    ``counts`` is a ``count_table``, exact while every count is below 2**53;
    block i reads and writes totals row N + V + i. ``blocks[i]`` lists
    distinct global token ids (into ``z``, ``docs`` and ``words``) in
    sampling order, ``uniforms[i]`` one draw per token. The blocks must share
    no document and no word, so that no step reads a row another block writes
    in that step: each block then gets exactly the counts and draws it would
    get alone, and ``gibbs_token_update``'s result.

    Every step is P wide: a block out of tokens samples on its own three
    spare rows, set to L + 1 so that L steps never empty them. Old topics are
    read from ``z`` before the first step, and the new ones written back
    after the last, once no decremented count of any step is negative.
    """
    P = len(blocks)
    V = counts.shape[0] - N - 4 * P
    K = counts.shape[1]
    L = max(map(len, blocks))
    spare = N + V + P
    counts[spare:] = L + 1
    old, new = np.zeros((2, L, P), dtype=np.int64)
    # doc, word and totals row of each step and slot; spare rows by default
    rows = np.empty((L, 3, P), dtype=np.int64)
    rows[:] = spare + np.arange(3)[:, None] + 3 * np.arange(P)
    u = np.zeros((L, P, 1))
    for i, (g, ui) in enumerate(zip(blocks, uniforms)):
        n = len(g)
        old[:n, i] = z[g]
        rows[:n, 0, i] = docs[g]
        rows[:n, 1, i] = N + words[g]
        rows[:n, 2, i] = N + V + i
        u[:n, i, 0] = ui
    row_at = rows * K  # flat index of each row's topic 0
    old_at = row_at + old[:, None, :]
    flat = counts.reshape(-1)
    # every step's buffers; full shapes, as broadcasting slows a small ufunc
    decremented, one = np.empty((L, 3, P)), np.ones((3, P))
    x, offset = np.empty((2, 3, P, K))
    offset[:] = np.array([alpha, beta, V * beta])[:, None, None]
    q, cdf = np.empty((2, P, K))
    x0, x1, x2, last, total = *x, cdf[:, -1:], np.empty((P, 1))
    above, inc = np.empty((P, K), dtype=bool), np.empty((3, P), dtype=np.int64)
    # corrupt counts may go negative, and divide by zero, until the check below
    with np.errstate(divide="ignore", invalid="ignore"):
        for at, r, uj, k, r_at, c in zip(old_at, rows, u, new, row_at, decremented):
            flat.take(at, None, c, "clip")  # "raise" would buffer c
            np.subtract(c, one, c)
            flat[at] = c
            counts.take(r, 0, x, "clip")
            np.add(x, offset, x)
            # conditional_topic_distribution and rng.choice's cdf, row by row
            np.multiply(x0, x1, q)
            np.divide(q, x2, q)
            np.add.reduce(q, 1, None, total, True)
            np.divide(q, total, q)
            np.add.accumulate(q, 1, None, cdf)
            np.divide(cdf, last, q)
            # the cdf is non-decreasing and ends in 1.0 > u, so its first
            # entry above u is at searchsorted(u, side="right")
            np.greater(q, uj, above)
            above.argmax(1, k)
            np.add(r_at, k, inc)
            flat[inc] += 1
    bad = np.argwhere((decremented < 0).any(axis=1))
    if len(bad):
        j, i = bad[0]
        raise StateCorruptionError(f"negative count after decrement (doc {rows[j, 0, i]}, "
                                   f"word {rows[j, 1, i] - N}, topic {old[j, i]})")
    for i, g in enumerate(blocks):
        z[g] = new[: len(g), i]


def run_rotation(
    corpus: list[list[int]],
    V: int,
    K: int,
    P: int,
    epochs: int,
    seed: int = 0,
) -> RotationResult:
    """Rotation-scheduled Gibbs sampling.

    Each epoch runs P sub-epochs; in sub-epoch r, worker p samples the tokens
    of its document range whose word falls in bucket (p + r) mod P, in
    document order, with draws from ``default_rng((seed, epoch, r, p))``.
    Document and word counts are touched by exactly one worker per sub-epoch,
    so those are exact; the shared topic totals are read from a sub-epoch
    snapshot and reconciled afterwards. The P workers of a sub-epoch run in
    lockstep (``sample_blocks``).
    """
    state, starts, docs, words, z = _assign(corpus, V, K, np.random.default_rng(seed))
    plan = build_rotation_plan([len(doc) for doc in corpus], V, P)
    N = len(corpus)
    bucket_of = np.empty(V, dtype=np.int64)
    for b, bucket in enumerate(plan.word_buckets):
        bucket_of[bucket] = b
    # block_ids[p][b]: global ids of worker p's tokens with a word in bucket b
    block_ids = []
    for lo, hi in plan.doc_ranges:
        in_bucket = bucket_of[words[starts[lo] : starts[hi]]]
        ids = (np.argsort(in_bucket, kind="stable") + starts[lo]).astype(np.int32)
        ends = np.cumsum(np.bincount(in_bucket, minlength=P))
        block_ids.append(np.split(ids, ends[:-1]))
    counts = count_table(state.doc_topic, state.word_topic, state.topic_totals, P)
    state.doc_topic, state.word_topic = counts[:N], counts[N : N + V]
    state.topic_totals = state.topic_totals.astype(np.float64)
    local_totals = counts[N + V : N + V + P]
    lls: list[float] = []
    schedule_log: list[tuple] = []
    for epoch in range(epochs):
        for r in range(P):
            local_totals[:] = state.topic_totals
            blocks, uniforms = [], []
            for p in range(P):
                (lo, hi), b = plan.block(p, r)
                blocks.append(block_ids[p][b])
                uniforms.append(
                    np.random.default_rng((seed, epoch, r, p)).random(len(blocks[-1]))
                )
                schedule_log.append((epoch, r, p, (lo, hi), b, len(blocks[-1])))
            sample_blocks(counts, N, z, docs, words, blocks, uniforms,
                          state.alpha, state.beta)
            state.topic_totals += (local_totals - state.topic_totals).sum(axis=0)
        lls.append(lda_log_likelihood(state))
    # int64 again in the same buffer, a few rows at a time: no second table
    ints, step = counts.view(np.int64), max(1, (1 << 14) // K)
    for lo in range(0, len(counts), step):
        ints[lo : lo + step] = counts[lo : lo + step]
    state.doc_topic, state.word_topic = ints[:N], ints[N : N + V]
    state.topic_totals = state.topic_totals.astype(np.int64)
    state.z = _per_doc(z, starts)
    return RotationResult(state, plan, lls, schedule_log)


def run_sequential(
    corpus: list[list[int]],
    V: int,
    K: int,
    epochs: int,
    seed: int = 0,
) -> tuple[LdaState, list[float]]:
    rng = np.random.default_rng(seed)
    state = init_state(corpus, V, K, rng)
    lls = []
    for _ in range(epochs):
        sweep_sequential(state, corpus, rng)
        lls.append(lda_log_likelihood(state))
    return state, lls
