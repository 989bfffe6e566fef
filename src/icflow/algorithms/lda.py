"""Latent Dirichlet allocation via collapsed Gibbs sampling.

State is the usual trio of count tables (doc-topic, word-topic, topic totals)
plus per-token topic assignments. ``run_rotation`` executes the block-rotation
schedule: P workers own disjoint document ranges, word buckets rotate across
sub-epochs, and only the shared topic totals are read from a stale snapshot
within a sub-epoch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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


def init_state(
    corpus: list[list[int]],
    V: int,
    K: int,
    rng: np.random.Generator,
    alpha: float | None = None,
    beta: float = 0.01,
) -> LdaState:
    """Random topic assignments; alpha defaults to 50/K."""
    if K < 1 or V < 1:
        raise ConfigurationError("K and V must be >= 1")
    if alpha is None:
        alpha = 50.0 / K
    N = len(corpus)
    doc_topic = np.zeros((N, K), dtype=np.int64)
    word_topic = np.zeros((V, K), dtype=np.int64)
    totals = np.zeros(K, dtype=np.int64)
    z: list[list[int]] = []
    for d, doc in enumerate(corpus):
        zd = []
        for w in doc:
            if not (0 <= w < V):
                raise ConfigurationError(f"word id {w} out of range for V={V}")
            k = int(rng.integers(K))
            zd.append(k)
            doc_topic[d, k] += 1
            word_topic[w, k] += 1
            totals[k] += 1
        z.append(zd)
    return LdaState(doc_topic, word_topic, totals, z, alpha, beta)


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
    p = conditional_topic_distribution(state, d, w, totals=t)
    new = int(rng.choice(state.K, p=p))
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


def lda_log_likelihood(state: LdaState) -> float:
    """Collapsed joint log p(w, z) with topic and document simplexes
    integrated out."""
    a, b = state.alpha, state.beta
    K, V = state.K, state.V
    ll = K * (gammaln(V * b) - V * gammaln(b))
    ll += float(np.sum(gammaln(state.word_topic + b)))
    ll -= float(np.sum(gammaln(state.topic_totals + V * b)))
    n_d = state.doc_topic.sum(axis=1)
    N = state.doc_topic.shape[0]
    ll += N * (gammaln(K * a) - K * gammaln(a))
    ll += float(np.sum(gammaln(state.doc_topic + a)))
    ll -= float(np.sum(gammaln(n_d + K * a)))
    return ll


@dataclass
class RotationResult:
    state: LdaState
    plan: RotationPlan
    log_likelihoods: list[float]
    # (epoch, sub_epoch, worker, doc_range, bucket, tokens_sampled)
    schedule_log: list[tuple]


def run_rotation(
    corpus: list[list[int]],
    V: int,
    K: int,
    P: int,
    epochs: int,
    seed: int = 0,
    alpha: float | None = None,
    beta: float = 0.01,
) -> RotationResult:
    """Rotation-scheduled Gibbs sampling.

    Each epoch runs P sub-epochs; in sub-epoch r, worker p samples the tokens
    of its document range whose word falls in bucket (p + r) mod P. Document
    and word counts are touched by exactly one worker per sub-epoch, so those
    are exact; the shared topic totals are read from a sub-epoch snapshot and
    reconciled afterwards.
    """
    rng = np.random.default_rng(seed)
    state = init_state(corpus, V, K, rng, alpha=alpha, beta=beta)
    plan = build_rotation_plan([len(doc) for doc in corpus], V, P)
    bucket_of = np.zeros(V, dtype=np.int64)
    for bi, bucket in enumerate(plan.word_buckets):
        for w in bucket:
            bucket_of[w] = bi
    lls: list[float] = []
    schedule_log: list[tuple] = []
    for epoch in range(epochs):
        for r in range(P):
            snapshot = state.topic_totals.copy()
            local_totals = []
            for p in range(P):
                (lo, hi), b = plan.block(p, r)
                totals = snapshot.copy()
                wrng = np.random.default_rng((seed, epoch, r, p))
                sampled = 0
                for d in range(lo, hi):
                    for i, w in enumerate(corpus[d]):
                        if bucket_of[w] != b:
                            continue
                        gibbs_token_update(state, d, w, i, wrng, totals=totals)
                        sampled += 1
                local_totals.append(totals - snapshot)
                schedule_log.append((epoch, r, p, (lo, hi), b, sampled))
            for delta in local_totals:
                state.topic_totals += delta
        lls.append(lda_log_likelihood(state))
    return RotationResult(state, plan, lls, schedule_log)


def run_sequential(
    corpus: list[list[int]],
    V: int,
    K: int,
    epochs: int,
    seed: int = 0,
    alpha: float | None = None,
    beta: float = 0.01,
) -> tuple[LdaState, list[float]]:
    rng = np.random.default_rng(seed)
    state = init_state(corpus, V, K, rng, alpha=alpha, beta=beta)
    lls = []
    for _ in range(epochs):
        sweep_sequential(state, corpus, rng)
        lls.append(lda_log_likelihood(state))
    return state, lls
