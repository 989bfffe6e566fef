import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from icflow.algorithms import lda
from icflow.algorithms.lda import (
    LdaState,
    conditional_topic_distribution,
    count_table,
    gibbs_token_update,
    init_state,
    lda_log_likelihood,
    run_rotation,
    run_sequential,
    sample_blocks,
    sweep_sequential,
)
from icflow.datasets import gen_lda
from icflow.errors import ConfigurationError, StateCorruptionError
from icflow.sap import build_rotation_plan


def small_corpus(seed=0):
    return gen_lda(20, 12, 3, 8, seed=seed).docs


def test_init_state_counts_are_consistent():
    corpus = small_corpus()
    state = init_state(corpus, V=12, K=3, rng=np.random.default_rng(1))
    total = sum(len(doc) for doc in corpus)
    assert state.doc_topic.sum() == total
    assert state.word_topic.sum() == total
    assert state.topic_totals.sum() == total
    assert np.array_equal(state.doc_topic.sum(axis=0), state.topic_totals)
    assert state.alpha == pytest.approx(50.0 / 3)
    with pytest.raises(ConfigurationError):
        init_state([[99]], V=12, K=3, rng=np.random.default_rng(1))


def test_gibbs_update_preserves_counts():
    corpus = small_corpus()
    state = init_state(corpus, V=12, K=3, rng=np.random.default_rng(2))
    before = state.topic_totals.sum()
    rng = np.random.default_rng(3)
    gibbs_token_update(state, 0, corpus[0][0], 0, rng)
    assert state.topic_totals.sum() == before
    assert state.doc_topic.min() >= 0 and state.word_topic.min() >= 0


def test_gibbs_detects_corrupted_counts():
    corpus = small_corpus()
    state = init_state(corpus, V=12, K=3, rng=np.random.default_rng(4))
    state.doc_topic[0, state.z[0][0]] = 0
    with pytest.raises(StateCorruptionError):
        gibbs_token_update(state, 0, corpus[0][0], 0, np.random.default_rng(5))


def test_conditional_distribution_matches_direct_formula():
    corpus = small_corpus()
    state = init_state(corpus, V=12, K=3, rng=np.random.default_rng(6))
    d, w = 1, corpus[1][2]
    p = conditional_topic_distribution(state, d, w)
    direct = np.array([
        (state.doc_topic[d, k] + state.alpha)
        * (state.word_topic[w, k] + state.beta)
        / (state.topic_totals[k] + state.V * state.beta)
        for k in range(3)
    ])
    assert np.allclose(p, direct / direct.sum())


def test_two_token_transitions_match_enumeration():
    """Empirical Gibbs draws on a 2-token toy model vs the exact conditional."""
    corpus = [[0, 1]]
    draws = 20000
    counts = np.zeros(2)
    expect = None
    for trial in range(draws):
        state = init_state(corpus, V=2, K=2, rng=np.random.default_rng(123))
        rng = np.random.default_rng(trial)
        new = gibbs_token_update(state, 0, 0, 0, rng)
        counts[new] += 1
        if expect is None:
            probe = init_state(corpus, V=2, K=2, rng=np.random.default_rng(123))
            old = probe.z[0][0]
            probe.doc_topic[0, old] -= 1
            probe.word_topic[0, old] -= 1
            probe.topic_totals[old] -= 1
            expect = conditional_topic_distribution(probe, 0, 0)
    freq = counts / draws
    sigma = np.sqrt(expect * (1 - expect) / draws)
    assert np.all(np.abs(freq - expect) < 3 * sigma + 1e-12)


def test_log_likelihood_matches_direct_gammaln_sum():
    corpus = small_corpus()
    state = init_state(corpus, V=12, K=3, rng=np.random.default_rng(7))
    a, b, K, V = state.alpha, state.beta, 3, 12
    direct = 0.0
    for k in range(K):
        direct += gammaln(V * b) - V * gammaln(b)
        direct += sum(gammaln(state.word_topic[w, k] + b) for w in range(V))
        direct -= gammaln(state.topic_totals[k] + V * b)
    for d in range(len(corpus)):
        n_d = state.doc_topic[d].sum()
        direct += gammaln(K * a) - K * gammaln(a)
        direct += sum(gammaln(state.doc_topic[d, k] + a) for k in range(K))
        direct -= gammaln(n_d + K * a)
    assert lda_log_likelihood(state) == pytest.approx(direct)


def _scipy_log_likelihood(state):
    a, b, K, V = state.alpha, state.beta, state.K, state.V
    N = state.doc_topic.shape[0]
    return (K * (gammaln(V * b) - V * gammaln(b))
            + gammaln(state.word_topic + b).sum()
            - gammaln(state.topic_totals + V * b).sum()
            + N * (gammaln(K * a) - K * gammaln(a))
            + gammaln(state.doc_topic + a).sum()
            - gammaln(state.doc_topic.sum(axis=1) + K * a).sum())


@pytest.mark.parametrize("K", [3, 100, 129])
def test_log_likelihood_matches_scipy_gammaln(K):
    # counts in the thousands, an empty document, and an empty corpus
    rng = np.random.default_rng(K)
    V, N = 40, 12
    word_topic = rng.integers(0, 3000, size=(V, K)) * (rng.random((V, K)) < 0.3)
    doc_topic = rng.integers(0, 2000, size=(N, K))
    doc_topic[5] = 0
    for docs in (doc_topic, np.zeros((0, K), dtype=np.int64)):
        state = LdaState(docs, word_topic, word_topic.sum(axis=0), [],
                         50.0 / K, 0.01)
        assert lda_log_likelihood(state) == pytest.approx(
            _scipy_log_likelihood(state), rel=1e-12, abs=0)


def test_log_likelihood_rejects_negative_counts():
    state = init_state(small_corpus(), V=12, K=3, rng=np.random.default_rng(7))
    state.word_topic[0, 0] = -1
    with pytest.raises(StateCorruptionError, match="negative count -1"):
        lda_log_likelihood(state)


def test_rotation_runs_on_documents_without_tokens():
    result = run_rotation([[], []], V=5, K=3, P=2, epochs=1, seed=0)
    assert result.log_likelihoods == [
        pytest.approx(_scipy_log_likelihood(result.state), rel=1e-12, abs=0)]


def test_an_empty_corpus_has_no_documents():
    # np.split of no tokens once gave one phantom document
    state = init_state([], V=5, K=3, rng=np.random.default_rng(1))
    assert state.z == [] and state.doc_topic.shape == (0, 3)
    state, lls = run_sequential([], V=5, K=3, epochs=1)
    assert state.z == [] and len(lls) == 1


def test_sweeps_improve_log_likelihood():
    corpus = gen_lda(40, 20, 3, 12, seed=8).docs
    state = init_state(corpus, V=20, K=3, rng=np.random.default_rng(9))
    rng = np.random.default_rng(10)
    first = lda_log_likelihood(state)
    for _ in range(8):
        sweep_sequential(state, corpus, rng)
    assert lda_log_likelihood(state) > first


def test_rotation_touches_every_token_exactly_once_per_epoch():
    corpus = small_corpus(seed=11)
    result = run_rotation(corpus, V=12, K=3, P=4, epochs=2, seed=12)
    total_tokens = sum(len(doc) for doc in corpus)
    for epoch in (0, 1):
        sampled = sum(
            n for (e, r, p, dr, b, n) in result.schedule_log if e == epoch
        )
        assert sampled == total_tokens
    # word buckets disjoint within every sub-epoch
    for r in range(4):
        buckets = [result.plan.block(p, r)[1] for p in range(4)]
        assert len(set(buckets)) == 4
    # counts still consistent after rotation
    st = result.state
    assert st.doc_topic.sum() == total_tokens
    assert np.array_equal(st.word_topic.sum(axis=0), st.topic_totals)


def test_rotation_tracks_sequential_likelihood():
    corpus = gen_lda(50, 25, 4, 12, seed=13).docs
    _, seq_lls = run_sequential(corpus, V=25, K=4, epochs=6, seed=14)
    rot = run_rotation(corpus, V=25, K=4, P=4, epochs=6, seed=14)
    assert rot.log_likelihoods[-1] == pytest.approx(seq_lls[-1], rel=0.05)


# ---------------------------------------------------------------------------
# references: the scalar loops the vectorized code replaced


def _reference_init(corpus, V, K, rng, alpha=None, beta=0.01):
    """One rng.integers(K) call per token, counts incremented one by one."""
    if alpha is None:
        alpha = 50.0 / K
    N = len(corpus)
    doc_topic = np.zeros((N, K), dtype=np.int64)
    word_topic = np.zeros((V, K), dtype=np.int64)
    totals = np.zeros(K, dtype=np.int64)
    z = []
    for d, doc in enumerate(corpus):
        zd = []
        for w in doc:
            k = int(rng.integers(K))
            zd.append(k)
            doc_topic[d, k] += 1
            word_topic[w, k] += 1
            totals[k] += 1
        z.append(zd)
    return LdaState(doc_topic, word_topic, totals, z, alpha, beta)


def _choice_update(state, d, w, i, rng, totals=None):
    """Token update sampled with rng.choice, as gibbs_token_update once was."""
    old = state.z[d][i]
    t = state.topic_totals if totals is None else totals
    state.doc_topic[d, old] -= 1
    state.word_topic[w, old] -= 1
    t[old] -= 1
    p = conditional_topic_distribution(state, d, w, totals=t)
    new = int(rng.choice(state.K, p=p))
    state.z[d][i] = new
    state.doc_topic[d, new] += 1
    state.word_topic[w, new] += 1
    t[new] += 1
    return new


def _reference_rotation(corpus, V, K, P, epochs, seed=0, alpha=None, beta=0.01):
    """run_rotation one token at a time: worker after worker, each sampling
    its block in document order with gibbs_token_update."""
    rng = np.random.default_rng(seed)
    state = _reference_init(corpus, V, K, rng, alpha=alpha, beta=beta)
    plan = build_rotation_plan([len(doc) for doc in corpus], V, P)
    bucket_of = np.zeros(V, dtype=np.int64)
    for bi, bucket in enumerate(plan.word_buckets):
        for w in bucket:
            bucket_of[w] = bi
    lls, schedule_log = [], []
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
    return state, lls, schedule_log


def _assert_same_state(a, b):
    assert np.array_equal(a.doc_topic, b.doc_topic)
    assert np.array_equal(a.word_topic, b.word_topic)
    assert np.array_equal(a.topic_totals, b.topic_totals)
    assert a.z == b.z
    assert (a.alpha, a.beta) == (b.alpha, b.beta)


@pytest.mark.parametrize("K", [2, 5, 100, 129, 1000])
def test_init_state_matches_scalar_draws(K):
    corpus = gen_lda(30, 40, 4, 10, seed=K).docs + [[]]
    rng, ref_rng = np.random.default_rng(K), np.random.default_rng(K)
    _assert_same_state(
        init_state(corpus, 40, K, rng), _reference_init(corpus, 40, K, ref_rng)
    )
    # the generator is left where n scalar draws leave it
    assert rng.random() == ref_rng.random()
    assert rng.integers(K) == ref_rng.integers(K)


def test_init_state_rejects_word_ids_out_of_range():
    rng = np.random.default_rng(0)
    for corpus, bad in (([[0, 1], [12]], 12), ([[-1]], -1), ([[3], [2**70]], 2**70)):
        with pytest.raises(ConfigurationError) as e:
            init_state(corpus, V=12, K=3, rng=rng)
        assert str(e.value) == f"word id {bad} out of range for V=12"


@pytest.mark.parametrize("K", [2, 5, 100, 129])
def test_gibbs_token_update_draws_what_choice_draws(K):
    corpus = gen_lda(10, 30, 3, 15, seed=K).docs
    state = init_state(corpus, 30, K, np.random.default_rng(1))
    ref = init_state(corpus, 30, K, np.random.default_rng(1))
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    for d, doc in enumerate(corpus):
        for i, w in enumerate(doc):
            new = gibbs_token_update(state, d, w, i, rng)
            assert new == _choice_update(ref, d, w, i, ref_rng)
    _assert_same_state(state, ref)


@pytest.mark.parametrize(
    "n_docs, V, K, P, doc_len",
    [
        (20, 12, 5, 1, 8),  # one worker
        (30, 13, 5, 4, 10),  # P does not divide V
        (40, 50, 100, 3, 12),
        (25, 31, 129, 5, 9),  # K above numpy's 128-element pairwise-sum block
    ],
)
def test_rotation_is_bit_identical_to_token_loop(n_docs, V, K, P, doc_len):
    corpus = gen_lda(n_docs, V, 4, doc_len, seed=K + P).docs
    ref_state, ref_lls, ref_log = _reference_rotation(corpus, V, K, P, epochs=3, seed=P)
    result = run_rotation(corpus, V, K, P, epochs=3, seed=P)
    assert result.log_likelihoods == ref_lls
    assert result.schedule_log == ref_log
    _assert_same_state(result.state, ref_state)


def test_rotation_is_bit_identical_with_empty_and_uneven_blocks():
    # an empty document, and a last worker whose one document repeats one
    # word: its block is 100 tokens long in one sub-epoch and empty in the rest
    corpus = gen_lda(20, 16, 3, 6, seed=3).docs
    corpus[4] = []
    corpus[-1] = [5] * 100
    ref_state, ref_lls, ref_log = _reference_rotation(corpus, 16, 7, 4, 2, seed=9)
    result = run_rotation(corpus, 16, 7, 4, epochs=2, seed=9)
    sizes = [entry[-1] for entry in ref_log]
    assert 0 in sizes and max(sizes) > 5 * np.median(sizes)
    assert result.log_likelihoods == ref_lls
    assert result.schedule_log == ref_log
    _assert_same_state(result.state, ref_state)


class _FixedDraw:
    """Stands in for a Generator whose next uniform is known."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("K", [5, 100, 129])
def test_sample_blocks_matches_token_update_on_cdf_boundaries(K):
    """Uniforms on, and one ulp below, each cdf value: there one ulp of
    difference between the (P, K) arithmetic and the per-token arithmetic
    changes the sampled topic, which random uniforms almost never show."""
    V, P = 20, 3
    corpus = gen_lda(12, V, 3, 10, seed=K).docs
    plan = build_rotation_plan([len(doc) for doc in corpus], V, P)
    state = init_state(corpus, V, K, np.random.default_rng(K))
    starts = np.cumsum([0] + [len(doc) for doc in corpus])
    # worker p's first token in bucket p: no shared document or word
    tokens = [
        next((d, i, w) for d in range(lo, hi) for i, w in enumerate(corpus[d])
             if w in plan.word_buckets[p])
        for p, (lo, hi) in enumerate(plan.doc_ranges)
    ]
    cdfs = []
    for d, i, w in tokens:
        probe = init_state(corpus, V, K, np.random.default_rng(K))
        old = probe.z[d][i]
        probe.doc_topic[d, old] -= 1
        probe.word_topic[w, old] -= 1
        probe.topic_totals[old] -= 1
        cdf = np.cumsum(conditional_topic_distribution(probe, d, w))
        cdfs.append(cdf / cdf[-1])
    docs = np.repeat(np.arange(len(corpus)), np.diff(starts))
    words = np.concatenate(corpus)
    blocks = [np.array([starts[d] + i]) for d, i, _ in tokens]
    for k in range(K - 1):
        for below in (False, True):
            us = [np.nextafter(c[k], 0) if below else c[k] for c in cdfs]
            expected = []
            for (d, i, w), u in zip(tokens, us):
                ref = init_state(corpus, V, K, np.random.default_rng(K))
                expected.append(gibbs_token_update(
                    ref, d, w, i, _FixedDraw(u), totals=ref.topic_totals.copy()
                ))
            counts = count_table(state.doc_topic, state.word_topic, state.topic_totals, P)
            z = np.concatenate([np.asarray(zd, dtype=np.int64) for zd in state.z])
            sample_blocks(counts, len(corpus), z, docs, words, blocks,
                          [np.array([u]) for u in us], state.alpha, state.beta)
            assert [int(z[g[0]]) for g in blocks] == expected


def test_rotation_detects_corrupted_counts(monkeypatch):
    corpus = small_corpus(seed=5)
    real_assign = lda._assign

    def corrupted(*args, **kwargs):
        state, starts, docs, words, z = real_assign(*args, **kwargs)
        state.word_topic[corpus[0][0], z[0]] = 0  # the first token's topic
        return state, starts, docs, words, z

    monkeypatch.setattr(lda, "_assign", corrupted)
    with pytest.raises(StateCorruptionError, match=f"word {corpus[0][0]}"):
        run_rotation(corpus, V=12, K=3, P=2, epochs=1, seed=6)


def test_sample_blocks_matches_token_update_on_a_flat_cdf():
    """Each block's token sits in topic 500, which holds about half of the
    mass, and the last topic holds the rest; the topics in between add less
    than half an ulp each, so hundreds of consecutive cdf entries are equal.
    A uniform on that flat value draws the last topic, one just below it
    topic 500."""
    K, V, N, k = 1000, 2, 2, 500
    doc_topic = np.zeros((N, K), dtype=np.int64)
    word_topic = np.zeros((V, K), dtype=np.int64)
    totals = np.full(K, 10**12, dtype=np.int64)
    totals[[k, K - 1]] = 10**5
    for d, big in enumerate((10**4, 3 * 10**4)):  # block d: doc d's token, word d
        doc_topic[d, [k, K - 1]] = big + 1, big
        word_topic[d, [k, K - 1]] = big + 1, 2 * big

    def fresh():
        return LdaState(doc_topic.copy(), word_topic.copy(), totals.copy(),
                        [[k], [k]], 50.0 / K, 0.01)

    flats = []
    for d in range(N):
        probe = fresh()
        probe.doc_topic[d, k] -= 1
        probe.word_topic[d, k] -= 1
        probe.topic_totals[k] -= 1
        cdf = np.cumsum(conditional_topic_distribution(probe, d, d))
        cdf /= cdf[-1]
        assert np.all(cdf[k + 1 : -1] == cdf[k]) and cdf[k] < 1.0
        flats.append(cdf[k])
    assert flats[0] != flats[1]
    docs = words = np.arange(N)
    blocks = [np.array([0]), np.array([1])]
    below = [np.nextafter(f, 0) for f in flats]
    for us, topics in (
        (flats, [K - 1, K - 1]),
        (below, [k, k]),
        ([flats[0], below[1]], [K - 1, k]),
        ([below[0], flats[1]], [k, K - 1]),
    ):
        expected = []
        for d, u in enumerate(us):
            ref = fresh()
            expected.append(gibbs_token_update(
                ref, d, d, 0, _FixedDraw(u), totals=ref.topic_totals.copy()))
        assert expected == topics
        state = fresh()
        counts = count_table(state.doc_topic, state.word_topic, state.topic_totals, 2)
        z = np.array([k, k], dtype=np.int64)
        sample_blocks(counts, N, z, docs, words, blocks,
                      [np.array([u]) for u in us], state.alpha, state.beta)
        assert z.tolist() == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("table", ["word_topic", "topic_totals"])
def test_rotation_detects_counts_corrupted_at_a_later_step(monkeypatch, table):
    """A count that first goes negative after a block's first step. Sampling
    goes on to the last step before the check, and warns nowhere: V·beta is
    1, so a topic total of -1 divides by zero in every step that reads it,
    and its NaN cdf draws topic 0."""
    V, K, P, seed = 100, 5, 2, 6
    corpus = gen_lda(20, V, 3, 8, seed=5).docs
    starts = np.cumsum([0] + [len(doc) for doc in corpus])
    plan = build_rotation_plan([len(doc) for doc in corpus], V, P)
    z0 = lda._assign(corpus, V, K, np.random.default_rng(seed))[4]
    # each worker's (token id, doc, word) in sub-epoch 0, in sampling order
    blocks = [[(starts[d] + i, d, w) for d in range(lo, hi)
               for i, w in enumerate(corpus[d]) if w in plan.word_buckets[b]]
              for (lo, hi), b in (plan.block(p, 0) for p in range(P))]
    if table == "word_topic":
        # worker 0's first token at step 2 or later with a word new to its block
        j = next(j for j in range(2, len(blocks[0]))
                 if all(w != blocks[0][j][2] for _, _, w in blocks[0][:j]))
        t, d, w = blocks[0][j]
        row, topic = w, z0[t]
    else:
        # a topic no first token holds; the first (step, worker) holding it
        topic = next(k for k in range(1, K) if all(z0[b[0][0]] != k for b in blocks))
        j, p = min((j, p) for p, block in enumerate(blocks)
                   for j, (t, _, _) in enumerate(block) if z0[t] == topic)
        t, d, w = blocks[p][j]
        row = None
    assert j > 0
    real_assign = lda._assign
    seen = {}

    def corrupted(*args, **kwargs):
        state, starts_, docs, words, z = real_assign(*args, **kwargs)
        if row is None:
            state.topic_totals[topic] = -1
        else:
            state.word_topic[row, topic] = 0
        seen.update(z=z, before=z.copy())
        return state, starts_, docs, words, z

    monkeypatch.setattr(lda, "_assign", corrupted)
    with pytest.raises(StateCorruptionError) as e:
        run_rotation(corpus, V=V, K=K, P=P, epochs=1, seed=seed)
    assert str(e.value) == (
        f"negative count after decrement (doc {d}, word {w}, topic {topic})")
    assert np.array_equal(seen["z"], seen["before"])


def test_rotation_returns_int64_tallies_of_its_z():
    # the corpus of test_rotation_is_bit_identical_with_empty_and_uneven_blocks:
    # most steps sample some block on its spare rows
    corpus = gen_lda(20, 16, 3, 6, seed=3).docs
    corpus[4] = []
    corpus[-1] = [5] * 100
    K = 7
    state = run_rotation(corpus, 16, K, 4, epochs=2, seed=9).state
    doc_topic = np.zeros((len(corpus), K), dtype=np.int64)
    word_topic = np.zeros((16, K), dtype=np.int64)
    for d, (doc, zd) in enumerate(zip(corpus, state.z)):
        assert len(zd) == len(doc)
        for w, k in zip(doc, zd):
            doc_topic[d, k] += 1
            word_topic[w, k] += 1
    for table, tally in ((state.doc_topic, doc_topic), (state.word_topic, word_topic),
                         (state.topic_totals, word_topic.sum(axis=0))):
        assert table.dtype == np.int64
        assert np.array_equal(table, tally)


def test_rotation_holds_one_count_table_at_a_time():
    """Building the float64 table holds the int doc and word tables beside it
    (N + V rows); the step buffers are about 8·P rows. Converting the table
    back with ``astype`` would hold a second full table (N + V + 4·P rows),
    and a float copy in the log-likelihood 2·V rows beside it."""
    N, V, K, P = 64, 256, 1000, 32
    corpus = gen_lda(N, V, 4, 4, seed=0).docs
    run_rotation(corpus, V, K, P, epochs=1, seed=0)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        run_rotation(corpus, V, K, P, epochs=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = (N + V + 4 * P) * K * 8
    assert peak < table + (N + V + 2 * P) * K * 8
