import tracemalloc

import numpy as np
import pytest

from icflow import sap
from icflow.algorithms.lasso import LassoProblem, normalize_columns
from icflow.cli import _make_scheduler
from icflow.datasets import gen_lasso
from icflow.errors import ConfigurationError
from icflow.simcluster import LassoModelParallelWorkload, SimCluster, SimConfig
from icflow.sap import (
    DependencyGraph,
    RandomScheduler,
    RoundRobinScheduler,
    SapScheduler,
    balance_load,
    build_independent_subsets,
    build_rotation_plan,
    dependency_check,
    prioritize_sample,
    word_bucket,
)


def unit_cols(X):
    return normalize_columns(X)[0]


def test_dependency_check_is_column_inner_product():
    rng = np.random.default_rng(0)
    X = unit_cols(rng.normal(size=(50, 6)))
    for j in range(6):
        for k in range(6):
            if j == k:
                with pytest.raises(ConfigurationError):
                    dependency_check(j, k, X)
            else:
                assert dependency_check(j, k, X) == pytest.approx(
                    abs(X[:, j] @ X[:, k])
                )


def test_independent_subsets_separate_weak_pairs():
    # two perfectly correlated pairs and two independent columns
    rng = np.random.default_rng(1)
    base = rng.normal(size=(100, 3))
    X = unit_cols(
        np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 1], base[:, 2]])
    )
    graph = DependencyGraph(X.T @ X, 0.5)
    subsets = build_independent_subsets(range(5), X, graph)
    assert [0, 1] in subsets and [2, 3] in subsets and [4] in subsets
    # every cross-subset pair is below the threshold
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if a == b:
                continue
            for j in sa:
                for k in sb:
                    assert dependency_check(j, k, X) < 0.5


def _pairwise_subsets(candidates, X, graph):
    """Reference grouping at the graph's kappa: one dependency_check per
    candidate pair, union-find, then the same ordering as
    build_independent_subsets (the graph's pairs are unused)."""
    kappa = graph.kappa
    cand = sorted(set(candidates))
    if not cand:
        return []
    parent = {j: j for j in cand}

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for a in range(len(cand)):
        for b in range(a + 1, len(cand)):
            j, k = cand[a], cand[b]
            if dependency_check(j, k, X) >= kappa:
                parent[find(j)] = find(k)

    groups = {}
    for j in cand:
        groups.setdefault(find(j), []).append(j)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _random_cases():
    """24 (X, candidates, kappa): block-correlated and Gaussian designs."""
    rng = np.random.default_rng(21)
    for i in range(24):
        if i % 2:
            ds = gen_lasso(int(rng.integers(80, 200)), int(rng.integers(30, 120)), 5,
                           seed=i, block_size=int(rng.integers(2, 12)),
                           block_rho=float(rng.uniform(0.5, 0.95)))
            X = unit_cols(ds.X)
        else:
            X = unit_cols(rng.normal(size=(int(rng.integers(20, 150)),
                                           int(rng.integers(10, 120)))))
        m = X.shape[1]
        candidates = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        # kappa = 0 joins every pair into one component
        kappa = 0.0 if i == 0 else float(rng.uniform(0.02, 0.6))
        yield X, candidates.tolist(), kappa


def test_blocked_grouping_matches_pairwise_reference():
    for X, candidates, kappa in _random_cases():
        args = (candidates, X, DependencyGraph(X.T @ X, kappa))
        assert build_independent_subsets(*args) == _pairwise_subsets(*args)


def _assert_graph_pairs_equal_block_pairs(gram, kappa, candidates):
    """The graph's (a, b, weight) pairs for a candidate set are the ones the
    thresholded upper triangle of the candidates' block gives, in its order."""
    c = sorted(set(candidates))
    block = np.abs(gram[np.ix_(c, c)])
    a, b = np.nonzero(np.triu(block >= kappa - 1e-9, 1))
    got = DependencyGraph(gram, kappa).pairs(np.array(c, np.intp))
    for x, y in zip(got, (a, b, block[a, b])):
        assert np.array_equal(x, y)
    return len(a)


def test_graph_pairs_match_the_thresholded_block():
    for X, candidates, kappa in _random_cases():
        _assert_graph_pairs_equal_block_pairs(X.T @ X, kappa, candidates)
    X = unit_cols(gen_lasso(200, 60, 5, seed=3, block_size=6, block_rho=0.7).X)
    gram, m = X.T @ X, 60
    assert _assert_graph_pairs_equal_block_pairs(gram, 0.0, range(m)) == m * (m - 1) // 2
    everything = _assert_graph_pairs_equal_block_pairs(gram, 0.3, range(m))
    assert everything == len(DependencyGraph(gram, 0.3).cols) > 0
    for candidates in ([], [17], [5, 9, 5, 30, 9, 9, 41]):
        _assert_graph_pairs_equal_block_pairs(gram, 0.3, candidates)
        graph = DependencyGraph(gram, 0.3)
        assert (build_independent_subsets(candidates, X, graph)
                == _pairwise_subsets(candidates, X, graph))
    # a pair within 1e-9 of kappa, on either side, is in the graph; past it, not
    w = abs(gram[2, 3])
    for kappa, inside in ((w - 5e-10, True), (w + 5e-10, True), (w + 2e-9, False)):
        assert _assert_graph_pairs_equal_block_pairs(gram, kappa, [2, 3]) == int(inside)


def test_graph_build_holds_no_dense_temporary_and_keeps_its_kappa():
    X = unit_cols(gen_lasso(1000, 600, 8, seed=3, block_size=10, block_rho=0.5).X)
    gram = X.T @ X
    tracemalloc.start()
    try:
        graph = DependencyGraph(gram, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gram.nbytes / 4
    assert graph.kappa == 0.1


def test_pair_at_exactly_kappa_is_joined_through_the_oracle(monkeypatch):
    X = unit_cols(gen_lasso(300, 40, 5, seed=8, block_size=4, block_rho=0.8).X)
    pairs = [(j, k) for j in range(40) for k in range(j + 1, 40)]
    j, k = max(pairs, key=lambda pair: dependency_check(*pair, X))
    kappa = dependency_check(j, k, X)
    oracle_calls = []

    def counting_check(a, b, X):
        oracle_calls.append((a, b))
        return dependency_check(a, b, X)

    monkeypatch.setattr(sap, "dependency_check", counting_check)
    graph = DependencyGraph(X.T @ X, kappa)
    subsets = build_independent_subsets(range(40), X, graph)
    assert (j, k) in oracle_calls
    assert [j, k] in subsets
    assert subsets == _pairwise_subsets(range(40), X, graph)


def test_sap_scheduler_rounds_match_pairwise_reference(monkeypatch):
    X = unit_cols(gen_lasso(400, 120, 8, seed=6, block_size=6, block_rho=0.9).X)

    def ten_rounds():
        sched = SapScheduler(X, P=4, kappa=0.1, pool_size=48, seed=3)
        rounds = []
        for t in range(10):
            rounds.append(sched.rounds(t, np.zeros(120)))
            # a deterministic function of the emitted blocks, so both
            # schedulers see the same changes only if they emitted the same
            sched.observe({j: np.sin(j + t) for blk in rounds[-1] for j in blk[:3]})
        return rounds

    blocked = ten_rounds()
    with monkeypatch.context() as mp:
        mp.setattr(sap, "build_independent_subsets", _pairwise_subsets)
        reference = ten_rounds()
    assert blocked == reference


def test_sap_run_is_the_same_with_pairwise_subsets(monkeypatch):
    # the scheduler reads the problem's Gram matrix, as `icflow run` builds it
    ds = gen_lasso(200, 90, 8, seed=4, block_size=6, block_rho=0.8)
    problem = LassoProblem.from_raw(ds.X, ds.y)

    def run():
        sched = _make_scheduler("sap", problem, 4, 5)
        assert sched.gram is problem.gram
        workload = LassoModelParallelWorkload(problem, 4, sched)
        res = SimCluster(workload, SimConfig(P=4, topology="master_slave",
                                             max_clocks=6)).run()
        return res.trace.to_text(), res.metrics_text()

    from_gram = run()
    with monkeypatch.context() as mp:
        mp.setattr(sap, "build_independent_subsets", _pairwise_subsets)
        reference = run()
    assert from_gram == reference


def test_a_scheduler_built_from_x_alone_computes_its_gram():
    X = unit_cols(gen_lasso(100, 30, 4, seed=2).X)
    sched = SapScheduler(X, P=2)
    assert np.array_equal(sched.gram, X.T @ X)
    assert sched.column_costs.tolist() == [max(1, int(np.count_nonzero(X[:, j])))
                                  for j in range(30)]


def test_priority_state_observe_and_floor():
    X = unit_cols(gen_lasso(50, 6, 2, seed=1).X)
    sched = SapScheduler(X, P=1, pool_size=3, seed=0)
    assert np.array_equal(sched.weights, np.full(6, 1e-6))
    sched.observe({0: 5.0, 2: 1.0})
    assert sched.weights[0] == 25.0 + 1e-6 and sched.weights[2] == 1.0 + 1e-6
    emitted = [j for blk in sched.rounds(0, None) for j in blk]
    assert 0 in emitted and 2 not in emitted
    sched.observe({1: 2.0, 3: -3.0})
    # emitted coordinates that did not move drop back to the floor; the
    # others keep their weights
    expected = np.full(6, 1e-6)
    expected[[1, 2, 3]] = 4.0 + 1e-6, 1.0 + 1e-6, 9.0 + 1e-6
    assert np.array_equal(sched.weights, expected)


def test_prioritize_sample_prefers_heavy_weights():
    weights = np.full(10, 1e-6)
    weights[:2] = 100.0
    rng = np.random.default_rng(3)
    hits = light = 0
    for _ in range(500):
        picked = prioritize_sample(weights, 2, rng)
        hits += int(0 in picked) + int(1 in picked)
        light += sum(1 for j in picked if j >= 2)
    # with a tenth of the probability spread uniformly, each draw takes a
    # heavy coordinate with probability 0.92 (then 0.85): both heavy
    # coordinates are mostly picked, and light ones still are at times
    assert hits > 800 and light > 60
    picked = prioritize_sample(weights, 10, rng)
    assert sorted(picked) == list(range(10))
    with pytest.raises(ConfigurationError):
        prioritize_sample(weights, 0, rng)
    with pytest.raises(ConfigurationError):
        prioritize_sample(weights, 11, rng)


def brute_force_makespan(costs, P):
    best = float("inf")
    n = len(costs)
    for mask in range(P ** n):
        loads = [0.0] * P
        x = mask
        for i in range(n):
            loads[x % P] += costs[i]
            x //= P
        best = min(best, max(loads))
    return best


def test_balance_load_is_near_optimal():
    def worker_loads(costs, assignment):
        return [sum(costs[i] for i in subsets) for subsets in assignment]

    costs = [7.0, 5.0, 4.0, 3.0, 3.0, 2.0]
    assignment = balance_load(costs, 3)
    loads = worker_loads(costs, assignment)
    assert sorted(i for s in assignment for i in s) == list(range(6))
    opt = brute_force_makespan(costs, 3)
    assert max(loads) <= (4 / 3 - 1 / 9) * opt + 1e-9  # LPT guarantee
    with pytest.raises(ConfigurationError):
        balance_load(costs, 0)
    with pytest.raises(ConfigurationError):
        balance_load([1.0, 0.0], 2)


def test_balance_load_deterministic():
    costs = [3.0] * 8
    a1 = balance_load(costs, 4)
    a2 = balance_load(costs, 4)
    assert a1 == a2


def test_rotation_plan_structure():
    counts = [5, 5, 5, 5, 20, 1, 1, 1, 1, 6]
    plan = build_rotation_plan(counts, V=17, P=3)
    # contiguous cover of all documents
    assert plan.doc_ranges[0][0] == 0
    assert plan.doc_ranges[-1][1] == len(counts)
    for (a, b), (c, d) in zip(plan.doc_ranges, plan.doc_ranges[1:]):
        assert b == c and a < b
    # word buckets partition the vocabulary
    seen = sorted(w for b in plan.word_buckets for w in b)
    assert seen == list(range(17))
    for w in range(17):
        assert w in plan.word_buckets[word_bucket(w, 3)]


def test_rotation_covers_every_block_pair_once():
    plan = build_rotation_plan([3, 3, 3, 3], V=8, P=4)
    pairs = {(p, plan.block(p, r)[1]) for r in range(4) for p in range(4)}
    assert pairs == {(p, b) for p in range(4) for b in range(4)}
    # the published 3-worker pattern: worker p gets bucket (p + r) mod P
    plan3 = build_rotation_plan([2, 2, 2], V=6, P=3)
    assert [plan3.block(p, 0)[1] for p in range(3)] == [0, 1, 2]
    assert [plan3.block(p, 1)[1] for p in range(3)] == [1, 2, 0]
    assert [plan3.block(p, 2)[1] for p in range(3)] == [2, 0, 1]


def test_rotation_plan_balances_tokens():
    rng = np.random.default_rng(4)
    counts = rng.integers(1, 50, size=200).tolist()
    plan = build_rotation_plan(counts, V=100, P=4)
    loads = [sum(counts[a:b]) for a, b in plan.doc_ranges]
    assert max(loads) < 1.5 * min(loads)


def test_rotation_plan_validation():
    with pytest.raises(ConfigurationError):
        build_rotation_plan([1, 2], V=10, P=3)
    with pytest.raises(ConfigurationError):
        build_rotation_plan([1, 2, 3], V=2, P=3)


def test_sap_scheduler_emits_disjoint_balanced_rounds():
    ds = gen_lasso(400, 40, 8, seed=5)
    X = unit_cols(ds.X)
    sched = SapScheduler(X, P=4, seed=0)
    rounds = sched.rounds(0, np.zeros(40))
    assert len(rounds) == 4
    flat = [j for blk in rounds for j in blk]
    assert len(flat) == len(set(flat)) == sched.pool_size
    sched.observe({0: 1.0})
    assert sched.weights[0] > sched.weights[1]


def test_baseline_schedulers_cover_pool():
    r = RandomScheduler(m=20, P=4, seed=1).rounds(0, None)
    flat = [j for blk in r for j in blk]
    assert len(flat) == len(set(flat))
    rr = RoundRobinScheduler(m=10, P=2, pool_size=10)
    flat = sorted(j for blk in rr.rounds(0, None) for j in blk)
    assert flat == list(range(10))
    # pick i goes to worker i mod P, and the cursor moves on by the pool
    rr = RoundRobinScheduler(m=10, P=3, pool_size=7)
    assert rr.rounds(0, None) == [[0, 3, 6], [1, 4], [2, 5]]
    assert rr.rounds(1, None) == [[7, 0, 3], [8, 1], [9, 2]]

