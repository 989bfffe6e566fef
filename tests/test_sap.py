import warnings

import numpy as np
import pytest

from icflow import sap
from icflow.algorithms.lasso import normalize_columns
from icflow.datasets import gen_lasso
from icflow.errors import ConfigurationError
from icflow.sap import (
    PriorityState,
    RandomScheduler,
    RoundRobinScheduler,
    SapScheduler,
    balance_load,
    build_independent_subsets,
    build_rotation_plan,
    dependency_check,
    extra_update_passes,
    format_schedule,
    prioritize_sample,
    word_bucket,
    worker_loads,
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
    subsets = build_independent_subsets(range(5), 0.5, X)
    assert [0, 1] in subsets and [2, 3] in subsets and [4] in subsets
    # every cross-subset pair is below the threshold
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if a == b:
                continue
            for j in sa:
                for k in sb:
                    assert dependency_check(j, k, X) < 0.5


def test_oversized_component_is_split_with_warning():
    # one 8-column correlated clump plus 12 independent columns: the clump
    # exceeds 4x the average subset size and must be split
    rng = np.random.default_rng(2)
    common = rng.normal(size=(2000, 1))
    clump = common + 0.01 * rng.normal(size=(2000, 8))
    X = unit_cols(np.column_stack([clump, rng.normal(size=(2000, 12))]))
    with pytest.warns(RuntimeWarning):
        subsets = build_independent_subsets(range(20), 0.1, X)
    assert max(len(s) for s in subsets) < 8


def _pairwise_subsets(candidates, kappa, X, max_subset_factor=4.0):
    """Reference grouping: one dependency_check per candidate pair, union-find,
    then the same ordering and splitting rule as build_independent_subsets."""
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
    subsets = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])

    if not np.isfinite(max_subset_factor):
        return subsets
    avg = len(cand) / len(subsets)
    cap = max(1, int(np.ceil(max_subset_factor * avg)))
    out = []
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


def _subsets_and_warnings(build, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        subsets = build(*args)
    return subsets, [(w.category, str(w.message)) for w in caught]


def test_blocked_grouping_matches_pairwise_reference():
    rng = np.random.default_rng(21)
    split_warnings = 0
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
        # kappa = 0 joins every pair, so the finite factors must split
        kappa = 0.0 if i == 0 else float(rng.uniform(0.02, 0.6))
        for factor in (float("inf"), 4.0, 1.0):
            args = (candidates.tolist(), kappa, X, factor)
            got = _subsets_and_warnings(build_independent_subsets, *args)
            assert got == _subsets_and_warnings(_pairwise_subsets, *args)
            split_warnings += len(got[1])
    assert split_warnings > 0  # the finite factors did split some components


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
    subsets = build_independent_subsets(range(40), kappa, X, float("inf"))
    assert (j, k) in oracle_calls
    assert [j, k] in subsets
    assert subsets == _pairwise_subsets(range(40), kappa, X, float("inf"))


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


def test_priority_state_observe_and_floor():
    ps = PriorityState(m=4, eps=1e-6)
    assert np.allclose(ps.weights, 1e-6)
    ps.observe({1: 2.0, 3: -3.0})
    assert ps.weights[1] == pytest.approx(4.0 + 1e-6)
    assert ps.weights[3] == pytest.approx(9.0 + 1e-6)
    with pytest.raises(ConfigurationError):
        PriorityState(m=2, eps=0.0)


def test_prioritize_sample_prefers_heavy_weights():
    ps = PriorityState(m=10, eps=1e-9)
    ps.observe({0: 10.0, 1: 10.0})
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        picked = prioritize_sample(ps, 2, rng, explore=0.0)
        hits += int(0 in picked) + int(1 in picked)
    assert hits > 380  # nearly always both heavy coordinates
    # with exploration mixed in, light coordinates still get sampled
    light = 0
    for _ in range(500):
        picked = prioritize_sample(ps, 2, rng, explore=0.5)
        light += sum(1 for j in picked if j >= 2)
    assert light > 0
    with pytest.raises(ConfigurationError):
        prioritize_sample(ps, 2, rng, explore=1.5)
    picked = prioritize_sample(ps, 10, rng)
    assert sorted(picked) == list(range(10))
    with pytest.raises(ConfigurationError):
        prioritize_sample(ps, 0, rng)
    with pytest.raises(ConfigurationError):
        prioritize_sample(ps, 11, rng)


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


def test_extra_update_passes():
    assert extra_update_passes(10.0, 3.0) == 3
    assert extra_update_passes(2.0, 3.0) == 0
    with pytest.raises(ConfigurationError):
        extra_update_passes(5.0, 0.0)


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
    pairs = {(p, b) for _, p, _, b in plan.blocks()}
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
    assert sched.priority.weights[0] > sched.priority.weights[1]


def test_baseline_schedulers_cover_pool():
    r = RandomScheduler(m=20, P=4, seed=1).rounds(0, None)
    flat = [j for blk in r for j in blk]
    assert len(flat) == len(set(flat))
    rr = RoundRobinScheduler(m=10, P=2, pool_size=10)
    flat = sorted(j for blk in rr.rounds(0, None) for j in blk)
    assert flat == list(range(10))


def test_format_schedule_smoke():
    text = format_schedule([[[0, 1], [2]], [[3], [4, 5]]])
    assert "round 0:" in text and "worker 1: [2]" in text
