import tracemalloc

import numpy as np
import pytest

from icflow.algorithms.lasso import (
    LassoCDProgram,
    LassoProblem,
    lasso_objective,
    normalize_columns,
    soft_threshold,
)
from icflow.datasets import gen_lasso
from icflow.engine import apply_sparse
from icflow.errors import ConfigurationError


def make_problem(n=60, m=12, seed=0, lam=None):
    ds = gen_lasso(n, m, 4, seed=seed)
    return LassoProblem.from_raw(ds.X, ds.y, lam=lam)


def prox_oracle(u, lam):
    """argmin_a 0.5*(a - u)^2 + lam*|a| by dense grid refinement."""
    grid = np.linspace(-abs(u) - 1, abs(u) + 1, 200001)
    vals = 0.5 * (grid - u) ** 2 + lam * np.abs(grid)
    return grid[np.argmin(vals)]


def test_soft_threshold_matches_prox_oracle():
    for u in (-3.0, -0.4, 0.0, 0.2, 2.5):
        for lam in (0.1, 0.5, 1.0):
            assert abs(soft_threshold(u, lam) - prox_oracle(u, lam)) < 1e-4


def test_soft_threshold_closed_form_points():
    assert soft_threshold(2.0, 0.5) == 1.5
    assert soft_threshold(-2.0, 0.5) == -1.5
    assert soft_threshold(0.3, 0.5) == 0.0
    with pytest.raises(ConfigurationError):
        soft_threshold(1.0, -0.1)


def test_normalize_columns():
    X = np.array([[3.0, 0.0], [4.0, 2.0]])
    Xn, scales = normalize_columns(X)
    assert np.allclose(np.linalg.norm(Xn, axis=0), 1.0)
    assert np.allclose(Xn * scales, X)
    with pytest.raises(ConfigurationError):
        normalize_columns(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_problem_requires_unit_columns():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 5))
    with pytest.raises(ConfigurationError):
        LassoProblem(X=X, y=np.zeros(20), lam=0.1)


def test_default_lambda_rule():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    prob = LassoProblem.from_raw(X.copy(), y)  # from_raw scales its matrix in place
    Xn, _ = normalize_columns(X)
    assert prob.lam == pytest.approx(0.1 * np.max(np.abs(Xn.T @ y)))


class _CountsProducts(np.ndarray):
    """A design matrix that counts the matrix products taken with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountsProducts.products += 1

        def plain(args):
            return tuple(a.view(np.ndarray) if isinstance(a, _CountsProducts) else a
                         for a in args)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


def test_the_problem_takes_x_transpose_y_once_and_checks_lambda_first():
    ds = gen_lasso(50, 8, 3, seed=2)
    want = LassoProblem.from_raw(ds.X.copy(), ds.y)
    for lam, y, products, raises in ((None, ds.y, 2, False), (0.05, ds.y, 2, False),
                                     (0.0, ds.y, 0, True), (-1.0, ds.y, 0, True),
                                     (None, np.zeros(50), 1, True)):
        _CountsProducts.products = 0
        X = ds.X.copy().view(_CountsProducts)
        if raises:
            # before the Gram matrix: a derived lambda after the one product
            # it needs, an explicit one before any
            with pytest.raises(ConfigurationError, match="lambda must be > 0"):
                LassoProblem.from_raw(X, y, lam=lam)
        else:
            prob = LassoProblem.from_raw(X, y, lam=lam)
            assert np.array_equal(prob.Xty, want.Xty)
            assert np.array_equal(prob.gram, want.gram)
            assert prob.lam == (want.lam if lam is None else lam)
        assert _CountsProducts.products == products, (lam, products)


def test_from_raw_scales_its_matrix_in_place_to_the_bits_of_the_norm():
    rng = np.random.default_rng(3)
    for shape in ((60, 12), (1000, 30), (7, 40)):
        X = rng.normal(size=shape) * rng.uniform(0.1, 100, size=shape[1])
        raw = X.copy()
        prob = LassoProblem.from_raw(X, np.ones(shape[0]))
        assert prob.X is X
        assert np.array_equal(X, raw / np.linalg.norm(raw, axis=0))
        assert np.array_equal(normalize_columns(raw)[0], X)


def test_from_raw_allocates_no_second_design_matrix():
    ds = gen_lasso(4000, 50, 5, seed=1)
    tracemalloc.start()
    try:
        LassoProblem.from_raw(ds.X, ds.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.X.nbytes / 2, (peak, ds.X.nbytes)


def test_lasso_delta_matches_naive_sum():
    prob = make_problem()
    prog = LassoCDProgram(prob)
    rng = np.random.default_rng(2)
    a = rng.normal(size=prob.m)
    for j in range(prob.m):
        u = prob.X[:, j] @ prob.y
        for k in range(prob.m):
            if k != j:
                u -= (prob.X[:, j] @ prob.X[:, k]) * a[k]
        got = a[j] + prog.block_delta(a, None, [j]).get(j, 0.0)
        expect = soft_threshold(u, prob.lam)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
    with pytest.raises(IndexError):
        prog.block_delta(a, None, [prob.m])


def test_gauss_seidel_objective_is_monotone():
    prob = make_problem(n=80, m=15, seed=4)
    prog = LassoCDProgram(prob)
    a = prog.initial_values()
    objs = []
    for _ in range(25):
        apply_sparse(a, prog.block_delta(a, None, range(prob.m)))
        objs.append(prog.objective(a))
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_jacobi_program_reaches_same_solution():
    # Jacobi: every coordinate thresholded against the same snapshot
    prob = make_problem(n=80, m=10, seed=5)
    jac = np.zeros(prob.m)
    for _ in range(300):
        u = prob.X.T @ (prob.y - prob.X @ jac) + np.sum(prob.X**2, axis=0) * jac
        jac = np.sign(u) * np.maximum(np.abs(u) - prob.lam, 0.0)
    prog = LassoCDProgram(prob)
    a = prog.initial_values()
    for _ in range(300):
        apply_sparse(a, prog.block_delta(a, None, range(prob.m)))
    assert lasso_objective(prob, jac) == pytest.approx(
        lasso_objective(prob, a), rel=1e-6
    )


def test_objective_value():
    prob = make_problem(n=40, m=6, seed=6, lam=0.25)
    a = np.ones(prob.m)
    resid = prob.X @ a - prob.y
    expect = 0.5 * resid @ resid + 0.25 * prob.m
    assert lasso_objective(prob, a) == pytest.approx(expect)


def test_block_delta_leaves_view_unmodified():
    prob = make_problem()
    prog = LassoCDProgram(prob)
    view = np.zeros(prob.m)
    prog.block_delta(view, None, range(prob.m))
    assert np.array_equal(view, np.zeros(prob.m))


def test_recovers_planted_support():
    ds = gen_lasso(300, 40, 5, seed=11)
    prob = LassoProblem.from_raw(ds.X, ds.y)
    prog = LassoCDProgram(prob)
    a = prog.initial_values()
    for _ in range(100):
        apply_sparse(a, prog.block_delta(a, None, range(prob.m)))
    top = set(np.argsort(-np.abs(a))[:5])
    assert top == set(ds.true_support.tolist())
