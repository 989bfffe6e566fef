import numpy as np
import pytest
from scipy.special import logsumexp

from icflow.algorithms.mlr import (
    MlrProblem,
    accuracy,
    cross_entropy,
    gradient_from_factors,
    softmax,
    sufficient_factors,
    train_sgd,
)
from icflow.datasets import gen_mlr
from icflow.errors import ConfigurationError, ShapeMismatchError


def make_problem(n=80, D=6, K=4, seed=0):
    ds = gen_mlr(n, D, K, seed=seed)
    return MlrProblem(U=ds.U, y=ds.y, K=K)


def gradient_dense(A, U, y):
    """Oracle: the K x D minibatch gradient as one matrix product."""
    probs = softmax(U @ A.T)
    probs[np.arange(len(y)), y] -= 1.0
    return probs.T @ U


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        MlrProblem(U=np.zeros((4, 2)), y=np.zeros(4, dtype=int), K=1)
    with pytest.raises(ShapeMismatchError):
        MlrProblem(U=np.zeros((4, 2)), y=np.zeros(3, dtype=int), K=2)
    with pytest.raises(ConfigurationError):
        MlrProblem(U=np.zeros((2, 2)), y=np.array([0, 5]), K=3)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(5, 4))
    p = softmax(scores)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(softmax(scores + 100.0), p)


def test_cross_entropy_matches_logsumexp_oracle():
    prob = make_problem()
    rng = np.random.default_rng(2)
    A = rng.normal(size=(prob.K, prob.D))
    scores = prob.U @ A.T
    expect = float(
        np.sum(logsumexp(scores, axis=1) - scores[np.arange(prob.n), prob.y])
    )
    assert cross_entropy(A, prob.U, prob.y) == pytest.approx(expect)


def test_factors_reconstruct_dense_gradient():
    prob = make_problem()
    rng = np.random.default_rng(3)
    A = rng.normal(size=(prob.K, prob.D))
    factors = sufficient_factors(A, prob.U, prob.y)
    assert len(factors) == prob.n
    g = gradient_from_factors(factors, prob.K, prob.D)
    assert np.allclose(g, gradient_dense(A, prob.U, prob.y), atol=1e-12)


def test_gradient_matches_finite_differences():
    prob = make_problem(n=20, D=4, K=3, seed=4)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(prob.K, prob.D))
    g = gradient_from_factors(
        sufficient_factors(A, prob.U, prob.y), prob.K, prob.D
    )
    h = 1e-6
    for k in range(prob.K):
        for d in range(prob.D):
            Ap, Am = A.copy(), A.copy()
            Ap[k, d] += h
            Am[k, d] -= h
            fd = (cross_entropy(Ap, prob.U, prob.y)
                  - cross_entropy(Am, prob.U, prob.y)) / (2 * h)
            assert g[k, d] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_training_reaches_full_accuracy_on_separable_data():
    prob = make_problem(n=200, D=10, K=5, seed=6)
    A, objs = train_sgd(prob, steps=150, batch_size=32, seed=7)
    assert accuracy(A, prob.U, prob.y) == 1.0
    assert objs[-1] < objs[0]


def test_factored_and_dense_paths_agree():
    prob = make_problem(n=60, D=5, K=3, seed=8)
    A1, _ = train_sgd(prob, steps=30, batch_size=16, seed=9)
    # the same schedule and minibatch draws, with the dense gradient
    rng = np.random.default_rng(9)
    A2 = np.zeros((prob.K, prob.D))
    for t in range(1, 31):
        idx = rng.choice(prob.n, size=16, replace=False)
        A2 -= (0.1 / np.sqrt(t)) * gradient_dense(A2, prob.U[idx], prob.y[idx]) / 16
    assert np.allclose(A1, A2, atol=1e-10)


def test_step_size_decays_as_inverse_sqrt():
    # two steps with the same gradient: second moves 1/sqrt(2) as far
    U = np.array([[1.0, 0.0]])
    y = np.array([0])
    prob = MlrProblem(U=U, y=y, K=2)
    A, _ = train_sgd(prob, steps=1, batch_size=1, eta0=0.1, seed=0)
    step1 = np.abs(A).max()
    g0 = gradient_dense(np.zeros((2, 2)), U, y)
    assert step1 == pytest.approx(0.1 * np.abs(g0).max())
