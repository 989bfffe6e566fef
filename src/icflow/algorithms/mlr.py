"""Multiclass logistic regression trained with minibatch gradient steps.

The gradient of a minibatch factors exactly into per-sample vector pairs:
b_i (the softmax residual over classes) and c_i (the feature vector), with
the full K x D gradient equal to the sum of outer products b_i c_i^T. Workers
can therefore exchange the pairs instead of the dense matrix; the receiver
reconstructs the gradient exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ShapeMismatchError


@dataclass
class MlrProblem:
    """Features U (n x D), integer labels y in [0, K)."""

    U: np.ndarray
    y: np.ndarray
    K: int

    def __post_init__(self):
        if self.K < 2:
            raise ConfigurationError("need at least 2 classes")
        if self.U.shape[0] != self.y.shape[0]:
            raise ShapeMismatchError(
                f"{self.U.shape[0]} samples but {self.y.shape[0]} labels"
            )
        if self.y.min() < 0 or self.y.max() >= self.K:
            raise ConfigurationError("labels must lie in [0, K)")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def D(self) -> int:
        return self.U.shape[1]


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(A: np.ndarray, U: np.ndarray, y: np.ndarray) -> float:
    """Sum of per-sample negative log-likelihoods."""
    scores = U @ A.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.sum(logz - shifted[np.arange(len(y)), y]))


def sufficient_factors(
    A: np.ndarray, U: np.ndarray, y: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (b_i, c_i) pair per sample: b_i = softmax(A u_i) - onehot(y_i),
    c_i = u_i. Their outer products sum to the minibatch gradient."""
    probs = softmax(U @ A.T)
    out = []
    for i in range(U.shape[0]):
        b = probs[i].copy()
        b[y[i]] -= 1.0
        out.append((b, U[i].copy()))
    return out


def gradient_from_factors(factors, K: int, D: int) -> np.ndarray:
    g = np.zeros((K, D))
    for b, c in factors:
        g += np.outer(b, c)
    return g


def accuracy(A: np.ndarray, U: np.ndarray, y: np.ndarray) -> float:
    pred = np.argmax(U @ A.T, axis=1)
    return float(np.mean(pred == y))


def train_sgd(
    problem: MlrProblem,
    steps: int,
    batch_size: int,
    eta0: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, list[float]]:
    """Minibatch SGD with step size eta0 / sqrt(t). The gradient goes through
    the factored representation, as it would over the wire."""
    rng = np.random.default_rng(seed)
    A = np.zeros((problem.K, problem.D))
    objectives: list[float] = []
    for t in range(1, steps + 1):
        idx = rng.choice(problem.n, size=min(batch_size, problem.n), replace=False)
        Ub, yb = problem.U[idx], problem.y[idx]
        g = gradient_from_factors(
            sufficient_factors(A, Ub, yb), problem.K, problem.D
        )
        A -= (eta0 / np.sqrt(t)) * (g / len(idx))
        objectives.append(cross_entropy(A, problem.U, problem.y))
    return A, objectives
