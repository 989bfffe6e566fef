"""Lasso regression via coordinate descent.

Two program flavors are provided:

* ``LassoCDProgram`` updates coordinates sequentially (Gauss-Seidel); its
  ``block_delta`` makes it usable by the model-parallel loop and the cluster
  simulator, where each worker owns a subset of coordinates.
* ``LassoDataParallelProgram`` computes snapshot-based per-shard partial sums
  that aggregate additively across shards, with the soft-threshold applied
  once per iteration to the aggregate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import DataShard, apply_sparse
from ..errors import ConfigurationError


def soft_threshold(u: float, lam: float) -> float:
    """sign(u) * max(|u| - lam, 0)."""
    if lam < 0:
        raise ConfigurationError("threshold must be >= 0")
    return np.sign(u) * max(abs(u) - lam, 0.0)


def soft_threshold_vec(u: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(u) * np.maximum(np.abs(u) - lam, 0.0)


def normalize_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale columns to unit l2 norm; returns (X_normalized, scales)."""
    scales = np.linalg.norm(X, axis=0)
    if np.any(scales == 0):
        raise ConfigurationError("zero column in design matrix")
    return X / scales, scales


@dataclass
class LassoProblem:
    """Column-normalized design matrix, response, and l1 weight."""

    X: np.ndarray
    y: np.ndarray
    lam: float
    gram: np.ndarray = field(init=False)
    Xty: np.ndarray = field(init=False)
    col_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigurationError("lambda must be > 0")
        norms = np.linalg.norm(self.X, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ConfigurationError(
                "design matrix columns must be unit-normalized at load"
            )
        self.gram = self.X.T @ self.X
        self.Xty = self.X.T @ self.y
        self.col_sq = np.diag(self.gram).copy()

    @classmethod
    def from_raw(cls, X: np.ndarray, y: np.ndarray, lam: float | None = None):
        Xn, _ = normalize_columns(X)
        if lam is None:
            lam = 0.1 * np.max(np.abs(Xn.T @ y))
        return cls(X=Xn, y=y, lam=lam)

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def n(self) -> int:
        return self.X.shape[0]


def lasso_objective(problem: LassoProblem, a: np.ndarray) -> float:
    resid = problem.X @ a - problem.y
    return 0.5 * float(resid @ resid) + problem.lam * float(np.sum(np.abs(a)))


def lasso_delta(problem: LassoProblem, a: np.ndarray, indices) -> dict[int, float]:
    """u_j = X_.j^T y - sum_{k != j} X_.j^T X_.k A_k, against the frozen snapshot."""
    out: dict[int, float] = {}
    for j in indices:
        if j < 0 or j >= problem.m:
            raise IndexError(f"coordinate {j} out of range")
        out[j] = (
            problem.Xty[j]
            - problem.gram[j] @ a
            + problem.col_sq[j] * a[j]
        )
    return out


def lasso_delta_data_parallel(
    problem: LassoProblem, rows: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Per-coordinate partial sums over one row shard.

    Summing the result over a row partition and soft-thresholding equals the
    full-data update.
    """
    if len(rows) == 0:
        return np.zeros(problem.m)
    Xp = problem.X[rows]
    yp = problem.y[rows]
    fitted = Xp @ a
    col_sq_p = np.einsum("ij,ij->j", Xp, Xp)
    return Xp.T @ yp - Xp.T @ fitted + col_sq_p * a


class LassoCDProgram:
    """Coordinate descent: sequential soft-threshold updates within a block."""

    def __init__(self, problem: LassoProblem):
        self.problem = problem
        self.shape = (problem.m,)

    def initial_values(self) -> np.ndarray:
        return np.zeros(self.problem.m)

    def block_delta(self, view: np.ndarray, data, indices) -> dict[int, float]:
        """Update `indices` sequentially against a local copy of `view`.

        Returns the sparse increment new - old per touched coordinate; the
        view itself is left unmodified.
        """
        prob = self.problem
        a = np.array(view, copy=True)
        delta: dict[int, float] = {}
        for j in indices:
            u = prob.Xty[j] - prob.gram[j] @ a + prob.col_sq[j] * a[j]
            new = soft_threshold(u, prob.lam)
            d = new - a[j]
            if d != 0.0:
                delta[j] = d
            a[j] = new
        return delta

    def delta(self, values: np.ndarray, shard: DataShard) -> dict[int, float]:
        return self.block_delta(values, shard, range(self.problem.m))

    def apply(self, values: np.ndarray, payload: dict[int, float]) -> np.ndarray:
        out = np.array(values, copy=True)
        apply_sparse(out, payload)
        return out

    def objective(self, values: np.ndarray, data=None) -> float:
        return lasso_objective(self.problem, values)


class LassoDataParallelProgram:
    """Snapshot (Jacobi) form: shard partial sums, threshold on the aggregate."""

    def __init__(self, problem: LassoProblem):
        self.problem = problem
        self.shape = (problem.m,)

    def initial_values(self) -> np.ndarray:
        return np.zeros(self.problem.m)

    def delta(self, values: np.ndarray, shard: DataShard) -> np.ndarray:
        return lasso_delta_data_parallel(self.problem, shard.samples, values)

    def apply(self, values: np.ndarray, payload: np.ndarray) -> np.ndarray:
        return soft_threshold_vec(np.asarray(payload), self.problem.lam)

    def objective(self, values: np.ndarray, data=None) -> float:
        return lasso_objective(self.problem, values)


def row_shards(problem: LassoProblem, P: int) -> list[DataShard]:
    """Partition row indices into P contiguous shards."""
    bounds = np.linspace(0, problem.n, P + 1).astype(int)
    return [
        DataShard(samples=np.arange(bounds[p], bounds[p + 1]), shard_id=p)
        for p in range(P)
    ]
