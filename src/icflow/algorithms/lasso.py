"""Lasso regression via coordinate descent.

``LassoCDProgram`` updates the coordinates of a block sequentially
(Gauss-Seidel); its ``block_delta`` serves the lock-step model-parallel loop
and the cluster simulator, where each worker owns a subset of coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError


def soft_threshold(u: float, lam: float) -> float:
    """sign(u) * max(|u| - lam, 0), with np.sign's cases: +0.0 for u = +-0
    and NaN for a NaN u."""
    if lam < 0:
        raise ConfigurationError("threshold must be >= 0")
    shrunk = max(abs(u) - lam, 0.0)
    return shrunk if u > 0 else -shrunk if u < 0 else 0.0 * shrunk


def normalize_columns(X: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Scale columns to unit l2 norm, into `out` if given (X itself may be);
    returns (X_normalized, scales)."""
    # the bits of np.linalg.norm(X, axis=0), without its n x m temporary
    scales = np.sqrt(np.einsum("ij,ij->j", X, X))
    if np.any(scales == 0):
        raise ConfigurationError("zero column in design matrix")
    return np.divide(X, scales, out=out), scales


@dataclass
class LassoProblem:
    """Column-normalized design matrix, response, and l1 weight; a `lam` of
    None takes the default, a tenth of the largest |X^T y|."""

    X: np.ndarray
    y: np.ndarray
    lam: float | None
    gram: np.ndarray = field(init=False)
    Xty: np.ndarray = field(init=False)
    col_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        # an explicit lam is checked before any product, a default after X^T y
        Xty = None
        if self.lam is None:
            Xty = self.X.T @ self.y
            self.lam = 0.1 * np.max(np.abs(Xty))
        if self.lam <= 0:
            raise ConfigurationError("lambda must be > 0")
        self.gram = self.X.T @ self.X
        if not np.allclose(np.sqrt(np.diag(self.gram)), 1.0, atol=1e-9):
            raise ConfigurationError(
                "design matrix columns must be unit-normalized at load"
            )
        self.Xty = self.X.T @ self.y if Xty is None else Xty
        self.col_sq = np.diag(self.gram).copy()

    @classmethod
    def from_raw(cls, X: np.ndarray, y: np.ndarray, lam: float | None = None):
        """The problem on X (float64) scaled to unit columns. X is scaled in
        place and owned by the problem: pass a copy to keep the raw matrix."""
        normalize_columns(X, out=X)
        return cls(X=X, y=y, lam=lam)

    @property
    def m(self) -> int:
        return self.X.shape[1]


def lasso_objective(problem: LassoProblem, a: np.ndarray) -> float:
    """Non-finite on a diverged `a`, without numpy's overflow warning: the
    caller (`engine._check_objective`) reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid = problem.X @ a - problem.y
        return 0.5 * float(resid @ resid) + problem.lam * float(np.sum(np.abs(a)))


class LassoCDProgram:
    """Coordinate descent: sequential soft-threshold updates within a block."""

    def __init__(self, problem: LassoProblem):
        self.problem = problem
        # block_delta's per-coordinate inputs: Python floats and Gram rows
        self._Xty, self._col_sq = problem.Xty.tolist(), problem.col_sq.tolist()
        self._rows = list(problem.gram)

    def initial_values(self) -> np.ndarray:
        return np.zeros(self.problem.m)

    def block_delta(self, view: np.ndarray, data, indices) -> dict[int, float]:
        """Update `indices` sequentially against a local copy of `view`.

        Returns the sparse increment new - old per touched coordinate; the
        view itself is left unmodified.
        """
        Xty, col_sq, rows = self._Xty, self._col_sq, self._rows
        lam = float(self.problem.lam)
        a = np.array(view, copy=True)
        delta: dict[int, float] = {}
        for j in indices:
            old = float(a[j])
            u = Xty[j] - float(rows[j].dot(a)) + col_sq[j] * old
            new = soft_threshold(u, lam)
            d = new - old
            if d != 0.0:
                delta[j] = d
            a[j] = new
        return delta

    def objective(self, values: np.ndarray, data=None) -> float:
        return lasso_objective(self.problem, values)
