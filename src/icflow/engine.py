"""Update and stopping types, and the lock-step model-parallel reference loop.

A model-parallel program exposes ``initial_values``, a sparse
``block_delta(view, data, indices)`` computed against a worker's local view,
and an ``objective``. ``run_model_parallel`` runs such a program over
disjoint parameter subsets in lock step; the cluster simulator with
staleness 0 must reproduce its trajectory bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    NonFiniteObjectiveError,
    SchedulingConflictError,
)


@dataclass
class UpdateDelta:
    """An update in dense, sparse, or sufficient-factor form.

    payload: ndarray | dict[int, float] | list[(b, c) vector pairs]
    """

    payload: Any
    timestamp: int
    origin: int

    def __post_init__(self):
        if isinstance(self.payload, dict):
            # sparse payloads carry no explicit zeros
            self.payload = {k: v for k, v in self.payload.items() if v != 0.0}


@dataclass(frozen=True)
class StoppingCriterion:
    max_iterations: int
    objective_tolerance: float = 1e-8
    window: int = 1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.objective_tolerance <= 0:
            raise ConfigurationError("objective_tolerance must be > 0")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")

    def reached(self, objectives: Sequence[float]) -> bool:
        """True once relative change over `window` iterations drops below tol."""
        if len(objectives) >= self.max_iterations:
            return True
        if len(objectives) <= self.window:
            return False
        old = objectives[-1 - self.window]
        new = objectives[-1]
        denom = max(abs(old), 1e-300)
        return abs(new - old) / denom < self.objective_tolerance


def apply_sparse(values: np.ndarray, payload: dict[int, float]) -> None:
    """Add a sparse payload into `values` in place. Each key occurs once, so
    every element gets exactly one addition and the order cannot change a
    bit."""
    for j, v in payload.items():
        values[j] += v


def _check_objective(value: float, iteration: int) -> float:
    if not math.isfinite(value):
        raise NonFiniteObjectiveError(iteration, value)
    return value


class FixedBlockScheduler:
    """Assigns the same contiguous equal blocks to each worker every round."""

    def __init__(self, m: int, P: int):
        bounds = np.linspace(0, m, P + 1).astype(int)
        self.blocks = [list(range(bounds[p], bounds[p + 1])) for p in range(P)]

    def rounds(self, t: int, values) -> list[list[int]]:
        return self.blocks

    def observe(self, changes: dict) -> None:
        pass


def _check_disjoint(assignment: Sequence[Sequence[int]]) -> None:
    seen: set[int] = set()
    for subset in assignment:
        s = set(subset)
        overlap = seen & s
        if overlap:
            raise SchedulingConflictError(
                f"indices assigned to multiple workers in one round: {sorted(overlap)}"
            )
        seen |= s


def run_model_parallel(
    program,
    data: Any,
    P: int,
    scheduler,
    stop: StoppingCriterion,
    trajectory_out: Optional[list] = None,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Lock-step (BSP) model-parallel loop with per-worker local views.

    Each round the scheduler emits P disjoint index subsets. Every worker
    computes its block update against its own local view (sequentially within
    the block), then all views and the master copy are brought up to date.
    Deltas are applied in a fixed order (own update first, then the other
    workers' in id order) so a tick-level simulation with the same order
    reproduces this trajectory bit for bit. Returns the final parameters and
    one (round, objective) pair per round.
    """
    master = np.array(program.initial_values(), copy=True)
    views = [master.copy() for _ in range(P)]
    metrics: list[tuple[int, float]] = []
    objectives: list[float] = []
    t = 0
    while True:
        assignment = scheduler.rounds(t, master)
        if len(assignment) != P:
            raise ConfigurationError(
                f"scheduler emitted {len(assignment)} subsets for {P} workers"
            )
        _check_disjoint(assignment)
        deltas = []
        for p in range(P):
            deltas.append(program.block_delta(views[p], data, assignment[p]))
        # own delta first (read-my-writes), then the rest in worker-id order
        for p in range(P):
            apply_sparse(views[p], deltas[p])
            for q in range(P):
                if q != p:
                    apply_sparse(views[p], deltas[q])
        changes: dict[int, float] = {}
        for q in range(P):
            apply_sparse(master, deltas[q])
            changes.update(deltas[q])
        scheduler.observe(changes)
        t += 1
        if trajectory_out is not None:
            trajectory_out.append(master.copy())
        obj = _check_objective(program.objective(master, data), t)
        metrics.append((t, obj))
        objectives.append(obj)
        if stop.reached(objectives):
            break
    return master, metrics
