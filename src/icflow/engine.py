"""Iterative-convergent program abstraction and execution loops.

A program exposes three callables: an update ``delta`` computed against a
snapshot of the parameters, an aggregation ``apply`` that folds the (possibly
merged) update back into the parameters, and an ``objective`` evaluator.
The loops below run such a program sequentially, data-parallel over shards,
or model-parallel over disjoint parameter subsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    NonFiniteObjectiveError,
    SchedulingConflictError,
    ShapeMismatchError,
)


@dataclass
class ModelState:
    """Parameter collection plus an iteration clock.

    ``values`` is an ndarray for vector/matrix models; algorithm modules with
    richer state (LDA count tables) wrap their own state object here.
    """

    values: Any
    clock: int = 0

    def advance(self) -> None:
        self.clock += 1

    def set_clock(self, t: int) -> None:
        if t < self.clock:
            raise ValueError(f"clock must be non-decreasing: {t} < {self.clock}")
        self.clock = t


@dataclass
class DataShard:
    """A contiguous slice of the dataset assigned to one worker."""

    samples: Any
    shard_id: int


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


class Program(Protocol):
    """Duck-typed iterative-convergent program (data-parallel form)."""

    def initial_values(self) -> Any: ...

    def delta(self, values: Any, shard: DataShard) -> Any: ...

    def apply(self, values: Any, payload: Any) -> Any: ...

    def objective(self, values: Any, data: Any) -> float: ...


def merge_payloads(payloads: Sequence[Any]) -> Any:
    """Additively merge shard payloads, in the given order.

    Dense arrays sum elementwise; sparse dicts merge key-wise dropping
    explicit zeros is NOT done here (aggregation must stay exact).
    """
    if not payloads:
        return {}
    first = payloads[0]
    if isinstance(first, dict):
        out: dict = {}
        for p in payloads:
            for k, v in p.items():
                out[k] = out.get(k, 0.0) + v
        return out
    out = np.array(first, copy=True)
    for p in payloads[1:]:
        out = out + p
    return out


def apply_sparse(values: np.ndarray, payload: dict[int, float]) -> None:
    """Add a sparse payload into `values` in place, in ascending key order
    (a fixed order keeps results bit-identical across callers)."""
    for j in sorted(payload):
        values[j] += payload[j]


def _check_objective(value: float, iteration: int) -> float:
    if not math.isfinite(value):
        raise NonFiniteObjectiveError(iteration, value)
    return value


def evaluate_objective(program, state: ModelState, data) -> float:
    """L(x, A) = f + r for the concrete program."""
    expected = getattr(program, "shape", None)
    if expected is not None:
        actual = np.shape(state.values)
        if tuple(actual) != tuple(expected):
            raise ShapeMismatchError(
                f"state shape {actual} does not match program shape {expected}"
            )
    return program.objective(state.values, data)


def run_sequential(
    program,
    data: DataShard,
    stop: StoppingCriterion,
) -> tuple[ModelState, list[tuple[int, float]]]:
    """Run A(t) = F(A(t-1), delta(A(t-1), x)) on one worker until `stop`."""
    state = ModelState(values=program.initial_values())
    metrics: list[tuple[int, float]] = []
    objectives: list[float] = []
    while True:
        payload = program.delta(state.values, data)
        state.values = program.apply(state.values, payload)
        state.advance()
        obj = _check_objective(program.objective(state.values, data), state.clock)
        metrics.append((state.clock, obj))
        objectives.append(obj)
        if stop.reached(objectives):
            break
    return state, metrics


def run_data_parallel(
    program,
    shards: Sequence[DataShard],
    P: int,
    stop: StoppingCriterion,
    full_data: Optional[DataShard] = None,
) -> tuple[ModelState, list[tuple[int, float]]]:
    """BSP data-parallel loop: apply F(A, sum_p delta(A, x_p)) each iteration.

    With P = 1 this follows the exact same code path as ``run_sequential``
    (single-shard merge is the identity), so results are bit-identical.
    `full_data` is used for objective evaluation; defaults to concatenating
    shard sample lists is left to the program, so callers should pass it.
    """
    if len(shards) != P:
        raise ConfigurationError(f"expected {P} shards, got {len(shards)}")
    eval_data = full_data if full_data is not None else shards[0]
    state = ModelState(values=program.initial_values())
    metrics: list[tuple[int, float]] = []
    objectives: list[float] = []
    while True:
        payloads = [program.delta(state.values, sh) for sh in shards]
        agg = payloads[0] if P == 1 else merge_payloads(payloads)
        state.values = program.apply(state.values, agg)
        state.advance()
        obj = _check_objective(
            program.objective(state.values, eval_data), state.clock
        )
        metrics.append((state.clock, obj))
        objectives.append(obj)
        if stop.reached(objectives):
            break
    return state, metrics


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
    data: DataShard,
    P: int,
    scheduler,
    stop: StoppingCriterion,
    trajectory_out: Optional[list] = None,
) -> tuple[ModelState, list[tuple[int, float]]]:
    """Lock-step (BSP) model-parallel loop with per-worker local views.

    Each round the scheduler emits P disjoint index subsets. Every worker
    computes its block update against its own local view (sequentially within
    the block), then all views and the master copy are brought up to date.
    Deltas are applied in a fixed order (own update first, then the other
    workers' in id order) so a tick-level simulation with the same order
    reproduces this trajectory bit for bit.
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
    return ModelState(values=master, clock=t), metrics
