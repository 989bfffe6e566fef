import numpy as np
import pytest

from icflow.engine import (
    FixedBlockScheduler,
    StoppingCriterion,
    UpdateDelta,
    run_model_parallel,
)
from icflow.errors import (
    ConfigurationError,
    NonFiniteObjectiveError,
    SchedulingConflictError,
)


def test_update_delta_drops_explicit_zeros():
    d = UpdateDelta(payload={1: 0.0, 2: 3.5}, timestamp=0, origin=0)
    assert d.payload == {2: 3.5}


def test_stopping_criterion_validation():
    with pytest.raises(ConfigurationError):
        StoppingCriterion(max_iterations=0)
    with pytest.raises(ConfigurationError):
        StoppingCriterion(max_iterations=5, objective_tolerance=0.0)
    with pytest.raises(ConfigurationError):
        StoppingCriterion(max_iterations=5, window=0)


def test_stopping_criterion_triggers_on_flat_objective():
    stop = StoppingCriterion(max_iterations=100, objective_tolerance=1e-4)
    assert not stop.reached([10.0])
    assert stop.reached([10.0, 10.0 + 1e-7])
    assert not stop.reached([10.0, 5.0])
    assert stop.reached(list(range(100)))  # max iterations


class SparseBlockProgram:
    """Model-parallel program over a vector: each block update moves its
    coordinates halfway to the target."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def initial_values(self):
        return np.zeros_like(self.target)

    def block_delta(self, view, data, indices):
        return {j: 0.5 * (self.target[j] - view[j]) for j in indices}

    def objective(self, values, data=None):
        return 0.5 * float(np.sum((values - self.target) ** 2))


def test_model_parallel_converges_with_fixed_blocks():
    target = np.arange(1.0, 9.0)
    prog = SparseBlockProgram(target)
    values, _ = run_model_parallel(
        prog, None, 4, FixedBlockScheduler(8, 4),
        StoppingCriterion(max_iterations=60),
    )
    assert np.allclose(values, target, atol=1e-6)


def test_model_parallel_rejects_wrong_subset_count():
    prog = SparseBlockProgram(np.ones(4))
    with pytest.raises(ConfigurationError):
        run_model_parallel(
            prog, None, 3, FixedBlockScheduler(4, 2),
            StoppingCriterion(max_iterations=5),
        )


def test_non_finite_objective_is_reported():
    class Diverging(SparseBlockProgram):
        def objective(self, values, data=None):
            return float("nan")

    prog = Diverging(np.ones(2))
    with pytest.raises(NonFiniteObjectiveError) as e:
        run_model_parallel(
            prog, None, 1, FixedBlockScheduler(2, 1),
            StoppingCriterion(max_iterations=5),
        )
    assert e.value.iteration == 1


def test_model_parallel_rejects_overlapping_assignment():
    class BadScheduler:
        def rounds(self, t, values):
            return [[0, 1], [1, 2]]

        def observe(self, changes):
            pass

    prog = SparseBlockProgram(np.ones(3))
    with pytest.raises(SchedulingConflictError):
        run_model_parallel(
            prog, None, 2, BadScheduler(),
            StoppingCriterion(max_iterations=5),
        )


def test_model_parallel_trajectory_is_recorded():
    prog = SparseBlockProgram(np.ones(4))
    traj = []
    run_model_parallel(
        prog, None, 2, FixedBlockScheduler(4, 2),
        StoppingCriterion(max_iterations=10), trajectory_out=traj,
    )
    assert len(traj) == 10
    assert np.allclose(traj[0], 0.5 * np.ones(4))
