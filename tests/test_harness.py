"""Tasks, training loop, and the estimator comparison matrix."""

import numpy as np
import pytest

from echograd.compare import compare_estimators
from echograd.core import EstimatorMethod, HamiltonianModel, ParamVector, TimeGrid
from echograd.glep import CbvpRelaxConfig
from echograd.models import make_oscillator_model
from echograd.tasks import make_task, sine_tracking_task, step_response_task, two_sines_task
from echograd.estimators import prepare
from echograd.training import TrainConfig, train


def _grid(t_end=2.0, n=400):
    return TimeGrid(dt=t_end / n, n_steps=n)


def test_task_generators_produce_aligned_signals():
    grid = _grid()
    for task in (
        sine_tracking_task(grid, dim=2, input_dim=1),
        two_sines_task(grid, dim=2, input_dim=1),
        step_response_task(grid, dim=3, input_dim=1),
    ):
        assert task.y.grid == grid
        assert task.y.dim == len(task.output_indices)
        if task.x is not None:
            assert task.x.grid == grid
        assert task.dim == task.initial_position.shape[0]


def test_task_validation():
    grid = _grid(n=10)
    with pytest.raises(ValueError):
        sine_tracking_task(grid, dim=2, output_index=5)
    with pytest.raises(ValueError):
        make_task("unknown", grid)


def test_task_coarsening_is_exact_subsampling():
    grid = _grid(n=400)
    task = two_sines_task(grid, dim=2, input_dim=1)
    coarse = task.coarsened(8)
    assert coarse.grid.n_steps == 50
    assert coarse.grid.horizon == task.grid.horizon
    assert np.array_equal(coarse.y.values, task.y.values[::8])
    assert np.array_equal(coarse.x.values, task.x.values[::8])
    with pytest.raises(ValueError):
        task.coarsened(7)


@pytest.fixture(scope="module")
def small_bundle():
    lag, ham = make_oscillator_model(2, coupling="chain")
    theta = ParamVector([1.1, 0.9, 0.35])
    grid = _grid(t_end=2.0, n=400)
    task = sine_tracking_task(
        grid, dim=2, input_dim=0, omega=2.1, amplitude=0.6,
        initial_position=[0.8, -0.3], initial_velocity=[0.2, 0.5],
    )
    return lag, ham, theta, task


def test_zero_learning_rate_keeps_loss_constant(small_bundle):
    lag, ham, theta, task = small_bundle
    config = TrainConfig(estimator="pfvp", beta=1e-3, learning_rate=0.0, epochs=5)
    record = train(lag, ham, task, config, theta0=theta)
    assert np.all(record.losses == record.losses[0])
    assert record.final_loss == record.losses[0]


def test_training_is_bitwise_deterministic(small_bundle):
    lag, ham, theta, task = small_bundle
    config = TrainConfig(estimator="rhel", beta=1e-3, learning_rate=0.3, epochs=8, seed=11)
    a = train(lag, ham, task, config)
    b = train(lag, ham, task, config)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.grad_norms, b.grad_norms)
    assert np.array_equal(a.theta_final.values, b.theta_final.values)
    assert a.final_loss == b.final_loss


def test_training_reduces_loss(small_bundle):
    lag, ham, theta, task = small_bundle
    config = TrainConfig(estimator="pfvp", beta=1e-3, learning_rate=0.3, epochs=25)
    record = train(lag, ham, task, config, theta0=theta)
    assert record.final_loss < record.losses[0]
    assert record.losses.shape == (25,)
    assert record.grad_norms.shape == (25,)


def test_estimator_model_compatibility_checks(small_bundle):
    lag, ham, theta, task = small_bundle
    with pytest.raises(ValueError):
        prepare(EstimatorMethod.STATIC_EP, lag, ham, task, theta)

    class NotReversible(HamiltonianModel):
        dim = 2
        theta_dim = 3
        input_dim = 0
        time_reversible = False
        separable = True

        def hamiltonian(self, s, p, theta, x=None):
            return 0.0

        def grad_position(self, s, p, theta, x=None):
            return np.zeros(2)

        def grad_momentum(self, s, p, theta, x=None):
            return np.zeros(2)

        def grad_params(self, s, p, theta, x=None):
            return np.zeros(3)

    with pytest.raises(ValueError):
        prepare(EstimatorMethod.RHEL, lag, NotReversible(), task, theta)

    lag_bad = make_oscillator_model(2, coupling="chain")[0]
    lag_bad.reversible = False
    with pytest.raises(ValueError):
        prepare(EstimatorMethod.PFVP, lag_bad, ham, task, theta)


def test_compare_table_shape_and_equality_column(small_bundle):
    lag, ham, theta, task = small_bundle
    betas = [1e-2, 1e-3]
    estimators = ["civp", "pfvp", "rhel"]
    table = compare_estimators(lag, ham, theta, task, betas, estimators)
    assert len(table.cells) == len(betas) * len(estimators)
    rhel_cells = [c for c in table.cells if c.estimator == "rhel"]
    assert all(c.rhel_pfvp_rel_diff is not None for c in rhel_cells)
    assert all(c.rhel_pfvp_rel_diff <= 1e-6 for c in rhel_cells)
    others = [c for c in table.cells if c.estimator != "rhel"]
    assert all(c.rhel_pfvp_rel_diff is None for c in others)
    assert all(c.rel_err_vs_oracle <= 1e-2 for c in table.cells)


def test_compare_errors_non_increasing_in_beta(small_bundle):
    lag, ham, theta, task = small_bundle
    betas = [1e-2, 1e-3, 1e-4]
    table = compare_estimators(lag, ham, theta, task, betas, ["pfvp", "rhel"])
    for name in ("pfvp", "rhel"):
        errs = [c.rel_err_vs_oracle for c in table.cells if c.estimator == name]
        assert errs[0] >= errs[1] >= errs[2]


def test_compare_includes_cbvp_on_coarse_grid(small_bundle):
    lag, ham, theta, task = small_bundle
    table = compare_estimators(
        lag, ham, theta, task, [1e-3], ["cbvp", "pfvp", "rhel"],
        cbvp_config=CbvpRelaxConfig(tol=1e-11), cbvp_coarsen=8,
    )
    cbvp_cells = [c for c in table.cells if c.estimator == "cbvp"]
    assert len(cbvp_cells) == 1
    assert cbvp_cells[0].rel_err_vs_oracle <= 1e-2


def test_compare_csv_and_json_outputs(small_bundle, tmp_path):
    lag, ham, theta, task = small_bundle
    table = compare_estimators(lag, ham, theta, task, [1e-3], ["pfvp", "rhel"])
    table.write_csv(tmp_path / "compare.csv")
    table.write_json(tmp_path / "compare.json")
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("task,estimator,beta,nudging,rel_err_vs_oracle")
    assert len(lines) == 3
    import json

    rows = json.loads((tmp_path / "compare.json").read_text())["rows"]
    assert len(rows) == 2
    assert {r["estimator"] for r in rows} == {"pfvp", "rhel"}
