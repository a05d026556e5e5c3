"""Trajectory estimators: oracle agreement, boundary terms, the boundary value solve."""

import warnings

import numpy as np
import pytest

from echograd import glep
from echograd.core import LagrangianModel, NudgeMode, ParamVector, Signal, TimeGrid
from echograd.errors import ConvergenceError, NumericalError, SingularHessianError
from echograd.glep import (
    CbvpRelaxConfig,
    CbvpSpec,
    CivpSpec,
    grad_cbvp,
    grad_civp,
    grad_pfvp,
    solve_cbvp,
)
from echograd.dynamics import Nudge, integrate_lagrangian_ivp
from echograd.models import (
    QuadraticTrackingCost,
    ZeroCost,
    make_oscillator_model,
    make_quartic_model,
)
from echograd.oracle import fd_gradient, trajectory_loss

LAG1, HAM1 = make_oscillator_model(1, coupling="direct")
TH1 = ParamVector([1.0])
COST1 = QuadraticTrackingCost(1)

LAG2, HAM2 = make_oscillator_model(2, coupling="chain")
TH2 = ParamVector([1.1, 0.9, 0.35])
COST2 = QuadraticTrackingCost(2, indices=[0])


def _grid(t_end=2.0, n=1000):
    return TimeGrid(dt=t_end / n, n_steps=n)


# ---------------------------------------------------------------- CIVP


def test_civp_matches_oracle_one_parameter():
    grid = _grid()
    spec = CivpSpec([1.0], [0.0])
    y = Signal.zeros(grid, 1)
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG1, COST1, p, spec, grid, None, y), TH1
    ).value
    estimate = grad_civp(LAG1, COST1, TH1, spec, grid, None, y, beta=1e-4)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-3


def test_civp_zero_cost_gives_zero_vector():
    grid = _grid(n=400)
    spec = CivpSpec([1.0], [0.0])
    y = Signal.zeros(grid, 1)
    estimate = grad_civp(LAG1, ZeroCost(1), TH1, spec, grid, None, y, beta=1e-3)
    assert np.max(np.abs(estimate.value)) <= 1e-10


def test_civp_boundary_residuals_are_essential():
    grid = _grid()
    spec = CivpSpec([1.0], [0.0])
    y = Signal.from_function(grid, lambda t: [0.5 * np.sin(1.3 * t)])
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG1, COST1, p, spec, grid, None, y), TH1
    ).value
    with_terms = grad_civp(LAG1, COST1, TH1, spec, grid, None, y, beta=1e-3)
    without = grad_civp(
        LAG1, COST1, TH1, spec, grid, None, y, beta=1e-3, include_boundary=False
    )
    err_with = np.linalg.norm(with_terms.value - oracle)
    err_without = np.linalg.norm(without.value - oracle)
    assert err_without > err_with


def test_civp_parameter_guard():
    lag, _ = make_oscillator_model(6, coupling="dense")  # 36 parameters
    grid = _grid(n=50)
    spec = CivpSpec(np.zeros(6), np.zeros(6))
    y = Signal.zeros(grid, 1)
    with pytest.raises(ValueError):
        grad_civp(
            lag, QuadraticTrackingCost(6, indices=[0]), ParamVector(np.zeros(36)),
            spec, grid, None, y, beta=1e-3,
        )


def test_civp_one_sided_mode():
    grid = _grid()
    spec = CivpSpec([1.0], [0.0])
    y = Signal.from_function(grid, lambda t: [0.5 * np.sin(1.3 * t)])
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG1, COST1, p, spec, grid, None, y), TH1
    ).value
    estimate = grad_civp(
        LAG1, COST1, TH1, spec, grid, None, y, beta=1e-4, nudging=NudgeMode.ONE_SIDED
    )
    assert estimate.nudging is NudgeMode.ONE_SIDED
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-2


# ---------------------------------------------------------------- CBVP solver


def test_cbvp_relaxes_to_zero_solution():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.0], [0.0])
    ripple = 0.3 * np.sin(np.linspace(0.0, np.pi, grid.n_points))[:, None]
    result = solve_cbvp(
        LAG1, TH1, spec, grid, initial_guess=ripple,
        config=CbvpRelaxConfig(tol=1e-9),
    )
    assert np.max(np.abs(result.trajectory.positions)) <= 1e-6


def test_cbvp_converged_guess_takes_no_sweeps():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.0], [0.0])
    result = solve_cbvp(LAG1, TH1, spec, grid, config=CbvpRelaxConfig(tol=1e-9))
    again = solve_cbvp(
        LAG1, TH1, spec, grid, initial_guess=result.trajectory.positions,
        config=CbvpRelaxConfig(tol=1e-9),
    )
    assert again.iterations == 0


def test_cbvp_sine_closed_form():
    # endpoints 0 and 1 over a quarter period: s(t) = sin(t)
    grid = TimeGrid(dt=(np.pi / 2) / 64, n_steps=64)
    spec = CbvpSpec([0.0], [1.0])
    result = solve_cbvp(LAG1, TH1, spec, grid, config=CbvpRelaxConfig(tol=1e-11))
    gap = np.max(np.abs(result.trajectory.positions[:, 0] - np.sin(grid.times())))
    assert gap <= 1e-4


def test_cbvp_endpoints_pinned_exactly():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    result = solve_cbvp(LAG2, TH2, spec, grid, config=CbvpRelaxConfig(tol=1e-9))
    assert np.array_equal(result.trajectory.positions[0], spec.start_position)
    assert np.array_equal(result.trajectory.positions[-1], spec.end_position)
    assert result.max_residual <= 1e-9


def test_cbvp_sweep_budget_exhaustion_is_convergence_error(monkeypatch):
    # the sine case needs two Newton steps to reach 1e-11
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.0], [1.0])
    monkeypatch.setattr(glep, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        solve_cbvp(LAG1, TH1, spec, grid, config=CbvpRelaxConfig(tol=1e-11))


class _LinearPotentialOnly(LagrangianModel):
    """L = s: no kinetic term, so the defect is 1 everywhere and its
    Jacobian vanishes."""

    dim, theta_dim, input_dim = 1, 1, 0
    reversible, quadratic_kinetic = True, True

    def lagrangian(self, s, v, theta, x=None):
        return float(s[0])

    def grad_position(self, s, v, theta, x=None):
        return np.ones(1)

    def grad_velocity(self, s, v, theta, x=None):
        return np.zeros(1)

    def grad_params(self, s, v, theta, x=None):
        return np.zeros(1)

    def velocity_hessian(self, s, v, theta, x=None):
        return np.zeros((1, 1))


def test_cbvp_singular_jacobian_is_typed_error():
    grid = TimeGrid(dt=0.1, n_steps=8)
    with pytest.raises(SingularHessianError):
        solve_cbvp(_LinearPotentialOnly(), [1.0], CbvpSpec([0.0], [1.0]), grid)


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_cbvp_quartic_fold_case_is_typed_error(beta):
    # Past a fold of the solution branch: Newton from the straight line
    # stalls, and the solve must end in a typed error without a warning.
    lag, _ = make_quartic_model(2, "chain")
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(2.0 * t)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            solve_cbvp(lag, TH2, spec, grid, cost=COST2, target=y, beta=beta)


# ---------------------------------------------------------------- CBVP estimator


@pytest.fixture(scope="module")
def cbvp_setup():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(2.0 * t)])
    config = CbvpRelaxConfig(tol=1e-12)
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG2, COST2, p, spec, grid, None, y, cbvp_config=config),
        TH2,
    ).value
    return grid, spec, y, config, oracle


def test_cbvp_estimator_matches_bvp_oracle(cbvp_setup):
    grid, spec, y, config, oracle = cbvp_setup
    estimate = grad_cbvp(LAG2, COST2, TH2, spec, grid, None, y, beta=1e-4, config=config)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-2


def test_cbvp_zero_cost_gives_zero_vector(cbvp_setup):
    grid, spec, y, config, _ = cbvp_setup
    estimate = grad_cbvp(LAG2, ZeroCost(2), TH2, spec, grid, None, y, beta=1e-3, config=config)
    assert np.max(np.abs(estimate.value)) <= 1e-8


def test_cbvp_tolerance_bounds_residual(cbvp_setup):
    # tol bounds the worst defect, and a tighter one costs no fewer Newton
    # steps.  The estimate's error sits at the oracle's own finite-difference
    # floor at both tolerances, so the two errors are not compared.
    grid, spec, y, _, oracle = cbvp_setup
    loose_config, tight_config = CbvpRelaxConfig(tol=1e-6), CbvpRelaxConfig(tol=1e-12)
    loose = solve_cbvp(LAG2, TH2, spec, grid, cost=COST2, target=y, beta=1e-4,
                       config=loose_config)
    tight = solve_cbvp(LAG2, TH2, spec, grid, cost=COST2, target=y, beta=1e-4,
                       config=tight_config)
    assert loose.max_residual <= loose_config.tol
    assert tight.max_residual <= tight_config.tol
    assert loose.iterations <= tight.iterations
    for config in (loose_config, tight_config):
        estimate = grad_cbvp(LAG2, COST2, TH2, spec, grid, None, y, beta=1e-4, config=config)
        assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-2


# ---------------------------------------------------------------- PFVP


def test_pfvp_retrace_closes_loop_at_zero_beta():
    grid = _grid()
    free = integrate_lagrangian_ivp(LAG1, TH1, [0.7], [-0.2], grid)
    back = integrate_lagrangian_ivp(
        LAG1, TH1, free.positions[-1], -free.velocities[-1], grid
    )
    assert np.max(np.abs(back.positions[-1] - np.array([0.7]))) <= 1e-8


def test_pfvp_nudged_solution_pins_free_endpoint():
    # the nudged final state is the free endpoint by construction: it is the
    # copied starting state of the reversed integration, not re-derived
    grid = _grid(n=500)
    y = Signal.from_function(grid, lambda t: [0.6 * np.sin(2.1 * t)])
    free = integrate_lagrangian_ivp(LAG2, TH2, [0.8, -0.3], [0.2, 0.5], grid)
    back = integrate_lagrangian_ivp(
        LAG2, TH2, free.positions[-1], -free.velocities[-1], grid,
        nudge=Nudge(1e-3, COST2, y.time_reversed()),
    )
    # forward-order nudged trajectory = reversed back-run: its final state is
    # the back-run's starting state with the velocity sign undone
    assert np.array_equal(back.positions[0], free.positions[-1])
    assert np.array_equal(-back.velocities[0], free.velocities[-1])


def test_pfvp_matches_oracle_three_parameters():
    grid = _grid()
    spec = CivpSpec([0.8, -0.3], [0.2, 0.5])
    y = Signal.from_function(grid, lambda t: [0.6 * np.sin(2.1 * t)])
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG2, COST2, p, CivpSpec(spec.position, spec.velocity),
                                  grid, None, y),
        TH2,
    ).value
    estimate = grad_pfvp(LAG2, COST2, TH2, spec, grid, None, y, beta=1e-4)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-3


def test_pfvp_zero_cost_gives_zero_vector():
    grid = _grid(n=400)
    spec = CivpSpec([0.8, -0.3], [0.2, 0.5])
    y = Signal.zeros(grid, 1)
    estimate = grad_pfvp(LAG2, ZeroCost(2), TH2, spec, grid, None, y, beta=1e-3)
    assert np.max(np.abs(estimate.value)) <= 1e-10


def test_pfvp_boundary_term_vanishes_for_parameter_free_kinetic():
    # the zoo's velocity gradient carries no parameters, so the central
    # difference behind the boundary term is the zero vector exactly
    eps = 1e-5
    for j in range(TH2.dim):
        plus = TH2.perturbed(j, eps).values
        minus = TH2.perturbed(j, -eps).values
        diff = LAG2.grad_velocity([0.8, -0.3], [0.2, 0.5], plus) - LAG2.grad_velocity(
            [0.8, -0.3], [0.2, 0.5], minus
        )
        assert np.array_equal(diff, np.zeros(2))


def test_pfvp_requires_reversible_model_and_position_cost():
    grid = _grid(n=100)
    spec = CivpSpec([0.0], [0.0])
    y = Signal.zeros(grid, 1)

    irreversible = make_oscillator_model(1, coupling="direct")[0]
    irreversible.reversible = False  # instance attribute shadows the class flag
    with pytest.raises(ValueError):
        grad_pfvp(irreversible, COST1, TH1, spec, grid, None, y, beta=1e-3)

    from echograd.models import PhaseTrackingCost

    with pytest.raises(ValueError):
        grad_pfvp(LAG1, PhaseTrackingCost(1), TH1, spec, grid, None, y, beta=1e-3)


def test_estimator_errors_shrink_with_beta():
    grid = _grid()
    spec_c = CivpSpec([0.8, -0.3], [0.2, 0.5])
    spec_p = CivpSpec([0.8, -0.3], [0.2, 0.5])
    y = Signal.from_function(grid, lambda t: [0.6 * np.sin(2.1 * t)])
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG2, COST2, p, spec_c, grid, None, y), TH2
    ).value
    for fn, spec in ((grad_civp, spec_c), (grad_pfvp, spec_p)):
        errors = []
        for beta in (1e-2, 1e-3, 1e-4):
            estimate = fn(LAG2, COST2, TH2, spec, grid, None, y, beta=beta)
            errors.append(np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle))
        assert errors[0] >= errors[1] >= errors[2]
