"""Trajectory estimators: oracle agreement, boundary terms, the boundary value solve."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echograd import glep
from echograd.core import (
    LagrangianModel,
    NudgeMode,
    ParamVector,
    Signal,
    TimeGrid,
    central_probes,
)
from echograd.errors import ConvergenceError, SingularHessianError
from echograd.glep import (
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
    model_zoo,
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


def _civp_without_residuals(lag, cost, theta, spec, grid, y, beta):
    """CIVP's symmetric estimate without its two final-time residual terms:
    the contrast of the runs nudged at +beta and -beta with the free run."""
    th = theta.values
    runs = integrate_lagrangian_ivp(lag, np.stack([th] * 3), spec.position, spec.velocity, grid,
                                    nudge=Nudge(np.array([0.0, beta, -beta]), cost, y))
    contrasts = lag.bind(th, None).grad_params_contrast(
        runs.positions[1:], runs.velocities[1:], runs.positions[0], runs.velocities[0], grid.dt)
    return 0.5 * (contrasts[0] / beta + contrasts[1] / -beta)


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
    without = _civp_without_residuals(LAG1, COST1, TH1, spec, grid, y, 1e-3)
    err_with = np.linalg.norm(with_terms.value - oracle)
    err_without = np.linalg.norm(without - oracle)
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
        tol=1e-9,
    )
    assert np.max(np.abs(result.trajectory.positions)) <= 1e-6


def test_cbvp_converged_guess_takes_no_sweeps():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.0], [0.0])
    result = solve_cbvp(LAG1, TH1, spec, grid, tol=1e-9)
    again = solve_cbvp(
        LAG1, TH1, spec, grid, initial_guess=result.trajectory.positions,
        tol=1e-9,
    )
    assert again.iterations == 0


def test_cbvp_sine_closed_form():
    # endpoints 0 and 1 over a quarter period: s(t) = sin(t)
    grid = TimeGrid(dt=(np.pi / 2) / 64, n_steps=64)
    spec = CbvpSpec([0.0], [1.0])
    result = solve_cbvp(LAG1, TH1, spec, grid, tol=1e-11)
    gap = np.max(np.abs(result.trajectory.positions[:, 0] - np.sin(grid.times())))
    assert gap <= 1e-4


def test_cbvp_endpoints_pinned_exactly():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    result = solve_cbvp(LAG2, TH2, spec, grid, tol=1e-9)
    assert np.array_equal(result.trajectory.positions[0], spec.start_position)
    assert np.array_equal(result.trajectory.positions[-1], spec.end_position)
    assert result.max_residual <= 1e-9


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_cbvp_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    with pytest.raises(ValueError, match="boundary value tolerance"):
        solve_cbvp(LAG1, TH1, CbvpSpec([0.0], [1.0]), grid, tol=tol)


def test_cbvp_sweep_budget_exhaustion_is_convergence_error(monkeypatch):
    # the linear sine case takes one Newton step; with a quartic well it
    # takes more than one
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.0], [1.0])
    lag, _ = make_oscillator_model(1, coupling="direct", quartic=0.5)
    assert solve_cbvp(lag, TH1, spec, grid, tol=1e-11).iterations > 1
    monkeypatch.setattr(glep, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        solve_cbvp(lag, TH1, spec, grid, tol=1e-11)


def _block_system(m, d, seed):
    """Random block-diagonally dominant tridiagonal blocks and a right-hand
    side; ``lower[0]`` and ``upper[-1]`` are NaN, which the solve must not
    read."""
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=(m, d, d)) + 4.0 * d * np.eye(d)
    upper, lower = rng.normal(size=(2, m, d, d))
    lower[0] = upper[-1] = np.nan
    return diag, upper, lower, rng.normal(size=(m, d, 1))


def _dense(diag, upper, lower):
    m, d = diag.shape[:2]
    dense = np.zeros((m * d, m * d))
    for i in range(m):
        dense[i * d:(i + 1) * d, i * d:(i + 1) * d] = diag[i]
        if i:
            dense[i * d:(i + 1) * d, (i - 1) * d:i * d] = lower[i]
        if i < m - 1:
            dense[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = upper[i]
    return dense


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 49, 799])
def test_cyclic_reduction_equals_a_dense_solve(m, d):
    diag, upper, lower, rhs = _block_system(m, d, seed=m * d)
    solution = glep._cyclic_reduction(diag, upper, lower, rhs, np.arange(1, m + 1))
    reference = np.linalg.solve(_dense(diag, upper, lower), rhs.ravel())
    assert solution.shape == (m, d, 1)
    assert np.linalg.norm(solution.ravel() - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("row", [0, 1, 24, 47, 48])
def test_cyclic_reduction_names_the_point_of_a_singular_block(row):
    # the row is cut loose from its neighbours, so its zero block stays zero
    # at whichever level of the reduction eliminates it
    diag, upper, lower, rhs = _block_system(49, 2, seed=row)
    diag[row] = 0.0
    lower[row] = upper[row] = 0.0
    lower[min(row + 1, 48)] = upper[max(row - 1, 0)] = 0.0
    with pytest.raises(SingularHessianError, match=f"interior point {row + 1}$"):
        glep._cyclic_reduction(diag, upper, lower, rhs, np.arange(1, 50))


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
    # stalls, and the solve must end in a ConvergenceError without a warning
    # (not a NaN trajectory, nor another numerical error).
    lag, _ = make_oscillator_model(2, coupling="chain", quartic=1.0)
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(2.0 * t)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            solve_cbvp(lag, TH2, spec, grid, cost=COST2, target=y, beta=beta)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(member=st.sampled_from(model_zoo()), n=st.integers(8, 80), seed=st.integers(0, 2**16),
       beta=st.sampled_from([0.0, 1e-3, -1e-3]))
def test_property_cbvp_meets_tol_with_pinned_endpoints(member, n, seed, beta):
    # Horizon 1, below the first conjugate point of every zoo member at
    # these parameter draws, so the solution branch has no fold in reach;
    # except for the quartic member, which stiffens with amplitude
    # (V'' = K + 3 q s^2): about 2 % of its draws lie past a fold, where the
    # solve may only end in the typed ConvergenceError of the fold case.
    rng = np.random.default_rng(seed)
    lag, d = member.lagrangian, member.lagrangian.dim
    theta = member.theta.values * (1.0 + 0.1 * rng.normal(size=lag.theta_dim))
    grid = TimeGrid(dt=1.0 / n, n_steps=n)
    spec = CbvpSpec(rng.normal(scale=0.5, size=d), rng.normal(scale=0.5, size=d))
    x = None
    if lag.input_dim:
        x = Signal.from_function(grid, lambda t: np.sin(1.3 * t + np.arange(lag.input_dim)))
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(2.0 * t)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = solve_cbvp(lag, theta, spec, grid, x, cost=QuadraticTrackingCost(d, [0]),
                                target=y, beta=beta, tol=1e-9)
        except ConvergenceError as error:
            if not member.name.startswith("quartic"):
                raise
            assert "nan" not in str(error)
            return
    positions = result.trajectory.positions
    assert np.all(np.isfinite(positions))
    assert result.max_residual <= 1e-9
    assert np.array_equal(positions[0], spec.start_position)
    assert np.array_equal(positions[-1], spec.end_position)


# ---------------------------------------------------------------- CBVP estimator


@pytest.fixture(scope="module")
def cbvp_setup():
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(2.0 * t)])
    tol = 1e-12
    oracle = fd_gradient(
        lambda p: trajectory_loss(LAG2, COST2, p, spec, grid, None, y, cbvp_tol=tol),
        TH2,
    ).value
    return grid, spec, y, tol, oracle


def test_cbvp_estimator_matches_bvp_oracle(cbvp_setup):
    grid, spec, y, tol, oracle = cbvp_setup
    estimate = grad_cbvp(LAG2, COST2, TH2, spec, grid, None, y, beta=1e-4, tol=tol)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-2


def test_cbvp_zero_cost_gives_zero_vector(cbvp_setup):
    grid, spec, y, tol, _ = cbvp_setup
    estimate = grad_cbvp(LAG2, ZeroCost(2), TH2, spec, grid, None, y, beta=1e-3, tol=tol)
    assert np.max(np.abs(estimate.value)) <= 1e-8


def test_cbvp_tolerance_bounds_residual(cbvp_setup):
    # tol bounds the last Newton increment, which is applied, so at this
    # coarse step the worst defect ends within tol too; a tighter tol costs
    # no fewer Newton steps.  The estimate's error sits at the oracle's own finite-difference
    # floor at both tolerances, so the two errors are not compared.
    grid, spec, y, _, oracle = cbvp_setup
    loose_tol, tight_tol = 1e-6, 1e-12
    loose = solve_cbvp(LAG2, TH2, spec, grid, cost=COST2, target=y, beta=1e-4, tol=loose_tol)
    tight = solve_cbvp(LAG2, TH2, spec, grid, cost=COST2, target=y, beta=1e-4, tol=tight_tol)
    assert loose.max_residual <= loose_tol
    assert tight.max_residual <= tight_tol
    assert loose.iterations <= tight.iterations
    for tol in (loose_tol, tight_tol):
        estimate = grad_cbvp(LAG2, COST2, TH2, spec, grid, None, y, beta=1e-4, tol=tol)
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
    probes = central_probes(TH2.values, 1e-5)
    for plus, minus in zip(probes[0::2], probes[1::2]):
        diff = LAG2.grad_velocity([0.8, -0.3], [0.2, 0.5], plus) - LAG2.grad_velocity(
            [0.8, -0.3], [0.2, 0.5], minus
        )
        assert np.array_equal(diff, np.zeros(2))


class _UndeclaredZoo(type(LAG2)):
    """The zoo Lagrangian without its ``theta_free_momentum`` declaration."""

    theta_free_momentum = False


def test_pfvp_skips_the_boundary_term_of_a_theta_free_momentum(monkeypatch):
    grid = _grid(n=400)
    spec = CivpSpec([0.8, -0.3], [0.2, 0.5])
    y = Signal.from_function(grid, lambda t: [0.6 * np.sin(2.1 * t)])
    assert LAG2.theta_free_momentum and not LagrangianModel.theta_free_momentum
    undeclared = grad_pfvp(_UndeclaredZoo(LAG2._core), COST2, TH2, spec, grid, None, y,
                           beta=[1e-3, 1e-4])

    def unused(*args, **kwargs):
        raise AssertionError("a declared theta-free momentum needs no boundary Jacobian")

    monkeypatch.setattr(type(LAG2), "grad_velocity_params", unused)
    declared = grad_pfvp(LAG2, COST2, TH2, spec, grid, None, y, beta=[1e-3, 1e-4])
    for skipped, full in zip(declared, undeclared):
        assert np.array_equal(skipped.value, full.value)


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
