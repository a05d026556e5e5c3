"""Integrators: closed-form checks, time symmetry, residual diagnostics."""

import numpy as np
import pytest

from echograd.core import ParamVector, PhaseState, Signal, TimeGrid, Trajectory
from echograd.dynamics import (
    Nudge,
    echo_retrace_check,
    euler_lagrange_residual,
    hamiltonian_series,
    integrate_hamiltonian,
    integrate_lagrangian_ivp,
    momentum_flip,
)
from echograd.errors import DivergenceError
from echograd.models import (
    QuadraticTrackingCost,
    make_oscillator_model,
    make_quartic_model,
    model_zoo,
)

LAG1, HAM1 = make_oscillator_model(1, coupling="direct")
THETA1 = np.array([1.0])


def test_momentum_flip_examples():
    flipped = momentum_flip(PhaseState([1.0, 2.0], [3.0, 4.0]))
    assert np.array_equal(flipped.position, [1.0, 2.0])
    assert np.array_equal(flipped.momentum, [-3.0, -4.0])

    zero = momentum_flip(PhaseState([0.0], [0.0]))
    assert np.array_equal(zero.position, [0.0])
    assert np.array_equal(zero.momentum, [0.0])

    rng = np.random.default_rng(0)
    for _ in range(20):
        state = PhaseState(rng.normal(size=3), rng.normal(size=3))
        twice = momentum_flip(momentum_flip(state))
        assert np.array_equal(twice.position, state.position)
        assert np.array_equal(twice.momentum, state.momentum)


def test_integrator_config_validation():
    grid = TimeGrid(dt=0.1, n_steps=4)
    with pytest.raises(ValueError, match="scheme"):
        integrate_hamiltonian(HAM1, THETA1, PhaseState([1.0], [0.0]), grid, scheme="euler")


def test_harmonic_oscillator_full_period():
    grid = TimeGrid(dt=2 * np.pi / 4096, n_steps=4096)
    traj = integrate_hamiltonian(HAM1, THETA1, PhaseState([1.0], [0.0]), grid)
    assert abs(traj.positions[-1, 0] - 1.0) <= 1e-6
    assert abs(traj.momenta[-1, 0]) <= 1e-6


def test_harmonic_oscillator_quarter_period():
    grid = TimeGrid(dt=2 * np.pi / 4096, n_steps=1024)
    traj = integrate_hamiltonian(HAM1, THETA1, PhaseState([1.0], [0.0]), grid)
    assert abs(traj.positions[-1, 0]) <= 1e-6
    assert abs(traj.momenta[-1, 0] + 1.0) <= 1e-6


def test_zero_state_is_fixed_point():
    grid = TimeGrid(dt=0.01, n_steps=500)
    traj = integrate_hamiltonian(HAM1, THETA1, PhaseState([0.0], [0.0]), grid)
    assert np.all(traj.positions == 0.0)
    assert np.all(traj.momenta == 0.0)


def test_dimension_mismatch_rejected():
    grid = TimeGrid(dt=0.01, n_steps=10)
    with pytest.raises(ValueError):
        integrate_hamiltonian(HAM1, THETA1, PhaseState([0.0, 0.0], [0.0, 0.0]), grid)
    lag, ham = make_oscillator_model(2, coupling="dense", input_dim=1)
    th = np.zeros(lag.theta_dim)
    with pytest.raises(ValueError):
        integrate_hamiltonian(ham, th, PhaseState(np.zeros(2), np.zeros(2)), grid)  # missing x
    bad_x = Signal.zeros(TimeGrid(dt=0.01, n_steps=11), 1)
    with pytest.raises(ValueError):
        integrate_hamiltonian(ham, th, PhaseState(np.zeros(2), np.zeros(2)), grid, x=bad_x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_step_index():
    lag, ham = make_quartic_model(1, coupling="direct", strength=5.0)
    grid = TimeGrid(dt=10.0, n_steps=50)
    with pytest.raises(DivergenceError) as err:
        integrate_hamiltonian(ham, np.array([1.0]), PhaseState([1.0], [0.0]), grid)
    assert err.value.step == 5
    with pytest.raises(DivergenceError) as err:
        integrate_lagrangian_ivp(lag, np.array([1.0]), [1.0], [0.0], grid)
    assert err.value.step == 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("run,step", [
    (lambda lag, ham, th, grid: integrate_hamiltonian(ham, th, PhaseState([1.0], [0.0]), grid), 739),
    (lambda lag, ham, th, grid: integrate_lagrangian_ivp(lag, th, [1.0], [0.0], grid), 739),
    (lambda lag, ham, th, grid: integrate_hamiltonian(
        ham, th, PhaseState([1.0], [0.0]), grid, scheme="rk4"), 712),
], ids=["hamiltonian", "lagrangian", "rk4"])
def test_late_divergence_reports_first_non_finite_step(run, step):
    # negative stiffness: exponential growth that overflows hundreds of steps in
    lag, ham = make_oscillator_model(1, coupling="direct")
    with pytest.raises(DivergenceError) as err:
        run(lag, ham, np.array([-1.0]), TimeGrid(dt=1.0, n_steps=2000))
    assert err.value.step == step


def test_lagrangian_ivp_harmonic_closed_form():
    grid = TimeGrid(dt=2 * np.pi / 4096, n_steps=4096)
    traj = integrate_lagrangian_ivp(LAG1, THETA1, [1.0], [0.0], grid)
    assert abs(traj.positions[-1, 0] - 1.0) <= 1e-6
    assert abs(traj.velocities[-1, 0]) <= 1e-6


def test_lagrangian_ivp_zero_initial_data_stays_zero():
    grid = TimeGrid(dt=0.01, n_steps=200)
    traj = integrate_lagrangian_ivp(LAG1, THETA1, [0.0], [0.0], grid)
    assert np.all(traj.positions == 0.0)
    assert np.all(traj.velocities == 0.0)


def test_zero_beta_nudge_is_bitwise_identical():
    grid = TimeGrid(dt=0.01, n_steps=400)
    y = Signal.from_function(grid, lambda t: [np.sin(t)])
    cost = QuadraticTrackingCost(1)
    plain = integrate_lagrangian_ivp(LAG1, THETA1, [1.0], [0.3], grid)
    nudged = integrate_lagrangian_ivp(
        LAG1, THETA1, [1.0], [0.3], grid, nudge=Nudge(0.0, cost, y)
    )
    assert np.array_equal(plain.positions, nudged.positions)
    assert np.array_equal(plain.velocities, nudged.velocities)


def test_hamiltonian_and_lagrangian_runs_share_arithmetic():
    grid = TimeGrid(dt=0.005, n_steps=600)
    rng = np.random.default_rng(4)
    for member in model_zoo():
        x = None
        if member.lagrangian.input_dim:
            x = Signal.from_function(grid, lambda t: [np.sin(1.3 * t)])
        alpha, gamma = rng.normal(size=(2, member.lagrangian.dim))
        ham_run = integrate_hamiltonian(
            member.hamiltonian, member.theta, PhaseState(alpha, gamma), grid, x
        )
        lag_run = integrate_lagrangian_ivp(member.lagrangian, member.theta, alpha, gamma, grid, x)
        assert np.array_equal(ham_run.positions, lag_run.positions), member.name
        assert np.array_equal(ham_run.momenta, lag_run.velocities), member.name


def test_el_residual_richardson_slope():
    lag, _ = make_oscillator_model(2, coupling="chain")
    th = ParamVector([1.1, 0.9, 0.35])
    errors = []
    for factor in (1, 2, 4):
        grid = TimeGrid(dt=0.02 / factor, n_steps=200 * factor)
        traj = integrate_lagrangian_ivp(lag, th, [0.8, -0.5], [0.3, 0.6], grid)
        residual = euler_lagrange_residual(lag, traj, th)
        errors.append(np.max(np.abs(residual.values)))
    slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(slopes - 2.0) <= 0.3)


def test_el_residual_zero_trajectory():
    grid = TimeGrid(dt=0.01, n_steps=100)
    traj = Trajectory(grid, "lagrangian", np.zeros((101, 1)), np.zeros((101, 1)))
    residual = euler_lagrange_residual(LAG1, traj, THETA1)
    assert residual.grid.n_steps == 98
    assert np.max(np.abs(residual.values)) <= 1e-14


def test_el_residual_flags_corrupted_state():
    grid = TimeGrid(dt=0.01, n_steps=200)
    traj = integrate_lagrangian_ivp(LAG1, THETA1, [1.0], [0.0], grid)
    positions = traj.positions.copy()
    velocities = traj.velocities.copy()
    positions[100] += 0.1
    velocities[100] += 0.1
    corrupted = Trajectory(grid, "lagrangian", positions, velocities)
    residual = euler_lagrange_residual(LAG1, corrupted, THETA1)
    # interior index k corresponds to residual row k-1
    neighbours = max(
        np.max(np.abs(residual.values[98])), np.max(np.abs(residual.values[100]))
    )
    assert neighbours > 1e-2


def test_el_residual_of_nudged_flow_needs_matching_nudge():
    grid = TimeGrid(dt=0.01, n_steps=300)
    y = Signal.from_function(grid, lambda t: [0.5 * np.sin(1.4 * t)])
    cost = QuadraticTrackingCost(1)
    beta = 0.05
    traj = integrate_lagrangian_ivp(LAG1, THETA1, [1.0], [0.0], grid,
                                    nudge=Nudge(beta, cost, y))
    matched = euler_lagrange_residual(LAG1, traj, THETA1, beta=beta, cost=cost, target=y)
    mismatched = euler_lagrange_residual(LAG1, traj, THETA1)
    assert np.max(np.abs(matched.values)) <= 1e-3
    assert np.max(np.abs(mismatched.values)) > 10 * np.max(np.abs(matched.values))


def test_el_residual_too_short():
    grid = TimeGrid(dt=0.1, n_steps=2)
    traj = Trajectory(grid, "lagrangian", np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        euler_lagrange_residual(LAG1, traj, THETA1)


def test_retrace_leapfrog_harmonic():
    grid = TimeGrid(dt=1e-3, n_steps=int(round(2 * np.pi / 1e-3)))
    err = echo_retrace_check(HAM1, THETA1, PhaseState([1.0], [0.0]), grid)
    assert err <= 1e-9


def test_retrace_zero_trajectory():
    grid = TimeGrid(dt=1e-3, n_steps=1000)
    err = echo_retrace_check(HAM1, THETA1, PhaseState([0.0], [0.0]), grid)
    assert err == 0.0


def test_retrace_every_zoo_member():
    grid = TimeGrid(dt=1e-3, n_steps=5000)
    rng = np.random.default_rng(7)
    for member in model_zoo():
        d = member.hamiltonian.dim
        phi0 = PhaseState(rng.normal(scale=0.5, size=d), rng.normal(scale=0.5, size=d))
        x = None
        if member.hamiltonian.input_dim:
            x = Signal.from_function(
                grid, lambda t: [np.sin(1.3 * t)] * member.hamiltonian.input_dim
            )
        assert echo_retrace_check(member.hamiltonian, member.theta, phi0, grid, x) <= 1e-8


def test_rk4_is_not_time_symmetric():
    # use the nonlinear member: on linear problems rk4's asymmetry defect is
    # O(dt^5) and hides below roundoff at small steps
    member = [m for m in model_zoo() if m.name == "quartic2_chain"][0]
    grid = TimeGrid(dt=0.02, n_steps=250)
    phi0 = PhaseState([0.8, -0.5], [0.3, 0.6])
    err_leapfrog = echo_retrace_check(member.hamiltonian, member.theta, phi0, grid)
    err_rk4 = echo_retrace_check(member.hamiltonian, member.theta, phi0, grid, scheme="rk4")
    assert err_rk4 > err_leapfrog
    assert err_rk4 > 100 * err_leapfrog


def test_energy_drift_shrinks_quadratically():
    member = [m for m in model_zoo() if m.name == "osc2_chain"][0]
    phi0 = PhaseState([0.8, -0.5], [0.3, 0.6])
    drifts = []
    for factor in (1, 2, 4):
        grid = TimeGrid(dt=0.02 / factor, n_steps=200 * factor)
        traj = integrate_hamiltonian(member.hamiltonian, member.theta, phi0, grid)
        series = hamiltonian_series(member.hamiltonian, traj, member.theta)
        drifts.append(np.max(np.abs(series - series[0])))
    slopes = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
    assert np.all(np.abs(slopes - 2.0) <= 0.3)
