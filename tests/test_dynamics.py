"""Integrators: closed-form checks, time symmetry, residual diagnostics."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch import MODELS as BATCH_MODELS

from echograd.core import (
    BoundHamiltonian,
    BoundLagrangian,
    CostModel,
    ParamVector,
    PhaseState,
    Signal,
    TimeGrid,
    Trajectory,
)
from echograd.dynamics import (
    SCHEMES,
    Nudge,
    euler_lagrange_residual,
    hamiltonian_series,
    integrate_hamiltonian,
    integrate_lagrangian_ivp,
    momentum_flip,
)
from echograd.errors import DivergenceError
from echograd.legendre import backward_legendre, forward_legendre
from echograd.models import (
    QuadraticTrackingCost,
    make_oscillator_model,
    model_zoo,
)
from echograd.rhel import echo_retrace_check

LAG1, HAM1 = make_oscillator_model(1, coupling="direct")
THETA1 = np.array([1.0])
MASK = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
# Derandomized, so the property runs the same examples on every run.
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


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
    lag, ham = make_oscillator_model(1, coupling="direct", quartic=5.0)
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


def _retrace_models():
    """The zoo, a masked coupling with the input off and on, and a driven quartic."""
    models = [(m.hamiltonian, m.theta.values) for m in model_zoo()]
    for input_dim in (0, 1):
        _, ham = make_oscillator_model(3, MASK, input_dim)
        models.append((ham, np.linspace(0.6, 1.4, ham.theta_dim)))
    _, ham = make_oscillator_model(2, "dense", input_dim=1, quartic=1.0)
    models.append((ham, np.linspace(0.8, -0.3, ham.theta_dim)))
    return models


@PROPERTY
@given(model=st.sampled_from(_retrace_models()), n=st.integers(20, 200),
       seed=st.integers(0, 2**16))
def test_property_zero_nudge_echo_retraces(model, n, seed):
    ham, theta = model
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=0.02, n_steps=n)
    theta = theta * (1.0 + 0.1 * rng.normal(size=theta.shape[0]))
    phi0 = PhaseState(rng.normal(scale=0.5, size=ham.dim), rng.normal(scale=0.5, size=ham.dim))
    x = None
    if ham.input_dim:
        x = Signal.from_function(grid, lambda t: np.sin(1.3 * t + np.arange(ham.input_dim)))
    assert echo_retrace_check(ham, theta, phi0, grid, x) <= 1e-8


class _PositionShapedCost(CostModel):
    """Position-only tracking of coordinate 0 that rejects any other state shape."""

    position_only = True

    def __init__(self, dim):
        self.dim = dim

    def _error(self, state, target):
        assert np.shape(state) == (self.dim,), f"got state of shape {np.shape(state)}"
        return state[0] - target[0]

    def cost(self, state, target):
        return 0.5 * self._error(state, target) ** 2

    def grad_state(self, state, target):
        grad = np.zeros(self.dim)
        grad[0] = self._error(state, target)
        return grad


@pytest.mark.parametrize("scheme", SCHEMES)
def test_position_only_cost_is_handed_positions_on_a_non_separable_flow(scheme):
    member = [m for m in model_zoo() if m.name == "osc2_chain"][0]
    ham = forward_legendre(backward_legendre(member.hamiltonian))
    assert not ham.separable
    grid = TimeGrid(dt=0.05, n_steps=20)
    y = Signal.from_function(grid, lambda t: [0.3 * np.sin(t)])
    phi0 = PhaseState([0.4, -0.2], [0.1, 0.3])
    runs = [integrate_hamiltonian(ham, member.theta, phi0, grid, nudge=nudge, scheme=scheme)
            for nudge in (Nudge(0.1, _PositionShapedCost(2), y),
                          Nudge(0.1, QuadraticTrackingCost(2, indices=[0]), y), None)]
    assert np.array_equal(runs[0].positions, runs[1].positions)
    assert np.array_equal(runs[0].momenta, runs[1].momenta)
    assert not np.array_equal(runs[0].momenta, runs[2].momenta)


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


# The zoo members, masked couplings and the driven quartic of the lockstep
# tests; the default-binding model has no zoo force to compare.
FORCE_MODELS = [m for m in BATCH_MODELS if m[0] != "mass2_default_binding"]


class _CoreForce:
    """A zoo model whose bindings keep every zoo method but build their
    force with the ``core`` default, from ``grad_position`` (Hamiltonian)
    or ``partner_grad_position`` (Lagrangian) and the cost's rows."""

    def __init__(self, model, default):
        self._model, self._default = model, default

    def __getattr__(self, name):
        return getattr(self._model, name)

    def bind(self, theta, xs=None):
        bound = self._model.bind(theta, xs)
        assert type(bound).force is not self._default.force
        bound.force = partial(self._default.force, bound)
        return bound


def _force_case(lag, theta, rows, stacked, nudged, seed, zero_start=False):
    """Parameters (one vector or a stack), initial data, signals and nudge
    of a lockstep run; row 1 of a nudged run of two or more rows is at
    beta = 0."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=0.02, n_steps=60)
    thetas = theta * (1.0 + 0.1 * rng.normal(size=(rows, theta.shape[0])))
    th = thetas if stacked else theta
    s0, c0 = rng.normal(scale=0.5, size=(2, rows, lag.dim))
    x = None
    if lag.input_dim:
        x = Signal.from_function(grid, lambda t: np.sin(1.3 * t + np.arange(lag.input_dim)))
    if zero_start:
        # negative zeros: a kick of +0 would turn them positive
        s0, c0 = np.zeros_like(s0), np.full_like(c0, -0.0)
        x = None if x is None else Signal.zeros(grid, lag.input_dim)
    y = Signal.from_function(grid, lambda t: [0.4 * np.cos(2.0 * t)])
    nudge = None
    if nudged:
        betas = rng.choice([1e-2, -1e-2, 1e-3], size=rows)
        if rows > 1:
            betas[1] = 0.0
        nudge = Nudge(betas, QuadraticTrackingCost(lag.dim, indices=[0]), y)
    return grid, th, s0, c0, x, nudge


def _bytes(traj):
    return traj.positions.tobytes() + traj.conjugate.tobytes()


@PROPERTY
@given(model=st.sampled_from(FORCE_MODELS), rows=st.integers(1, 4), stacked=st.booleans(),
       nudged=st.booleans(), scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**16))
def test_property_zoo_force_equals_the_core_default_force(model, rows, stacked, nudged, scheme,
                                                          seed):
    _, lag, ham, theta = model
    grid, th, s0, c0, x, nudge = _force_case(lag, theta, rows, stacked, nudged, seed)
    runs = [
        (integrate_hamiltonian, ham, _CoreForce(ham, BoundHamiltonian), PhaseState(s0, c0)),
        (integrate_lagrangian_ivp, lag, _CoreForce(lag, BoundLagrangian), (s0, c0)),
    ]
    for integrate, zoo, default, start in runs:
        args = (start,) if isinstance(start, PhaseState) else start
        a = integrate(zoo, th, *args, grid, x, nudge, scheme)
        b = integrate(default, th, *args, grid, x, nudge, scheme)
        assert _bytes(a) == _bytes(b), integrate.__name__


@PROPERTY
@given(model=st.sampled_from(FORCE_MODELS), rows=st.integers(2, 4), stacked=st.booleans(),
       zero_start=st.booleans(), seed=st.integers(0, 2**16))
def test_property_zero_beta_row_of_a_nudged_lockstep_is_its_free_run(model, rows, stacked,
                                                                    zero_start, seed):
    # from a zero state at zero input the free run is all zeros, whose signs
    # a nudge of zero strength, adding 0 * dc/ds, could flip
    _, lag, ham, theta = model
    grid, th, s0, c0, x, nudge = _force_case(lag, theta, rows, stacked, True, seed, zero_start)
    row_theta = th[1] if stacked else th
    for zoo in (ham, lag):
        if zoo is ham:
            lockstep = integrate_hamiltonian(ham, th, PhaseState(s0, c0), grid, x, nudge)
            free = integrate_hamiltonian(ham, row_theta, PhaseState(s0[1], c0[1]), grid, x)
        else:
            lockstep = integrate_lagrangian_ivp(lag, th, s0, c0, grid, x, nudge)
            free = integrate_lagrangian_ivp(lag, row_theta, s0[1], c0[1], grid, x)
        assert lockstep.positions[1].tobytes() == free.positions.tobytes()
        assert lockstep.conjugate[1].tobytes() == free.conjugate.tobytes()


def _reference_leapfrog(core, thetas, s0, p0, grid, xs, betas, cost, ys):
    """Kick-drift-kick for the unit-mass zoo, written out one row at a time:
    the force is -(K s + W x_k + q s^3), then + beta dc/ds for a nudged row,
    and a half kick is 0.5 dt times the force."""
    half, dt = 0.5 * grid.dt, grid.dt
    positions, momenta = [], []
    for theta, s, p, beta in zip(thetas, s0, p0, betas):
        stiffness = core.stiffness(theta)
        _, w = core._split(theta)
        drive = None if w is None else xs @ w.T

        def force(s, k):
            grad = stiffness @ s
            if drive is not None:
                grad = grad + drive[k]
            if core.quartic:
                grad = grad + core.quartic * s**3
            f = -grad
            if beta != 0.0:
                f = f + beta * cost.grad_state(s, ys[k])
            return f

        row_s, row_p = [s], [p]
        kick = half * force(s, 0)
        for k in range(grid.n_steps):
            p_half = p + kick
            s = s + dt * p_half
            kick = half * force(s, k + 1)
            p = p_half + kick
            row_s.append(s)
            row_p.append(p)
        positions.append(row_s)
        momenta.append(row_p)
    return np.array(positions), np.array(momenta)


REFERENCE_BETAS = {
    "free": None,
    "all_nudged": [1e-2, -1e-2, 1e-3, -1e-3],
    "zero_rows_between": [1e-2, 0.0, -1e-3, 0.0, 0.0, 1e-2],
}


@pytest.mark.parametrize("nudging", list(REFERENCE_BETAS))
@pytest.mark.parametrize("layout", ["single", "one_theta", "theta_stack"])
@pytest.mark.parametrize("model", FORCE_MODELS, ids=[m[0] for m in FORCE_MODELS])
def test_leapfrog_equals_a_reference_kick_drift_kick(model, layout, nudging):
    _, lag, ham, theta = model
    betas = REFERENCE_BETAS[nudging]
    rows = 1 if layout == "single" else len(betas or [0.0] * 3)
    rng = np.random.default_rng(rows)
    grid = TimeGrid(dt=0.02, n_steps=70)
    thetas = theta * (1.0 + 0.1 * rng.normal(size=(rows, theta.shape[0])))
    if layout != "theta_stack":
        thetas[:] = theta
    s0, p0 = rng.normal(scale=0.5, size=(2, rows, lag.dim))
    x = None
    if lag.input_dim:
        x = Signal.from_function(grid, lambda t: np.sin(1.3 * t + np.arange(lag.input_dim)))
    y = Signal.from_function(grid, lambda t: [0.4 * np.cos(2.0 * t)])
    cost = QuadraticTrackingCost(lag.dim, indices=[lag.dim - 1])
    row_betas = np.zeros(rows) if betas is None else np.array(betas[:rows])
    nudge = None if betas is None else Nudge(row_betas, cost, y)
    th, start, vel = (thetas if layout == "theta_stack" else theta), s0, p0
    if layout == "single":
        start, vel = s0[0], p0[0]
        nudge = None if nudge is None else Nudge(row_betas[0], cost, y)
    expected = _reference_leapfrog(ham._core, thetas, s0, p0, grid,
                                   None if x is None else x.values, row_betas, cost, y.values)
    if layout == "single":
        expected = expected[0][0], expected[1][0]
    runs = (integrate_hamiltonian(ham, th, PhaseState(start, vel), grid, x, nudge),
            integrate_lagrangian_ivp(lag, th, start, vel, grid, x, nudge))
    for run in runs:
        assert run.positions.tobytes() == expected[0].tobytes(), run.kind
        assert run.conjugate.tobytes() == expected[1].tobytes(), run.kind


class _RowsOnlyTracking(CostModel):
    """Tracking of one coordinate that overrides ``grad_state_rows`` and
    leaves ``grad_writer`` to the base class."""

    position_only = True

    def __init__(self, dim, index):
        self.dim, self.index = dim, index

    def cost(self, state, target):
        return 0.5 * float((state[self.index] - target[0]) ** 2)

    def grad_state(self, state, target):
        raise AssertionError("the rows override should be used")

    def grad_state_rows(self, states, targets):
        grad = np.zeros(np.shape(states))
        grad[:, self.index] = states[:, self.index] - np.asarray(targets)[:, 0]
        return grad


@pytest.mark.parametrize("model", FORCE_MODELS, ids=[m[0] for m in FORCE_MODELS])
def test_cost_overriding_only_grad_state_rows_nudges_like_the_tracking_cost(model):
    _, lag, ham, theta = model
    assert _RowsOnlyTracking.grad_writer is CostModel.grad_writer
    grid, th, s0, c0, x, _ = _force_case(lag, theta, 3, True, False, seed=5)
    y = Signal.from_function(grid, lambda t: [0.4 * np.cos(2.0 * t)])
    betas = np.array([1e-2, 0.0, -1e-3])
    costs = (_RowsOnlyTracking(lag.dim, lag.dim - 1),
             QuadraticTrackingCost(lag.dim, indices=[lag.dim - 1]))
    for integrate, zoo, start in ((integrate_hamiltonian, ham, (PhaseState(s0, c0),)),
                                  (integrate_lagrangian_ivp, lag, (s0, c0))):
        custom, tracking = (integrate(zoo, th, *start, grid, x, Nudge(betas, cost, y))
                            for cost in costs)
        assert _bytes(custom) == _bytes(tracking), integrate.__name__
