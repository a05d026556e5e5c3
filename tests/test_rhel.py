"""Echo runs and the echo-learning estimator."""

import numpy as np
import pytest

from echograd.core import (LagrangianModel, ParamVector, PhaseState, Signal, TimeGrid,
                           Trajectory, trapezoid)
from echograd.dynamics import integrate_hamiltonian
from echograd.models import (
    PhaseTrackingCost,
    QuadraticTrackingCost,
    ZeroCost,
    make_oscillator_model,
    model_zoo,
)
from echograd.oracle import fd_gradient
from echograd.rhel import (
    ConstantInitialState,
    EchoRun,
    InitialStateMap,
    LagrangianInitialState,
    block_swap,
    grad_rhel,
    retrace_deviation,
    run_echo,
)

LAG1, HAM1 = make_oscillator_model(1, coupling="direct")
TH1 = ParamVector([1.0])
LAG2, HAM2 = make_oscillator_model(2, coupling="chain")
TH2 = ParamVector([1.1, 0.9, 0.35])
COST2 = QuadraticTrackingCost(2, indices=[0])


def _grid(t_end=2.0, n=1000):
    return TimeGrid(dt=t_end / n, n_steps=n)


class _MapOf(InitialStateMap):
    """A ``theta -> PhaseState`` callable as an initial-state map that declares
    nothing, so the estimator measures its Jacobian by central differences."""

    def __init__(self, fn):
        self._fn = fn

    def state(self, theta) -> PhaseState:
        return self._fn(theta)


def _sin_target(grid):
    return Signal.from_function(grid, lambda t: [0.6 * np.sin(2.1 * t)])


def test_block_swap():
    assert np.array_equal(block_swap(np.array([1.0, 2.0, 3.0, 4.0])), [3.0, 4.0, 1.0, 2.0])


def test_echo_run_invariant_enforced():
    grid = _grid(n=50)
    forward = integrate_hamiltonian(HAM1, TH1, PhaseState([1.0], [0.5]), grid)
    with pytest.raises(ValueError):
        EchoRun(forward=forward, echo=forward, beta=0.0)


def test_zero_beta_echo_retraces():
    grid = _grid(t_end=2 * np.pi, n=4000)
    init = ConstantInitialState(PhaseState([1.0], [0.0]))
    run = run_echo(HAM1, None, TH1, init, grid, None, None, beta=0.0)
    assert retrace_deviation(run) <= 1e-8
    # echo states are the momentum-flipped forward states in reverse order
    assert np.array_equal(run.echo.positions[0], run.forward.positions[-1])
    assert np.array_equal(run.echo.momenta[0], -run.forward.momenta[-1])


def test_zero_system_stays_zero_for_any_beta():
    grid = _grid(n=500)
    init = ConstantInitialState(PhaseState([0.0, 0.0], [0.0, 0.0]))
    y = Signal.zeros(grid, 1)
    run = run_echo(HAM2, COST2, TH2, init, grid, None, y, beta=0.7)
    assert np.all(run.forward.positions == 0.0)
    assert np.all(run.echo.positions == 0.0)
    assert np.all(run.echo.momenta == 0.0)


def test_forward_returns_and_echo_deviation_linear_in_beta():
    grid = TimeGrid(dt=2 * np.pi / 4096, n_steps=4096)
    init = ConstantInitialState(PhaseState([1.0], [0.0]))
    y = Signal.zeros(grid, 1)
    cost = QuadraticTrackingCost(1)
    run = run_echo(HAM1, cost, TH1, init, grid, None, y, beta=0.0)
    endpoint = run.forward.state(grid.n_steps)
    assert abs(endpoint.position[0] - 1.0) <= 1e-6
    assert abs(endpoint.momentum[0]) <= 1e-6

    dev_full = retrace_deviation(run_echo(HAM1, cost, TH1, init, grid, None, y, beta=1e-3))
    dev_half = retrace_deviation(run_echo(HAM1, cost, TH1, init, grid, None, y, beta=5e-4))
    assert abs(dev_full / dev_half - 2.0) <= 0.2


def test_echo_deviation_loglog_slope_one():
    grid = _grid()
    init = LagrangianInitialState(LAG2, [0.8, -0.3], [0.2, 0.5])
    y = _sin_target(grid)
    betas = np.array([1e-5, 1e-4, 1e-3])
    devs = np.array(
        [retrace_deviation(run_echo(HAM2, COST2, TH2, init, grid, None, y, b)) for b in betas]
    )
    slopes = np.diff(np.log(devs)) / np.diff(np.log(betas))
    assert np.all(np.abs(slopes - 1.0) <= 0.1)


@pytest.mark.parametrize("cost, betas", [
    (QuadraticTrackingCost(2, indices=[0]), [0.7, -0.7, 0.0, 1e-3]),
    (PhaseTrackingCost(2), [0.5, -0.5, 1e-3]),
])
def test_stacked_echo_rows_are_each_strength_run_alone(cost, betas):
    # a position-only cost runs the separable leapfrog, a phase cost the implicit one
    member = model_zoo()[2]
    grid = _grid(n=200)
    x = Signal.from_function(grid, lambda t: [np.cos(1.3 * t)])
    y = Signal.from_function(grid, lambda t: 0.3 * np.sin(t + np.arange(cost.target_dim)))
    init = LagrangianInitialState(member.lagrangian, [0.4, -0.2], [0.1, 0.3], x0=x.value(0))
    stacked = run_echo(member.hamiltonian, cost, member.theta, init, grid, x, y, np.array(betas))
    assert stacked.echo.positions.shape == (len(betas), grid.n_points, 2)
    for row, beta in enumerate(betas):
        alone = run_echo(member.hamiltonian, cost, member.theta, init, grid, x, y, beta)
        assert np.array_equal(stacked.forward.positions, alone.forward.positions)
        assert np.array_equal(stacked.forward.momenta, alone.forward.momenta)
        assert np.array_equal(stacked.echo.positions[row], alone.echo.positions)
        assert np.array_equal(stacked.echo.momenta[row], alone.echo.momenta)

    with pytest.raises(ValueError, match="one row per nudging strength"):
        EchoRun(forward=stacked.forward, echo=stacked.echo, beta=0.0)
    moved = stacked.echo.positions.copy()
    moved[-1, 0, 0] += 1e-12
    echo = Trajectory(grid, "hamiltonian", moved, stacked.echo.momenta)
    with pytest.raises(ValueError, match="momentum-flipped forward endpoint"):
        EchoRun(forward=stacked.forward, echo=echo, beta=np.array(betas))


def test_run_echo_requires_reversible_model():
    irreversible = make_oscillator_model(1, coupling="direct")[1]
    irreversible.time_reversible = False
    grid = _grid(n=50)
    with pytest.raises(ValueError):
        run_echo(irreversible, None, TH1, ConstantInitialState(PhaseState([0.0], [0.0])),
                 grid, None, None, beta=0.0)


def test_grad_rhel_rejects_zero_beta():
    grid = _grid(n=50)
    y = Signal.zeros(grid, 1)
    init = ConstantInitialState(PhaseState([0.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError):
        grad_rhel(HAM2, COST2, TH2, init, grid, None, y, beta=0.0)


def test_declared_zero_initial_state_drops_boundary_term():
    grid = _grid(n=600)
    y = _sin_target(grid)
    state = PhaseState([0.8, -0.3], [0.2, 0.5])
    declared = ConstantInitialState(state)
    generic = _MapOf(lambda th: state)  # same map, no declaration
    a = grad_rhel(HAM2, COST2, TH2, declared, grid, None, y, beta=1e-3)
    b = grad_rhel(HAM2, COST2, TH2, generic, grid, None, y, beta=1e-3)
    # the generic path measures a zero Jacobian by finite differences, so the
    # two estimates agree exactly; the declared path just skips the probes
    assert np.array_equal(a.value, b.value)
    # the inherited central difference of a constant state is exactly zero
    assert np.array_equal(declared.jacobian(TH2), np.zeros((4, 3)))


def test_zero_cost_estimate_is_zero():
    grid = _grid(n=800)
    y = Signal.zeros(grid, 1)
    init = LagrangianInitialState(LAG2, [0.8, -0.3], [0.2, 0.5])
    estimate = grad_rhel(HAM2, ZeroCost(2), TH2, init, grid, None, y, beta=0.5)
    assert np.max(np.abs(estimate.value)) <= 1e-10


def test_grad_rhel_matches_oracle_three_parameters():
    grid = _grid()
    y = _sin_target(grid)
    init = LagrangianInitialState(LAG2, [0.8, -0.3], [0.2, 0.5])

    def loss(p):
        traj = integrate_hamiltonian(HAM2, p, init.state(p), grid)
        samples = np.array(
            [COST2.cost(traj.positions[k], y.value(k)) for k in range(grid.n_points)]
        )
        return trapezoid(samples, grid.dt)

    oracle = fd_gradient(lambda thetas: [loss(p) for p in thetas], TH2).value
    estimate = grad_rhel(HAM2, COST2, TH2, init, grid, None, y, beta=1e-4)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-3


def test_grad_rhel_momentum_dependent_cost():
    grid = _grid()
    y = _sin_target(grid)
    cost = PhaseTrackingCost(2, indices=[0], momentum_weight=0.2)
    init = LagrangianInitialState(LAG2, [0.8, -0.3], [0.2, 0.5])

    def loss(p):
        traj = integrate_hamiltonian(HAM2, p, init.state(p), grid)
        samples = np.array(
            [
                cost.cost(np.concatenate([traj.positions[k], traj.momenta[k]]), y.value(k))
                for k in range(grid.n_points)
            ]
        )
        return trapezoid(samples, grid.dt)

    oracle = fd_gradient(lambda thetas: [loss(p) for p in thetas], TH2).value
    estimate = grad_rhel(HAM2, cost, TH2, init, grid, None, y, beta=1e-4)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-4


class _MassParameterLagrangian(LagrangianModel):
    """L = theta_0/2 |v|^2 - theta_1/2 |s|^2: dL/dv depends on the parameters."""

    reversible = True
    quadratic_kinetic = True
    dim = 2
    theta_dim = 2
    input_dim = 0

    def lagrangian(self, s, v, theta, x=None):
        return 0.5 * theta[0] * float(v @ v) - 0.5 * theta[1] * float(s @ s)

    def grad_position(self, s, v, theta, x=None):
        return -theta[1] * np.asarray(s, dtype=float)

    def grad_velocity(self, s, v, theta, x=None):
        return theta[0] * np.asarray(v, dtype=float)

    def grad_params(self, s, v, theta, x=None):
        return -0.5 * np.array([-float(v @ v), float(s @ s)])

    def velocity_hessian(self, s, v, theta, x=None):
        return theta[0] * np.eye(2)


@pytest.mark.parametrize("source,theta", [
    (_MassParameterLagrangian(), np.array([1.3, 0.7])),
    (LAG2, TH2.values),
], ids=["mass_parameter", "zoo"])
def test_lagrangian_initial_state_jacobian_is_the_stacked_blocks(source, theta):
    position, velocity = np.array([0.8, -0.3]), np.array([0.2, 0.5])
    init = LagrangianInitialState(source, position, velocity)
    momentum = source.grad_velocity_params(position, velocity, theta)
    jac = init.jacobian(theta)
    # one array: a zero position block over the momentum block, bitwise
    expected = np.vstack([np.zeros_like(momentum), momentum])
    assert jac.shape == expected.shape and jac.flags.c_contiguous
    assert jac.tobytes() == expected.tobytes()


class _UndeclaredZoo(type(LAG2)):
    """The zoo Lagrangian without its ``theta_free_momentum`` declaration."""

    theta_free_momentum = False


def test_lagrangian_initial_state_of_a_theta_free_momentum_is_theta_independent(monkeypatch):
    position, velocity = np.array([0.8, -0.3]), np.array([0.2, 0.5])
    assert not LagrangianInitialState(_MassParameterLagrangian(), position,
                                      velocity).theta_independent
    undeclared = LagrangianInitialState(_UndeclaredZoo(LAG2._core), position, velocity)
    declared = LagrangianInitialState(LAG2, position, velocity)
    assert declared.theta_independent and not undeclared.theta_independent
    grid = _grid(n=400)
    y = _sin_target(grid)
    full = grad_rhel(HAM2, COST2, TH2, undeclared, grid, None, y, beta=[1e-3, 1e-4])

    def unused(*args, **kwargs):
        raise AssertionError("a theta-independent initial state needs no Jacobian")

    monkeypatch.setattr(LagrangianInitialState, "jacobian", unused)
    skipped = grad_rhel(HAM2, COST2, TH2, declared, grid, None, y, beta=[1e-3, 1e-4])
    for a, b in zip(skipped, full):
        assert np.array_equal(a.value, b.value)


def test_grad_rhel_parameter_dependent_initial_state():
    grid = _grid()
    y = _sin_target(grid)
    rng = np.random.default_rng(3)
    mix = rng.normal(scale=0.2, size=(2, 3))
    base_pos = np.array([0.8, -0.3])
    base_mom = np.array([0.2, 0.5])

    def lam(th):
        return PhaseState(base_pos, base_mom + mix @ th)

    init = _MapOf(lam)

    def loss(p):
        traj = integrate_hamiltonian(HAM2, p, lam(p), grid)
        samples = np.array(
            [COST2.cost(traj.positions[k], y.value(k)) for k in range(grid.n_points)]
        )
        return trapezoid(samples, grid.dt)

    oracle = fd_gradient(lambda thetas: [loss(p) for p in thetas], TH2).value
    estimate = grad_rhel(HAM2, COST2, TH2, init, grid, None, y, beta=1e-4)
    assert np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle) <= 1e-3

    # dropping the boundary correction must hurt on this instance
    bare = grad_rhel(HAM2, COST2, TH2, ConstantInitialState(lam(TH2.values)), grid,
                     None, y, beta=1e-4)
    assert np.linalg.norm(bare.value - oracle) > 10 * np.linalg.norm(estimate.value - oracle)
