"""Lockstep integration: every batch row is bitwise its own unbatched run."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_legendre import MassLagrangian

from echograd.core import ParamVector, PhaseState, Signal, TimeGrid
from echograd.dynamics import Nudge, integrate_hamiltonian, integrate_lagrangian_ivp
from echograd.errors import DivergenceError
from echograd.glep import CivpSpec
from echograd.legendre import forward_legendre
from echograd.models import QuadraticTrackingCost, make_oscillator_model, model_zoo
from echograd.oracle import fd_gradient, trajectory_loss

MASK = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
BETAS = (0.0, 1e-2, -1e-2, 1e-3, -1e-3)
ROWS = 4


def _models():
    """Every zoo member, a masked coupling with the input off and on, a
    driven quartic, and a model on the default per-point binding."""
    models = [(m.name, m.lagrangian, m.hamiltonian, m.theta.values) for m in model_zoo()]
    for input_dim in (0, 1):
        lag, ham = make_oscillator_model(3, MASK, input_dim)
        models.append((f"mask3_in{input_dim}", lag, ham, np.linspace(0.6, 1.4, lag.theta_dim)))
    lag, ham = make_oscillator_model(2, "dense", input_dim=1, quartic=1.0)
    models.append(("quartic2_dense_in1", lag, ham, np.linspace(0.8, -0.3, lag.theta_dim)))
    lag = MassLagrangian(dim=2, mass=2.0)
    models.append(("mass2_default_binding", lag, forward_legendre(lag), np.array([1.3])))
    return models


MODELS = _models()


def _draw(lag, theta, rows, n, seed):
    """Per-row parameters, initial data and strengths, and shared signals."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(dt=0.02, n_steps=n)
    thetas = theta * (1.0 + 0.1 * rng.normal(size=(rows, theta.shape[0])))
    s0 = rng.normal(scale=0.5, size=(rows, lag.dim))
    c0 = rng.normal(scale=0.5, size=(rows, lag.dim))
    betas = rng.choice(BETAS, size=rows)
    x = None
    if lag.input_dim:
        x = Signal.from_function(grid, lambda t: np.sin(1.3 * t + np.arange(lag.input_dim)))
    y = Signal.from_function(grid, lambda t: [0.4 * np.cos(2.0 * t)])
    return grid, thetas, s0, c0, betas, x, y


def _assert_rows_equal(batched, singles, fields):
    for field in fields:
        stack = getattr(batched, field)
        assert stack.shape == (len(singles),) + getattr(singles[0], field).shape
        for b, single in enumerate(singles):
            assert np.array_equal(stack[b], getattr(single, field)), (field, b)


def _check_hamiltonian(ham, grid, thetas, s0, c0, betas, x, cost, y, scheme):
    batched = integrate_hamiltonian(ham, thetas, PhaseState(s0, c0), grid, x,
                                    Nudge(betas, cost, y), scheme)
    singles = [integrate_hamiltonian(ham, thetas[b], PhaseState(s0[b], c0[b]), grid, x,
                                     Nudge(float(betas[b]), cost, y), scheme)
               for b in range(len(betas))]
    _assert_rows_equal(batched, singles, ("positions", "momenta"))


def _check_lagrangian(lag, grid, thetas, s0, c0, betas, x, cost, y, scheme):
    batched = integrate_lagrangian_ivp(lag, thetas, s0, c0, grid, x, Nudge(betas, cost, y),
                                       scheme)
    singles = [integrate_lagrangian_ivp(lag, thetas[b], s0[b], c0[b], grid, x,
                                        Nudge(float(betas[b]), cost, y), scheme)
               for b in range(len(betas))]
    _assert_rows_equal(batched, singles, ("positions", "velocities"))


@pytest.mark.parametrize("scheme", ["leapfrog", "rk4"])
@pytest.mark.parametrize("name,lag,ham,theta", MODELS, ids=[m[0] for m in MODELS])
def test_batched_rows_equal_single_runs(name, lag, ham, theta, scheme):
    grid, thetas, s0, c0, betas, x, y = _draw(lag, theta, ROWS, 80, seed=len(name))
    cost = QuadraticTrackingCost(lag.dim, indices=[0])
    _check_hamiltonian(ham, grid, thetas, s0, c0, betas, x, cost, y, scheme)
    _check_lagrangian(lag, grid, thetas, s0, c0, betas, x, cost, y, scheme)


def test_shared_arguments_broadcast_over_rows():
    lag, ham = make_oscillator_model(2, "dense", input_dim=1)
    theta = np.array([1.0, 0.3, -0.2, 0.8, 0.5, -0.4])
    grid, thetas, s0, c0, _, x, y = _draw(lag, theta, 3, 50, seed=2)
    cost = QuadraticTrackingCost(2, indices=[0])
    betas = np.array([1e-2, -1e-2, 1e-3])
    phi0 = PhaseState(s0[0], c0[0])
    by_beta = integrate_hamiltonian(ham, theta, phi0, grid, x, Nudge(betas, cost, y))
    by_theta = integrate_hamiltonian(ham, thetas, phi0, grid, x, Nudge(1e-2, cost, y))
    for b in range(3):
        alone = integrate_hamiltonian(ham, theta, phi0, grid, x, Nudge(betas[b], cost, y))
        assert np.array_equal(by_beta.positions[b], alone.positions)
        alone = integrate_hamiltonian(ham, thetas[b], phi0, grid, x, Nudge(1e-2, cost, y))
        assert np.array_equal(by_theta.positions[b], alone.positions)
    with pytest.raises(ValueError, match="batch rows"):
        integrate_hamiltonian(ham, thetas[:2], phi0, grid, x, Nudge(betas, cost, y))
    with pytest.raises(ValueError, match="batch rows"):
        integrate_lagrangian_ivp(lag, thetas, s0[:2], c0[0], grid, x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("run,step", [
    (lambda lag, ham, th, grid: integrate_hamiltonian(
        ham, th, PhaseState([1.0], [0.0]), grid), 739),
    (lambda lag, ham, th, grid: integrate_lagrangian_ivp(lag, th, [1.0], [0.0], grid), 739),
    (lambda lag, ham, th, grid: integrate_hamiltonian(
        ham, th, PhaseState([1.0], [0.0]), grid, scheme="rk4"), 712),
], ids=["hamiltonian", "lagrangian", "rk4"])
def test_diverging_row_is_named_at_its_first_non_finite_step(run, step):
    # the middle row is the unstable oscillator of the late-divergence test;
    # the outer rows stay bounded over the whole grid
    lag, ham = make_oscillator_model(1, coupling="direct")
    with pytest.raises(DivergenceError) as err:
        run(lag, ham, np.array([[1.0], [-1.0], [1.0]]), TimeGrid(dt=1.0, n_steps=2000))
    assert err.value.step == step
    assert err.value.row == 1
    assert "batch row 1" in str(err.value)


def test_fd_gradient_on_the_stack_equals_the_per_probe_loop():
    member = model_zoo()[2]
    lag, theta = member.lagrangian, member.theta.values
    grid = TimeGrid(dt=0.01, n_steps=150)
    x = Signal.from_function(grid, lambda t: [np.sin(1.7 * t)])
    y = Signal.from_function(grid, lambda t: [0.5 * np.sin(2.1 * t)])
    cost = QuadraticTrackingCost(2, indices=[0])
    spec = CivpSpec([0.8, -0.3], [0.2, 0.5])

    def loss(p):
        return trajectory_loss(lag, cost, p, spec, grid, x, y)

    eps = 1e-5
    reference = np.empty(theta.shape[0])
    for j in range(theta.shape[0]):
        th_p, th_m = theta.copy(), theta.copy()
        th_p[j] += eps
        th_m[j] -= eps
        reference[j] = (loss(th_p) - loss(th_m)) / (2.0 * eps)
    assert np.array_equal(fd_gradient(loss, ParamVector(theta), eps=eps).value, reference)


def test_fd_gradient_rejects_a_loss_of_the_wrong_shape():
    with pytest.raises(ValueError, match="one value per probe row"):
        fd_gradient(lambda thetas: 0.0, ParamVector([1.0, 2.0]))


def test_parameter_rows_need_a_single_theta():
    member = model_zoo()[1]
    bound = member.hamiltonian.bind(np.stack([member.theta.values] * 2))
    with pytest.raises(ValueError, match="single parameter vector"):
        bound.grad_params_rows(np.zeros((5, 2)), np.zeros((5, 2)))
    for bound in (bound, member.lagrangian.bind(np.stack([member.theta.values] * 2))):
        with pytest.raises(ValueError, match="single parameter vector"):
            bound.grad_params_contrast(*np.zeros((4, 5, 2)), 0.1)
    # a parameter stack with the rows' own grid indices, as many rows as
    # parameter rows or one, on the zoo binding and on the default binding
    for lag, theta in ((member.lagrangian, member.theta.values),
                       (MassLagrangian(dim=2, mass=2.0), np.array([1.3]))):
        bound = lag.bind(np.stack([theta] * 2))
        for ks in (slice(1, 3), np.array([2, 0]), np.array([1])):
            states = np.zeros((len(np.arange(5)[ks]), 2))
            for method in (bound.grad_position, bound.grad_velocity):
                with pytest.raises(ValueError, match="single parameter vector"):
                    method(states, states, ks)


# Derandomized, so the property runs the same examples on every run.
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@PROPERTY
@given(model=st.sampled_from(MODELS), rows=st.integers(1, 5), n=st.integers(20, 200),
       seed=st.integers(0, 2**16))
def test_property_batched_rows_equal_unbatched_runs(model, rows, n, seed):
    name, lag, ham, theta = model
    grid, thetas, s0, c0, betas, x, y = _draw(lag, theta, rows, n, seed)
    cost = QuadraticTrackingCost(lag.dim, indices=[0])
    _check_hamiltonian(ham, grid, thetas, s0, c0, betas, x, cost, y, "leapfrog")
    _check_lagrangian(lag, grid, thetas, s0, c0, betas, x, cost, y, "leapfrog")
