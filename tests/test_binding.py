"""Model bindings: bound evaluations agree with the per-point methods."""

import numpy as np
import pytest
from test_legendre import MassLagrangian

from echograd.core import BoundHamiltonian, BoundLagrangian, LagrangianModel
from echograd.legendre import forward_legendre, velocity_from_momentum
from echograd.models import (
    PhaseTrackingCost,
    QuadraticTrackingCost,
    make_oscillator_model,
    make_quartic_model,
    model_zoo,
)

N_POINTS = 9
MASK = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)


def _pairs():
    pairs = [(m.name, m.lagrangian, m.hamiltonian) for m in model_zoo()]
    for input_dim in (0, 1, 3):
        pairs.append((f"mask3_in{input_dim}", *make_oscillator_model(3, MASK, input_dim)))
    pairs.append(("dense3_in3", *make_oscillator_model(3, "dense", input_dim=3)))
    pairs.append(("quartic3_dense_in1", *make_quartic_model(3, "dense", input_dim=1)))
    return pairs


PAIRS = _pairs()


def _samples(model, seed):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=model.theta_dim)
    positions = rng.normal(size=(N_POINTS, model.dim))
    conjugate = rng.normal(size=(N_POINTS, model.dim))
    xs = rng.normal(size=(N_POINTS, model.input_dim)) if model.input_dim else None
    return theta, positions, conjugate, xs


def _x(xs, k):
    return None if xs is None else xs[k]


def _assert_close(bound, reference):
    bound, reference = np.asarray(bound), np.asarray(reference)
    assert bound.shape == reference.shape
    assert np.max(np.abs(bound - reference)) <= 1e-14 * max(np.max(np.abs(reference)), 1e-300)


def _stack_at(pos, con, k, rows):
    """A state stack at grid point ``k``: batch row b holds sample ``k + b``."""
    index = [(k + b) % N_POINTS for b in range(rows)]
    return pos[index], con[index]


@pytest.mark.parametrize("name,lag,ham", PAIRS, ids=[p[0] for p in PAIRS])
def test_oscillator_bindings_match_per_point_methods(name, lag, ham):
    theta, pos, con, xs = _samples(lag, seed=len(name))
    wrapped = forward_legendre(lag)
    # one theta row per state row, and one theta shared by every state row
    thetas = np.stack([theta, 0.5 * theta, -theta])
    for bound_theta, row_theta in ((thetas, thetas), (theta, [theta] * 3)):
        hb, lb = ham.bind(bound_theta, xs), lag.bind(bound_theta, xs)
        wb = wrapped.bind(bound_theta, xs)
        for k in range(N_POINTS):
            s, c = _stack_at(pos, con, k, 3)
            x = _x(xs, k)

            def per_row(fn):
                return np.array([fn(s[b], c[b], row_theta[b], x) for b in range(3)])

            _assert_close(hb.grad_position(s, c, k), per_row(ham.grad_position))
            _assert_close(hb.grad_momentum(s, c, k), per_row(ham.grad_momentum))
            _assert_close(lb.grad_position(s, c, k), per_row(lag.grad_position))
            _assert_close(lb.grad_velocity(s, c, k), per_row(lag.grad_velocity))
            _assert_close(lb.velocity(s, c, k),
                          per_row(lambda *a: velocity_from_momentum(lag, *a)))
            _assert_close(wb.grad_position(s, c, k), per_row(wrapped.grad_position))
            _assert_close(wb.grad_momentum(s, c, k), per_row(wrapped.grad_momentum))

    hb, lb, wb = ham.bind(theta, xs), lag.bind(theta, xs), wrapped.bind(theta, xs)

    def rows(fn):
        return np.array([fn(pos[k], con[k], theta, _x(xs, k)) for k in range(N_POINTS)])

    _assert_close(hb.grad_params_rows(pos, con), rows(ham.grad_params))
    _assert_close(lb.grad_params_rows(pos, con), rows(lag.grad_params))
    _assert_close(lb.velocity_rows(pos, con), con)
    _assert_close(wb.grad_params_rows(pos, con), rows(wrapped.grad_params))
    # rows at the grid indices they sit at, as the boundary value solver
    # passes them; row for row bitwise the per-step evaluation
    for ks in (slice(None), slice(1, N_POINTS - 1), np.array([4, 0, 7])):
        index = np.arange(N_POINTS)[ks]
        s, c = pos[ks], con[ks]
        by_position = lb.grad_position_rows(s, c, ks)
        by_velocity = lb.grad_velocity_rows(s, c, ks)
        _assert_close(by_position, rows(lag.grad_position)[ks])
        _assert_close(by_velocity, rows(lag.grad_velocity)[ks])
        for i, k in enumerate(index):
            assert np.array_equal(by_position[i], lb.grad_position(s[i:i + 1], c[i:i + 1], k)[0])
            assert np.array_equal(by_velocity[i], lb.grad_velocity(s[i:i + 1], c[i:i + 1], k)[0])
    # the echo and final-value estimators pass trajectories read back to front
    xs_rev = None if xs is None else xs[::-1]
    _assert_close(ham.bind(theta, xs_rev).grad_params_rows(pos[::-1], con[::-1]),
                  rows(ham.grad_params)[::-1])


def test_default_binding_reproduces_per_point_calls_exactly():
    lag = MassLagrangian(dim=2, mass=2.0)
    theta, pos, con, _ = _samples(lag, seed=7)
    thetas = np.stack([theta, 2.0 * theta])
    lb = lag.bind(thetas)
    assert type(lb) is BoundLagrangian
    wrapped = forward_legendre(lag)
    wb = wrapped.bind(thetas)
    for k in range(N_POINTS):
        s, c = _stack_at(pos, con, k, 2)

        def per_row(fn):
            return np.array([fn(s[b], c[b], thetas[b]) for b in range(2)])

        assert np.array_equal(lb.grad_position(s, c, k), per_row(lag.grad_position))
        assert np.array_equal(lb.grad_velocity(s, c, k), per_row(lag.grad_velocity))
        assert np.array_equal(lb.velocity(s, c, k),
                              per_row(lambda *a: velocity_from_momentum(lag, *a)))
        assert np.array_equal(wb.grad_position(s, c, k), per_row(wrapped.grad_position))
        assert np.array_equal(wb.grad_momentum(s, c, k), per_row(wrapped.grad_momentum))
    # a stack of trajectories, row b at theta row b
    stacked = np.stack([pos, pos[::-1]]), np.stack([con, con[::-1]])
    assert np.array_equal(lb.velocity_rows(*stacked), np.array(
        [[velocity_from_momentum(lag, s, c, th) for s, c in zip(p, q)]
         for p, q, th in zip(*stacked, thetas)]))

    lb, wb = lag.bind(theta), wrapped.bind(theta)
    params = np.array([lag.grad_params(s, c, theta) for s, c in zip(pos, con)])
    assert np.array_equal(lb.grad_params_rows(pos, con), params)
    interior = slice(1, N_POINTS - 1)
    assert np.array_equal(lb.grad_position_rows(pos[interior], con[interior], interior),
                          [lag.grad_position(s, c, theta) for s, c in zip(pos, con)][interior])
    assert np.array_equal(lb.grad_velocity_rows(pos[interior], con[interior], interior),
                          [lag.grad_velocity(s, c, theta) for s, c in zip(pos, con)][interior])
    velocities = np.array([velocity_from_momentum(lag, s, c, theta) for s, c in zip(pos, con)])
    assert np.array_equal(lb.velocity_rows(pos, con), velocities)
    assert np.array_equal(wb.grad_params_rows(pos, con), -lb.grad_params_rows(pos, velocities))

    hb = BoundHamiltonian(wrapped, theta)
    assert np.array_equal(hb.grad_params_rows(pos, con), wb.grad_params_rows(pos, con))


@pytest.mark.parametrize("name,lag,ham", PAIRS[:4], ids=[p[0] for p in PAIRS[:4]])
def test_closed_form_velocity_jacobian_equals_central_difference(name, lag, ham):
    theta, pos, con, xs = _samples(lag, seed=3)
    x0 = _x(xs, 0)
    exact = lag.grad_velocity_params(pos[0], con[0], theta, x0)
    fd = LagrangianModel.grad_velocity_params(lag, pos[0], con[0], theta, x0)
    assert exact.shape == (lag.dim, lag.theta_dim)
    assert np.array_equal(exact, fd)


def test_bound_input_model_requires_samples():
    lag, ham = make_oscillator_model(2, "dense", input_dim=1)
    theta = np.zeros(lag.theta_dim)
    with pytest.raises(ValueError):
        ham.bind(theta)
    with pytest.raises(ValueError):
        lag.bind(theta, np.zeros((N_POINTS, 2)))


def test_cost_rows_match_per_point_costs():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(N_POINTS, 3))
    for indices in ([1], [0, 2]):
        cost = QuadraticTrackingCost(3, indices=indices)
        targets = rng.normal(size=(N_POINTS, len(indices)))
        reference = [cost.cost(s, y) for s, y in zip(states, targets)]
        _assert_close(cost.cost_rows(states, targets), reference)
    phase = PhaseTrackingCost(3, indices=[0])
    phase_states = rng.normal(size=(N_POINTS, 6))
    targets = rng.normal(size=(N_POINTS, 1))
    assert np.array_equal(phase.cost_rows(phase_states, targets),
                          [phase.cost(s, y) for s, y in zip(phase_states, targets)])
