"""Model bindings: bound evaluations agree with the per-point methods."""

import numpy as np
import pytest
from test_legendre import MassLagrangian

from echograd.core import (
    BoundHamiltonian,
    BoundLagrangian,
    CostModel,
    Signal,
    TimeGrid,
    trapezoid,
    trapezoid_contrast,
)
from echograd.dynamics import integrate_lagrangian_ivp
from echograd.legendre import forward_legendre, velocity_from_momentum
from echograd.models import QuadraticTrackingCost, make_oscillator_model, model_zoo

N_POINTS = 9
MASK = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)


def _pairs():
    pairs = [(m.name, m.lagrangian, m.hamiltonian) for m in model_zoo()]
    for input_dim in (0, 1, 3):
        pairs.append((f"mask3_in{input_dim}", *make_oscillator_model(3, MASK, input_dim)))
    pairs.append(("dense3_in3", *make_oscillator_model(3, "dense", input_dim=3)))
    pairs.append(("quartic3_dense_in1",
                  *make_oscillator_model(3, "dense", input_dim=1, quartic=1.0)))
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


def _contrast_reference(fn, theta, xs, pos, con, ref_pos, ref_con, dt):
    """The contrast integral from the per-point parameter gradients ``fn``,
    and its tolerance: 1e-12 of the horizon times the largest row entry."""
    def rows(p, c):
        return np.array([fn(p[k], c[k], theta, _x(xs, k)) for k in range(len(p))])

    states, reference = rows(pos, con), rows(ref_pos, ref_con)
    scale = max(np.max(np.abs(states)), np.max(np.abs(reference)))
    return trapezoid(states - reference, dt), 1e-12 * dt * (len(pos) - 1) * scale


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

    _assert_close(lb.velocity_rows(pos, con), con)
    ref_pos, ref_con = _samples(lag, seed=len(name) + 1)[1:3]
    dt = 0.1
    for bound, model in ((hb, ham), (lb, lag), (wb, wrapped)):
        expected, tol = _contrast_reference(model.grad_params, theta, xs, pos, con,
                                            ref_pos, ref_con, dt)
        contrast = bound.grad_params_contrast(pos, con, ref_pos, ref_con, dt)
        assert contrast.shape == expected.shape
        assert np.max(np.abs(contrast - expected)) <= tol
    # rows at the grid indices they sit at, as the boundary value solver
    # passes them; row for row bitwise the per-step evaluation
    for ks in (slice(None), slice(1, N_POINTS - 1), np.array([4, 0, 7])):
        index = np.arange(N_POINTS)[ks]
        s, c = pos[ks], con[ks]
        by_position = lb.grad_position(s, c, ks)
        by_velocity = lb.grad_velocity(s, c, ks)
        _assert_close(by_position, rows(lag.grad_position)[ks])
        _assert_close(by_velocity, rows(lag.grad_velocity)[ks])
        for i, k in enumerate(index):
            assert np.array_equal(by_position[i], lb.grad_position(s[i:i + 1], c[i:i + 1], k)[0])
            assert np.array_equal(by_velocity[i], lb.grad_velocity(s[i:i + 1], c[i:i + 1], k)[0])
    # the echo and final-value estimators pass trajectories read back to
    # front: read through a binding of the reversed inputs, the reversed
    # pass gives the contrast of the forward binding
    xs_rev = None if xs is None else xs[::-1]
    expected, tol = _contrast_reference(ham.grad_params, theta, xs, pos, con, ref_pos, ref_con,
                                        dt)
    reversed_contrast = ham.bind(theta, xs_rev).grad_params_contrast(
        pos[::-1], con[::-1], ref_pos[::-1], ref_con[::-1], dt)
    assert np.max(np.abs(reversed_contrast - expected)) <= tol


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
    # the default contrast is trapezoid_contrast of those rows, per trajectory
    ref_pos, ref_con = _samples(lag, seed=8)[1:3]
    ref_params = np.array([lag.grad_params(s, c, theta) for s, c in zip(ref_pos, ref_con)])
    contrast = trapezoid_contrast(params.copy(), ref_params, 0.1)
    assert np.array_equal(lb.grad_params_contrast(pos, con, ref_pos, ref_con, 0.1), contrast)
    assert np.array_equal(
        lb.grad_params_contrast(np.stack([pos, ref_pos]), np.stack([con, ref_con]),
                                ref_pos, ref_con, 0.1),
        [contrast, np.zeros_like(contrast)])
    interior = slice(1, N_POINTS - 1)
    assert np.array_equal(lb.grad_position(pos[interior], con[interior], interior),
                          [lag.grad_position(s, c, theta) for s, c in zip(pos, con)][interior])
    assert np.array_equal(lb.grad_velocity(pos[interior], con[interior], interior),
                          [lag.grad_velocity(s, c, theta) for s, c in zip(pos, con)][interior])
    velocities = np.array([velocity_from_momentum(lag, s, c, theta) for s, c in zip(pos, con)])
    assert np.array_equal(lb.velocity_rows(pos, con), velocities)
    # the wrapper negates the source's contrast at the velocities, which is
    # bitwise the per-point contrast of the wrapped model
    ref_velocities = lb.velocity_rows(ref_pos, ref_con)
    wrapped_contrast = wb.grad_params_contrast(pos, con, ref_pos, ref_con, 0.1)
    assert np.array_equal(wrapped_contrast,
                          -lb.grad_params_contrast(pos, velocities, ref_pos, ref_velocities, 0.1))

    hb = BoundHamiltonian(wrapped, theta)
    assert np.array_equal(hb.grad_params_contrast(pos, con, ref_pos, ref_con, 0.1),
                          wrapped_contrast)


COUPLINGS = {"direct": "direct", "mask": MASK, "dense": "dense", "chain": "chain"}


@pytest.mark.parametrize("input_dim", [0, 2])
@pytest.mark.parametrize("coupling", sorted(COUPLINGS))
def test_parameter_contrast_matches_the_per_point_rows(coupling, input_dim):
    lag, ham = make_oscillator_model(3, COUPLINGS[coupling], input_dim, quartic=0.5)
    wrapped = forward_legendre(lag)
    rng = np.random.default_rng(input_dim)
    n_points, dt = 41, 0.05
    theta = rng.normal(size=lag.theta_dim)
    xs = rng.normal(size=(n_points, input_dim)) if input_dim else None
    ref_pos, ref_con = rng.normal(size=(2, n_points, 3))
    # nudged-size, tiny and unrelated departures from the reference
    scales = np.array([1e-3, 1e-6, 1.0])[:, None, None]
    pos = ref_pos + scales * rng.normal(size=(3, n_points, 3))
    con = ref_con + scales * rng.normal(size=(3, n_points, 3))
    # as the integrators store a stack: row b a strided view of (n_points, B, dim)
    strided_pos = np.ascontiguousarray(pos.transpose(1, 0, 2)).transpose(1, 0, 2)
    strided_con = np.ascontiguousarray(con.transpose(1, 0, 2)).transpose(1, 0, 2)
    # a reference read back to front, as the echo passes its forward run
    reversed_ref_pos = np.ascontiguousarray(ref_pos[::-1])[::-1]
    reversed_ref_con = np.ascontiguousarray(ref_con[::-1])[::-1]
    for model in (ham, lag, wrapped):
        bound = model.bind(theta, xs)
        contrast = bound.grad_params_contrast(pos, con, ref_pos, ref_con, dt)
        assert contrast.shape == (3, model.theta_dim)
        for b in range(3):
            expected, tol = _contrast_reference(model.grad_params, theta, xs, pos[b], con[b],
                                                ref_pos, ref_con, dt)
            assert np.max(np.abs(contrast[b] - expected)) <= tol
            alone = bound.grad_params_contrast(pos[b], con[b], ref_pos, ref_con, dt)
            assert alone.tobytes() == contrast[b].tobytes()
        strided = bound.grad_params_contrast(strided_pos, strided_con, reversed_ref_pos,
                                             reversed_ref_con, dt)
        assert strided.tobytes() == contrast.tobytes()


@pytest.mark.parametrize("name,lag,ham", PAIRS[:4], ids=[p[0] for p in PAIRS[:4]])
def test_closed_form_velocity_jacobian_equals_central_difference(name, lag, ham):
    theta, pos, con, xs = _samples(lag, seed=3)
    x0 = _x(xs, 0)
    # the closed form is the zero Jacobian that ``theta_free_momentum`` declares
    assert lag.theta_free_momentum
    fd = lag.grad_velocity_params(pos[0], con[0], theta, x0)
    assert fd.shape == (lag.dim, lag.theta_dim)
    assert np.array_equal(fd, np.zeros((lag.dim, lag.theta_dim)))


def test_bound_input_model_requires_samples():
    lag, ham = make_oscillator_model(2, "dense", input_dim=1)
    theta = np.zeros(lag.theta_dim)
    with pytest.raises(ValueError):
        ham.bind(theta)
    with pytest.raises(ValueError):
        lag.bind(theta, np.zeros((N_POINTS, 2)))


class _PositionShapedCost(CostModel):
    """Tracking of coordinate 0 on the default ``cost_rows``; it rejects any
    state but one position vector."""

    target_dim = 1

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


def test_cost_rows_match_per_point_costs():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(N_POINTS, 3))
    for indices in ([1], [0, 2]):
        cost = QuadraticTrackingCost(3, indices=indices)
        targets = rng.normal(size=(N_POINTS, len(indices)))
        reference = [cost.cost(s, y) for s, y in zip(states, targets)]
        _assert_close(cost.cost_rows(states, targets), reference)
    # the default cost_rows hands cost one position vector per row
    shaped = _PositionShapedCost(3)
    targets = rng.normal(size=(N_POINTS, 1))
    assert np.array_equal(shaped.cost_rows(states, targets),
                          [shaped.cost(s, y) for s, y in zip(states, targets)])


@pytest.mark.parametrize("indices", [None, [1], [1, 2], [0, 2], [2, 1], []],
                         ids=["all", "one", "run", "gap", "descending", "none"])
def test_tracking_cost_gradient_rows_equal_per_point_gradients(indices):
    # runs of coordinates take a slice, the others an index array
    rng = np.random.default_rng(6)
    cost = QuadraticTrackingCost(3, indices=indices)
    states = rng.normal(size=(N_POINTS, 3))
    targets = rng.normal(size=(N_POINTS, cost.target_dim))
    assert np.array_equal(cost.grad_state_rows(states, targets),
                          [cost.grad_state(s, y) for s, y in zip(states, targets)])
    # a batch at one grid point, its target row shared
    assert np.array_equal(cost.grad_state_rows(states, targets[4]),
                          [cost.grad_state(s, targets[4]) for s in states])


@pytest.mark.parametrize("lag", [PAIRS[2][1], MassLagrangian(dim=2, mass=2.0)],
                         ids=["zoo_binding", "default_binding"])
def test_lagrangian_ivp_binds_the_model_once(monkeypatch, lag):
    grid = TimeGrid(dt=0.05, n_steps=20)
    x = Signal.from_function(grid, lambda t: [np.sin(t)]) if lag.input_dim else None
    theta = np.linspace(0.5, 1.0, lag.theta_dim)
    calls = []
    bind = type(lag).bind

    def counted(self, theta, xs=None):
        calls.append(xs)
        return bind(self, theta, xs)

    expected = integrate_lagrangian_ivp(lag, theta, [0.3, -0.2], [0.1, 0.4], grid, x)
    monkeypatch.setattr(type(lag), "bind", counted)
    run = integrate_lagrangian_ivp(lag, theta, [0.3, -0.2], [0.1, 0.4], grid, x)
    assert len(calls) == 1
    assert np.array_equal(run.positions, expected.positions)
    assert np.array_equal(run.velocities, expected.velocities)
