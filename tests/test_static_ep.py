"""Static relaxation and the two-point estimator on fixed inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echograd.core import NudgeMode, ParamVector
from echograd.errors import ConvergenceError, DivergenceError
from echograd.models import QuadraticTrackingCost
from echograd.oracle import fd_gradient
from echograd.static_ep import (
    HopfieldEnergy,
    QuadraticEnergy,
    RelaxConfig,
    relax,
    static_ep_gradient,
)

QE = QuadraticEnergy(1)
COST1 = QuadraticTrackingCost(1)
X0 = np.array([1.0])
THETA = ParamVector([1.0])
TIGHT = RelaxConfig(step=0.05, tol=1e-12, max_iters=200_000)


def test_free_relaxation_closed_form():
    result = relax(QE, THETA, X0)
    assert abs(result.state[0] - 1.0) <= 1e-9


def test_relaxation_converged_seed_returns_immediately():
    result = relax(QE, THETA, X0, initial_state=np.array([1.0]))
    assert result.iterations <= 1
    assert np.array_equal(result.state, [1.0])


def test_nudged_relaxation_closed_form():
    result = relax(QE, THETA, X0, target=np.array([0.0]), beta=0.1, cost=COST1)
    assert abs(result.state[0] - 1.0 / 1.1) <= 1e-9


def test_relaxation_requires_target_for_nonzero_beta():
    with pytest.raises(ValueError):
        relax(QE, THETA, X0, beta=0.1)


def test_relaxation_budget_exhaustion():
    with pytest.raises(ConvergenceError):
        relax(QE, THETA, X0, config=RelaxConfig(step=1e-6, tol=1e-12, max_iters=10))


@pytest.mark.parametrize("field", ["step", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_relax_config_rejects_a_setting_that_is_not_positive_and_finite(field, value):
    with pytest.raises(ValueError, match=f"relaxation {field} must be positive and finite"):
        RelaxConfig(**{field: value})


def test_relax_config_rejects_a_zero_iteration_budget():
    with pytest.raises(ValueError, match="max_iters"):
        RelaxConfig(max_iters=0)


def test_relaxation_energy_monotone():
    config = RelaxConfig(step=0.05, tol=1e-10, max_iters=100_000)
    result = relax(QE, THETA, X0, initial_state=np.array([-2.0]),
                   config=config, record_energy=True)
    diffs = np.diff(result.energy_history)
    assert np.all(diffs <= 1e-12)

    hop = HopfieldEnergy(2)
    th = ParamVector([0.3, -0.2, 0.4])
    result = relax(hop, th, np.array([0.8, -0.5]), initial_state=np.array([1.5, -1.5]),
                   config=config, record_energy=True)
    assert np.all(np.diff(result.energy_history) <= 1e-12)


def test_hopfield_energy_bounded_below_on_box():
    hop = HopfieldEnergy(2)
    th = ParamVector([0.3, -0.2, 0.4])
    x0 = np.array([0.8, -0.5])
    w_sum = np.sum(np.abs(hop._matrix(th.values)))
    drive_sum = np.sum(np.abs(x0))
    floor = -(0.5 * w_sum + drive_sum)
    rng = np.random.default_rng(0)
    samples = rng.uniform(-3.0, 3.0, size=(500, 2))
    energies = [hop.energy(s, th.values, x0) for s in samples]
    assert min(energies) >= floor


@pytest.mark.parametrize("energy", [QuadraticEnergy(1), QuadraticEnergy(2), QuadraticEnergy(3),
                                    HopfieldEnergy(2), HopfieldEnergy(3)],
                         ids=["quad1", "quad2", "quad3", "hop2", "hop3"])
def test_vectorised_fill_and_gradients_equal_the_entry_loop(energy):
    # reference: the matrix filled, and the partials formed, one upper-
    # triangle entry (i, j) at a time
    rng = np.random.default_rng(energy.dim)
    entries = [(i, j) for i in range(energy.dim) for j in range(i, energy.dim)]
    hopfield = isinstance(energy, HopfieldEnergy)
    for _ in range(50):
        theta = rng.normal(size=energy.theta_dim)
        s, x0 = rng.normal(size=energy.dim), rng.normal(size=energy.dim)
        m = np.zeros((energy.dim, energy.dim))
        for k, (i, j) in enumerate(entries):
            m[i, j] = m[j, i] = theta[k]
        assert np.array_equal(energy._matrix(theta), m[None])
        u = np.tanh(s) if hopfield else s
        scale = -1.0 if hopfield else 1.0
        loop = [scale * 0.5 * u[i] * u[i] if i == j else scale * u[i] * u[j] for i, j in entries]
        assert np.array_equal(energy.grad_params(s, theta, x0), loop)
        if hopfield:
            grad = s - (1.0 - u**2) * (m @ u + x0)
        else:
            grad = m @ s - x0
        assert np.array_equal(energy.grad_state(s, theta, x0), grad)


def test_symmetric_estimator_matches_analytic_gradient():
    # free fixed point x0/theta = 1; relaxed cost C(theta) has dC/dtheta = -1
    estimate = static_ep_gradient(
        QE, COST1, THETA, X0, np.array([0.0]), beta=1e-4,
        nudging=NudgeMode.SYMMETRIC, config=TIGHT,
    )
    assert abs(estimate.value[0] + 1.0) <= 1e-6


def test_estimate_vanishes_when_target_is_free_point():
    estimate = static_ep_gradient(
        QE, COST1, THETA, X0, np.array([1.0]), beta=1e-4, config=TIGHT
    )
    assert abs(estimate.value[0]) <= 1e-8


def test_one_sided_mode_and_metadata():
    estimate = static_ep_gradient(
        QE, COST1, THETA, X0, np.array([0.0]), beta=1e-4,
        nudging=NudgeMode.ONE_SIDED, config=TIGHT,
    )
    assert estimate.nudging is NudgeMode.ONE_SIDED
    assert abs(estimate.value[0] + 1.0) <= 1e-3


def test_symmetric_bias_shrinks_with_beta():
    errors = []
    for beta in (1e-2, 1e-3, 1e-4):
        estimate = static_ep_gradient(
            QE, COST1, THETA, X0, np.array([0.0]), beta=beta, config=TIGHT
        )
        errors.append(abs(estimate.value[0] + 1.0))
    floored = [max(e, 1e-8) for e in errors]
    assert floored[0] >= floored[1] >= floored[2]


def test_hopfield_estimator_matches_oracle():
    hop = HopfieldEnergy(2)
    th = ParamVector([0.3, -0.2, 0.4])
    x0 = np.array([0.8, -0.5])
    y0 = np.array([0.4, 0.1])
    cost = QuadraticTrackingCost(2)

    def relaxed_cost(thetas):
        return [cost.cost(relax(hop, p, x0, config=TIGHT).state, y0) for p in thetas]

    oracle = fd_gradient(relaxed_cost, th).value
    estimate = static_ep_gradient(hop, cost, th, x0, y0, beta=1e-4, config=TIGHT)
    rel = np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-3


# ---------------------------------------------------------------- lockstep rows

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
ENERGIES = [QuadraticEnergy(1), QuadraticEnergy(2), QuadraticEnergy(3),
            HopfieldEnergy(2), HopfieldEnergy(3)]
BETAS = (0.0, 1e-3, -1e-3, 1e-2, -1e-2, 0.3, -0.3)


def _thetas(energy, rows, rng):
    """Parameter rows the relaxation converges on: stiffness near the
    identity for the quadratic energy, weak couplings for the Hopfield one."""
    if isinstance(energy, QuadraticEnergy):
        k = np.eye(energy.dim) * rng.uniform(1.0, 2.0, size=(rows, 1, 1))
        k = k + 0.1 * rng.normal(size=(rows, energy.dim, energy.dim))
        k = 0.5 * (k + np.swapaxes(k, 1, 2))
        upper_rows, upper_cols = np.triu_indices(energy.dim)
        return k[:, upper_rows, upper_cols]
    return rng.normal(scale=0.3, size=(rows, energy.theta_dim))


def _single(energy, theta, x0, target, beta, s0, cost):
    return relax(energy, theta, x0, target=target, beta=beta, initial_state=s0, cost=cost,
                 record_energy=True)


@PROPERTY
@given(energy=st.sampled_from(ENERGIES), rows=st.integers(1, 5), seed=st.integers(0, 2**16),
       shared_theta=st.booleans(), shared_state=st.booleans())
def test_property_stacked_rows_equal_single_relaxations(energy, rows, seed, shared_theta,
                                                        shared_state):
    rng = np.random.default_rng(seed)
    d = energy.dim
    thetas = _thetas(energy, rows, rng)
    if shared_theta:
        thetas = thetas[0]
    x0 = rng.normal(size=d)
    target = rng.normal(scale=0.5, size=d - 1 if d > 1 else 1)
    cost = QuadraticTrackingCost(d, indices=list(range(target.shape[0])))
    betas = rng.choice(BETAS, size=rows)
    s0 = rng.normal(scale=0.5, size=d if shared_state else (rows, d))
    stacked = _single(energy, thetas, x0, target, betas, s0, cost)
    assert stacked.state.shape == (rows, d)
    assert type(stacked.iterations) is int
    assert stacked.iterations == int(stacked.row_iterations.max())
    assert stacked.residual == stacked.row_residuals.max()
    assert stacked.energy_history.shape == (stacked.iterations + 1, rows)
    for b in range(rows):
        theta = thetas if shared_theta else thetas[b]
        one = _single(energy, theta, x0, target, betas[b], s0 if shared_state else s0[b], cost)
        # the residual is the max-norm of the augmented gradient at the state returned
        g = energy.grad_state(one.state, theta, x0)
        if betas[b] != 0.0:
            g = g + betas[b] * cost.grad_state(one.state, target)
        assert one.residual == np.max(np.abs(g))
        assert one.state.shape == (d,)
        assert np.array_equal(stacked.state[b], one.state)
        assert stacked.row_iterations[b] == one.iterations
        assert stacked.row_residuals[b] == one.residual
        assert one.residual <= RelaxConfig().tol
        assert np.array_equal(stacked.energy_history[: one.iterations + 1, b],
                              one.energy_history)


def test_row_seeded_at_its_fixed_point_stops_while_the_others_go_on():
    hop = HopfieldEnergy(2)
    thetas = np.array([[0.3, -0.2, 0.4], [0.1, 0.5, -0.3], [-0.4, 0.2, 0.2]])
    x0 = np.array([0.8, -0.5])
    fixed = relax(hop, thetas[0], x0).state
    seeds = np.array([fixed, [1.5, -1.5], [-1.0, 0.5]])
    stacked = relax(hop, thetas, x0, initial_state=seeds)
    assert stacked.row_iterations[0] == 0
    assert np.array_equal(stacked.state[0], fixed)
    assert np.all(stacked.row_iterations[1:] > 0)
    for b in (1, 2):
        one = relax(hop, thetas[b], x0, initial_state=seeds[b])
        assert np.array_equal(stacked.state[b], one.state)
        assert stacked.row_iterations[b] == one.iterations


def test_non_finite_row_raises_divergence_naming_it():
    # at step 10, stiffness -1 grows the state elevenfold per sweep
    config = RelaxConfig(step=10.0, tol=1e-12, max_iters=10_000)
    thetas = np.array([[0.05], [-1.0], [0.1]])
    with pytest.raises(DivergenceError, match="row 1") as stacked:
        relax(QE, thetas, X0, config=config)
    assert stacked.value.row == 1
    with pytest.raises(DivergenceError) as single:
        relax(QE, thetas[1], X0, config=config)
    assert stacked.value.step == single.value.step


def test_row_missing_the_budget_raises_convergence_naming_it():
    config = RelaxConfig(step=0.05, tol=1e-8, max_iters=500)
    thetas = np.array([[1.0], [1e-3], [1.0]])
    with pytest.raises(ConvergenceError, match="row 1"):
        relax(QE, thetas, X0, config=config)
    assert relax(QE, thetas[0], X0, config=config).iterations < 500


def test_stacked_arguments_must_agree_on_rows():
    qe2 = QuadraticEnergy(2)
    thetas = np.tile([1.0, 0.1, 1.0], (3, 1))
    x0 = np.array([1.0, -1.0])
    target = np.array([0.0, 0.0])
    with pytest.raises(ValueError, match="disagree"):
        relax(qe2, thetas, x0, target=target, beta=np.array([0.1, -0.1]),
              cost=QuadraticTrackingCost(2))
    with pytest.raises(ValueError, match="disagree"):
        relax(qe2, thetas, x0, initial_state=np.zeros((2, 2)))


def test_initial_state_of_the_wrong_width_is_rejected():
    qe2 = QuadraticEnergy(2)
    theta = np.array([1.0, 0.1, 1.0])
    x0 = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="width"):
        relax(qe2, theta, x0, initial_state=np.zeros(3))
    with pytest.raises(ValueError, match="width"):
        relax(qe2, np.tile(theta, (2, 1)), x0, initial_state=np.zeros((2, 1)))


@pytest.mark.parametrize("d", [4, 8, 16])
@pytest.mark.parametrize("kind", ["quadratic", "hopfield"])
def test_rows_from_one_shared_initial_state_equal_single_relaxations(kind, d):
    # the shared state is stacked in C order, so each row's arithmetic is
    # that of its own relaxation at widths where matmul's path depends on it
    rng = np.random.default_rng(d)
    if kind == "quadratic":
        energy = QuadraticEnergy(d)
        a = rng.normal(size=(3, d, d))
        k = a @ np.swapaxes(a, 1, 2) / d + np.eye(d)  # positive definite
        upper_rows, upper_cols = np.triu_indices(d)
        thetas = k[:, upper_rows, upper_cols]
    else:
        energy = HopfieldEnergy(d)
        thetas = rng.normal(scale=0.3 / np.sqrt(d), size=(3, energy.theta_dim))
    x0 = rng.normal(size=d)
    s0 = rng.normal(scale=0.5, size=d)
    stacked = relax(energy, thetas, x0, initial_state=s0, record_energy=True)
    for b in range(3):
        one = relax(energy, thetas[b], x0, initial_state=s0, record_energy=True)
        assert np.array_equal(stacked.state[b], one.state)
        assert np.array_equal(stacked.energy_history[: one.iterations + 1, b],
                              one.energy_history)
