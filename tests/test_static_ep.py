"""Static relaxation and the two-point estimator on fixed inputs."""

import numpy as np
import pytest

from echograd.core import NudgeMode, ParamVector
from echograd.errors import ConvergenceError
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
    w_sum = np.sum(np.abs(hop._weights(th.values)))
    drive_sum = np.sum(np.abs(x0))
    floor = -(0.5 * w_sum + drive_sum)
    rng = np.random.default_rng(0)
    samples = rng.uniform(-3.0, 3.0, size=(500, 2))
    energies = [hop.energy(s, th.values, x0) for s in samples]
    assert min(energies) >= floor


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
