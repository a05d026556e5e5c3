"""The estimator registry: prepared problems equal the direct estimator calls."""

import dataclasses

import numpy as np
import pytest

import echograd.compare
from echograd.compare import compare_estimators
from echograd.core import EstimatorMethod, ParamVector, TimeGrid
from echograd.dynamics import integrate_lagrangian_ivp
from echograd.estimators import Problem, ivp_loss, prepare
from echograd.glep import (
    CbvpSpec,
    CivpSpec,
    PfvpSpec,
    grad_cbvp,
    grad_civp,
    grad_pfvp,
)
from echograd.models import make_oscillator_model
from echograd.oracle import trajectory_loss
from echograd.rhel import LagrangianInitialState, grad_rhel
from echograd.tasks import sine_tracking_task

BETA = 1e-3
CBVP_TOL = 1e-9


@pytest.fixture(scope="module")
def bundle():
    lag, ham = make_oscillator_model(2, coupling="chain", input_dim=1)
    rng = np.random.default_rng(5)
    theta = ParamVector(0.4 * rng.normal(size=lag.theta_dim))
    grid = TimeGrid(dt=2.0 / 200, n_steps=200)
    task = sine_tracking_task(grid, dim=2, input_dim=1, omega=2.1, amplitude=0.6,
                              initial_position=[0.8, -0.3], initial_velocity=[0.2, 0.5])
    return lag, ham, theta, task


def _prepare(bundle, method, theta_setup=None):
    lag, ham, theta, task = bundle
    return prepare(method, lag, ham, task, theta if theta_setup is None else theta_setup,
                   cbvp_tol=CBVP_TOL)


def _pinned(bundle, theta_setup):
    lag, _, _, task = bundle
    free = integrate_lagrangian_ivp(lag, theta_setup, task.initial_position,
                                    task.initial_velocity, task.grid, task.x)
    return CbvpSpec(task.initial_position, free.positions[-1])


def _direct(bundle, method, theta, theta_setup):
    """The estimate and loss of ``method`` written out without the registry."""
    lag, ham, _, task = bundle
    spec = CivpSpec(task.initial_position, task.initial_velocity)
    args = (task.grid, task.x, task.y, BETA)
    loss = trajectory_loss(lag, task.cost, theta, spec, task.grid, task.x, task.y)
    if method == "civp":
        return grad_civp(lag, task.cost, theta, spec, *args), loss
    if method == "pfvp":
        return grad_pfvp(lag, task.cost, theta, spec, *args), loss
    if method == "rhel":
        init = LagrangianInitialState(lag, task.initial_position, task.initial_velocity,
                                      x0=task.x.value(0))
        return grad_rhel(ham, task.cost, theta, init, *args), loss
    pinned = _pinned(bundle, theta_setup)
    est = grad_cbvp(lag, task.cost, theta, pinned, *args, tol=CBVP_TOL)
    loss = trajectory_loss(lag, task.cost, theta, pinned, task.grid, task.x, task.y,
                           cbvp_tol=CBVP_TOL)
    return est, loss


@pytest.mark.parametrize("method", ["civp", "cbvp", "pfvp", "rhel"])
def test_prepared_problem_equals_direct_call(bundle, method):
    theta = bundle[2]
    problem = _prepare(bundle, method)
    est = problem.estimate(theta, BETA)
    direct, loss = _direct(bundle, method, theta, theta)
    assert problem.method is EstimatorMethod(method)
    assert est.method is EstimatorMethod(method)
    assert np.array_equal(est.value, direct.value)
    assert problem.loss(theta) == loss


def test_cbvp_stays_pinned_at_theta_setup(bundle):
    theta_setup = bundle[2]
    theta = ParamVector(theta_setup.values + 0.05)
    problem = _prepare(bundle, "cbvp", theta_setup=theta_setup)
    direct, loss = _direct(bundle, "cbvp", theta, theta_setup)
    assert np.array_equal(problem.estimate(theta, BETA).value, direct.value)
    assert problem.loss(theta) == loss
    # pinning at the estimation theta would be a different problem
    _, repinned = _direct(bundle, "cbvp", theta, theta)
    assert problem.loss(theta) != repinned


def test_regimes_group_problems_by_the_loss_they_answer(bundle):
    lag, _, theta, task = bundle
    problems = {m: _prepare(bundle, m) for m in ("civp", "cbvp", "pfvp", "rhel")}
    assert {m: p.regime for m, p in problems.items()} == {
        "civp": "ivp", "cbvp": "cbvp", "pfvp": "ivp", "rhel": "ivp"}
    reference = ivp_loss(lag, task)(theta)
    for method in ("civp", "pfvp", "rhel"):
        assert problems[method].loss(theta) == reference


@pytest.mark.parametrize("method", ["static_ep", "fd_oracle"])
def test_non_trajectory_methods_are_rejected(bundle, method):
    with pytest.raises(ValueError, match="not a trajectory estimator"):
        _prepare(bundle, method)


def test_final_value_spec_is_the_initial_value_spec():
    assert PfvpSpec is CivpSpec


def test_a_problem_is_its_estimate_and_its_loss():
    # the oracle's rows reach an estimate as loss_thetas, not by a third callable
    assert [f.name for f in dataclasses.fields(Problem)] == ["method", "regime", "estimate",
                                                             "loss"]


@pytest.mark.parametrize(
    "betas, estimators, field",
    [
        ([], ["pfvp", "rhel"], "betas"),
        ([1e-3, 0.0], ["pfvp", "rhel"], "betas"),
        ([1e-3, float("nan")], ["pfvp", "rhel"], "betas"),
        (1e-3, ["pfvp", "rhel"], "betas"),
        ([1e-3], [], "estimators"),
        ([1e-3], ["rhel", "static_ep"], "trajectory estimator"),
    ],
)
def test_compare_rejects_bad_lists_before_any_oracle(bundle, monkeypatch, betas, estimators,
                                                     field):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the arguments were checked")

    monkeypatch.setattr(echograd.compare, "estimate_and_oracle", no_oracle)
    lag, ham, theta, task = bundle
    with pytest.raises(ValueError, match=field):
        compare_estimators(lag, ham, theta, task, betas, estimators)
