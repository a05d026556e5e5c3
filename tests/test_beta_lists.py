"""Estimating a list of betas in one pass: one free run, one nudged run.

Every estimate of a list equals the scalar call at its entry bitwise, the
list is checked before any integration, and each estimate hands back the
cost of the free run it integrated.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echograd.dynamics
import echograd.glep
import echograd.rhel
from echograd.compare import compare_estimators
from echograd.config import build_bundle, load_config
from echograd.core import NudgeMode, ParamVector, TimeGrid
from echograd.dynamics import integrate_hamiltonian, integrate_lagrangian_ivp
from echograd.estimators import ivp_loss, prepare
from echograd.glep import CivpSpec
from echograd.models import make_oscillator_model, model_zoo
from echograd.oracle import fd_gradient
from echograd.rhel import LagrangianInitialState
from echograd.tasks import sine_tracking_task
from echograd.training import train

IVP_METHODS = ("civp", "pfvp", "rhel")
SIGNED = (1e-2, -1e-2, 1e-3, -1e-3, 1e-4)
# RHEL and PFVP are one computation for Legendre partners; the gap is
# roundoff divided by beta.
ECHO_EQUALS_PFVP = 1e-12


def _models():
    """Every zoo member, and the chain and quartic members with an input."""
    models = [(m.name, m.lagrangian, m.hamiltonian, m.theta.values) for m in model_zoo()]
    for name, quartic in (("osc2_chain_in1", 0.0), ("quartic2_chain_in1", 1.0)):
        lag, ham = make_oscillator_model(2, "chain", input_dim=1, quartic=quartic)
        models.append((name, lag, ham, np.array([1.0, 1.2, 0.25, 0.6, -0.4])))
    return models


MODELS = _models()


def _task(lag, n, seed, dt=0.02):
    rng = np.random.default_rng(seed)
    return sine_tracking_task(TimeGrid(dt=dt, n_steps=n), dim=lag.dim,
                              input_dim=lag.input_dim, omega=2.1, amplitude=0.6,
                              initial_position=rng.normal(scale=0.5, size=lag.dim),
                              initial_velocity=rng.normal(scale=0.5, size=lag.dim))


def _problems(model, n, seed, nudging, methods=IVP_METHODS):
    _, lag, ham, theta = model
    task = _task(lag, n, seed)
    return theta, {m: prepare(m, lag, ham, task, theta, nudging) for m in methods}


def _assert_list_equals_scalar_calls(problem, theta, betas):
    estimates = problem.estimate(theta, betas)
    assert isinstance(estimates, tuple) and len(estimates) == len(betas)
    for est, beta in zip(estimates, betas):
        alone = problem.estimate(theta, beta)
        assert est.beta == beta and est.method is alone.method
        assert np.array_equal(est.value, alone.value), (problem.method, beta)
        assert est.free_loss == alone.free_loss
    return estimates


# Derandomized, so the property runs the same examples on every run.
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@PROPERTY
@given(model=st.sampled_from(MODELS), n=st.integers(20, 200), seed=st.integers(0, 2**16),
       nudging=st.sampled_from(list(NudgeMode)),
       betas=st.lists(st.sampled_from(SIGNED), min_size=1, max_size=4))
def test_property_list_estimates_equal_scalar_calls(model, n, seed, nudging, betas):
    theta, problems = _problems(model, n, seed, nudging)
    estimates = {m: _assert_list_equals_scalar_calls(p, theta, betas)
                 for m, p in problems.items()}
    for rhel, pfvp in zip(estimates["rhel"], estimates["pfvp"]):
        gap = np.linalg.norm(rhel.value - pfvp.value)
        assert gap <= ECHO_EQUALS_PFVP * max(1.0, np.linalg.norm(pfvp.value)), gap


def _masked_model(d, input_dim, rng):
    """A random symmetric coupling mask with its whole diagonal set, and a
    drawn theta: diagonal stiffness in [0.8, 1.6], weak off-diagonal ones."""
    upper = np.triu(rng.random((d, d)) < 0.5, 1)
    mask = upper | upper.T | np.eye(d, dtype=bool)
    lag, ham = make_oscillator_model(d, mask, input_dim)
    entries = [(i, j) for i in range(d) for j in range(i, d) if mask[i, j]]
    stiffness = [rng.uniform(0.8, 1.6) if i == j else rng.normal(scale=0.3 / d)
                 for i, j in entries]
    theta = np.concatenate([stiffness, rng.normal(scale=0.5, size=d * input_dim)])
    return lag, ham, theta


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(d=st.integers(2, 4), input_dim=st.integers(0, 1), n=st.integers(20, 200),
       seed=st.integers(0, 2**16), nudging=st.sampled_from(list(NudgeMode)),
       betas=st.lists(st.sampled_from(SIGNED), min_size=1, max_size=3))
def test_property_echo_equals_pfvp_on_masked_couplings(d, input_dim, n, seed, nudging,
                                                       betas):
    rng = np.random.default_rng(seed)
    lag, ham, theta = _masked_model(d, input_dim, rng)
    task = _task(lag, n, seed)
    rhel, pfvp = (prepare(m, lag, ham, task, theta, nudging).estimate(theta, betas)
                  for m in ("rhel", "pfvp"))
    for echo, final_value in zip(rhel, pfvp):
        gap = np.linalg.norm(echo.value - final_value.value)
        assert gap <= ECHO_EQUALS_PFVP * np.linalg.norm(final_value.value), gap


def test_symmetric_nudging_error_quarters_when_beta_halves():
    # the symmetric estimate's bias is O(beta^2); at these betas it is far
    # above the finite-difference oracle's own error
    for seed in range(4):
        config = load_config()
        config["seed"] = seed
        bundle = build_bundle(config)
        problems = {m: prepare(m, bundle.lagrangian, bundle.hamiltonian, bundle.task,
                               bundle.theta) for m in IVP_METHODS}
        oracle = fd_gradient(problems["civp"].loss, bundle.theta).value
        for method, problem in problems.items():
            big, small = problem.estimate(bundle.theta, [4e-2, 2e-2])
            ratio = np.linalg.norm(big.value - oracle) / np.linalg.norm(small.value - oracle)
            assert abs(ratio - 4.0) <= 0.1, (seed, method, ratio)


def test_wide_echo_equals_pfvp_and_lists_equal_scalar_calls():
    # d=64: the parameter contrast runs on BLAS-sized matrix products
    config = load_config()
    config["task"]["dim"] = 64
    bundle = build_bundle(config)
    lag, ham, task = bundle.lagrangian, bundle.hamiltonian, bundle.task
    theta = np.random.default_rng(1).normal(scale=float(config["task"]["theta_scale"]),
                                            size=lag.theta_dim)
    betas = [1e-2, -1e-4]
    rhel, pfvp = (_assert_list_equals_scalar_calls(prepare(m, lag, ham, task, theta), theta,
                                                   betas) for m in ("rhel", "pfvp"))
    for echo, final_value in zip(rhel, pfvp):
        gap = np.linalg.norm(echo.value - final_value.value)
        assert gap <= ECHO_EQUALS_PFVP * np.linalg.norm(final_value.value), gap


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.integers(8, 20), seed=st.integers(0, 2**16),
       nudging=st.sampled_from(list(NudgeMode)),
       betas=st.lists(st.sampled_from(SIGNED), min_size=1, max_size=3))
def test_property_cbvp_list_estimates_equal_scalar_calls(model, n, seed, nudging, betas):
    theta, problems = _problems(model, n, seed, nudging, methods=("cbvp",))
    _assert_list_equals_scalar_calls(problems["cbvp"], theta, betas)


@pytest.mark.parametrize("method", IVP_METHODS + ("cbvp",))
def test_plus_and_minus_beta_in_one_list_equal_two_scalar_calls(method):
    theta, problems = _problems(MODELS[2], 16, 3, NudgeMode.SYMMETRIC, methods=(method,))
    plus, minus = _assert_list_equals_scalar_calls(problems[method], theta, [1e-3, -1e-3])
    # symmetric nudging averages both signs, so the two entries coincide
    assert np.array_equal(plus.value, minus.value)


@pytest.mark.parametrize("betas", [[], [[1e-3]], [1e-3, 0.0], [1e-3, math.nan], 0.0, math.nan],
                         ids=["empty", "2d", "zero", "nan", "scalar_zero", "scalar_nan"])
@pytest.mark.parametrize("method", IVP_METHODS + ("cbvp",))
def test_bad_beta_lists_are_rejected_before_any_integration(monkeypatch, method, betas):
    theta, problems = _problems(MODELS[1], 16, 0, NudgeMode.SYMMETRIC, methods=(method,))

    def no_run(*args, **kwargs):
        raise AssertionError("an integration ran before the betas were checked")

    for module, name in ((echograd.dynamics, "integrate_hamiltonian"),
                         (echograd.rhel, "integrate_hamiltonian"),
                         (echograd.glep, "integrate_lagrangian_ivp"),
                         (echograd.glep, "solve_cbvp")):
        monkeypatch.setattr(module, name, no_run)
    with pytest.raises(ValueError, match="betas"):
        problems[method].estimate(theta, betas)


def _count_integrations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrate_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(echograd.dynamics, "integrate_hamiltonian", counted)
    monkeypatch.setattr(echograd.rhel, "integrate_hamiltonian", counted)
    return calls


def test_compare_runs_five_integrations_for_three_estimators_and_three_betas(monkeypatch):
    _, lag, ham, theta = MODELS[2]
    task = _task(lag, 60, 1)
    calls = _count_integrations(monkeypatch)
    table = compare_estimators(lag, ham, ParamVector(theta), task, [1e-2, 1e-3, 1e-4],
                               list(IVP_METHODS))
    # one lockstep run for CIVP (free run, its probes, the oracle's probe
    # stack and the nudged runs), then a free run and a nudged run each for
    # PFVP and RHEL
    assert len(calls) == 5
    assert len(table.cells) == 9
    for method in IVP_METHODS:
        times = {c.wall_time for c in table.cells if c.estimator == method}
        assert len(times) == 1, "the cells of one estimator share its call's wall time"


def test_civp_over_three_betas_is_one_integration(monkeypatch):
    _, lag, _, theta = MODELS[2]
    task = _task(lag, 60, 1)
    calls = _count_integrations(monkeypatch)
    estimates = echograd.glep.grad_civp(
        lag, task.cost, ParamVector(theta), CivpSpec(task.initial_position, task.initial_velocity),
        task.grid, task.x, task.y, [1e-2, 1e-3, 1e-4])
    assert len(calls) == 1
    assert len(estimates) == 3


@pytest.fixture(scope="module")
def default_bundles():
    bundles = []
    for seed in range(20):
        config = load_config()
        config["seed"] = seed
        bundles.append(build_bundle(config))
    return bundles


def test_echo_forward_run_is_the_free_loss_run_on_the_default_config(default_bundles):
    # the precondition for train recording RHEL's free_loss as the loss
    for bundle in default_bundles:
        lag, ham, task, theta = bundle.lagrangian, bundle.hamiltonian, bundle.task, bundle.theta
        init = LagrangianInitialState(lag, task.initial_position, task.initial_velocity,
                                      x0=task.x.value(0))
        forward = integrate_hamiltonian(ham, theta, init.state(theta), task.grid, task.x)
        free = integrate_lagrangian_ivp(lag, theta, task.initial_position,
                                        task.initial_velocity, task.grid, task.x)
        assert np.array_equal(forward.positions, free.positions)
        loss = ivp_loss(lag, task)(theta)
        for method in IVP_METHODS:
            problem = prepare(method, lag, ham, task, theta)
            assert problem.estimate(theta, 1e-3).free_loss == loss, method


@pytest.mark.parametrize("method", IVP_METHODS + ("cbvp",))
def test_train_records_the_free_trajectory_loss_of_each_epoch(method):
    # every estimator hands back the loss it answers as free_loss: the
    # free-trajectory cost, or for CBVP that of the pinned, coarse problem
    _, lag, ham, theta = MODELS[2]
    task = _task(lag, 80, 4)
    theta0 = ParamVector(theta)

    problem = prepare(method, lag, ham, task, theta0)

    def run(epochs):
        return train(problem, theta0, beta=1e-3, learning_rate=0.1, epochs=epochs)

    record = run(3)
    loss = problem.loss
    assert record.losses[0] == loss(theta)
    for k in (1, 2):
        assert record.losses[k] == loss(run(k).theta_final.values)
    assert record.final_loss == loss(record.theta_final.values)
