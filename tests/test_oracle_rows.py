"""The oracle's probe rows riding with an estimator's own runs.

A gradient check evaluates the finite-difference oracle by handing its probe
rows to ``Problem.estimate`` as ``loss_thetas``: CIVP and PFVP
(``glep.grad_civp``/``grad_pfvp``) run them inside their first lockstep,
RHEL and CBVP call ``estimate`` then ``loss``.  Every result must be bitwise
that of the separate calls, and a check must run no more sequential loops
than the estimator needs plus what cannot ride with it.
"""

import sys

import numpy as np
import pytest

import echograd.cli
import echograd.glep
from echograd.compare import compare_estimators
from echograd.config import build_bundle, load_config
from echograd.core import (GradientEstimate, NudgeMode, ParamVector, central_probes,
                           relative_error)
from echograd.dynamics import integrate_hamiltonian
from echograd.errors import NumericalError
from echograd.estimators import estimate_and_oracle, prepare
from echograd.models import QuadraticTrackingCost
from echograd.oracle import fd_gradient
from echograd.static_ep import HopfieldEnergy, relax, static_ep_gradient

FD_EPS = 1e-5
METHODS = ("civp", "cbvp", "pfvp", "rhel")
BETAS = {"one_beta": 1e-3, "beta_list": [1e-2, -1e-3, 1e-4]}


@pytest.fixture(scope="module")
def small_bundle():
    config = load_config()
    config["task"]["n_steps"] = 200
    return build_bundle(config)


def _prepare(bundle, method, nudging=NudgeMode.SYMMETRIC):
    return prepare(method, bundle.lagrangian, bundle.hamiltonian, bundle.task, bundle.theta,
                   nudging, FD_EPS)


def _same(a, b):
    """Bitwise equality of one estimate, or of a tuple of them."""
    if not isinstance(a, tuple):
        a, b = (a,), (b,)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.value.tobytes() == y.value.tobytes()
        assert (x.beta, x.nudging, x.free_loss) == (y.beta, y.nudging, y.free_loss)


@pytest.mark.parametrize("nudging", list(NudgeMode))
@pytest.mark.parametrize("betas", list(BETAS), ids=list(BETAS))
@pytest.mark.parametrize("method", METHODS)
def test_joint_call_equals_separate_estimate_and_loss(small_bundle, method, betas, nudging):
    problem = _prepare(small_bundle, method, nudging)
    theta, beta = small_bundle.theta, BETAS[betas]
    rows = central_probes(theta.values, FD_EPS)
    estimate, losses = problem.estimate(theta, beta, rows)
    _same(estimate, problem.estimate(theta, beta))
    assert losses.tobytes() == np.asarray(problem.loss(rows)).tobytes()
    if method in ("civp", "pfvp"):
        # the estimator itself, called with and without loss_thetas
        grad, args = _estimator_call(small_bundle, method, beta)
        estimate, losses = grad(*args, nudging=nudging, fd_eps=FD_EPS, loss_thetas=rows)
        _same(estimate, grad(*args, nudging=nudging, fd_eps=FD_EPS))
        assert losses.tobytes() == np.asarray(problem.loss(rows)).tobytes()


def _estimator_call(bundle, method, beta):
    """``glep.grad_civp`` or ``grad_pfvp`` and its positional arguments on the
    bundle's task."""
    task = bundle.task
    spec = echograd.glep.CivpSpec(task.initial_position, task.initial_velocity)
    grad = echograd.glep.grad_civp if method == "civp" else echograd.glep.grad_pfvp
    return grad, (bundle.lagrangian, task.cost, bundle.theta, spec, task.grid, task.x, task.y,
                  beta)


def _forbid(monkeypatch, *names):
    """Rebind each function name in every ``echograd`` module that holds it
    to one that fails the test when called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before checking loss_thetas")

    for module in [m for n, m in sorted(sys.modules.items()) if n.startswith("echograd.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("shape", [(3, 4), (12,), (2, 6, 1), (0, 5)])
@pytest.mark.parametrize("method", ["civp", "pfvp"])
def test_loss_rows_of_the_wrong_shape_raise_before_integrating(small_bundle, monkeypatch,
                                                               method, shape):
    # P is 6: a (3, 4) stack holds 12 numbers, which once reshaped silently to 2 rows
    _forbid(monkeypatch, "integrate_lagrangian_ivp")
    grad, args = _estimator_call(small_bundle, method, 1e-3)
    assert small_bundle.theta.values.shape == (6,)
    with pytest.raises(ValueError, match="loss_thetas"):
        grad(*args, loss_thetas=np.zeros(shape))


@pytest.mark.parametrize("method", METHODS)
def test_a_problem_checks_its_loss_rows_before_estimating(small_bundle, monkeypatch, method):
    problem = _prepare(small_bundle, method)
    _forbid(monkeypatch, "integrate_hamiltonian", "integrate_lagrangian_ivp", "solve_cbvp")
    with pytest.raises(ValueError, match="loss_thetas"):
        problem.estimate(small_bundle.theta, 1e-3, np.zeros((3, 4)))


def test_pfvp_without_loss_rows_returns_a_bare_estimate(small_bundle):
    # the call form of perfbench's echo-wide workload
    task = small_bundle.task
    spec = echograd.glep.PfvpSpec(task.initial_position, task.initial_velocity)
    est = echograd.glep.grad_pfvp(small_bundle.lagrangian, task.cost, small_bundle.theta, spec,
                                  task.grid, task.x, task.y, 1e-3)
    assert isinstance(est, GradientEstimate)
    assert est.value.shape == small_bundle.theta.values.shape


@pytest.mark.parametrize("method", METHODS)
def test_estimate_and_oracle_equals_the_separate_oracle(small_bundle, method):
    problem = _prepare(small_bundle, method)
    theta = small_bundle.theta
    estimate, oracle = estimate_and_oracle(problem, theta, 1e-3, FD_EPS)
    _same(estimate, problem.estimate(theta, 1e-3))
    assert oracle.value.tobytes() == fd_gradient(problem.loss, theta, FD_EPS).value.tobytes()


@pytest.mark.parametrize("methods", [["civp", "pfvp", "rhel"], ["pfvp", "rhel"],
                                     ["rhel", "cbvp", "civp"]], ids="-".join)
def test_compare_cells_equal_a_table_with_separate_oracles(methods):
    # the table compare_estimators built before its oracle rode an estimate
    config = load_config()
    config["task"]["n_steps"] = 40
    bundle = build_bundle(config)
    theta, betas = bundle.theta, [1e-2, -1e-3]
    problems = {m: _prepare(bundle, m) for m in methods}
    oracles = {}
    for problem in problems.values():
        if problem.regime not in oracles:
            oracles[problem.regime] = fd_gradient(problem.loss, theta, FD_EPS).value
    estimates = {m: problem.estimate(theta, betas) for m, problem in problems.items()}

    table = compare_estimators(bundle.lagrangian, bundle.hamiltonian, theta, bundle.task, betas,
                               methods, fd_eps=FD_EPS)
    assert [(c.estimator, c.beta) for c in table.cells] == [(m, b) for b in betas
                                                            for m in methods]
    for cell in table.cells:
        i = betas.index(cell.beta)
        estimate = estimates[cell.estimator][i]
        oracle = oracles[problems[cell.estimator].regime]
        assert cell.gradient.tobytes() == estimate.value.tobytes()
        assert cell.rel_err_vs_oracle == relative_error(estimate.value, oracle)
        diff = None
        if cell.estimator == "rhel" and "pfvp" in estimates:
            diff = relative_error(estimate.value, estimates["pfvp"][i].value)
        assert cell.rhel_pfvp_rel_diff == diff


def test_seeded_static_ep_relaxes_no_free_sweep_and_keeps_its_estimate():
    rng = np.random.default_rng(4)
    energy, cost = HopfieldEnergy(2), QuadraticTrackingCost(2)
    theta = ParamVector(rng.normal(scale=0.3, size=energy.theta_dim))
    x0, y0 = rng.normal(size=2), rng.normal(scale=0.5, size=2)
    stack = np.concatenate([theta.values[None, :], central_probes(theta.values, FD_EPS)])
    lockstep = relax(energy, stack, x0)
    alone = relax(energy, theta, x0)
    assert lockstep.state[0].tobytes() == alone.state.tobytes()
    seeded = relax(energy, theta, x0, initial_state=lockstep.state[0])
    assert seeded.iterations == 0
    assert seeded.state.tobytes() == alone.state.tobytes()
    for nudging in NudgeMode:
        plain = static_ep_gradient(energy, cost, theta, x0, y0, 1e-3, nudging=nudging)
        warm = static_ep_gradient(energy, cost, theta, x0, y0, 1e-3, nudging=nudging,
                                  initial_state=lockstep.state[0])
        assert warm.value.tobytes() == plain.value.tobytes()


def test_static_ep_check_equals_the_separate_estimate_and_oracle():
    seed, beta = 7, 1e-3
    est, oracle = echograd.cli._static_ep_check(seed, beta, NudgeMode.SYMMETRIC, FD_EPS)
    # the check without a shared relaxation: the estimate from a cold start
    # and the oracle relaxing the probes alone
    rng = np.random.default_rng(seed)
    energy, cost = HopfieldEnergy(2), QuadraticTrackingCost(2)
    theta = ParamVector(rng.normal(scale=0.3, size=energy.theta_dim))
    x0, y0 = rng.normal(size=2), rng.normal(scale=0.5, size=2)
    plain = static_ep_gradient(energy, cost, theta, x0, y0, beta)
    reference = fd_gradient(
        lambda rows: [cost.cost(s, y0) for s in relax(energy, rows, x0).state], theta, FD_EPS)
    assert est.value.tobytes() == plain.value.tobytes()
    assert oracle.value.tobytes() == reference.value.tobytes()


def _count_loops(monkeypatch):
    """Count the sequential loops: every ``integrate_hamiltonian`` call, and
    every ``relax`` call that takes at least one sweep (a seeded relaxation
    that starts converged takes none), rebinding each in every ``echograd``
    module that holds it."""
    counts = {"integrations": 0, "relaxations": 0, "relax_calls": 0}

    def integrate(*args, **kwargs):
        counts["integrations"] += 1
        return integrate_hamiltonian(*args, **kwargs)

    def relaxed(*args, **kwargs):
        result = relax(*args, **kwargs)
        counts["relax_calls"] += 1
        counts["relaxations"] += result.iterations > 0
        return result

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("echograd.")]
    for original, wrapper in ((integrate_hamiltonian, integrate), (relax, relaxed)):
        holders = [(m, name) for m in modules for name, value in vars(m).items()
                   if value is original]
        assert holders
        for module, name in holders:
            monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("method, integrations, relaxations", [
    ("static_ep", 0, 2), ("civp", 1, 0), ("pfvp", 2, 0), ("rhel", 3, 0),
])
def test_gradcheck_runs_the_fewest_sequential_loops(tmp_path, monkeypatch, capsys, method,
                                                    integrations, relaxations):
    # CIVP's oracle probes join its single lockstep run and PFVP's its free
    # run; static EP relaxes theta with the probes and seeds its free phase
    # with theta's fixed point.  RHEL runs its oracle after its two phases.
    counts = _count_loops(monkeypatch)
    code = echograd.cli.main(["--out", str(tmp_path / "r"), "--estimator", method,
                              "gradcheck", "--check-tol", "1e-3"])
    assert code == 0, capsys.readouterr().err
    assert counts["integrations"] == integrations
    assert counts["relaxations"] == relaxations
    # static EP's third relax call is the seeded free phase, which sweeps nothing
    assert counts["relax_calls"] == (3 if method == "static_ep" else 0)


def test_a_run_that_grows_without_overflowing_raises_for_its_loss():
    # lr 1000 throws theta far out in one update: with 100 steps the states
    # reach ~1e93 and stay finite, and the tracking cost overflows to inf - inf
    config = load_config()
    config["task"]["n_steps"] = 100
    bundle = build_bundle(config)
    beta = float(config["estimator"]["beta"])
    problem = _prepare(bundle, "rhel")
    theta = bundle.theta.values - 1000.0 * problem.estimate(bundle.theta, beta).value
    with pytest.raises(NumericalError, match="free-run loss of row 0"):
        problem.loss(theta)
    stack = np.stack([bundle.theta.values, theta])
    with pytest.raises(NumericalError, match="free-run loss of row 1"):
        problem.loss(stack)
    # the same rows riding with an estimator's lockstep are named alike
    for method in ("civp", "pfvp"):
        with pytest.raises(NumericalError, match="free-run loss of row 1"):
            _prepare(bundle, method).estimate(bundle.theta, beta, stack)
