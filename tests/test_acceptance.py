"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure).  Run the whole file with ``pytest tests/test_acceptance.py -v``.
"""

import numpy as np
import pytest

from echograd.compare import compare_estimators
from echograd.core import NudgeMode, ParamVector, PhaseState, Signal, TimeGrid
from echograd.dynamics import (
    Nudge,
    echo_retrace_check,
    euler_lagrange_residual,
    hamiltonian_series,
    integrate_hamiltonian,
    integrate_lagrangian_ivp,
)
from echograd.glep import (
    CbvpRelaxConfig,
    CbvpSpec,
    CivpSpec,
    grad_cbvp,
    grad_civp,
    solve_cbvp,
)
from echograd.legendre import backward_legendre, forward_legendre
from echograd.models import (
    QuadraticTrackingCost,
    make_oscillator_model,
    model_zoo,
)
from echograd.oracle import fd_gradient, trajectory_loss
from echograd.static_ep import HopfieldEnergy, QuadraticEnergy, RelaxConfig, relax, static_ep_gradient
from echograd.tasks import sine_tracking_task, step_response_task, two_sines_task
from echograd.training import TrainConfig, train

BETAS = (1e-2, 1e-3, 1e-4)
CBVP_CONFIG = CbvpRelaxConfig(tol=1e-12)
CBVP_COARSEN = 20


def _report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class _Bundle:
    def __init__(self, name, lagrangian, hamiltonian, theta, task):
        self.name = name
        self.lagrangian = lagrangian
        self.hamiltonian = hamiltonian
        self.theta = theta
        self.task = task


@pytest.fixture(scope="module")
def bundles():
    """Three synthetic tasks, every parameter count at most 16."""
    out = []

    grid = TimeGrid(dt=2.0 / 1000, n_steps=1000)
    lag, ham = make_oscillator_model(2, coupling="chain")
    task = sine_tracking_task(
        grid, dim=2, input_dim=0, omega=2.1, amplitude=0.6,
        initial_position=[0.8, -0.3], initial_velocity=[0.2, 0.5],
    )
    out.append(_Bundle("chain2_free", lag, ham, ParamVector([1.1, 0.9, 0.35]), task))

    lag, ham = make_oscillator_model(2, coupling="dense", input_dim=1)
    theta = ParamVector(np.random.default_rng(0).normal(scale=0.4, size=lag.theta_dim))
    task = two_sines_task(
        grid, dim=2, input_dim=1, initial_position=[0.2, 0.1], initial_velocity=[0.0, -0.2],
    )
    out.append(_Bundle("dense2_driven", lag, ham, theta, task))

    lag, ham = make_oscillator_model(3, coupling="chain", input_dim=1)
    theta = ParamVector(np.random.default_rng(1).normal(scale=0.4, size=lag.theta_dim))
    task = step_response_task(
        grid, dim=3, input_dim=1, initial_position=[0.1, -0.1, 0.2],
        initial_velocity=[0.0, 0.1, 0.0],
    )
    out.append(_Bundle("chain3_step", lag, ham, theta, task))

    assert all(b.lagrangian.theta_dim <= 16 for b in out)
    return out


@pytest.fixture(scope="module")
def sweep_tables(bundles):
    """Full (estimator, beta) matrix per task: the expensive shared fixture."""
    tables = {}
    for bundle in bundles:
        tables[bundle.name] = compare_estimators(
            bundle.lagrangian,
            bundle.hamiltonian,
            bundle.theta,
            bundle.task,
            betas=BETAS,
            estimators=["civp", "cbvp", "pfvp", "rhel"],
            nudging=NudgeMode.SYMMETRIC,
            cbvp_config=CBVP_CONFIG,
            cbvp_coarsen=CBVP_COARSEN,
        )
    return tables


def test_criterion_01_echo_retrace(bundles):
    grid = TimeGrid(dt=1e-3, n_steps=5000)
    rng = np.random.default_rng(7)
    worst = 0.0
    for member in model_zoo():
        d = member.hamiltonian.dim
        phi0 = PhaseState(rng.normal(scale=0.5, size=d), rng.normal(scale=0.5, size=d))
        x = None
        if member.hamiltonian.input_dim:
            x = Signal.from_function(
                grid, lambda t: [np.sin(1.3 * t)] * member.hamiltonian.input_dim
            )
        worst = max(worst, echo_retrace_check(member.hamiltonian, member.theta, phi0, grid, x))
    _report(1, worst <= 1e-8, f"worst zero-nudge retrace error {worst:.3e} (tol 1e-8)")


def test_criterion_02_estimators_match_oracle(bundles, sweep_tables):
    worst = {"civp": 0.0, "cbvp": 0.0, "pfvp": 0.0, "rhel": 0.0}
    monotone = True
    for bundle in bundles:
        table = sweep_tables[bundle.name]
        for estimator in worst:
            errs = [c.rel_err_vs_oracle for c in table.cells if c.estimator == estimator]
            assert len(errs) == len(BETAS)
            worst[estimator] = max(worst[estimator], errs[-1])
            monotone = monotone and errs[0] >= errs[1] >= errs[2]

    static_errs = []
    tight = RelaxConfig(step=0.05, tol=1e-12, max_iters=200_000)
    quad = QuadraticEnergy(1)
    cost1 = QuadraticTrackingCost(1)
    x0, y0 = np.array([1.0]), np.array([0.0])
    for beta in BETAS:
        est = static_ep_gradient(quad, cost1, ParamVector([1.0]), x0, y0, beta, config=tight)
        static_errs.append(abs(est.value[0] + 1.0))
    hop = HopfieldEnergy(2)
    thh = ParamVector([0.3, -0.2, 0.4])
    xh, yh = np.array([0.8, -0.5]), np.array([0.4, 0.1])
    cost2 = QuadraticTrackingCost(2)
    oracle = fd_gradient(
        lambda thetas: [cost2.cost(relax(hop, p, xh, config=tight).state, yh) for p in thetas],
        thh,
    ).value
    hop_errs = []
    for beta in BETAS:
        est = static_ep_gradient(hop, cost2, thh, xh, yh, beta, config=tight)
        hop_errs.append(np.linalg.norm(est.value - oracle) / np.linalg.norm(oracle))
    monotone = monotone and static_errs[0] >= static_errs[1] >= static_errs[2]
    monotone = monotone and hop_errs[0] >= hop_errs[1] >= hop_errs[2]

    ok = (
        worst["civp"] <= 1e-3
        and worst["pfvp"] <= 1e-3
        and worst["rhel"] <= 1e-3
        and worst["cbvp"] <= 1e-2
        and static_errs[-1] <= 1e-3
        and hop_errs[-1] <= 1e-3
        and monotone
    )
    detail = (
        f"beta=1e-4 rel errs: civp {worst['civp']:.2e}, cbvp {worst['cbvp']:.2e}, "
        f"pfvp {worst['pfvp']:.2e}, rhel {worst['rhel']:.2e}, "
        f"static {static_errs[-1]:.2e}/{hop_errs[-1]:.2e}; monotone={monotone}"
    )
    _report(2, ok, detail)


def test_criterion_03_echo_equals_final_value_estimator(sweep_tables):
    worst = 0.0
    for table in sweep_tables.values():
        for cell in table.cells:
            if cell.estimator == "rhel" and cell.beta in (1e-2, 1e-3):
                worst = max(worst, cell.rhel_pfvp_rel_diff)
    _report(3, worst <= 1e-6, f"worst echo-vs-final-value discrepancy {worst:.3e} at finite beta")


def test_criterion_04_trajectory_correspondence(bundles):
    bundle = bundles[1]  # driven pair
    task, lag, ham, theta = bundle.task, bundle.lagrangian, bundle.hamiltonian, bundle.theta
    grid, x = task.grid, task.x
    alpha, gamma = task.initial_position, task.initial_velocity
    th = theta.values
    beta = 1e-3

    # forward phase versus free configuration-space solution
    free = integrate_lagrangian_ivp(lag, th, alpha, gamma, grid, x)
    x0 = x.value(0) if x is not None else None
    lam = PhaseState(alpha, lag.grad_velocity(alpha, gamma, th, x0))
    forward = integrate_hamiltonian(ham, th, lam, grid, x)
    xs = x.values if x is not None else None
    gap_fwd = np.max(np.abs(forward.positions - free.positions))
    for k in range(grid.n_points):
        xk = None if xs is None else xs[k]
        expected = lag.grad_velocity(free.positions[k], free.velocities[k], th, xk)
        gap_fwd = max(gap_fwd, np.max(np.abs(forward.momenta[k] - expected)))

    # echo phase versus the time-reversed nudged solution
    x_rev = x.time_reversed() if x is not None else None
    y_rev = task.y.time_reversed()
    back = integrate_lagrangian_ivp(
        lag, th, free.positions[-1], -free.velocities[-1], grid, x_rev,
        nudge=Nudge(beta, task.cost, y_rev),
    )
    echo_start = PhaseState(forward.positions[-1], -forward.momenta[-1])
    echo = integrate_hamiltonian(
        ham, th, echo_start, grid, x_rev, nudge=Nudge(beta, task.cost, y_rev)
    )
    gap_echo = 0.0
    n = grid.n_steps
    for k in range(n + 1):
        xk = None if xs is None else xs[n - k]  # echo index k reads sample n-k
        s_tilde = back.positions[k]
        v_tilde = -back.velocities[k]  # velocity of the reversed-time solution
        gap_echo = max(gap_echo, np.max(np.abs(echo.positions[k] - s_tilde)))
        expected = -lag.grad_velocity(s_tilde, v_tilde, th, xk)
        gap_echo = max(gap_echo, np.max(np.abs(echo.momenta[k] - expected)))

    worst = max(gap_fwd, gap_echo)
    _report(4, worst <= 1e-10, f"state correspondence worst gap {worst:.3e} (tol 1e-10)")


def test_criterion_05_initial_value_residuals_matter():
    lag, _ = make_oscillator_model(1, coupling="direct")
    theta = ParamVector([1.0])
    grid = TimeGrid(dt=2.0 / 1000, n_steps=1000)
    spec = CivpSpec([1.0], [0.0])
    y = Signal.from_function(grid, lambda t: [0.5 * np.sin(1.3 * t)])
    cost = QuadraticTrackingCost(1)
    oracle = fd_gradient(
        lambda p: trajectory_loss(lag, cost, p, spec, grid, None, y), theta
    ).value
    with_terms = grad_civp(lag, cost, theta, spec, grid, None, y, beta=1e-3)
    without = grad_civp(
        lag, cost, theta, spec, grid, None, y, beta=1e-3, include_boundary=False
    )
    err_with = np.linalg.norm(with_terms.value - oracle)
    err_without = np.linalg.norm(without.value - oracle)
    ratio = err_without / err_with
    _report(5, ratio >= 10.0, f"residual terms reduce oracle error {ratio:.1f}x (need >= 10x)")


def test_criterion_06_boundary_value_estimator_clean():
    lag, _ = make_oscillator_model(2, coupling="chain")
    theta = ParamVector([1.1, 0.9, 0.35])
    grid = TimeGrid(dt=(np.pi / 2) / 48, n_steps=48)
    spec = CbvpSpec([0.3, -0.2], [0.6, 0.1])
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(2.0 * t)])
    cost = QuadraticTrackingCost(2, indices=[0])
    config = CbvpRelaxConfig(tol=1e-9)

    solved = solve_cbvp(lag, theta, spec, grid, cost=cost, target=y, beta=1e-3, config=config)
    pinned = np.array_equal(solved.trajectory.positions[0], spec.start_position) and np.array_equal(
        solved.trajectory.positions[-1], spec.end_position
    )

    tight = CbvpRelaxConfig(tol=1e-12)
    oracle = fd_gradient(
        lambda p: trajectory_loss(lag, cost, p, spec, grid, None, y, cbvp_config=tight), theta
    ).value
    estimate = grad_cbvp(lag, cost, theta, spec, grid, None, y, beta=1e-4, config=tight)
    rel = np.linalg.norm(estimate.value - oracle) / np.linalg.norm(oracle)

    ok = solved.max_residual <= 1e-8 and pinned and rel <= 1e-2
    _report(
        6,
        ok,
        f"interior defect {solved.max_residual:.2e} (tol 1e-8), endpoints exact={pinned}, "
        f"oracle rel err {rel:.2e} (tol 1e-2)",
    )


def test_criterion_07_reversed_integration_solves_final_value_problem():
    lag, _ = make_oscillator_model(1, coupling="direct")
    th = np.array([1.0])
    grid = TimeGrid(dt=1.5 / 600, n_steps=600)
    alpha, gamma = np.array([0.7]), np.array([-0.2])
    cost = QuadraticTrackingCost(1)
    y = Signal.from_function(grid, lambda t: [0.4 * np.sin(1.7 * t)])
    beta = 1e-2

    free = integrate_lagrangian_ivp(lag, th, alpha, gamma, grid)
    s_end, v_end = free.positions[-1], free.velocities[-1]

    # definition-based solution: shoot over the initial data of the nudged
    # flow until it terminates exactly at the free endpoint
    def residual(z):
        traj = integrate_lagrangian_ivp(lag, th, z[:1], z[1:], grid, nudge=Nudge(beta, cost, y))
        return (
            np.array([traj.positions[-1, 0] - s_end[0], traj.velocities[-1, 0] - v_end[0]]),
            traj,
        )

    z = np.concatenate([alpha, gamma])
    traj = None
    for _ in range(30):
        r, traj = residual(z)
        if np.max(np.abs(r)) < 1e-12:
            break
        jac = np.empty((2, 2))
        h = 1e-7
        for j in range(2):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            jac[:, j] = (residual(zp)[0] - residual(zm)[0]) / (2 * h)
        z = z - np.linalg.solve(jac, r)

    back = integrate_lagrangian_ivp(
        lag, th, s_end, -v_end, grid, nudge=Nudge(beta, cost, y.time_reversed())
    )
    gap = np.max(np.abs(back.positions[::-1] - traj.positions))
    _report(7, gap <= 1e-6, f"shooting vs reversed-integration gap {gap:.3e} (tol 1e-6)")


def test_criterion_08_legendre_round_trip():
    rng = np.random.default_rng(11)
    worst_roundtrip = 0.0
    worst_antisym = 0.0
    for member in model_zoo():
        lag = member.lagrangian
        ham = forward_legendre(lag)
        roundtrip = backward_legendre(ham)
        for _ in range(100):
            s = rng.normal(size=lag.dim)
            v = rng.normal(size=lag.dim)
            x = rng.normal(size=lag.input_dim) if lag.input_dim else None
            worst_roundtrip = max(
                worst_roundtrip,
                abs(
                    roundtrip.lagrangian(s, v, member.theta.values, x)
                    - lag.lagrangian(s, v, member.theta.values, x)
                ),
            )
            p = lag.grad_velocity(s, v, member.theta.values, x)
            total = ham.grad_params(s, p, member.theta.values, x) + lag.grad_params(
                s, v, member.theta.values, x
            )
            worst_antisym = max(worst_antisym, np.max(np.abs(total)))
    ok = worst_roundtrip <= 1e-10 and worst_antisym <= 1e-10
    _report(
        8,
        ok,
        f"round trip {worst_roundtrip:.3e}, parameter-gradient antisymmetry "
        f"{worst_antisym:.3e} (tol 1e-10)",
    )


def test_criterion_09_integrator_quality_slopes():
    lag, ham = make_oscillator_model(2, coupling="chain")
    theta = ParamVector([1.1, 0.9, 0.35])
    phi0 = PhaseState([0.8, -0.5], [0.3, 0.6])
    el_errs, drifts = [], []
    for factor in (1, 2, 4):
        grid = TimeGrid(dt=0.02 / factor, n_steps=200 * factor)
        traj = integrate_lagrangian_ivp(lag, theta, phi0.position, phi0.momentum, grid)
        el_errs.append(np.max(np.abs(euler_lagrange_residual(lag, traj, theta).values)))
        run = integrate_hamiltonian(ham, theta, phi0, grid)
        series = hamiltonian_series(ham, run, theta)
        drifts.append(np.max(np.abs(series - series[0])))
    el_slopes = np.log2(np.array(el_errs[:-1]) / np.array(el_errs[1:]))
    drift_slopes = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
    ok = np.all(np.abs(el_slopes - 2.0) <= 0.3) and np.all(np.abs(drift_slopes - 2.0) <= 0.3)
    _report(
        9,
        ok,
        f"Euler-Lagrange defect slopes {np.round(el_slopes, 3)}, "
        f"energy drift slopes {np.round(drift_slopes, 3)} (2 +/- 0.3)",
    )


def test_criterion_10_training_smoke():
    lag, ham = make_oscillator_model(2, coupling="dense", input_dim=1)
    grid = TimeGrid(dt=4.0 / 800, n_steps=800)
    task = sine_tracking_task(grid, dim=2, input_dim=1, omega=1.5, amplitude=0.8)
    config = TrainConfig(estimator="rhel", beta=1e-3, learning_rate=0.5, epochs=200, seed=0)
    record = train(lag, ham, task, config)
    rerun = train(lag, ham, task, config)
    deterministic = np.array_equal(record.losses, rerun.losses) and np.array_equal(
        record.theta_final.values, rerun.theta_final.values
    )
    ratio = record.final_loss / record.losses[0]
    ok = ratio <= 0.5 and deterministic
    _report(
        10,
        ok,
        f"loss ratio after {config.epochs} epochs {ratio:.3f} (need <= 0.5), "
        f"bitwise deterministic={deterministic}",
    )
