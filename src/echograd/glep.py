"""Trajectory-level gradient estimators under three boundary regimes.

All three estimators contrast a nudged trajectory (the Euler-Lagrange flow of
the cost-augmented Lagrangian) with the free one and integrate the parameter
gradient difference with the trapezoid rule, divided by the nudging strength.
They differ in the boundary conditions, which decide which endpoint residual
terms survive:

- Fixed initial position and velocity ("CIVP"): two residual terms remain at
  the final time.  They involve parameter derivatives of the final state and
  of the velocity gradient there, computed here by central finite-difference
  probes over the parameters, one re-integration per parameter per side,
  all run in lockstep with the free run.  This is deliberately impractical
  beyond a handful of parameters and is guarded accordingly; the estimator
  exists to validate the formula.
- Fixed endpoint positions ("CBVP"): no residual terms at all, but the
  trajectories come from a two-point boundary value problem.  Its interior
  positions solve the discrete Euler-Lagrange equations of a midpoint
  action with pinned endpoints, by damped Newton iteration on their
  block-tridiagonal system.
- Final state pinned to the free trajectory's endpoint ("PFVP"): requires a
  velocity-even Lagrangian and a position-only cost.  The nudged solution is
  produced by forward integration from the velocity-reversed free endpoint
  with time-reversed inputs; a single residual term survives at the initial
  time and needs only parameter derivatives of the velocity gradient at the
  fixed initial condition, no re-integration.

Symmetric nudging averages the estimator at +beta and -beta.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CostModel,
    EstimatorMethod,
    GradientEstimate,
    LagrangianModel,
    NudgeMode,
    ParamVector,
    Signal,
    TimeGrid,
    Trajectory,
    as_params,
    finish_estimate,
    frozen_array,
    signed_betas,
    trapezoid_contrast,
)
from .dynamics import Nudge, integrate_lagrangian_ivp
from .errors import ConvergenceError, DivergenceError, SingularHessianError

__all__ = [
    "CivpSpec",
    "CbvpSpec",
    "PfvpSpec",
    "CbvpRelaxConfig",
    "CbvpResult",
    "CIVP_THETA_LIMIT",
    "NEWTON_MAX_ITER",
    "grad_civp",
    "solve_cbvp",
    "grad_cbvp",
    "grad_pfvp",
]

CIVP_THETA_LIMIT = 32

# The boundary value Newton solve takes at most NEWTON_MAX_ITER steps and
# halves each step at most _MAX_HALVINGS times until the worst defect falls.
NEWTON_MAX_ITER = 50
_MAX_HALVINGS = 30
# Central-difference step of the defect Jacobian, relative to 1 + max|s|.
_JACOBIAN_STEP = 1e-6


@dataclass(frozen=True)
class CivpSpec:
    """Fixed initial position and velocity (also PFVP's free-run initial data)."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", frozen_array(self.position, "position", ndim=1))
        object.__setattr__(self, "velocity", frozen_array(self.velocity, "velocity", ndim=1))
        if self.position.shape != self.velocity.shape:
            raise ValueError("position and velocity must share a dimension")


PfvpSpec = CivpSpec


@dataclass(frozen=True)
class CbvpSpec:
    """Fixed positions at both ends of the horizon."""

    start_position: np.ndarray
    end_position: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "start_position", frozen_array(self.start_position, "start_position", ndim=1)
        )
        object.__setattr__(
            self, "end_position", frozen_array(self.end_position, "end_position", ndim=1)
        )
        if self.start_position.shape != self.end_position.shape:
            raise ValueError("endpoint positions must share a dimension")


@dataclass(frozen=True)
class CbvpRelaxConfig:
    """Boundary value solve control: the tolerance on the worst interior defect."""

    tol: float = 1e-10

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class CbvpResult:
    trajectory: Trajectory
    iterations: int
    max_residual: float


def grad_civp(
    model: LagrangianModel,
    cost: CostModel,
    theta: ParamVector,
    spec: CivpSpec,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    beta: float,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
    theta_limit: int = CIVP_THETA_LIMIT,
    include_boundary: bool = True,
) -> GradientEstimate:
    """Constant-initial-value estimator with its two final-time residuals.

    The residual terms need parameter Jacobians of the final state, obtained
    by central differencing over theta with one free re-integration per
    parameter per side, so the parameter count is capped by ``theta_limit``.
    The free run and the probes are one lockstep integration, and so are the
    nudged runs of both signs.
    ``include_boundary=False`` drops the residual terms; that variant is
    biased and exists only so tests can demonstrate the residuals matter.
    """
    started = time.perf_counter()
    th = as_params(theta)
    if th.shape[0] > theta_limit:
        raise ValueError(
            f"CIVP probes re-integrate per parameter; {th.shape[0]} parameters exceed "
            f"the guard of {theta_limit}"
        )
    if not cost.position_only:
        raise ValueError("trajectory estimators require a position-only cost")
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)

    xs = x.values if x is not None else None
    x_end = None if xs is None else xs[-1]
    dim, n_theta = model.dim, th.shape[0]
    # Row 0 is the free run; with the boundary terms, rows 2j + 1 and 2j + 2
    # are the free runs at theta +- fd_eps e_j, all in one lockstep run.
    thetas = th[None, :]
    if include_boundary:
        thetas = np.repeat(th[None, :], 2 * n_theta + 1, axis=0)
        j = np.arange(n_theta)
        thetas[2 * j + 1, j] += fd_eps
        thetas[2 * j + 2, j] -= fd_eps
    runs = integrate_lagrangian_ivp(model, thetas, spec.position, spec.velocity, grid, x)
    free_positions, free_velocities = runs.positions[0], runs.velocities[0]
    bound = model.bind(th, xs)
    free_params = bound.grad_params_rows(free_positions, free_velocities)
    gv_free_end = np.asarray(
        model.grad_velocity(free_positions[-1], free_velocities[-1], th, x_end), dtype=float
    )

    if include_boundary:
        d_state = np.empty((dim, n_theta))     # d s_T / d theta
        d_gradv = np.empty((dim, n_theta))     # d/d theta of dL/dv at the free endpoint
        for j in range(n_theta):
            probes = []
            for row in (2 * j + 1, 2 * j + 2):
                s_end, v_end = runs.positions[row, -1], runs.velocities[row, -1]
                probes.append((s_end, model.grad_velocity(s_end, v_end, thetas[row], x_end)))
            (s_plus, g_plus), (s_minus, g_minus) = probes
            d_state[:, j] = (s_plus - s_minus) / (2.0 * fd_eps)
            d_gradv[:, j] = (np.asarray(g_plus) - np.asarray(g_minus)) / (2.0 * fd_eps)

    nudged = integrate_lagrangian_ivp(model, th, spec.position, spec.velocity, grid, x,
                                      nudge=Nudge(np.array(signs), cost, y))
    values = {}
    for i, b in enumerate(signs):
        positions, velocities = nudged.positions[i], nudged.velocities[i]
        value = trapezoid_contrast(
            bound.grad_params_rows(positions, velocities), free_params, grid.dt)
        if include_boundary:
            gv_nudged_end = np.asarray(
                model.grad_velocity(positions[-1], velocities[-1], th, x_end), dtype=float
            )
            value = value + d_state.T @ (gv_nudged_end - gv_free_end)
            value = value - d_gradv.T @ (positions[-1] - free_positions[-1])
        values[b] = value / b
    return finish_estimate(values, beta, nudging, EstimatorMethod.CIVP, started)


def _defect_jacobian(defect, s, h):
    """Diagonal, upper and lower ``(m, d, d)`` blocks of the Jacobian of
    ``defect`` (``m`` rows) in the ``m`` interior rows of ``s``.

    Defect row ``r`` depends on the unknowns ``r - 1``, ``r`` and ``r + 1``
    only, so unknowns three rows apart share no defect row: one central
    difference per colour (row mod 3) and coordinate gives a column of
    every block, 6 d defect evaluations in all.
    """
    m, d = s.shape[0] - 2, s.shape[1]
    rows = np.arange(m)
    blocks = np.zeros((3, m, d, d))
    for color in range(3):
        # defect row r meets the perturbed unknown at r + 0, r + 1 or r - 1
        which = (color - rows) % 3
        for j in range(d):
            probe = np.zeros_like(s)
            probe[1 + color:-1:3, j] = h
            blocks[which, rows, :, j] = (defect(s + probe) - defect(s - probe)) / (2.0 * h)
    return blocks


def _block_thomas(diag, upper, lower, rhs):
    """Solve the block-tridiagonal system with ``(m, d, d)`` blocks for the
    ``(m, d)`` right-hand side (``lower[0]`` and ``upper[-1]`` are unused)."""
    m = rhs.shape[0]
    coupling = np.empty_like(upper)
    solution = np.empty_like(rhs)
    for i in range(m):
        pivot, r = diag[i], rhs[i]
        if i:
            pivot = pivot - lower[i] @ coupling[i - 1]
            r = r - lower[i] @ solution[i - 1]
        try:
            solved = np.linalg.solve(pivot, np.column_stack([upper[i], r]))
        except np.linalg.LinAlgError as exc:
            raise SingularHessianError(
                f"singular defect Jacobian pivot at interior point {i + 1}") from exc
        coupling[i], solution[i] = solved[:, :-1], solved[:, -1]
    for i in range(m - 2, -1, -1):
        solution[i] -= coupling[i] @ solution[i + 1]
    return solution


def solve_cbvp(
    model: LagrangianModel,
    theta,
    spec: CbvpSpec,
    grid: TimeGrid,
    x: Signal | None = None,
    cost: CostModel | None = None,
    target: Signal | None = None,
    beta: float = 0.0,
    config: CbvpRelaxConfig | None = None,
    initial_guess: np.ndarray | None = None,
) -> CbvpResult:
    """Solve the discrete Euler-Lagrange equations with both endpoint positions pinned.

    The interior positions zero the discrete Euler-Lagrange defect of the
    midpoint action (compact second-difference stencil) while the endpoint
    positions stay pinned.  Damped Newton iteration solves it from the
    straight line between the endpoints, or from ``initial_guess``: the
    block-tridiagonal defect Jacobian comes from coloured central
    differences and a block-Thomas solve, and each step is halved until the
    worst defect falls.  Converges when the worst interior defect drops to
    ``config.tol``.  Newton does not need the horizon to lie below a
    conjugate point; past a fold of the solution branch it stalls.

    Raises ``DivergenceError`` for a non-finite defect at the start,
    ``SingularHessianError`` for a singular pivot block of the Jacobian and
    ``ConvergenceError`` when no halving of a step lowers the worst defect
    (a non-finite step included) or after ``NEWTON_MAX_ITER`` steps.  No
    floating point warning escapes.
    """
    th = as_params(theta)
    config = config or CbvpRelaxConfig()
    if beta != 0.0:
        if cost is None or target is None:
            raise ValueError("a nonzero beta requires a cost model and a target signal")
        if not cost.position_only:
            raise ValueError("trajectory estimators require a position-only cost")
        if target.grid != grid:
            raise ValueError("target signal is not aligned to the grid")
    if x is not None and x.grid != grid:
        raise ValueError("input signal is not aligned to the grid")

    n, dt, d = grid.n_steps, grid.dt, model.dim
    if n < 2:
        raise ValueError("boundary value problems need at least one interior point")

    if initial_guess is None:
        weights = np.linspace(0.0, 1.0, n + 1)[:, None]
        states = (1.0 - weights) * spec.start_position + weights * spec.end_position
    else:
        states = np.array(initial_guess, dtype=float)
        if states.shape != (n + 1, d):
            raise ValueError(f"initial guess must have shape {(n + 1, d)}")
        if not (np.allclose(states[0], spec.start_position) and np.allclose(states[-1], spec.end_position)):
            raise ValueError("initial guess must satisfy the endpoint constraints")
        states[0], states[-1] = spec.start_position, spec.end_position

    bound = model.bind(th, x.values if x is not None else None)
    ys_interior = None if target is None else target.values[1:-1]

    def defect(s):
        """Pointwise Euler-Lagrange defect at the interior grid points."""
        half_v = (s[1:] - s[:-1]) / dt
        half_mid = 0.5 * (s[1:] + s[:-1])
        flux = bound.grad_velocity_rows(half_mid, half_v, slice(0, n))
        centered_v = (s[2:] - s[:-2]) / (2.0 * dt)
        el = bound.grad_position_rows(s[1:-1], centered_v, slice(1, n))
        if beta != 0.0:
            el = el + beta * cost.grad_state_rows(s[1:-1], ys_interior)
        return el - (flux[1:] - flux[:-1]) / dt

    with np.errstate(over="ignore", invalid="ignore"):
        el = defect(states)
        if not np.all(np.isfinite(el)):
            raise DivergenceError("boundary value defect is non-finite at the initial guess",
                                  step=0)
        residual = float(np.max(np.abs(el)))
        iterations = 0
        while residual > config.tol:
            if iterations >= NEWTON_MAX_ITER:
                raise ConvergenceError(
                    f"boundary value Newton solve did not reach tol={config.tol} within "
                    f"{NEWTON_MAX_ITER} iterations (residual {residual:.3e})"
                )
            h = _JACOBIAN_STEP * (1.0 + float(np.max(np.abs(states))))
            step = _block_thomas(*_defect_jacobian(defect, states, h), el)
            for halving in range(_MAX_HALVINGS + 1):
                trial = states.copy()
                trial[1:-1] -= 0.5**halving * step
                trial_el = defect(trial)
                trial_residual = float(np.max(np.abs(trial_el)))
                if trial_residual < residual:
                    break
            else:
                raise ConvergenceError(
                    f"boundary value Newton solve stalled at residual {residual:.1e} "
                    f"(tol={config.tol}) after {iterations} iterations"
                )
            states, el, residual = trial, trial_el, trial_residual
            iterations += 1

    velocities = np.empty_like(states)
    velocities[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    velocities[0] = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * dt)
    velocities[-1] = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * dt)
    trajectory = Trajectory(grid, "lagrangian", states, velocities)
    return CbvpResult(trajectory=trajectory, iterations=iterations, max_residual=residual)


def grad_cbvp(
    model: LagrangianModel,
    cost: CostModel,
    theta: ParamVector,
    spec: CbvpSpec,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    beta: float,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    config: CbvpRelaxConfig | None = None,
) -> GradientEstimate:
    """Constant-boundary-value estimator: the pure integral, no residuals."""
    started = time.perf_counter()
    th = as_params(theta)
    nudging = NudgeMode(nudging)
    xs = x.values if x is not None else None

    free = solve_cbvp(model, th, spec, grid, x, config=config).trajectory
    bound = model.bind(th, xs)
    free_params = bound.grad_params_rows(free.positions, free.velocities)

    values = {}
    for b in signed_betas(beta, nudging):
        nudged = solve_cbvp(
            model, th, spec, grid, x, cost=cost, target=y, beta=b, config=config,
            initial_guess=free.positions,
        ).trajectory
        values[b] = trapezoid_contrast(
            bound.grad_params_rows(nudged.positions, nudged.velocities), free_params, grid.dt) / b
    return finish_estimate(values, beta, nudging, EstimatorMethod.CBVP, started)


def grad_pfvp(
    model: LagrangianModel,
    cost: CostModel,
    theta: ParamVector,
    spec: CivpSpec,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    beta: float,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
) -> GradientEstimate:
    """Parametric-final-value estimator for reversible systems.

    Free phase: integrate from the fixed initial data.  Nudged phase:
    integrate the cost-augmented flow forward from the velocity-reversed
    free endpoint with time-reversed inputs; reversibility makes the result
    the time-reversed nudged solution that terminates at the free endpoint.
    The nudged runs of both signs are one lockstep integration.
    One boundary term survives, built from the parameter derivative of the
    velocity gradient at the fixed initial data
    (``model.grad_velocity_params``, no re-integration).
    """
    started = time.perf_counter()
    th = as_params(theta)
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)
    if not model.reversible:
        raise ValueError("the final-value construction requires a velocity-even model")
    if not cost.position_only:
        raise ValueError("the final-value construction requires a position-only cost")

    free = integrate_lagrangian_ivp(model, th, spec.position, spec.velocity, grid, x)
    xs = x.values if x is not None else None
    bound = model.bind(th, xs)
    free_params = bound.grad_params_rows(free.positions, free.velocities)

    x_rev = x.time_reversed() if x is not None else None
    y_rev = y.time_reversed()
    end_position = free.positions[-1]
    end_velocity = free.velocities[-1]

    # d/d theta of dL/dv at the pinned initial data.
    x0 = None if xs is None else xs[0]
    boundary_jac = model.grad_velocity_params(spec.position, spec.velocity, th, x0, eps=fd_eps)

    back = integrate_lagrangian_ivp(model, th, end_position, -end_velocity, grid, x_rev,
                                    nudge=Nudge(np.array(signs), cost, y_rev))
    values = {}
    for i, b in enumerate(signs):
        positions, velocities = back.positions[i], back.velocities[i]
        value = trapezoid_contrast(
            bound.grad_params_rows(positions[::-1], -velocities[::-1]), free_params, grid.dt)
        value = value + boundary_jac.T @ (positions[-1] - spec.position)
        values[b] = value / b
    return finish_estimate(values, beta, nudging, EstimatorMethod.PFVP, started)
