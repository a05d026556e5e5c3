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
  all run in lockstep with the free and the nudged runs.  This is
  deliberately impractical beyond a handful of parameters and is guarded
  accordingly; the estimator exists to validate the formula.
- Fixed endpoint positions ("CBVP"): no residual terms at all, but the
  trajectories come from a two-point boundary value problem.  Its interior
  positions solve the discrete Euler-Lagrange equations of a midpoint
  action with pinned endpoints, by damped Newton iteration on their
  block-tridiagonal system.
- Final state pinned to the free trajectory's endpoint ("PFVP"): requires a
  velocity-even Lagrangian.  The nudged solution is produced by forward
  integration from the velocity-reversed free endpoint with time-reversed
  inputs; a single residual term survives at the initial time and needs
  only parameter derivatives of the velocity gradient at the fixed initial
  condition, no re-integration.

Symmetric nudging averages the estimator at +beta and -beta.  Each
estimator takes one beta or a list of them.  A list is estimated in one
pass: the free run is solved once and, for the initial-value estimators,
every signed beta is a row of one lockstep nudged run (for CIVP, of the
same lockstep run as the free run and its probes).

Given a ``(B, P)`` stack ``loss_thetas``, ``grad_civp`` and ``grad_pfvp``
also return the free-run losses at those parameter rows, run as rows of the
estimator's first lockstep (CIVP's single run, PFVP's free run): a gradient
check's oracle probes ride there instead of running a lockstep of their own.
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
    central_probes,
    central_quotient,
    check_positive_finite,
    check_target,
    finish_estimates,
    free_losses,
    frozen_array,
    loss_rows,
    path_cost,
    signed_betas,
)
from .dynamics import Nudge, integrate_lagrangian_ivp
from .errors import ConvergenceError, DivergenceError, SingularHessianError

__all__ = [
    "CivpSpec",
    "CbvpSpec",
    "PfvpSpec",
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


# stays while perfbench's echo-wide workload builds it, until ROADMAP item 1 switches it
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
    beta,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
    loss_thetas=None,
):
    """Constant-initial-value estimator with its two final-time residuals.

    ``beta`` is one nudging strength, giving one :class:`GradientEstimate`,
    or a 1-d sequence of them, giving a tuple with one estimate per entry;
    every entry is checked before any integration.  The residual terms need
    parameter Jacobians of the final state, obtained by central differencing
    over theta with one free re-integration per parameter per side, so the
    parameter count is capped by ``CIVP_THETA_LIMIT``.  The free run, the
    probes and the nudged runs of every signed beta are one lockstep
    integration per call.

    Given a ``(B, P)`` stack ``loss_thetas``, the call returns
    ``(estimates, losses)``, the free-run losses
    (:func:`~echograd.core.free_losses`) at those rows, whose free runs join
    the lockstep after the probes, each bitwise the run it would be on its
    own.  Any other shape raises ``ValueError`` before any integration.
    """
    started = time.perf_counter()
    th = as_params(theta)
    if th.shape[0] > CIVP_THETA_LIMIT:
        raise ValueError(
            f"CIVP probes re-integrate per parameter; {th.shape[0]} parameters exceed "
            f"the guard of {CIVP_THETA_LIMIT}"
        )
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)
    rows = loss_rows(loss_thetas, th.shape[0])

    xs = x.values if x is not None else None
    x_end = None if xs is None else xs[-1]
    # One lockstep run.  Row 0 is the free run, rows 1 to 2P the free runs
    # at the central-difference probes of theta, and the loss rows follow.
    # These rows are at beta = 0, so each is bitwise its free run on its own.
    # The last rows are the nudged runs, one per signed beta.
    thetas = np.concatenate([th[None, :], central_probes(th, fd_eps), rows])
    n_own, n_free = 1 + 2 * th.shape[0], thetas.shape[0]
    runs = integrate_lagrangian_ivp(
        model, np.concatenate([thetas, np.broadcast_to(th, (len(signs), th.shape[0]))]),
        spec.position, spec.velocity, grid, x,
        nudge=Nudge(np.concatenate([np.zeros(n_free), signs]), cost, y))
    free_positions, free_velocities = runs.positions[0], runs.velocities[0]
    gv_free_end = np.asarray(
        model.grad_velocity(free_positions[-1], free_velocities[-1], th, x_end), dtype=float
    )

    s_ends, v_ends = runs.positions[1:n_own, -1], runs.velocities[1:n_own, -1]
    # d s_T / d theta, and d/d theta of dL/dv at the free endpoint
    d_state = central_quotient(s_ends, fd_eps)
    d_gradv = central_quotient(
        [model.grad_velocity(s, v, t, x_end) for s, v, t in zip(s_ends, v_ends, thetas[1:n_own])],
        fd_eps)

    nudged_positions, nudged_velocities = runs.positions[n_free:], runs.velocities[n_free:]
    contrasts = model.bind(th, xs).grad_params_contrast(
        nudged_positions, nudged_velocities, free_positions, free_velocities, grid.dt)
    values = []
    for i, b in enumerate(signs):
        positions, velocities = nudged_positions[i], nudged_velocities[i]
        gv_nudged_end = np.asarray(
            model.grad_velocity(positions[-1], velocities[-1], th, x_end), dtype=float
        )
        # may overflow, as the contrast may: finish_estimates reports it
        with np.errstate(over="ignore", invalid="ignore"):
            value = contrasts[i] + d_state.T @ (gv_nudged_end - gv_free_end)
            value = value - d_gradv.T @ (positions[-1] - free_positions[-1])
        values.append(value / b)
    estimates = finish_estimates(values, beta, nudging, EstimatorMethod.CIVP, started,
                                 path_cost(cost, free_positions, y, grid.dt))
    if loss_thetas is None:
        return estimates
    return estimates, free_losses(cost, runs.positions[n_own:n_free], y, grid.dt)


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


def _solve_blocks(blocks, rhs, points):
    """Batched ``np.linalg.solve``; a singular block raises
    ``SingularHessianError`` naming its interior grid point in ``points``."""
    try:
        return np.linalg.solve(blocks, rhs)
    except np.linalg.LinAlgError as exc:
        point = points[np.argmin(np.abs(np.linalg.slogdet(blocks).sign))]
        raise SingularHessianError(
            f"singular defect Jacobian block at interior point {point}") from exc


def _cyclic_reduction(diag, upper, lower, rhs, points):
    """Solve the block-tridiagonal system with ``(m, d, d)`` blocks for the
    ``(m, d, c)`` right-hand side by block cyclic reduction (Buzbee, Golub &
    Nielson 1970); ``lower[0]`` and ``upper[-1]`` are unused, and ``points``
    are the rows' interior grid points.  One batched solve by the odd rows'
    diagonal blocks eliminates those rows and leaves a block-tridiagonal
    system of the even rows, so any ``m`` takes ceil(log2 m) + 1 levels.
    """
    m, d = rhs.shape[:2]
    if m == 1:
        return _solve_blocks(diag, rhs, points)
    # D^-1 [L, U, r] of every odd row
    solved = _solve_blocks(diag[1::2], np.concatenate([lower[1::2], upper[1::2], rhs[1::2]], 2),
                           points[1::2])
    # even row 2j has odd row j - 1 on its left (j >= 1) and odd row j on its
    # right (2j + 1 < m); substituting both leaves the even rows coupled to
    # their even neighbours only.  k odd rows have an even row on each side.
    n_odd, k = m // 2, (m - 1) // 2
    from_left, from_right = lower[2::2] @ solved[:k], upper[0:2 * n_odd:2] @ solved
    diag_e, rhs_e = diag[0::2].copy(), rhs[0::2].copy()
    lower_e, upper_e = np.zeros_like(diag_e), np.zeros_like(diag_e)
    diag_e[1:] -= from_left[..., d:2 * d]
    diag_e[:n_odd] -= from_right[..., :d]
    rhs_e[1:] -= from_left[..., 2 * d:]
    rhs_e[:n_odd] -= from_right[..., 2 * d:]
    lower_e[1:] = -from_left[..., :d]
    upper_e[:n_odd] = -from_right[..., d:2 * d]
    solution = np.empty_like(rhs)
    solution[0::2] = _cyclic_reduction(diag_e, upper_e, lower_e, rhs_e, points[0::2])
    # back substitution: x_j = D_j^-1 (r_j - L_j x_{j-1} - U_j x_{j+1})
    odd = solved[..., 2 * d:] - solved[..., :d] @ solution[0:2 * n_odd:2]
    odd[:k] -= solved[:k, :, d:2 * d] @ solution[2::2]
    solution[1::2] = odd
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
    tol: float = 1e-10,
    initial_guess: np.ndarray | None = None,
) -> CbvpResult:
    """Solve the discrete Euler-Lagrange equations with both endpoint positions pinned.

    The interior positions zero the discrete Euler-Lagrange defect of the
    midpoint action (compact second-difference stencil) while the endpoint
    positions stay pinned.  Damped Newton iteration solves it from the
    straight line between the endpoints, or from ``initial_guess``: the
    block-tridiagonal defect Jacobian comes from coloured central
    differences and block cyclic reduction, and each step is halved until
    the worst defect falls.  The first increment within ``tol (1 + max|s|)``
    is applied in full and ends the solve (Deuflhard 2004): unlike the
    defect, whose roundoff floor near eps max|s| / dt^2 can exceed ``tol``
    on a fine grid, it is in position units.  ``iterations`` counts the
    steps before it.  Newton does not need the horizon to lie below a
    conjugate point; past a fold of the solution branch it stalls.

    Raises ``ValueError`` unless ``tol`` is positive and finite and a
    nudge's target has the cost's width, ``DivergenceError`` for a
    non-finite defect at the start, ``SingularHessianError`` naming the
    interior grid point of a singular Jacobian block at any level of the
    reduction, and ``ConvergenceError`` when no halving of a step lowers
    the worst defect (a non-finite step included) or after
    ``NEWTON_MAX_ITER`` steps.  No floating point warning escapes.
    """
    th = as_params(theta)
    check_positive_finite(tol, "boundary value tolerance")
    if beta != 0.0:
        if cost is None or target is None:
            raise ValueError("a nonzero beta requires a cost model and a target signal")
        check_target(cost, target)
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
        flux = bound.grad_velocity(half_mid, half_v, slice(0, n))
        centered_v = (s[2:] - s[:-2]) / (2.0 * dt)
        el = bound.grad_position(s[1:-1], centered_v, slice(1, n))
        if beta != 0.0:
            el = el + beta * cost.grad_state_rows(s[1:-1], ys_interior)
        return el - (flux[1:] - flux[:-1]) / dt

    points = np.arange(1, n)
    with np.errstate(over="ignore", invalid="ignore"):
        el = defect(states)
        if not np.all(np.isfinite(el)):
            raise DivergenceError("boundary value defect is non-finite at the initial guess",
                                  step=0)
        residual = float(np.max(np.abs(el)))
        iterations = 0
        while True:
            scale = 1.0 + float(np.max(np.abs(states)))
            blocks = _defect_jacobian(defect, states, _JACOBIAN_STEP * scale)
            step = _cyclic_reduction(*blocks, el[..., None], points)[..., 0]
            if float(np.max(np.abs(step))) <= tol * scale:
                states[1:-1] -= step
                residual = float(np.max(np.abs(defect(states))))
                break
            if iterations >= NEWTON_MAX_ITER:
                raise ConvergenceError(
                    f"boundary value Newton solve did not reach tol={tol} within "
                    f"{NEWTON_MAX_ITER} iterations (residual {residual:.3e})"
                )
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
                    f"(tol={tol}) after {iterations} iterations"
                )
            states, el, residual = trial, trial_el, trial_residual
            iterations += 1

    # central differences inside, second-order one-sided ones at the ends
    velocities = np.gradient(states, dt, axis=0, edge_order=2)
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
    beta,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    tol: float = 1e-10,
) -> GradientEstimate | tuple[GradientEstimate, ...]:
    """Constant-boundary-value estimator: the pure integral, no residuals.

    ``beta`` is one nudging strength or a 1-d sequence of them, as for
    :func:`grad_civp`.  The free boundary value problem is solved once per
    call; each signed beta is its own nudged solve, warm-started from the
    free positions.  Every solve runs to ``tol`` (:func:`solve_cbvp`).
    """
    started = time.perf_counter()
    th = as_params(theta)
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)
    xs = x.values if x is not None else None

    free = solve_cbvp(model, th, spec, grid, x, tol=tol).trajectory
    nudged = [solve_cbvp(model, th, spec, grid, x, cost=cost, target=y, beta=b, tol=tol,
                         initial_guess=free.positions).trajectory for b in signs]
    contrasts = model.bind(th, xs).grad_params_contrast(
        np.stack([run.positions for run in nudged]), np.stack([run.velocities for run in nudged]),
        free.positions, free.velocities, grid.dt)
    values = [contrast / b for contrast, b in zip(contrasts, signs)]
    return finish_estimates(values, beta, nudging, EstimatorMethod.CBVP, started,
                            path_cost(cost, free.positions, y, grid.dt))


def grad_pfvp(
    model: LagrangianModel,
    cost: CostModel,
    theta: ParamVector,
    spec: CivpSpec,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    beta,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
    loss_thetas=None,
):
    """Parametric-final-value estimator for reversible systems.

    ``beta`` is one nudging strength or a 1-d sequence of them, as for
    :func:`grad_civp`.  Free phase: integrate from the fixed initial data,
    once per call.  Nudged phase: integrate the cost-augmented flow forward
    from the velocity-reversed free endpoint with time-reversed inputs;
    reversibility makes the result the time-reversed nudged solution that
    terminates at the free endpoint.  The nudged runs of every signed beta
    are one lockstep integration.
    One boundary term survives, built from the parameter derivative of the
    velocity gradient at the fixed initial data
    (``model.grad_velocity_params``, no re-integration); it is skipped for
    a model that declares ``theta_free_momentum``.
    ``loss_thetas`` is taken as by :func:`grad_civp`, its rows joining the
    free run.
    """
    started = time.perf_counter()
    th = as_params(theta)
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)
    check_positive_finite(fd_eps, "finite-difference step")
    if not model.reversible:
        raise ValueError("the final-value construction requires a velocity-even model")

    # row 0 is the free run, the loss rows follow
    free_runs = integrate_lagrangian_ivp(
        model, np.concatenate([th[None, :], loss_rows(loss_thetas, th.shape[0])]),
        spec.position, spec.velocity, grid, x)
    free_positions, free_velocities = free_runs.positions[0], free_runs.velocities[0]
    xs = x.values if x is not None else None

    x_rev = x.time_reversed() if x is not None else None
    y_rev = y.time_reversed()

    # d/d theta of dL/dv at the pinned initial data, zero for a model that
    # declares it so.
    boundary_jac = None
    if not model.theta_free_momentum:
        x0 = None if xs is None else xs[0]
        boundary_jac = model.grad_velocity_params(spec.position, spec.velocity, th, x0,
                                                  eps=fd_eps)

    back = integrate_lagrangian_ivp(model, th, free_positions[-1], -free_velocities[-1], grid,
                                    x_rev, nudge=Nudge(signs, cost, y_rev))
    # Each nudged run read back to front, with its velocities reversed.
    contrasts = model.bind(th, xs).grad_params_contrast(
        back.positions[:, ::-1], -back.velocities[:, ::-1], free_positions, free_velocities,
        grid.dt)
    values = []
    for i, b in enumerate(signs):
        value = contrasts[i]
        if boundary_jac is not None:
            value = value + boundary_jac.T @ (back.positions[i, -1] - spec.position)
        values.append(value / b)
    estimates = finish_estimates(values, beta, nudging, EstimatorMethod.PFVP, started,
                                 path_cost(cost, free_positions, y, grid.dt))
    if loss_thetas is None:
        return estimates
    return estimates, free_losses(cost, free_runs.positions[1:], y, grid.dt)
