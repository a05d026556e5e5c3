"""Time integration of Hamiltonian and Lagrangian systems, plus diagnostics.

The canonical integrator is kick-drift-kick leapfrog (Stoermer-Verlet).  It
is time-symmetric step by step: running the scheme from the momentum-flipped
final state with the input read backwards reproduces the forward states up
to floating-point roundoff, which is exactly what the echo mechanism needs.
A classical rk4 stepper is provided as a deliberately non-symmetric control
and is not permitted for echo-phase runs.

Nudged flows integrate d/dt (s, p) = J dH - beta J dc.  For position-only
costs this is a plain Hamiltonian flow with the potential shifted by
-beta*c, so the nudging force simply joins the kick; the kick at step k uses
the input and target samples at grid point k.  Momentum-dependent costs (and
non-separable Hamiltonians) fall back to the generalised Stoermer-Verlet
step with fixed-point iterations for the implicit half-updates.

Lagrangian initial value problems are integrated by converting to the
Legendre-partner Hamiltonian flow and mapping momenta back to velocities, so
Lagrangian and Hamiltonian runs of partner models follow the identical
arithmetic path.

Runs on one grid and input signal integrate in lockstep: the steppers
advance a ``(B, dim)`` stack of states, one row per run, each row with its
own parameters, initial state and nudging strength.  A single run is the
one-row case of the same loop.  The rows share every Python step while
their arithmetic stays row by row that of a run on its own, so each row
reproduces its unbatched run bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CostModel,
    HamiltonianModel,
    LagrangianModel,
    PhaseState,
    Signal,
    TimeGrid,
    Trajectory,
    as_params,
)
from .errors import ConvergenceError, DivergenceError
from .legendre import forward_legendre, momentum_from_velocity

__all__ = [
    "Nudge",
    "SCHEMES",
    "momentum_flip",
    "integrate_hamiltonian",
    "integrate_lagrangian_ivp",
    "euler_lagrange_residual",
    "echo_retrace_check",
    "hamiltonian_series",
]

SCHEMES = ("leapfrog", "rk4")

_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 50
# Rows the explicit steppers write between finiteness checks.  A diverged
# run is cut at most this many steps after its first non-finite state.
_CHECK_EVERY = 64


@dataclass(frozen=True)
class Nudge:
    """Cost admixture for the integrators: strength, cost model, target signal.

    ``beta`` is one strength, or a 1-d array with one strength per batch row
    of a lockstep run.
    """

    beta: float | np.ndarray
    cost: CostModel
    target: Signal

    def __post_init__(self):
        if np.ndim(self.beta) > 1:
            raise ValueError("nudging strength must be a scalar or one value per batch row")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("nudging strength must be finite")


def momentum_flip(state: PhaseState) -> PhaseState:
    """Negate the momentum, keep the position."""
    return PhaseState(state.position, -state.momentum)


def _check_signal(signal, grid, name):
    if signal is not None and signal.grid != grid:
        raise ValueError(f"{name} signal is not aligned to the integration grid")


def _input_values(model, x, grid):
    if model.input_dim == 0:
        if x is not None and x.dim != 0:
            raise ValueError("model takes no input but an input signal was provided")
        return None
    if x is None:
        raise ValueError("model has input coupling but no input signal was provided")
    if x.dim != model.input_dim:
        raise ValueError(f"input signal dim {x.dim} does not match model input_dim {model.input_dim}")
    _check_signal(x, grid, "input")
    return x.values


def _validate_nudge(nudge, grid):
    if nudge is None or not np.any(nudge.beta):
        return None
    _check_signal(nudge.target, grid, "target")
    return nudge


def _batch_size(*stacks):
    """Rows of a lockstep run: the common length of the stacked arguments
    among ``(value, stacked_ndim)`` pairs, ``None`` when none is stacked."""
    sizes = {len(value) for value, ndim in stacks if np.ndim(value) == ndim}
    if len(sizes) > 1:
        raise ValueError(f"stacked arguments disagree on the number of batch rows: {sorted(sizes)}")
    return sizes.pop() if sizes else None


def integrate_hamiltonian(
    model: HamiltonianModel,
    theta,
    phi0: PhaseState,
    grid: TimeGrid,
    x: Signal | None = None,
    nudge: Nudge | None = None,
    scheme: str = "leapfrog",
) -> Trajectory:
    """Integrate d/dt (s, p) = J dH - beta J dc from ``phi0`` over ``grid``.

    A ``(B, theta_dim)`` parameter stack, a stacked ``phi0`` or one nudging
    strength per row runs B integrations in lockstep, row b from its own
    parameters, initial state and strength (unstacked arguments are shared),
    and returns a trajectory stack ``(B, n_steps + 1, dim)``.  Every row is
    bitwise the run it would be on its own; the rows share the input and
    target signals.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    th = as_params(theta)
    if phi0.dim != model.dim:
        raise ValueError(f"initial state dim {phi0.dim} does not match model dim {model.dim}")
    xs = _input_values(model, x, grid)
    rows = _batch_size((th, 2), (phi0.position, 2), (None if nudge is None else nudge.beta, 1))
    nudge = _validate_nudge(nudge, grid)

    d, n, dt, batch = model.dim, grid.n_steps, grid.dt, rows or 1
    s0 = np.array(np.broadcast_to(phi0.position, (batch, d)))
    p0 = np.array(np.broadcast_to(phi0.momentum, (batch, d)))
    terms = None
    if nudge is not None:
        betas = np.broadcast_to(np.asarray(nudge.beta, dtype=float), (batch,))[:, None]
        ys = nudge.target.values
        terms = (betas, nudge.cost, np.broadcast_to(ys[:, None, :], (n + 1, batch, ys.shape[1])))
    bound = model.bind(th, xs)
    # A diverging run overflows before its check; _check_rows reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "rk4":
            positions, momenta = _rk4(bound, s0, p0, n, dt, terms)
        elif model.separable and (nudge is None or nudge.cost.position_only):
            positions, momenta = _leapfrog_separable(bound, s0, p0, n, dt, terms)
        else:
            positions, momenta = _leapfrog_implicit(bound, s0, p0, n, dt, terms)
    if rows is None:
        positions, momenta = positions[:, 0], momenta[:, 0]
    else:
        positions, momenta = positions.transpose(1, 0, 2), momenta.transpose(1, 0, 2)
    return Trajectory(grid, "hamiltonian", positions, momenta)


# The steppers advance a (B, dim) stack of states and store step k of row b
# at [k, b] of an (n + 1, B, dim) array.  ``nudge`` is None or the triple
# (strengths as a (B, 1) column, cost model, (n + 1, B, target_dim) targets).


def _check_rows(positions, momenta, lo, hi):
    """Raise at the first non-finite state among steps ``lo:hi``, naming the
    first batch row that holds one at that step."""
    finite = np.isfinite(positions[lo:hi]).all(axis=2) & np.isfinite(momenta[lo:hi]).all(axis=2)
    if not finite.all():
        k, b = np.unravel_index(np.argmin(finite), finite.shape)
        k, b = lo + int(k), int(b)
        raise DivergenceError(
            f"integration diverged: non-finite state at step {k} in batch row {b}", step=k, row=b)


def _chunks(n):
    """Step ranges after each of which the explicit steppers check finiteness."""
    return (range(lo, min(lo + _CHECK_EVERY, n)) for lo in range(0, n, _CHECK_EVERY))


def _storage(s, p, n):
    positions = np.empty((n + 1,) + s.shape)
    momenta = np.empty_like(positions)
    positions[0], momenta[0] = s, p
    return positions, momenta


def _leapfrog_separable(bound, s, p, n, dt, nudge):
    """Kick-drift-kick for H = T(p) + V(s, x), nudge folded into the kick."""
    positions, momenta = _storage(s, p, n)
    grad_position, grad_momentum = bound.grad_position, bound.grad_momentum

    if nudge is not None:
        betas, cost, targets = nudge

    def kick_force(state, mom, k):
        f = -grad_position(state, mom, k)
        if nudge is not None:
            f = f + betas * cost.grad_state_rows(state, targets[k])
        return f

    f = kick_force(s, p, 0)
    for steps in _chunks(n):
        for k in steps:
            p_half = p + 0.5 * dt * f
            s = s + dt * grad_momentum(s, p_half, k)
            f = kick_force(s, p_half, k + 1)
            p = p_half + 0.5 * dt * f
            positions[k + 1], momenta[k + 1] = s, p
        _check_rows(positions, momenta, steps.start + 1, steps.stop + 1)
    return positions, momenta


def _leapfrog_implicit(bound, s, p, n, dt, nudge):
    """Generalised Stoermer-Verlet; implicit half-updates by fixed point.

    The rows iterate together, but each row stops at its own fixed-point
    tolerance, so it takes the iterates of its own run.  Finiteness is
    checked after every step: a non-finite state would make the next
    fixed-point solve fail to converge instead of reporting the divergence.
    """
    d = s.shape[1]
    if nudge is not None:
        betas, cost, targets = nudge

    def rates(s, p, k):
        """(ds/dt, dp/dt) of the nudged flow at sample k."""
        ds = bound.grad_momentum(s, p, k)
        dp = -bound.grad_position(s, p, k)
        if nudge is not None:
            g = cost.grad_state_rows(np.concatenate([s, p], axis=1), targets[k])
            ds = ds - betas * g[:, d:]
            dp = dp + betas * g[:, :d]
        return ds, dp

    def fixed_point(update, start, what):
        value = start
        done = np.zeros(value.shape[0], dtype=bool)
        for _ in range(_FIXED_POINT_MAX_ITER):
            new = update(value)
            close = (np.max(np.abs(new - value), axis=1)
                     <= _FIXED_POINT_TOL * (1.0 + np.max(np.abs(new), axis=1)))
            value = np.where(done[:, None], value, new)
            done |= close
            if done.all():
                return value
        raise ConvergenceError(f"implicit leapfrog {what} update did not converge "
                               f"in batch row {int(np.argmin(done))}")

    positions, momenta = _storage(s, p, n)
    for k in range(n):
        s_k = s
        p_half = fixed_point(lambda q: p + 0.5 * dt * rates(s_k, q, k)[1], p, "momentum")
        ds0 = rates(s_k, p_half, k)[0]
        s = fixed_point(
            lambda q: s_k + 0.5 * dt * (ds0 + rates(q, p_half, k + 1)[0]),
            s_k + dt * ds0,
            "position",
        )
        p = p_half + 0.5 * dt * rates(s, p_half, k + 1)[1]
        positions[k + 1], momenta[k + 1] = s, p
        _check_rows(positions, momenta, k + 1, k + 2)
    return positions, momenta


def _rk4(bound, s, p, n, dt, nudge):
    """Classical rk4 with zero-order-hold inputs over each step.

    Not time-symmetric; exists as the negative control for retrace tests.
    """
    d = s.shape[1]
    if nudge is not None:
        betas, cost, targets = nudge

    def field(s, p, k):
        ds = bound.grad_momentum(s, p, k)
        dp = -bound.grad_position(s, p, k)
        if nudge is not None:
            if cost.position_only:
                dp = dp + betas * cost.grad_state_rows(s, targets[k])
            else:
                g = cost.grad_state_rows(np.concatenate([s, p], axis=1), targets[k])
                ds = ds - betas * g[:, d:]
                dp = dp + betas * g[:, :d]
        return ds, dp

    positions, momenta = _storage(s, p, n)
    for steps in _chunks(n):
        for k in steps:
            k1s, k1p = field(s, p, k)
            k2s, k2p = field(s + 0.5 * dt * k1s, p + 0.5 * dt * k1p, k)
            k3s, k3p = field(s + 0.5 * dt * k2s, p + 0.5 * dt * k2p, k)
            k4s, k4p = field(s + dt * k3s, p + dt * k3p, k)
            s = s + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            positions[k + 1], momenta[k + 1] = s, p
        _check_rows(positions, momenta, steps.start + 1, steps.stop + 1)
    return positions, momenta


def integrate_lagrangian_ivp(
    model: LagrangianModel,
    theta,
    position,
    velocity,
    grid: TimeGrid,
    x: Signal | None = None,
    nudge: Nudge | None = None,
    scheme: str = "leapfrog",
) -> Trajectory:
    """Integrate the Euler-Lagrange flow from fixed initial position/velocity.

    Runs the Legendre-partner Hamiltonian flow and maps momenta back, so the
    position sequence is arithmetic-identical to a partner Hamiltonian run.
    A parameter stack, ``(B, dim)`` initial data or one nudging strength per
    row runs B integrations in lockstep, as for :func:`integrate_hamiltonian`.
    """
    if nudge is not None and np.any(nudge.beta) and not nudge.cost.position_only:
        raise ValueError("Lagrangian nudging requires a position-only cost")
    th = as_params(theta)
    position = np.asarray(position, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    partner = forward_legendre(model)
    x0 = x.value(0) if x is not None and model.input_dim > 0 else None
    rows = _batch_size((th, 2), (position, 2), (velocity, 2))
    if rows is None:
        p0 = momentum_from_velocity(model, position, velocity, th, x0)
    else:
        position = np.broadcast_to(position, (rows, model.dim))
        p0 = [momentum_from_velocity(model, s, v, t, x0) for s, v, t in zip(
            position, np.broadcast_to(velocity, (rows, model.dim)),
            np.broadcast_to(th, (rows, th.shape[-1])))]
    traj = integrate_hamiltonian(partner, th, PhaseState(position, p0), grid, x, nudge, scheme)
    bound = model.bind(th, _input_values(model, x, grid))
    velocities = bound.velocity_rows(traj.positions, traj.momenta)
    return Trajectory(grid, "lagrangian", traj.positions, velocities)


def euler_lagrange_residual(
    model: LagrangianModel,
    traj: Trajectory,
    theta,
    x: Signal | None = None,
    beta: float = 0.0,
    cost: CostModel | None = None,
    target: Signal | None = None,
) -> Signal:
    """Pointwise Euler-Lagrange defect of a stored trajectory.

    At every interior grid point this evaluates the configuration gradient of
    the (optionally nudged) Lagrangian minus the centered-difference time
    derivative of its velocity gradient.  Boundary points are excluded.  For
    a well-integrated trajectory the result shrinks as O(dt^2); a corrupted
    state shows up as a large defect at its neighbours.
    """
    if traj.kind != "lagrangian":
        raise ValueError("euler_lagrange_residual expects a lagrangian-view trajectory")
    if traj.n_points < 4:
        raise ValueError("trajectory is too short for an interior residual (need >= 4 points)")
    if beta != 0.0 and (cost is None or target is None):
        raise ValueError("a nonzero beta requires a cost model and a target signal")
    if beta != 0.0 and not cost.position_only:
        raise ValueError("Lagrangian nudging requires a position-only cost")
    th = as_params(theta)
    grid = traj.grid
    xs = _input_values(model, x, grid)
    _check_signal(target, grid, "target")

    n = grid.n_steps
    pos, vel = traj.positions, traj.velocities
    bound = model.bind(th, xs)

    grad_v = bound.grad_velocity_rows(pos, vel, slice(None))
    el = bound.grad_position_rows(pos[1:-1], vel[1:-1], slice(1, n))
    if beta != 0.0:
        el = el + beta * cost.grad_state_rows(pos[1:-1], target.values[1:-1])
    residual = el - (grad_v[2:] - grad_v[:-2]) / (2.0 * grid.dt)

    interior = TimeGrid(dt=grid.dt, n_steps=n - 2, t_start=grid.t_start + grid.dt)
    return Signal(interior, residual)


def echo_retrace_check(
    model: HamiltonianModel,
    theta,
    phi0: PhaseState,
    grid: TimeGrid,
    x: Signal | None = None,
    scheme: str = "leapfrog",
) -> float:
    """Forward-integrate, momentum-flip, re-integrate on reversed input,
    momentum-flip again, and return the worst deviation from the forward run.
    """
    forward = integrate_hamiltonian(model, theta, phi0, grid, x, scheme=scheme)
    flipped = momentum_flip(forward.state(grid.n_steps))
    x_rev = x.time_reversed() if x is not None else None
    back = integrate_hamiltonian(model, theta, flipped, grid, x_rev, scheme=scheme)
    pos_err = np.abs(back.positions[::-1] - forward.positions)
    mom_err = np.abs(-back.momenta[::-1] - forward.momenta)
    return float(max(pos_err.max(), mom_err.max()))


def hamiltonian_series(model: HamiltonianModel, traj: Trajectory, theta,
                       x: Signal | None = None) -> np.ndarray:
    """Hamiltonian evaluated at every stored state (energy-drift diagnostics)."""
    th = as_params(theta)
    xs = _input_values(model, x, traj.grid)
    values = np.empty(traj.n_points)
    for k in range(traj.n_points):
        xk = None if xs is None else xs[k]
        values[k] = model.hamiltonian(traj.positions[k], traj.momenta[k], th, xk)
    return values
