"""Hamiltonian echo system: forward phase, momentum-flipped echo, estimator.

The forward phase integrates the free Hamiltonian flow from a (possibly
parameter-dependent) initial state over the horizon.  The echo phase flips
the momentum of the final state and integrates forward again with inputs and
targets read in reversed order and the cost admixed with strength beta.  At
beta = 0 time-reversibility makes the echo retrace the forward pass exactly;
the beta-deviation carries the gradient signal.

Logical time of the forward phase runs over [-horizon, 0] but both phases
are stored on the plain [0, horizon] grid; persisted files disambiguate via
a phase column rather than negative timestamps.  Both phases read the shared
endpoint sample of the input at the turnaround.

The estimator contrasts parameter gradients of the Hamiltonian along the
echo against the forward pass read backwards and, for parameter-dependent
initial states, adds a boundary correction through the block-swap operator
that exchanges position and momentum blocks.  The correction is exact for
initial-state maps whose position block is parameter-independent (the family
produced by matching a Lagrangian boundary condition); it is validated
against finite differences in the tests.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import (
    CostModel,
    EstimatorMethod,
    GradientEstimate,
    HamiltonianModel,
    LagrangianModel,
    NudgeMode,
    ParamVector,
    PhaseState,
    Signal,
    TimeGrid,
    Trajectory,
    as_params,
    central_probes,
    central_quotient,
    check_positive_finite,
    finish_estimates,
    path_cost,
    signed_betas,
)
from .dynamics import Nudge, integrate_hamiltonian, momentum_flip

__all__ = [
    "InitialStateMap",
    "ConstantInitialState",
    "LagrangianInitialState",
    "EchoRun",
    "block_swap",
    "run_echo",
    "retrace_deviation",
    "echo_retrace_check",
    "grad_rhel",
]


def block_swap(phi: np.ndarray) -> np.ndarray:
    """Exchange the position and momentum blocks of a phase vector."""
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[0] // 2
    return np.concatenate([phi[d:], phi[:d]])


class InitialStateMap(ABC):
    """Parametrized initial state of the forward phase.

    ``theta_independent`` declares that the map ignores the parameters, in
    which case the estimator skips the boundary correction entirely.
    """

    theta_independent: bool = False

    @abstractmethod
    def state(self, theta) -> PhaseState:
        ...

    def jacobian(self, theta, eps: float = 1e-5) -> np.ndarray:
        """(2 dim, theta_dim) central-difference Jacobian of the map."""
        probes = central_probes(as_params(theta), eps)
        return central_quotient([self.state(row).as_vector() for row in probes], eps)


class ConstantInitialState(InitialStateMap):
    """Declared parameter-independent initial state."""

    theta_independent = True

    def __init__(self, state: PhaseState):
        self._state = state

    def state(self, theta) -> PhaseState:
        return self._state


class LagrangianInitialState(InitialStateMap):
    """Initial state matched to a Lagrangian boundary condition.

    Position is the fixed initial position; momentum is the source model's
    velocity gradient at the fixed initial data, which is what makes a
    Hamiltonian echo run equivalent to the final-value construction on the
    Lagrangian side.  The map is ``theta_independent`` when the source
    declares ``theta_free_momentum``.
    """

    def __init__(self, source: LagrangianModel, position, velocity, x0=None):
        self._source = source
        self.theta_independent = source.theta_free_momentum
        self._position = np.array(position, dtype=float)
        self._velocity = np.array(velocity, dtype=float)
        self._x0 = None if x0 is None else np.array(x0, dtype=float)

    def state(self, theta) -> PhaseState:
        th = as_params(theta)
        momentum = self._source.grad_velocity(self._position, self._velocity, th, self._x0)
        return PhaseState(self._position, momentum)

    def jacobian(self, theta, eps: float = 1e-5) -> np.ndarray:
        """``[0; d(dL/dv)/d theta]``: the position block is fixed."""
        momentum = self._source.grad_velocity_params(
            self._position, self._velocity, as_params(theta), self._x0, eps=eps)
        d = momentum.shape[0]
        jac = np.zeros((2 * d, momentum.shape[1]))
        jac[d:] = momentum
        return jac


@dataclass(frozen=True)
class EchoRun:
    """Paired forward and echo trajectories of one echo-system execution.

    With a 1-d array ``beta`` the echo is a stack ``(B, n_steps + 1, dim)``,
    one row per strength, each starting at the flipped forward endpoint.
    """

    forward: Trajectory
    echo: Trajectory
    beta: float | np.ndarray

    def __post_init__(self):
        if self.forward.grid != self.echo.grid:
            raise ValueError("forward and echo phases must share one grid")
        if self.forward.kind != "hamiltonian" or self.echo.kind != "hamiltonian":
            raise ValueError("echo runs are phase-space trajectories")
        if self.echo.positions.shape[:-2] != np.shape(self.beta):
            raise ValueError("the echo needs one row per nudging strength")
        start = momentum_flip(self.forward.state(self.forward.grid.n_steps))
        if not (
            np.all(self.echo.positions[..., 0, :] == start.position)
            and np.all(self.echo.momenta[..., 0, :] == start.momentum)
        ):
            raise ValueError("echo phase must start at the momentum-flipped forward endpoint")


def run_echo(
    model: HamiltonianModel,
    cost: CostModel | None,
    theta,
    init: InitialStateMap,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal | None,
    beta,
    scheme: str = "leapfrog",
) -> EchoRun:
    """Run the forward phase, flip its endpoint momentum and run the echo on
    the reversed input and target; ``beta = 0`` gives a pure retrace.

    ``beta`` is one nudging strength, or a 1-d array of them whose echoes
    run from the one forward pass as one lockstep stack, row b bitwise the
    echo of ``beta[b]`` alone.  A nonzero or stacked ``beta`` needs a cost
    and a target.  ``scheme`` is the integrator of both phases.
    """
    if not model.time_reversible:
        raise ValueError("echo runs require a momentum-flip invariant Hamiltonian")
    th = as_params(theta)
    forward = integrate_hamiltonian(model, th, init.state(th), grid, x, scheme=scheme)
    x_rev = x.time_reversed() if x is not None else None
    nudge = None
    if np.ndim(beta) > 0 or beta != 0.0:
        if cost is None or y is None:
            raise ValueError("a nonzero beta requires a cost model and a target signal")
        nudge = Nudge(beta, cost, y.time_reversed())
    echo_start = momentum_flip(forward.state(grid.n_steps))
    echo = integrate_hamiltonian(model, th, echo_start, grid, x_rev, nudge=nudge, scheme=scheme)
    return EchoRun(forward=forward, echo=echo, beta=beta)


def retrace_deviation(run: EchoRun) -> float:
    """Worst deviation of the echo from retracing the forward pass: max
    |difference| over positions and flipped momenta, the echo read back to
    front (every row of a stacked echo)."""
    pos_err = np.abs(run.echo.positions[..., ::-1, :] - run.forward.positions)
    mom_err = np.abs(-run.echo.momenta[..., ::-1, :] - run.forward.momenta)
    return float(max(pos_err.max(), mom_err.max()))


def echo_retrace_check(
    model: HamiltonianModel,
    theta,
    phi0: PhaseState,
    grid: TimeGrid,
    x: Signal | None = None,
    scheme: str = "leapfrog",
) -> float:
    """:func:`retrace_deviation` of the unnudged echo of a forward run from ``phi0``."""
    return retrace_deviation(run_echo(model, None, theta, ConstantInitialState(phi0), grid, x,
                                      None, 0.0, scheme))


def grad_rhel(
    model: HamiltonianModel,
    cost: CostModel,
    theta: ParamVector,
    init: InitialStateMap,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    beta,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
) -> GradientEstimate | tuple[GradientEstimate, ...]:
    """Echo-learning estimator with the parametrized-initial-state correction.

    ``beta`` is one nudging strength, giving one :class:`GradientEstimate`,
    or a 1-d sequence of them, giving a tuple with one estimate per entry;
    every entry is checked before any integration.  One :func:`run_echo`
    call runs the forward pass and the echoes of every signed beta, as one
    lockstep integration.  The boundary correction vanishes identically for
    declared parameter-independent initial states.  ``free_loss`` is the
    cost of the forward pass (of its phase states for a momentum-dependent
    cost).
    """
    started = time.perf_counter()
    th = as_params(theta)
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)
    check_positive_finite(fd_eps, "finite-difference step")

    run = run_echo(model, cost, th, init, grid, x, y, signs)
    forward, echoes, n = run.forward, run.echo, grid.n_steps
    x_rev = x.time_reversed() if x is not None else None
    init_jac = None if init.theta_independent else init.jacobian(th, fd_eps)
    forward_start = forward.state(0).as_vector()
    # The reference is the forward pass read back to front, row k at forward
    # index n - k, in step with the echo and its reversed inputs.
    integrals = model.bind(th, None if x_rev is None else x_rev.values).grad_params_contrast(
        echoes.positions, echoes.momenta, forward.positions[::-1], forward.momenta[::-1],
        grid.dt)
    values = []
    for i, b in enumerate(signs):
        if init_jac is None:
            boundary = 0.0
        else:
            end = np.concatenate([echoes.positions[i, n], echoes.momenta[i, n]])
            boundary = init_jac.T @ block_swap(end - forward_start)
        values.append(-(integrals[i] - boundary) / b)
    states = forward.positions
    if not cost.position_only:
        states = np.concatenate([forward.positions, forward.momenta], axis=1)
    return finish_estimates(values, beta, nudging, EstimatorMethod.RHEL, started,
                            path_cost(cost, states, y, grid.dt))
