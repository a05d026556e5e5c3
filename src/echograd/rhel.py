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
    finish_estimate,
    signed_betas,
    trapezoid_contrast,
)
from .dynamics import Nudge, integrate_hamiltonian, momentum_flip

__all__ = [
    "InitialStateMap",
    "ConstantInitialState",
    "LagrangianInitialState",
    "CallableInitialState",
    "EchoRun",
    "block_swap",
    "run_echo",
    "retrace_deviation",
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
        th = as_params(theta)
        base = self.state(th).as_vector()
        jac = np.empty((base.shape[0], th.shape[0]))
        for j in range(th.shape[0]):
            th_p, th_m = th.copy(), th.copy()
            th_p[j] += eps
            th_m[j] -= eps
            jac[:, j] = (self.state(th_p).as_vector() - self.state(th_m).as_vector()) / (2.0 * eps)
        return jac


class ConstantInitialState(InitialStateMap):
    """Declared parameter-independent initial state."""

    theta_independent = True

    def __init__(self, state: PhaseState):
        self._state = state

    def state(self, theta) -> PhaseState:
        return self._state

    def jacobian(self, theta, eps: float = 1e-5) -> np.ndarray:
        th = as_params(theta)
        return np.zeros((2 * self._state.dim, th.shape[0]))


class LagrangianInitialState(InitialStateMap):
    """Initial state matched to a Lagrangian boundary condition.

    Position is the fixed initial position; momentum is the source model's
    velocity gradient at the fixed initial data, which is what makes a
    Hamiltonian echo run equivalent to the final-value construction on the
    Lagrangian side.
    """

    theta_independent = False

    def __init__(self, source: LagrangianModel, position, velocity, x0=None):
        self._source = source
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
        return np.vstack([np.zeros_like(momentum), momentum])


class CallableInitialState(InitialStateMap):
    """Wrap an arbitrary ``theta -> PhaseState`` callable."""

    def __init__(self, fn, theta_independent: bool = False):
        self._fn = fn
        self.theta_independent = theta_independent

    def state(self, theta) -> PhaseState:
        return self._fn(as_params(theta))


@dataclass(frozen=True)
class EchoRun:
    """Paired forward and echo trajectories of one echo-system execution."""

    forward: Trajectory
    echo: Trajectory
    beta: float

    def __post_init__(self):
        if self.forward.grid != self.echo.grid:
            raise ValueError("forward and echo phases must share one grid")
        if self.forward.kind != "hamiltonian" or self.echo.kind != "hamiltonian":
            raise ValueError("echo runs are phase-space trajectories")
        start = momentum_flip(self.forward.state(self.forward.grid.n_steps))
        if not (
            np.array_equal(self.echo.positions[0], start.position)
            and np.array_equal(self.echo.momenta[0], start.momentum)
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
    beta: float,
) -> EchoRun:
    """Execute forward and echo phases; ``beta = 0`` gives a pure retrace."""
    if not model.time_reversible:
        raise ValueError("echo runs require a momentum-flip invariant Hamiltonian")
    th = as_params(theta)
    forward = integrate_hamiltonian(model, th, init.state(th), grid, x)
    x_rev = x.time_reversed() if x is not None else None
    nudge = None
    if beta != 0.0:
        if cost is None or y is None:
            raise ValueError("a nonzero beta requires a cost model and a target signal")
        nudge = Nudge(beta, cost, y.time_reversed())
    echo_start = momentum_flip(forward.state(grid.n_steps))
    echo = integrate_hamiltonian(model, th, echo_start, grid, x_rev, nudge=nudge)
    return EchoRun(forward=forward, echo=echo, beta=beta)


def retrace_deviation(run: EchoRun) -> float:
    """Worst deviation of the echo from a perfect momentum-flipped retrace."""
    pos_err = np.abs(run.echo.positions[::-1] - run.forward.positions)
    mom_err = np.abs(-run.echo.momenta[::-1] - run.forward.momenta)
    return float(max(pos_err.max(), mom_err.max()))


def grad_rhel(
    model: HamiltonianModel,
    cost: CostModel,
    theta: ParamVector,
    init: InitialStateMap,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    beta: float,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
) -> GradientEstimate:
    """Echo-learning estimator with the parametrized-initial-state correction.

    Both nudging signs reuse one forward pass, and their echoes are one
    lockstep integration.  The boundary correction vanishes identically for
    declared parameter-independent initial states.
    """
    started = time.perf_counter()
    th = as_params(theta)
    nudging = NudgeMode(nudging)
    signs = signed_betas(beta, nudging)
    if not model.time_reversible:
        raise ValueError("echo runs require a momentum-flip invariant Hamiltonian")

    forward = integrate_hamiltonian(model, th, init.state(th), grid, x)
    x_rev = x.time_reversed() if x is not None else None
    y_rev = y.time_reversed()
    n = grid.n_steps

    # Row k is read at forward index n - k, in step with the echo.
    forward_params = model.bind(th, None if x is None else x.values).grad_params_rows(
        forward.positions, forward.momenta)[::-1]
    echo_bound = model.bind(th, None if x_rev is None else x_rev.values)

    init_jac = None if init.theta_independent else init.jacobian(th, fd_eps)
    forward_start = forward.state(0).as_vector()
    echo_start = momentum_flip(forward.state(n))

    echoes = integrate_hamiltonian(model, th, echo_start, grid, x_rev,
                                   nudge=Nudge(np.array(signs), cost, y_rev))
    values = {}
    for i, b in enumerate(signs):
        positions, momenta = echoes.positions[i], echoes.momenta[i]
        integral = trapezoid_contrast(
            echo_bound.grad_params_rows(positions, momenta), forward_params, grid.dt)
        if init_jac is None:
            boundary = 0.0
        else:
            deviation = np.concatenate([positions[n], momenta[n]]) - forward_start
            boundary = init_jac.T @ block_swap(deviation)
        values[b] = -(integral - boundary) / b
    return finish_estimate(values, beta, nudging, EstimatorMethod.RHEL, started)
