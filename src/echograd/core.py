"""Domain types and model contracts.

Conventions used throughout the package:

- All numerical state is float64.  A configuration-space state ``s`` and a
  velocity ``v`` (or momentum ``p``) are 1-d arrays of length ``dim``; a
  phase-space state concatenates them as ``(s, p)``.
- Signals and trajectories live on a uniform :class:`TimeGrid` and store one
  sample per grid point, ``n_steps + 1`` in total.  No interpolation happens
  anywhere: integrators and estimators consume grid-aligned samples only,
  which keeps forward/reversed index arithmetic exact.
- All container types are immutable after construction (arrays are copied and
  write-locked), so instances are safe to share across threads.
- Models are evaluated point by point (``x`` is one input sample) or, inside
  a solve, through a binding: ``model.bind(theta, xs)`` fixes the parameters
  and the input samples of a grid (one row per point) and takes the grid
  index ``k`` in place of ``x``.  The default binding calls the per-point
  methods with ``xs[k]``; a model overrides ``bind`` to do parameter-only
  work once per solve and to evaluate whole trajectories in one call.
- Runs that share a grid and an input signal integrate in lockstep along a
  leading batch axis: a state stack is ``(B, dim)``, a parameter stack
  ``(B, theta_dim)`` and a trajectory stack ``(B, n_steps + 1, dim)``.  Row
  ``b`` of every stack belongs to run ``b``; an unstacked argument is shared
  by every row.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

__all__ = [
    "TimeGrid",
    "Signal",
    "ParamVector",
    "PhaseState",
    "Trajectory",
    "EstimatorMethod",
    "NudgeMode",
    "GradientEstimate",
    "signed_betas",
    "finish_estimate",
    "LagrangianModel",
    "HamiltonianModel",
    "BoundLagrangian",
    "BoundHamiltonian",
    "CostModel",
    "trapezoid",
    "trapezoid_contrast",
    "frozen_array",
]


def frozen_array(values, name: str = "array", ndim: int | None = None) -> np.ndarray:
    """Copy ``values`` into a float64 array and lock it against writes."""
    arr = np.array(values, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def trapezoid(values: np.ndarray, dt: float) -> np.ndarray | float:
    """Trapezoid-rule integral of per-grid-point samples.

    ``values`` has one row per grid point; vector-valued integrands are
    integrated componentwise.  The summation order is fixed so repeated runs
    are bitwise reproducible.
    """
    values = np.asarray(values, dtype=float)
    total = values.sum(axis=0) - 0.5 * (values[0] + values[-1])
    return dt * total


def trapezoid_contrast(rows: np.ndarray, reference: np.ndarray, dt: float) -> np.ndarray:
    """``trapezoid(rows - reference, dt)``, subtracting in place in ``rows``.

    Pass a fresh array as ``rows``: it is overwritten, and no third
    trajectory-sized array is allocated.
    """
    rows -= reference
    return trapezoid(rows, dt)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with ``n_steps`` intervals of width ``dt``.

    Grid point ``k`` maps to time ``t_start + k * dt`` for ``k`` in
    ``[0, n_steps]``, so the horizon is ``n_steps * dt``.
    """

    dt: float
    n_steps: int
    t_start: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        if not np.isfinite(self.t_start):
            raise ValueError("t_start must be finite")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def t_end(self) -> float:
        return self.t_start + self.horizon

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_points)

    def refined(self, factor: int = 2) -> "TimeGrid":
        """Same horizon with ``factor`` times more steps (for step-size studies)."""
        return TimeGrid(dt=self.dt / factor, n_steps=self.n_steps * factor, t_start=self.t_start)


@dataclass(frozen=True)
class Signal:
    """Vector-valued samples on a :class:`TimeGrid`, one row per grid point.

    Supports exact time-reversed read-out: ``reversed_value(k)`` returns the
    sample at index ``n_steps - k``, and :meth:`time_reversed` materialises
    the reversed signal on the same grid.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] != self.grid.n_points:
            raise ValueError(
                f"signal needs {self.grid.n_points} rows, got array of shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value(self, k: int) -> np.ndarray:
        return self.values[k]

    def reversed_value(self, k: int) -> np.ndarray:
        return self.values[self.grid.n_steps - k]

    def time_reversed(self) -> "Signal":
        return Signal(self.grid, self.values[::-1])

    @classmethod
    def zeros(cls, grid: TimeGrid, dim: int) -> "Signal":
        return cls(grid, np.zeros((grid.n_points, dim)))

    @classmethod
    def constant(cls, grid: TimeGrid, value) -> "Signal":
        row = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(row, (grid.n_points, 1)))

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "Signal":
        """Sample ``fn(t) -> vector`` at every grid time."""
        rows = [np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in grid.times()]
        return cls(grid, np.stack(rows))


@dataclass(frozen=True)
class ParamVector:
    """Flat vector of learnable parameters."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, "parameters", ndim=1))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def perturbed(self, index: int, delta: float) -> "ParamVector":
        """Copy with entry ``index`` shifted by ``delta`` (finite-difference probes)."""
        values = self.values.copy()
        values[index] += delta
        return ParamVector(values)

    def shifted(self, delta: np.ndarray) -> "ParamVector":
        return ParamVector(self.values + np.asarray(delta, dtype=float))


@dataclass(frozen=True)
class PhaseState:
    """Position/momentum pair; the concatenation is the full phase vector.

    Both are ``(dim,)`` vectors, or ``(B, dim)`` stacks holding one state per
    batch row.
    """

    position: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        pos = frozen_array(self.position, "position")
        mom = frozen_array(self.momentum, "momentum")
        if pos.ndim not in (1, 2):
            raise ValueError(f"position must be a vector or a stack of vectors, got {pos.shape}")
        if pos.shape != mom.shape:
            raise ValueError(
                f"position and momentum must share a dimension, got {pos.shape} vs {mom.shape}"
            )
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "momentum", mom)

    @property
    def dim(self) -> int:
        return self.position.shape[-1]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.momentum], axis=-1)

    @classmethod
    def from_vector(cls, phi: np.ndarray) -> "PhaseState":
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 1 or phi.shape[0] % 2 != 0:
            raise ValueError(f"phase vector must be 1-d of even length, got shape {phi.shape}")
        d = phi.shape[0] // 2
        return cls(phi[:d], phi[d:])


_TRAJECTORY_KINDS = ("hamiltonian", "lagrangian")


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states on a grid.

    ``conjugate`` holds momenta for the ``"hamiltonian"`` kind and velocities
    for the ``"lagrangian"`` kind; use the :attr:`momenta` / :attr:`velocities`
    accessors, which enforce the kind.  Arrays are ``(n_points, dim)``, or
    ``(B, n_points, dim)`` for the runs of one lockstep integration.
    """

    grid: TimeGrid
    kind: str
    positions: np.ndarray
    conjugate: np.ndarray

    def __post_init__(self):
        if self.kind not in _TRAJECTORY_KINDS:
            raise ValueError(f"kind must be one of {_TRAJECTORY_KINDS}, got {self.kind!r}")
        pos = frozen_array(self.positions, "positions")
        con = frozen_array(self.conjugate, "conjugate")
        if pos.ndim not in (2, 3):
            raise ValueError(f"positions must be 2- or 3-dimensional, got shape {pos.shape}")
        if pos.shape != con.shape:
            raise ValueError("positions and conjugate arrays must have equal shapes")
        if pos.shape[-2] != self.grid.n_points:
            raise ValueError(
                f"trajectory needs {self.grid.n_points} states, got {pos.shape[-2]}"
            )
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "conjugate", con)

    @property
    def dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def n_points(self) -> int:
        return self.positions.shape[-2]

    @property
    def momenta(self) -> np.ndarray:
        if self.kind != "hamiltonian":
            raise ValueError("momenta are only defined for hamiltonian trajectories")
        return self.conjugate

    @property
    def velocities(self) -> np.ndarray:
        if self.kind != "lagrangian":
            raise ValueError("velocities are only defined for lagrangian trajectories")
        return self.conjugate

    def state(self, k: int) -> PhaseState:
        if self.kind != "hamiltonian":
            raise ValueError("phase states are only defined for hamiltonian trajectories")
        return PhaseState(self.positions[..., k, :], self.conjugate[..., k, :])


class EstimatorMethod(str, Enum):
    STATIC_EP = "static_ep"
    CIVP = "civp"
    CBVP = "cbvp"
    PFVP = "pfvp"
    RHEL = "rhel"
    FD_ORACLE = "fd_oracle"


class NudgeMode(str, Enum):
    ONE_SIDED = "one_sided"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class GradientEstimate:
    """A parameter-shaped gradient plus estimator metadata.

    ``beta`` must be nonzero for every contrastive method; the finite
    difference oracle records ``beta = 0``.
    """

    value: np.ndarray
    method: EstimatorMethod
    beta: float
    nudging: NudgeMode = NudgeMode.SYMMETRIC
    wall_time: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", frozen_array(self.value, "gradient", ndim=1))
        object.__setattr__(self, "method", EstimatorMethod(self.method))
        object.__setattr__(self, "nudging", NudgeMode(self.nudging))
        if self.method is not EstimatorMethod.FD_ORACLE and self.beta == 0.0:
            raise ValueError(f"method {self.method.value} requires a nonzero beta")
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")

    @property
    def dim(self) -> int:
        return self.value.shape[0]

    def as_dict(self) -> dict:
        out = {
            "method": self.method.value,
            "beta": self.beta,
            "nudging": self.nudging.value,
            "value": [float(v) for v in self.value],
        }
        if self.wall_time is not None:
            out["wall_time_seconds"] = self.wall_time
        return out


def signed_betas(beta: float, nudging: NudgeMode) -> tuple:
    """The nudging strengths one estimate runs: ``(beta, -beta)`` or ``(beta,)``."""
    if beta == 0.0:
        raise ValueError("nudging strength beta must be nonzero")
    return (beta, -beta) if nudging is NudgeMode.SYMMETRIC else (beta,)


def finish_estimate(values, beta, nudging, method, started) -> GradientEstimate:
    """The estimate from per-sign ``values``, timed since ``started`` (perf_counter)."""
    if nudging is NudgeMode.SYMMETRIC:
        value = 0.5 * (values[beta] + values[-beta])
    else:
        value = values[beta]
    return GradientEstimate(value=value, method=method, beta=beta, nudging=nudging,
                            wall_time=time.perf_counter() - started)


class LagrangianModel(ABC):
    """Mechanics contract in configuration space.

    Implementations provide the scalar function and hand-coded partials with
    respect to position, velocity, and parameters, plus the velocity Hessian
    used by momentum conversion.  ``x`` is the instantaneous external input
    (``None`` when ``input_dim == 0``).

    Two methods have defaults a model may override: ``grad_velocity_params``
    (a central difference of ``grad_velocity``) and ``bind``, which returns
    a :class:`BoundLagrangian` that calls the per-point methods.  An override
    of ``bind`` must agree with the per-point methods.

    Attributes:
        dim: state dimension.
        theta_dim: parameter dimension.
        input_dim: external input dimension (0 for autonomous models).
        reversible: the function is even in the velocity argument.
        quadratic_kinetic: the velocity Hessian is constant, so momentum
            conversion has a closed form.
    """

    dim: int
    theta_dim: int
    input_dim: int
    reversible: bool
    quadratic_kinetic: bool

    @abstractmethod
    def lagrangian(self, s, v, theta, x=None) -> float:
        ...

    @abstractmethod
    def grad_position(self, s, v, theta, x=None) -> np.ndarray:
        ...

    @abstractmethod
    def grad_velocity(self, s, v, theta, x=None) -> np.ndarray:
        ...

    @abstractmethod
    def grad_params(self, s, v, theta, x=None) -> np.ndarray:
        ...

    @abstractmethod
    def velocity_hessian(self, s, v, theta, x=None) -> np.ndarray:
        ...

    def grad_velocity_params(self, s, v, theta, x=None, eps: float = 1e-5) -> np.ndarray:
        """(dim, theta_dim) parameter Jacobian of dL/dv at one point.

        The default is a central difference with step ``eps``; models whose
        velocity gradient does not depend on the parameters return zeros.
        """
        th = as_params(theta)
        jac = np.empty((self.dim, th.shape[0]))
        for j in range(th.shape[0]):
            th_p, th_m = th.copy(), th.copy()
            th_p[j] += eps
            th_m[j] -= eps
            gp = np.asarray(self.grad_velocity(s, v, th_p, x), dtype=float)
            gm = np.asarray(self.grad_velocity(s, v, th_m, x), dtype=float)
            jac[:, j] = (gp - gm) / (2.0 * eps)
        return jac

    def bind(self, theta, xs=None) -> "BoundLagrangian":
        """Fix ``theta`` (one vector, or a ``(B, theta_dim)`` stack with one
        row per batch row) and the input samples ``xs`` (one row per grid
        point, ``None`` for autonomous models) for one solve."""
        return BoundLagrangian(self, theta, xs)


class HamiltonianModel(ABC):
    """Mechanics contract in phase space.

    ``bind`` has a default, a :class:`BoundHamiltonian` that calls the
    per-point methods; the integrators step through it.  An override must
    agree with the per-point methods.

    Attributes:
        dim: position dimension (phase dimension is ``2 * dim``).
        theta_dim, input_dim: as for :class:`LagrangianModel`.
        time_reversible: invariant under momentum flip, which is what the
            echo mechanism requires.
        separable: ``H = T(p) + V(s, x)``; enables the explicit
            kick-drift-kick integrator path.
    """

    dim: int
    theta_dim: int
    input_dim: int
    time_reversible: bool
    separable: bool

    @abstractmethod
    def hamiltonian(self, s, p, theta, x=None) -> float:
        ...

    @abstractmethod
    def grad_position(self, s, p, theta, x=None) -> np.ndarray:
        ...

    @abstractmethod
    def grad_momentum(self, s, p, theta, x=None) -> np.ndarray:
        ...

    @abstractmethod
    def grad_params(self, s, p, theta, x=None) -> np.ndarray:
        ...

    def bind(self, theta, xs=None) -> "BoundHamiltonian":
        """Fix ``theta`` (one vector, or a ``(B, theta_dim)`` stack with one
        row per batch row) and the input samples ``xs`` (one row per grid
        point, ``None`` for autonomous models) for one solve."""
        return BoundHamiltonian(self, theta, xs)


class _Bound:
    """Parameters and input samples fixed for one solve; ``k`` indexes ``xs``.

    ``theta`` is one parameter vector, shared by every row of a state stack,
    or a ``(B, theta_dim)`` stack with one row per state row.
    """

    def __init__(self, model, theta, xs=None):
        self.model = model
        self.theta = as_params(theta)
        self.xs = xs

    def x(self, k):
        return None if self.xs is None else self.xs[k]

    def theta_row(self, b):
        """The parameters of batch row ``b``."""
        return self.theta if self.theta.ndim == 1 else self.theta[b]

    def _each_row(self, method, s, c, k):
        """``method(s[b], c[b], theta_b, x_k)`` for every row of the stacks ``s``, ``c``."""
        x = self.x(k)
        out = np.empty(np.shape(s))
        for b in range(out.shape[0]):
            out[b] = method(s[b], c[b], self.theta_row(b), x)
        return out

    def _each_point(self, method, s, c, ks, width):
        """``(len(s), width)`` array of ``method(s[i], c[i], theta, xs[ks][i])``;
        ``ks`` holds the grid indices of the rows (a slice or an index array)."""
        xs = None if self.xs is None else self.xs[ks]
        out = np.empty((len(s), width))
        for i in range(out.shape[0]):
            out[i] = method(s[i], c[i], self.theta, None if xs is None else xs[i])
        return out


class BoundLagrangian(_Bound):
    """Binding of a :class:`LagrangianModel`.

    This default evaluates the model's per-point methods with ``xs[k]``, one
    batch row at a time.  The per-step methods take ``(B, dim)`` stacks of
    states at grid point ``k`` and return one result row per state.
    ``*_rows`` methods take one state per row and return a new array with
    one result row per state, which the caller may overwrite; they need a
    single ``theta``.  ``grad_params_rows`` takes one state per grid point,
    rows aligned with ``xs``; ``grad_position_rows`` and
    ``grad_velocity_rows`` also take ``ks``, the grid indices the rows sit
    at (a slice such as ``slice(1, n_steps)``, or an index array).
    """

    def grad_position(self, s, v, k) -> np.ndarray:
        return self._each_row(self.model.grad_position, s, v, k)

    def grad_velocity(self, s, v, k) -> np.ndarray:
        return self._each_row(self.model.grad_velocity, s, v, k)

    def grad_position_rows(self, positions, velocities, ks) -> np.ndarray:
        return self._each_point(self.model.grad_position, positions, velocities, ks,
                                self.model.dim)

    def grad_velocity_rows(self, positions, velocities, ks) -> np.ndarray:
        return self._each_point(self.model.grad_velocity, positions, velocities, ks,
                                self.model.dim)

    def velocity(self, s, p, k) -> np.ndarray:
        """The velocities whose momenta dL/dv are ``p``."""
        from .legendre import velocity_from_momentum

        return self._each_row(partial(velocity_from_momentum, self.model), s, p, k)

    def partner_grad_position(self, s, p, k) -> np.ndarray:
        """dH/ds of the Legendre-partner Hamiltonian at momenta ``p``, which
        is -dL/ds at their velocities."""
        return -self.grad_position(s, self.velocity(s, p, k), k)

    def velocity_rows(self, positions, momenta) -> np.ndarray:
        """Velocities along one trajectory, or along a ``(B, n_points, dim)``
        stack of them with row ``b`` at ``theta_row(b)``."""
        from .legendre import velocity_from_momentum

        pos = np.asarray(positions, dtype=float)
        stack = pos.reshape((-1,) + pos.shape[-2:])
        mom = np.reshape(momenta, stack.shape)
        out = np.empty_like(stack)
        for b in range(stack.shape[0]):
            theta = self.theta_row(b)
            for k in range(stack.shape[1]):
                out[b, k] = velocity_from_momentum(self.model, stack[b, k], mom[b, k], theta,
                                                   self.x(k))
        return out.reshape(pos.shape)

    def grad_params_rows(self, positions, velocities) -> np.ndarray:
        return self._each_point(self.model.grad_params, positions, velocities, slice(None),
                                self.model.theta_dim)


class BoundHamiltonian(_Bound):
    """Binding of a :class:`HamiltonianModel`; the integrators step through it.

    This default evaluates the model's per-point methods with ``xs[k]``, one
    batch row at a time.  ``grad_position`` and ``grad_momentum`` take
    ``(B, dim)`` stacks of states at grid point ``k`` and return one result
    row per state.  ``grad_params_rows`` takes one state per grid point,
    rows aligned with ``xs``, needs a single ``theta`` and returns a new
    array with one result row per point, which the caller may overwrite.
    """

    def grad_position(self, s, p, k) -> np.ndarray:
        return self._each_row(self.model.grad_position, s, p, k)

    def grad_momentum(self, s, p, k) -> np.ndarray:
        return self._each_row(self.model.grad_momentum, s, p, k)

    def grad_params_rows(self, positions, momenta) -> np.ndarray:
        return self._each_point(self.model.grad_params, positions, momenta, slice(None),
                                self.model.theta_dim)


class CostModel(ABC):
    """Instantaneous prediction-error term.

    ``state`` is the position vector when ``position_only`` is set, otherwise
    the full phase vector ``(s, p)``; ``grad_state`` is shaped accordingly.
    ``cost_rows`` and ``grad_state_rows`` evaluate a stack of states, one
    row each (a trajectory, or the states of a batch at one grid point);
    their defaults call ``cost`` / ``grad_state`` once per row.
    """

    position_only: bool

    @abstractmethod
    def cost(self, state, target) -> float:
        ...

    @abstractmethod
    def grad_state(self, state, target) -> np.ndarray:
        ...

    def cost_rows(self, states, targets) -> np.ndarray:
        """Cost of every row of ``states`` against the same row of ``targets``."""
        return np.array([self.cost(s, y) for s, y in zip(states, targets)], dtype=float)

    def grad_state_rows(self, states, targets) -> np.ndarray:
        """``grad_state`` of every row of ``states`` against the same row of ``targets``."""
        out = np.empty(np.shape(states))
        for i in range(out.shape[0]):
            out[i] = self.grad_state(states[i], targets[i])
        return out


def as_params(theta) -> np.ndarray:
    """Accept a ParamVector or a bare array and return the raw parameter array."""
    if isinstance(theta, ParamVector):
        return theta.values
    return np.asarray(theta, dtype=float)
