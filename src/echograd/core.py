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
  index ``k`` in place of ``x``.  There is one bound method per quantity:
  ``k`` is one grid index shared by every row of a state stack, or, for the
  position and velocity gradients of a Lagrangian, the rows' own grid
  indices.  The default binding calls the per-point methods with ``xs[k]``;
  a model overrides ``bind`` to do parameter-only work once per solve and to
  evaluate whole trajectories in one call.  The integrators reach the
  (nudged) force only through the binding's ``force``, built once per
  integration.
- Central differences build their probe points with :func:`central_probes`
  and their Jacobians with :func:`central_quotient`.
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

from .errors import NumericalError

__all__ = [
    "TimeGrid",
    "Signal",
    "ParamVector",
    "PhaseState",
    "Trajectory",
    "EstimatorMethod",
    "NudgeMode",
    "GradientEstimate",
    "check_betas",
    "signed_betas",
    "finish_estimates",
    "LagrangianModel",
    "HamiltonianModel",
    "BoundLagrangian",
    "BoundHamiltonian",
    "CostModel",
    "check_positive_finite",
    "relative_error",
    "lockstep_rows",
    "row_stack",
    "central_probes",
    "central_quotient",
    "trapezoid",
    "trapezoid_contrast",
    "path_cost",
    "free_losses",
    "loss_rows",
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


def check_positive_finite(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite (NaN is not)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def relative_error(value, reference) -> float:
    """2-norm of ``value - reference`` over that of ``reference``.  A zero
    reference gives inf, or NaN when ``value`` is zero too, and no warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def lockstep_rows(*stacks):
    """Rows of a lockstep run: the common length of the stacked arguments
    among ``(value, stacked_ndim)`` pairs, ``None`` when none is stacked;
    ``ValueError`` when they disagree."""
    sizes = {len(value) for value, ndim in stacks if np.ndim(value) == ndim}
    if len(sizes) > 1:
        raise ValueError(f"stacked arguments disagree on the number of batch rows: {sorted(sizes)}")
    return sizes.pop() if sizes else None


def row_stack(value, rows: int) -> np.ndarray:
    """A fresh ``(rows, width)`` array of ``value`` (one row, shared, or
    already ``rows`` rows).  C order: a copied broadcast is otherwise
    column-major, and elementwise work on its rows strided."""
    value = np.asarray(value, dtype=float)
    return np.array(np.broadcast_to(value, (rows, value.shape[-1])), order="C")


def central_probes(x, eps: float) -> np.ndarray:
    """The ``(2n, n)`` probe stack of a central difference at the point ``x``.

    Rows ``2j`` and ``2j + 1`` are ``x`` with entry ``j`` shifted by ``+eps``
    and ``-eps``.  Raises ``ValueError`` unless ``eps`` is positive and
    finite, before anything is evaluated at the probes.
    """
    check_positive_finite(eps, "finite-difference step")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    probes = np.repeat(x[None, :], 2 * n, axis=0)
    j = np.arange(n)
    probes[2 * j, j] += eps
    probes[2 * j + 1, j] -= eps
    return probes


def central_quotient(values, eps: float) -> np.ndarray:
    """The C-contiguous ``(m, n)`` Jacobian from ``values``, the ``(2n, m)``
    values of a function at the rows of :func:`central_probes`: column ``j``
    is ``(values[2j] - values[2j + 1]) / (2 eps)``."""
    values = np.asarray(values, dtype=float)
    return np.ascontiguousarray(((values[0::2] - values[1::2]) / (2.0 * eps)).T)


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


def path_cost(cost: "CostModel", states: np.ndarray, target: "Signal", dt: float) -> float:
    """Trapezoid-rule cost of one trajectory's ``states`` (one row per grid
    point) against the samples of ``target``; an overflow gives inf or NaN,
    and no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(trapezoid(cost.cost_rows(states, target.values), dt))


def free_losses(cost: "CostModel", positions: np.ndarray, target: "Signal",
                dt: float) -> np.ndarray:
    """The :func:`path_cost` of every free run of a ``(B, n_points, dim)``
    stack of positions, as a ``(B,)`` array.  Raises ``NumericalError``
    naming the first row whose loss is not finite: a run can grow without
    overflowing its states and still overflow its cost."""
    losses = np.array([path_cost(cost, rows, target, dt) for rows in positions], dtype=float)
    finite = np.isfinite(losses)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NumericalError(f"free-run loss of row {row} is {losses[row]!r}")
    return losses


def loss_rows(loss_thetas, n_params: int) -> np.ndarray:
    """``loss_thetas`` as a float ``(B, n_params)`` stack of parameter rows,
    no rows for ``None``; ``ValueError`` unless it is 2-d with ``n_params``
    columns."""
    rows = np.empty((0, n_params)) if loss_thetas is None else np.asarray(loss_thetas, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n_params:
        raise ValueError(f"loss_thetas must be a (B, {n_params}) stack of parameter rows, "
                         f"got shape {rows.shape}")
    return rows


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

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_points)


@dataclass(frozen=True)
class Signal:
    """Vector-valued samples on a :class:`TimeGrid`, one row per grid point.

    :meth:`time_reversed` gives the exactly reversed signal on the same grid:
    its sample ``k`` is this signal's sample ``n_steps - k``.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            # a reshape keeps the row stride of a stacked (n, 1) column, where
            # a new axis would have stride 0
            arr = arr.reshape(-1, 1)
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

    def time_reversed(self) -> "Signal":
        return Signal(self.grid, self.values[::-1])

    @classmethod
    def zeros(cls, grid: TimeGrid, dim: int) -> "Signal":
        return cls(grid, np.zeros((grid.n_points, dim)))

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
    difference oracle records ``beta = 0``.  ``wall_time`` is the time of the
    estimator call that produced the estimate, shared by every estimate of a
    call over a list of betas.  ``free_loss`` is the cost of the free
    trajectory that call integrated (``None`` where no trajectory is run).
    """

    value: np.ndarray
    method: EstimatorMethod
    beta: float
    nudging: NudgeMode = NudgeMode.SYMMETRIC
    wall_time: float | None = None
    free_loss: float | None = None

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


def check_betas(beta) -> np.ndarray:
    """``beta``, one nudging strength or a 1-d sequence of them, as a 1-d array.

    Raises ``ValueError`` unless every entry is finite and nonzero and a
    sequence is 1-d and non-empty.
    """
    betas = np.atleast_1d(np.asarray(beta, dtype=float))
    if betas.ndim != 1 or betas.size == 0 or not np.all(np.isfinite(betas)) or not betas.all():
        raise ValueError(
            f"betas must be one finite nonzero value or a non-empty 1-d list of them, got {beta!r}")
    return betas


def signed_betas(beta, nudging: NudgeMode) -> np.ndarray:
    """The nudged runs of one estimator call, one strength per batch row.

    Every entry ``b`` of ``beta`` (one strength or a 1-d sequence, checked
    by :func:`check_betas`) gives the rows ``(b, -b)`` under symmetric
    nudging and ``(b,)`` one-sided, in the order of the entries.
    """
    betas = check_betas(beta)
    if nudging is NudgeMode.SYMMETRIC:
        return np.stack([betas, -betas], axis=1).ravel()
    return betas


def finish_estimates(values, beta, nudging, method, started, free_loss=None):
    """The estimates of one call from ``values``, one per row of
    :func:`signed_betas`: a :class:`GradientEstimate` for a scalar ``beta``,
    else a tuple with one per entry, in order.  Each records the call's wall
    time since ``started`` (perf_counter) and ``free_loss``.  Raises
    ``NumericalError`` when a value or ``free_loss`` is not finite."""
    betas = check_betas(beta)
    if not (np.all(np.isfinite(values)) and (free_loss is None or np.isfinite(free_loss))):
        raise NumericalError(f"{EstimatorMethod(method).value} estimate is non-finite "
                             f"(free loss {free_loss!r})")
    wall_time = time.perf_counter() - started
    estimates = []
    for i, b in enumerate(betas):
        if nudging is NudgeMode.SYMMETRIC:
            value = 0.5 * (values[2 * i] + values[2 * i + 1])
        else:
            value = values[i]
        estimates.append(GradientEstimate(value=value, method=method, beta=float(b),
                                          nudging=nudging, wall_time=wall_time,
                                          free_loss=free_loss))
    return estimates[0] if np.ndim(beta) == 0 else tuple(estimates)


class LagrangianModel(ABC):
    """Mechanics contract in configuration space.

    Implementations provide the scalar function and hand-coded partials with
    respect to position, velocity, and parameters, plus the velocity Hessian
    used by momentum conversion.  ``x`` is the instantaneous external input
    (``None`` when ``input_dim == 0``).

    Two methods have defaults a model may override: ``grad_velocity_params``
    (a central difference of ``grad_velocity``) and ``bind``, which returns
    a :class:`BoundLagrangian` that calls the per-point methods.  An override
    of ``bind`` must agree with the per-point methods.  A model whose
    ``grad_velocity`` does not read ``theta`` sets ``theta_free_momentum``,
    and the boundary terms that ``grad_velocity_params`` feeds are skipped.

    Attributes:
        dim: state dimension.
        theta_dim: parameter dimension.
        input_dim: external input dimension (0 for autonomous models).
        reversible: the function is even in the velocity argument.
        quadratic_kinetic: the velocity Hessian is constant, so momentum
            conversion has a closed form.
        theta_free_momentum: dL/dv does not depend on the parameters, so
            ``grad_velocity_params`` is exactly zero (default ``False``).
    """

    dim: int
    theta_dim: int
    input_dim: int
    reversible: bool
    quadratic_kinetic: bool
    theta_free_momentum: bool = False

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
        probes = central_probes(as_params(theta), eps)
        return central_quotient([self.grad_velocity(s, v, row, x) for row in probes], eps)

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

    def check_index(self, k):
        """Raise ``ValueError`` when ``k`` holds the rows' own grid indices
        (anything but one grid index) and ``theta`` is a stack."""
        if self.theta.ndim != 1 and not isinstance(k, (int, np.integer)):
            raise ValueError("rows at their own grid indices need a single parameter vector")

    def _each_row(self, method, s, c, k, width=None):
        """``method(s[b], c[b], theta, x)`` for every row ``b`` of the stacks
        ``s``, ``c``, as a new ``(len(s), width)`` array (``width`` defaults
        to that of ``s``).

        For one grid index ``k``, row ``b`` is at ``theta_row(b)`` and
        ``xs[k]``; for the rows' own grid indices (a slice or an index
        array), row ``b`` is at the single ``theta`` and ``xs[k][b]``.
        """
        self.check_index(k)
        x = self.x(k)
        x_per_row = x is not None and not isinstance(k, (int, np.integer))
        out = np.empty((len(s), np.shape(s)[1] if width is None else width))
        for b in range(out.shape[0]):
            out[b] = method(s[b], c[b], self.theta_row(b), x[b] if x_per_row else x)
        return out

    def force(self, batch, nudge=None, scale=1.0):
        """The force of the flow the integrators step through this binding,
        built once per integration.

        Returns ``f(s, p, k)``: ``scale`` times -dH/ds + beta dc/ds for the
        ``(batch, dim)`` state stacks ``s``, ``p`` at grid point ``k``, where
        H is the Hamiltonian (for a Lagrangian binding, its Legendre
        partner's) and ``nudge`` is ``None`` or a
        :class:`~echograd.dynamics.Nudge` with a position-only cost; the
        leapfrog passes half a step as ``scale`` and gets its half kick.  The
        result may be a buffer that the next call overwrites.  This default
        adds the nudge of :func:`_nudge_term`, -beta dc/ds, to a copy of the
        binding's dH/ds and multiplies by ``-scale``, the arithmetic of the
        zoo's force.
        """
        grad_position = getattr(self, self._flow_grad_position)
        add_nudge = _nudge_term(batch, self.model.dim, nudge)
        factor = -float(scale)

        def force(s, p, k):
            f = np.array(grad_position(s, p, k), dtype=float)
            if add_nudge is not None:
                add_nudge(f, s, k)
            return np.multiply(f, factor, out=f)

        return force

    def grad_params_rows(self, positions, conjugate) -> np.ndarray:
        """The parameter gradient at every state of one trajectory, one state
        per grid point with rows aligned with ``xs``, as a new array with one
        row per point.  Needs a single ``theta``."""
        return self._each_row(self.model.grad_params, positions, conjugate, slice(None),
                              self.model.theta_dim)

    def grad_params_contrast(self, positions, conjugate, ref_positions, ref_conjugate,
                             dt) -> np.ndarray:
        """Trapezoid integral over the grid of the parameter gradient at the
        states of a trajectory minus that at the states of the reference
        trajectory ``(ref_positions, ref_conjugate)``.

        Both trajectories have one state per grid point, rows aligned with
        ``xs``.  ``positions``/``conjugate`` are one trajectory, giving a
        ``(theta_dim,)`` result, or a ``(B, n_points, dim)`` stack, giving
        one result row per trajectory, each contrasted with the same
        reference.  Needs a single ``theta``.  This default builds the
        reference rows once per call and contrasts every trajectory's rows
        with :func:`trapezoid_contrast`.
        """
        reference = self.grad_params_rows(ref_positions, ref_conjugate)
        if np.ndim(positions) == 2:
            return trapezoid_contrast(self.grad_params_rows(positions, conjugate), reference, dt)
        return np.array([trapezoid_contrast(self.grad_params_rows(p, c), reference, dt)
                         for p, c in zip(positions, conjugate)])


def _nudge_term(batch, dim, nudge):
    """The nudge of a force built once per integration: ``add(g, s, k)``
    adds -beta_b dc/ds(s_b, y_k) in place to row ``b`` of the ``(batch, dim)``
    stack ``g`` of dH/ds, for the state stack ``s`` at grid point ``k`` and
    every row of nonzero strength; ``None`` when no row is nudged.  The
    force is then ``g`` times minus the step's scale.

    ``nudge`` is ``None`` or a nudge with a position-only cost and one
    strength, or one per row.  The rows are nudged as :func:`_row_nudge`
    says.
    """
    if nudge is None:
        return None
    return _row_nudge(nudge.cost, np.negative(nudge.beta), nudge.target.values[:, None, :],
                      batch, dim)


def _row_nudge(cost, beta, targets, batch, dim):
    """``add(f, s, k)``: adds beta_b dc/ds(s_b, targets[k, b]) in place to
    row ``b`` of the ``(batch, dim)`` stack ``f`` for the state stack ``s``,
    at every row of nonzero strength; ``None`` when no row is nudged.

    ``beta`` is one strength or one per row, and ``targets`` is an
    ``(n, 1 or batch, target_dim)`` array, copied to ``batch`` rows once
    here, so every step reads a contiguous block.  The cost writes its
    gradient of every row through its ``grad_writer``, bound here to one
    zeroed buffer, and the scaled gradient joins ``f`` in one masked add:
    rows at zero strength are left untouched, so each is bitwise its free
    run, signed zeros included.  Outputs are passed positionally, as in the
    leapfrog step.
    """
    betas = np.broadcast_to(np.asarray(beta, dtype=float), (batch,))
    nudged = betas != 0
    if not nudged.any():
        return None
    targets = np.ascontiguousarray(
        np.broadcast_to(targets, (len(targets), batch, targets.shape[-1])), dtype=float)
    weights = np.ascontiguousarray(np.broadcast_to(betas[:, None], (batch, dim)))
    where = True if nudged.all() else np.ascontiguousarray(
        np.broadcast_to(nudged[:, None], (batch, dim)))
    grad, scaled = np.zeros((batch, dim)), np.empty((batch, dim))
    write = cost.grad_writer(grad)

    def add(f, s, k):
        write(s, targets[k])
        np.multiply(weights, grad, scaled)
        np.add(f, scaled, f, where=where)

    return add


class BoundLagrangian(_Bound):
    """Binding of a :class:`LagrangianModel`.

    This default evaluates the model's per-point methods with ``xs[k]``, one
    row at a time.  The methods without ``_rows`` take ``(B, dim)`` stacks
    of states and return one result row per state.  Their ``k`` is one grid
    index shared by every row, row ``b`` at ``theta_row(b)``.
    ``grad_position`` and ``grad_velocity`` also take, as ``k``, the rows'
    own grid indices (a slice such as ``slice(1, n_steps)``, or an index
    array), which needs a single ``theta``: the boundary value solver
    evaluates midpoints and interior points that way.  ``velocity_rows``,
    ``grad_params_rows`` and ``grad_params_contrast`` take whole
    trajectories, one state per grid point with rows aligned with ``xs``,
    and return a new array that the caller may overwrite; the parameter
    gradients need a single ``theta``.  ``force`` is that of the
    Legendre-partner flow, built from ``partner_grad_position``.
    """

    _flow_grad_position = "partner_grad_position"

    def grad_position(self, s, v, k) -> np.ndarray:
        return self._each_row(self.model.grad_position, s, v, k)

    def grad_velocity(self, s, v, k) -> np.ndarray:
        return self._each_row(self.model.grad_velocity, s, v, k)

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


class BoundHamiltonian(_Bound):
    """Binding of a :class:`HamiltonianModel`; the integrators step through it.

    This default evaluates the model's per-point methods with ``xs[k]``, one
    batch row at a time.  ``grad_position`` and ``grad_momentum`` take
    ``(B, dim)`` stacks of states at grid point ``k`` and return one result
    row per state.  ``grad_params_rows`` and ``grad_params_contrast`` take
    whole trajectories, one state per grid point with rows aligned with
    ``xs``, need a single ``theta`` and return a new array, which the caller
    may overwrite.  ``force`` is built from ``grad_position``.
    """

    _flow_grad_position = "grad_position"

    def grad_position(self, s, p, k) -> np.ndarray:
        return self._each_row(self.model.grad_position, s, p, k)

    def grad_momentum(self, s, p, k) -> np.ndarray:
        return self._each_row(self.model.grad_momentum, s, p, k)


class CostModel(ABC):
    """Instantaneous prediction-error term.

    ``state`` is the position vector when ``position_only`` is set, otherwise
    the full phase vector ``(s, p)``; ``grad_state`` is shaped accordingly.
    ``cost_rows`` and ``grad_state_rows`` evaluate a stack of states, one
    row each (a trajectory, or the states of a batch at one grid point);
    their defaults call ``cost`` / ``grad_state`` once per row.  The nudged
    force writes the gradient through ``grad_writer``, bound once per
    integration to its buffer.
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
        """``grad_state`` of every row of ``states`` against the same row of
        ``targets``, as a new array."""
        out = np.empty(np.shape(states))
        for i in range(out.shape[0]):
            out[i] = self.grad_state(states[i], targets[i])
        return out

    def grad_writer(self, out):
        """Bind ``out``, a zeroed ``(rows, dim)`` buffer, for the nudge of one
        integration; returns ``write(states, targets)``, which sets ``out``
        to ``grad_state_rows(states, targets)`` for stacks of that shape.

        ``out`` then holds zeros or an earlier result, so an override may
        leave the entries its gradient never sets (the unselected
        coordinates of a tracking cost) as they are.  This default copies
        ``grad_state_rows`` into ``out``.
        """
        def write(states, targets):
            out[...] = self.grad_state_rows(states, targets)

        return write


def as_params(theta) -> np.ndarray:
    """Accept a ParamVector or a bare array and return the raw parameter array."""
    if isinstance(theta, ParamVector):
        return theta.values
    return np.asarray(theta, dtype=float)
