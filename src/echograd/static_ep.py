"""Energy-based equilibrium propagation on static inputs.

The free phase relaxes the energy to a fixed point by explicit-Euler
gradient descent; the nudged phase relaxes the cost-augmented energy,
seeded from the free fixed point.  Contrasting the parameter gradients of
the energy at the two fixed points and dividing by the nudging strength
estimates the gradient of the relaxed cost.

:func:`relax` takes one parameter vector or a ``(B, P)`` stack, with the
nudging strength and the initial state shared or given per row.  The rows
descend in lockstep, the energy bound to their parameters once per call,
and each row stops at its own tolerance, so it is bitwise the relaxation it
would be on its own.  The estimator's +beta/-beta pair is one such call, and
the static ``gradcheck`` relaxes all 2P finite-difference probes in another.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import (
    CostModel,
    EstimatorMethod,
    GradientEstimate,
    NudgeMode,
    ParamVector,
    _row_nudge,
    as_params,
    check_positive_finite,
    lockstep_rows,
    row_stack,
)
from .errors import ConvergenceError, DivergenceError

__all__ = [
    "EnergyModel",
    "QuadraticEnergy",
    "HopfieldEnergy",
    "RelaxConfig",
    "RelaxResult",
    "relax",
    "static_ep_gradient",
]


class EnergyModel(ABC):
    """Scalar energy over a state vector, with hand-coded partials.

    :meth:`bind` fixes ``theta`` and the input for one relaxation; the
    per-point ``energy`` and ``grad_state`` are the one-row case of that
    binding, so each formula is written once.
    """

    dim: int
    theta_dim: int

    @abstractmethod
    def bind(self, theta, x0):
        """Fix ``theta`` (one vector, or a ``(B, theta_dim)`` stack with one
        row per state row) and the input ``x0``.

        The binding's ``energy(states)`` and ``grad_state(states)`` take a
        ``(B, dim)`` state stack and give ``(B,)`` energies and a new
        ``(B, dim)`` gradient stack.
        """

    @abstractmethod
    def grad_params(self, state, theta, x0) -> np.ndarray:
        ...

    def energy(self, state, theta, x0) -> float:
        return float(self.bind(theta, x0).energy(_one_row(state))[0])

    def grad_state(self, state, theta, x0) -> np.ndarray:
        return self.bind(theta, x0).grad_state(_one_row(state))[0]


def _one_row(state):
    return np.asarray(state, dtype=float)[None, :]


def _matvec(matrices, states):
    """``matrices[b] @ states[b]`` for every row ``b``.  Each row is its own
    matmul, so its result does not depend on the other rows."""
    return np.matmul(matrices, states[:, :, None])[:, :, 0]


def _dot(states, vectors):
    """``states[b] @ vectors[b]`` for every row ``b`` (``vectors`` may be one
    shared vector), each row its own matmul as in :func:`_matvec`."""
    return np.matmul(states[:, None, :], vectors[..., None])[:, 0, 0]


class _SymmetricCoupling(EnergyModel):
    """An energy whose ``theta`` is the upper triangle, read row-major, of
    one symmetric ``dim x dim`` matrix."""

    def __init__(self, dim):
        self.dim = int(dim)
        self._upper = np.triu_indices(self.dim)
        self.theta_dim = self._upper[0].size
        self._half = np.where(self._upper[0] == self._upper[1], 0.5, 1.0)

    def _matrix(self, theta):
        """The ``(B, dim, dim)`` symmetric matrices of ``theta`` (one vector
        gives ``B = 1``)."""
        th = np.atleast_2d(as_params(theta))
        if th.ndim != 2 or th.shape[1] != self.theta_dim:
            raise ValueError(f"theta must have {self.theta_dim} entries per row, "
                             f"got shape {th.shape}")
        matrix = np.zeros((th.shape[0], self.dim, self.dim))
        rows, cols = self._upper
        matrix[:, rows, cols] = th
        matrix[:, cols, rows] = th
        return matrix

    def _form_gradient(self, s):
        """Gradient in ``theta`` of 1/2 s^T M(theta) s: the entry of (i, j)
        is s_i s_j, halved on the diagonal."""
        rows, cols = self._upper
        return self._half * s[rows] * s[cols]


class QuadraticEnergy(_SymmetricCoupling):
    """E = 1/2 s^T K s - s^T x0 with K filled symmetrically from theta.

    Parameters enumerate the upper triangle of K row-major, so dim 1 reduces
    to E = theta/2 * s^2 - s * x0.
    """

    def bind(self, theta, x0):
        return _BoundQuadratic(self._matrix(theta), np.asarray(x0, dtype=float))

    def grad_params(self, state, theta, x0):
        return self._form_gradient(np.asarray(state, dtype=float))


class _BoundQuadratic:
    def __init__(self, stiffness, x0):
        self.stiffness = stiffness
        self.x0 = x0

    def energy(self, states):
        return 0.5 * _dot(states, _matvec(self.stiffness, states)) - _dot(states, self.x0)

    def grad_state(self, states):
        return _matvec(self.stiffness, states) - self.x0


class HopfieldEnergy(_SymmetricCoupling):
    """Hopfield-style energy with tanh activations.

    E = 1/2 |s|^2 - 1/2 sigma(s)^T W(theta) sigma(s) - sigma(s)^T x0,
    where W is symmetric with entries read from theta (upper triangle) and
    the input ``x0`` drives each unit directly.  Bounded below because the
    quadratic confinement dominates the bounded activations.
    """

    def bind(self, theta, x0):
        return _BoundHopfield(self._matrix(theta), np.asarray(x0, dtype=float))

    def grad_params(self, state, theta, x0):
        return -self._form_gradient(np.tanh(np.asarray(state, dtype=float)))


class _BoundHopfield:
    def __init__(self, weights, drive):
        self.weights = weights
        self.drive = drive

    def energy(self, states):
        sig = np.tanh(states)
        return (0.5 * _dot(states, states) - 0.5 * _dot(sig, _matvec(self.weights, sig))
                - _dot(sig, self.drive))

    def grad_state(self, states):
        sig = np.tanh(states)
        return states - (1.0 - sig**2) * (_matvec(self.weights, sig) + self.drive)


@dataclass(frozen=True)
class RelaxConfig:
    step: float = 0.05
    tol: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        check_positive_finite(self.step, "relaxation step")
        check_positive_finite(self.tol, "relaxation tol")
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")


@dataclass(frozen=True)
class RelaxResult:
    """Fixed point(s) of one :func:`relax` call.

    ``state`` is ``(dim,)``, or ``(B, dim)`` when any argument was stacked.
    ``iterations`` is the number of lockstep sweeps, the largest row count,
    and ``residual`` the largest row residual; ``row_iterations`` and
    ``row_residuals`` hold each row's own, shape ``(B,)`` (``B = 1``
    unstacked).  ``energy_history`` has one entry per sweep, a ``(B,)`` row
    each for a stack.
    """

    state: np.ndarray
    iterations: int
    residual: float
    row_iterations: np.ndarray
    row_residuals: np.ndarray
    energy_history: np.ndarray | None = None


def relax(
    model: EnergyModel,
    theta,
    x0,
    target=None,
    beta=0.0,
    initial_state=None,
    cost: CostModel | None = None,
    config: RelaxConfig | None = None,
    record_energy: bool = False,
) -> RelaxResult:
    """Gradient-descent relaxation to a stationary point of E + beta * C.

    ``theta`` is one vector or a ``(B, P)`` stack, ``beta`` one value or one
    per row and ``initial_state`` shared or ``(B, dim)``; ``x0`` and
    ``target`` are shared.  Every row advances in one loop and freezes at
    its own tolerance, so each is bitwise the relaxation it would be on its
    own.  Convergence means the max-norm of a row's augmented energy
    gradient is at or below ``config.tol``; the check runs before each
    step, so a converged seed takes zero iterations.  A non-finite gradient
    raises ``DivergenceError`` and a row still above ``tol`` after
    ``config.max_iters`` steps ``ConvergenceError``, each naming the row.
    """
    config = config or RelaxConfig()
    th = as_params(theta)
    betas = np.asarray(beta, dtype=float)
    s0 = np.zeros(model.dim) if initial_state is None else np.array(initial_state, dtype=float)
    if th.ndim not in (1, 2) or betas.ndim > 1 or s0.ndim not in (1, 2):
        raise ValueError("theta, beta and initial_state take one value or one row per relaxation")
    if s0.shape[-1] != model.dim:
        raise ValueError(f"initial state must have width {model.dim}, got shape {s0.shape}")
    rows = lockstep_rows((th, 2), (betas, 1), (s0, 2))
    stacked, rows = rows is not None, rows or 1
    betas = np.broadcast_to(betas, (rows,))
    nudged = np.flatnonzero(betas)
    add_nudge = None
    if nudged.size:
        if target is None or cost is None:
            raise ValueError("a nonzero beta requires a target and a cost model")
        target = np.asarray(target, dtype=float)
        targets = np.broadcast_to(target, (nudged.size,) + target.shape)
        add_nudge = _row_nudge(cost, betas, target[None, None], rows, model.dim)
    bound = model.bind(np.broadcast_to(th, (rows, th.shape[-1])), x0)
    s = row_stack(s0, rows)
    history = [] if record_energy else None

    def grad(states):
        g = bound.grad_state(states)
        if add_nudge is not None:
            add_nudge(g, states, 0)
        return g

    def energy(states):
        e = bound.energy(states)
        if nudged.size:
            e[nudged] += betas[nudged] * cost.cost_rows(states[nudged], targets)
        return e

    active = np.ones(rows, dtype=bool)
    row_iterations = np.zeros(rows, dtype=int)
    row_residuals = np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(config.max_iters + 1):
            g = grad(s)
            # a row's max-norm is non-finite exactly when its gradient is
            residuals = np.abs(g).max(axis=1)
            if not math.isfinite(residuals.max()):
                row = int(np.argmin(np.isfinite(residuals)))
                raise DivergenceError(f"relaxation diverged in row {row} at sweep {sweep}",
                                      step=sweep, row=row)
            if history is not None:
                history.append(energy(s))
            done = active & (residuals <= config.tol)
            if done.any():
                row_iterations[done] = sweep
                row_residuals[done] = residuals[done]
                active &= ~done
                if not active.any():
                    break
            if sweep == config.max_iters:
                raise ConvergenceError(
                    f"relaxation of row {int(np.argmax(active))} did not reach "
                    f"tol={config.tol} within {config.max_iters} iterations"
                )
            np.subtract(s, config.step * g, out=s, where=active[:, None])
    if history is not None:
        history = np.asarray(history) if stacked else np.asarray(history)[:, 0]
    return RelaxResult(
        state=s if stacked else s[0],
        iterations=sweep,
        residual=float(row_residuals.max()),
        row_iterations=row_iterations,
        row_residuals=row_residuals,
        energy_history=history,
    )


def static_ep_gradient(
    model: EnergyModel,
    cost: CostModel,
    theta: ParamVector,
    x0,
    target,
    beta: float,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    initial_state=None,
    config: RelaxConfig | None = None,
) -> GradientEstimate:
    """Two-point (or three-point symmetric) static estimator.

    The nudged relaxations (the +beta/-beta pair, or +beta alone) are the
    rows of one :func:`relax` call, each seeded from the free fixed point.
    """
    started = time.perf_counter()
    if beta == 0.0:
        raise ValueError("nudging strength beta must be nonzero")
    th = as_params(theta)
    nudging = NudgeMode(nudging)

    free = relax(model, th, x0, initial_state=initial_state, config=config)
    signs = [beta, -beta] if nudging is NudgeMode.SYMMETRIC else [beta]
    nudged = relax(model, th, x0, target=target, beta=np.array(signs), cost=cost,
                   initial_state=free.state, config=config).state
    g_plus = np.asarray(model.grad_params(nudged[0], th, x0), dtype=float)

    if nudging is NudgeMode.SYMMETRIC:
        g_minus = np.asarray(model.grad_params(nudged[1], th, x0), dtype=float)
        value = (g_plus - g_minus) / (2.0 * beta)
    else:
        g_free = np.asarray(model.grad_params(free.state, th, x0), dtype=float)
        value = (g_plus - g_free) / beta

    return GradientEstimate(
        value=value,
        method=EstimatorMethod.STATIC_EP,
        beta=beta,
        nudging=nudging,
        wall_time=time.perf_counter() - started,
    )
