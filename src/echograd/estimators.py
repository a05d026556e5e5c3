"""Estimator registry: a trajectory method turned into a prepared problem.

CIVP, CBVP, PFVP and the echo are one variational principle under different
boundary conditions.  ``prepare`` fixes a method's boundary data once and
pairs its estimator with the loss it answers; the command line, ``train``
and ``compare_estimators`` all go through it.  The estimators and
``trajectory_loss`` are called by their module-level names, never held in a
table, so rebinding those names (to trace or mock them) reaches every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import EstimatorMethod, HamiltonianModel, LagrangianModel, NudgeMode
from .dynamics import integrate_lagrangian_ivp
from .glep import CbvpRelaxConfig, CbvpSpec, CivpSpec, grad_cbvp, grad_civp, grad_pfvp
from .oracle import trajectory_loss
from .rhel import LagrangianInitialState, grad_rhel
from .tasks import Task

__all__ = ["Problem", "prepare", "ivp_loss"]


@dataclass(frozen=True)
class Problem:
    """``estimate(theta, beta) -> GradientEstimate`` and the ``loss(theta)`` it
    approximates the gradient of; problems of one ``regime`` share that loss.
    ``loss`` takes one parameter vector, or a ``(B, P)`` stack and returns
    its ``B`` losses, as :func:`trajectory_loss` does."""

    method: EstimatorMethod
    regime: str
    estimate: Callable
    loss: Callable


def ivp_loss(lagrangian: LagrangianModel, task: Task) -> Callable:
    """``theta -> float`` (or a stack to an array): cost of the free run from
    the task's initial data."""
    spec = CivpSpec(task.initial_position, task.initial_velocity)

    def loss(theta):
        return trajectory_loss(lagrangian, task.cost, theta, spec, task.grid, task.x, task.y)

    return loss


def prepare(
    method: EstimatorMethod,
    lagrangian: LagrangianModel,
    hamiltonian: HamiltonianModel,
    task: Task,
    theta_setup,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
    cbvp_config: CbvpRelaxConfig | None = None,
    cbvp_coarsen: int = 16,
) -> Problem:
    """The :class:`Problem` of one trajectory method on ``task``.

    The initial-value methods (regime ``"ivp"``) answer the free-trajectory
    loss.  CBVP (regime ``"cbvp"``) runs on the task coarsened by
    ``cbvp_coarsen``, its endpoint pinned once to the free endpoint at
    ``theta_setup``.  Raises ``ValueError`` for a non-trajectory method or a
    model the estimator cannot run on.
    """
    method = EstimatorMethod(method)
    alpha, gamma = task.initial_position, task.initial_velocity

    if method is EstimatorMethod.CBVP:
        coarse = task.coarsened(cbvp_coarsen)
        free = integrate_lagrangian_ivp(lagrangian, theta_setup, alpha, gamma,
                                        coarse.grid, coarse.x)
        pinned = CbvpSpec(alpha, free.positions[-1])

        def estimate(theta, beta):
            return grad_cbvp(lagrangian, coarse.cost, theta, pinned, coarse.grid, coarse.x,
                             coarse.y, beta, nudging=nudging, config=cbvp_config)

        def loss(theta):
            return trajectory_loss(lagrangian, coarse.cost, theta, pinned, coarse.grid,
                                   coarse.x, coarse.y, cbvp_config=cbvp_config)

        return Problem(method, "cbvp", estimate, loss)

    spec = CivpSpec(alpha, gamma)
    if method is EstimatorMethod.CIVP:
        def estimate(theta, beta):
            return grad_civp(lagrangian, task.cost, theta, spec, task.grid, task.x, task.y,
                             beta, nudging=nudging, fd_eps=fd_eps)

    elif method is EstimatorMethod.PFVP:
        if not lagrangian.reversible:
            raise ValueError("the final-value estimator requires a velocity-even model")
        if not task.cost.position_only:
            raise ValueError("the final-value estimator requires a position-only cost")

        def estimate(theta, beta):
            return grad_pfvp(lagrangian, task.cost, theta, spec, task.grid, task.x, task.y,
                             beta, nudging=nudging, fd_eps=fd_eps)

    elif method is EstimatorMethod.RHEL:
        if not hamiltonian.time_reversible:
            raise ValueError("echo learning requires a momentum-flip invariant Hamiltonian")
        x0 = task.x.value(0) if task.x is not None else None
        init = LagrangianInitialState(lagrangian, alpha, gamma, x0=x0)

        def estimate(theta, beta):
            return grad_rhel(hamiltonian, task.cost, theta, init, task.grid, task.x, task.y,
                             beta, nudging=nudging, fd_eps=fd_eps)

    else:
        raise ValueError(f"estimator {method.value} is not a trajectory estimator")
    return Problem(method, "ivp", estimate, ivp_loss(lagrangian, task))
