"""Estimator registry: a trajectory method turned into a prepared problem.

CIVP, CBVP, PFVP and the echo are one variational principle under different
boundary conditions.  ``prepare`` fixes a method's boundary data and
settings once and pairs its estimator with the loss it answers; the command
line and ``compare_estimators`` go through it, and ``train`` descends the
problem it returns.  ``estimate_and_oracle`` checks a problem's estimate
against the finite-difference oracle of its loss, handing the oracle's probe
rows to the estimate as ``loss_thetas``, so that they ride with the
estimator's own runs where the method can take them; ``gradcheck`` and
``compare_estimators`` both check through it.  The estimators and
``trajectory_loss`` are called by their module-level names, never held in a
table, so rebinding those names (to trace or mock them) reaches every
caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (EstimatorMethod, HamiltonianModel, LagrangianModel, NudgeMode, as_params,
                   check_positive_finite, loss_rows)
from .dynamics import integrate_lagrangian_ivp
from .glep import CbvpSpec, CivpSpec, grad_cbvp, grad_civp, grad_pfvp
from .oracle import fd_gradient, trajectory_loss
from .rhel import LagrangianInitialState, grad_rhel
from .tasks import Task

__all__ = ["Problem", "prepare", "ivp_loss", "estimate_and_oracle"]


@dataclass(frozen=True)
class Problem:
    """``estimate(theta, beta, loss_thetas=None)`` and the ``loss(theta)`` it
    approximates the gradient of; problems of one ``regime`` share that loss.

    ``estimate`` takes one nudging strength and returns a
    :class:`GradientEstimate`, or a 1-d sequence and returns a tuple with one
    estimate per entry from one pass (one free run, one nudged run for all
    signed betas); it raises ``ValueError`` for a bad list before any
    integration.  Each estimate's ``free_loss`` is the cost of that free
    run, which is ``loss(theta)`` bitwise: CBVP's free solve is the one its
    loss makes, and for RHEL this holds when the Hamiltonian's forward run
    repeats the arithmetic of the Lagrangian run, as for the zoo's
    Legendre-partner pairs.  ``loss`` takes one parameter vector, or a
    ``(B, P)`` stack and returns its ``B`` losses, as :func:`trajectory_loss`
    does, which raises ``NumericalError`` for a loss that is not finite.

    Given a ``(B, P)`` stack ``loss_thetas``, ``estimate`` returns
    ``(estimates, loss(loss_thetas))``, each bitwise that of its own call,
    and raises ``ValueError`` for any other shape before any integration.
    CIVP and PFVP run the loss rows inside the estimator's first lockstep
    run; RHEL and CBVP call ``loss`` after the estimate."""

    method: EstimatorMethod
    regime: str
    estimate: Callable
    loss: Callable


def estimate_and_oracle(problem: Problem, theta, beta, eps: float):
    """``(estimate, oracle)``: ``problem.estimate(theta, beta)`` and
    :func:`fd_gradient` of ``problem.loss`` at ``theta`` with step ``eps``,
    the oracle's loss evaluated by the one ``problem.estimate`` call that
    also yields the estimate."""
    estimates = []

    def loss(thetas):
        estimate, losses = problem.estimate(theta, beta, thetas)
        estimates.append(estimate)
        return losses

    oracle = fd_gradient(loss, theta, eps=eps)
    return estimates[0], oracle


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
    cbvp_tol: float = 1e-10,
) -> Problem:
    """The :class:`Problem` of one trajectory method on ``task``.

    The initial-value methods (regime ``"ivp"``) answer the free-trajectory
    loss.  CBVP (regime ``"cbvp"``) runs on the task's grid, its endpoint
    pinned once to the free endpoint at ``theta_setup``, and solves its
    boundary value problems to ``cbvp_tol``.
    Raises ``ValueError`` for a non-trajectory method, a model the estimator
    cannot run on, or, whatever the method, a ``cbvp_tol`` that is not
    positive and finite.
    """
    method = EstimatorMethod(method)
    check_positive_finite(cbvp_tol, "boundary value tolerance")
    alpha, gamma = task.initial_position, task.initial_velocity

    if method is EstimatorMethod.CBVP:
        free = integrate_lagrangian_ivp(lagrangian, theta_setup, alpha, gamma, task.grid,
                                        task.x)
        pinned = CbvpSpec(alpha, free.positions[-1])

        def estimate(theta, beta):
            return grad_cbvp(lagrangian, task.cost, theta, pinned, task.grid, task.x, task.y,
                             beta, nudging=nudging, tol=cbvp_tol)

        def loss(theta):
            return trajectory_loss(lagrangian, task.cost, theta, pinned, task.grid, task.x,
                                   task.y, cbvp_tol=cbvp_tol)

        return Problem(method, "cbvp", _then_loss(estimate, loss), loss)

    spec = CivpSpec(alpha, gamma)
    loss = ivp_loss(lagrangian, task)
    if method is EstimatorMethod.CIVP:
        def estimate(theta, beta, loss_thetas=None):
            return grad_civp(lagrangian, task.cost, theta, spec, task.grid, task.x, task.y,
                             beta, nudging=nudging, fd_eps=fd_eps, loss_thetas=loss_thetas)

    elif method is EstimatorMethod.PFVP:
        if not lagrangian.reversible:
            raise ValueError("the final-value estimator requires a velocity-even model")
        if not task.cost.position_only:
            raise ValueError("the final-value estimator requires a position-only cost")

        def estimate(theta, beta, loss_thetas=None):
            return grad_pfvp(lagrangian, task.cost, theta, spec, task.grid, task.x, task.y,
                             beta, nudging=nudging, fd_eps=fd_eps, loss_thetas=loss_thetas)

    elif method is EstimatorMethod.RHEL:
        if not hamiltonian.time_reversible:
            raise ValueError("echo learning requires a momentum-flip invariant Hamiltonian")
        x0 = task.x.value(0) if task.x is not None else None
        init = LagrangianInitialState(lagrangian, alpha, gamma, x0=x0)

        def echo(theta, beta):
            return grad_rhel(hamiltonian, task.cost, theta, init, task.grid, task.x, task.y,
                             beta, nudging=nudging, fd_eps=fd_eps)

        estimate = _then_loss(echo, loss)

    else:
        raise ValueError(f"estimator {method.value} is not a trajectory estimator")
    return Problem(method, "ivp", estimate, loss)


def _then_loss(estimate, loss):
    """The ``Problem.estimate`` of a method whose runs cannot take loss
    rows: ``estimate``, then ``loss`` of the checked ``loss_thetas``."""
    def joint(theta, beta, loss_thetas=None):
        if loss_thetas is None:
            return estimate(theta, beta)
        rows = loss_rows(loss_thetas, as_params(theta).shape[0])
        return estimate(theta, beta), loss(rows)

    return joint
