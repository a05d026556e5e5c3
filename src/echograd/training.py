"""Plain gradient descent on a prepared problem, driven by its estimator."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import ParamVector, as_params, frozen_array
from .estimators import Problem

__all__ = ["RunRecord", "check_train_settings", "train"]


@dataclass(frozen=True)
class RunRecord:
    """Per-epoch record of one training run; loss is sampled before each update."""

    losses: np.ndarray
    grad_norms: np.ndarray
    final_loss: float
    theta_final: ParamVector

    def __post_init__(self):
        object.__setattr__(self, "losses", frozen_array(self.losses, "losses", 1))
        object.__setattr__(self, "grad_norms", frozen_array(self.grad_norms, "grad_norms", 1))


def check_train_settings(learning_rate: float, epochs: int) -> None:
    """Raise ``ValueError`` unless ``learning_rate`` is finite and
    non-negative (zero is allowed: a frozen run keeps the loss sequence
    constant) and ``epochs`` is a positive integer."""
    if not 0 <= learning_rate < np.inf:
        raise ValueError(
            f"train.learning_rate must be finite and non-negative, got {learning_rate!r}")
    if not (isinstance(epochs, numbers.Integral) and epochs >= 1):
        raise ValueError(f"train.epochs must be a positive integer, got {epochs!r}")


def train(problem: Problem, theta0, beta: float, learning_rate: float, epochs: int) -> RunRecord:
    """Gradient descent from ``theta0`` on ``problem.loss``; deterministic.

    The loss recorded at epoch ``k`` is the estimate's ``free_loss``, which
    is ``problem.loss`` before the k-th update, so the epochs make no run of
    their own; ``final_loss`` is measured after the last update.  Raises
    ``ValueError`` for settings :func:`check_train_settings` rejects and
    ``NumericalError`` when an estimate or the final loss is not finite.
    """
    check_train_settings(learning_rate, epochs)
    theta = as_params(theta0).copy()
    losses = np.empty(epochs)
    grad_norms = np.empty(epochs)
    for epoch in range(epochs):
        estimate = problem.estimate(ParamVector(theta), beta)
        losses[epoch] = estimate.free_loss
        grad_norms[epoch] = float(np.linalg.norm(estimate.value))
        theta = theta - learning_rate * estimate.value
    final_loss = problem.loss(theta)
    return RunRecord(losses, grad_norms, final_loss, ParamVector(theta))
