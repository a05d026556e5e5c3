"""Plain gradient-descent training driven by any of the estimators."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EstimatorMethod,
    HamiltonianModel,
    LagrangianModel,
    NudgeMode,
    ParamVector,
    frozen_array,
)
from .estimators import ivp_loss, prepare
from .glep import CbvpRelaxConfig
from .tasks import Task

__all__ = ["TrainConfig", "RunRecord", "train"]


@dataclass(frozen=True)
class TrainConfig:
    estimator: EstimatorMethod = EstimatorMethod.RHEL
    beta: float = 1e-3
    nudging: NudgeMode = NudgeMode.SYMMETRIC
    learning_rate: float = 0.5
    epochs: int = 200
    seed: int = 0
    theta_scale: float = 0.4
    fd_eps: float = 1e-5
    cbvp: CbvpRelaxConfig = field(default_factory=CbvpRelaxConfig)
    cbvp_coarsen: int = 16

    def __post_init__(self):
        object.__setattr__(self, "estimator", EstimatorMethod(self.estimator))
        object.__setattr__(self, "nudging", NudgeMode(self.nudging))
        # zero is allowed: a frozen run is the documented way to check that
        # the loss sequence stays constant
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")


@dataclass(frozen=True)
class RunRecord:
    """Per-epoch record of one training run; loss is sampled before each update."""

    losses: np.ndarray
    grad_norms: np.ndarray
    final_loss: float
    theta_final: ParamVector
    wall_time: float
    config: dict

    def __post_init__(self):
        object.__setattr__(self, "losses", frozen_array(self.losses, "losses", 1))
        object.__setattr__(self, "grad_norms", frozen_array(self.grad_norms, "grad_norms", 1))


def train(
    lagrangian: LagrangianModel,
    hamiltonian: HamiltonianModel,
    task: Task,
    config: TrainConfig,
    theta0: ParamVector | None = None,
) -> RunRecord:
    """Gradient descent on the free-trajectory cost; deterministic per seed.

    The loss recorded at epoch ``k`` is measured before the k-th update, so
    ``losses[0]`` is the initial loss; ``final_loss`` is measured after the
    last update.
    """
    started = time.perf_counter()
    if theta0 is None:
        rng = np.random.default_rng(config.seed)
        theta0 = ParamVector(rng.normal(scale=config.theta_scale, size=lagrangian.theta_dim))
    theta = theta0.values.copy()

    problem = prepare(
        config.estimator, lagrangian, hamiltonian, task, theta0,
        nudging=config.nudging, fd_eps=config.fd_eps,
        cbvp_config=config.cbvp, cbvp_coarsen=config.cbvp_coarsen,
    )
    # every estimator is scored on the free-trajectory loss, CBVP included
    loss = ivp_loss(lagrangian, task)

    losses = np.empty(config.epochs)
    grad_norms = np.empty(config.epochs)
    for epoch in range(config.epochs):
        losses[epoch] = loss(theta)
        estimate = problem.estimate(ParamVector(theta), config.beta)
        grad_norms[epoch] = float(np.linalg.norm(estimate.value))
        theta = theta - config.learning_rate * estimate.value

    snapshot = {
        "estimator": config.estimator.value,
        "beta": config.beta,
        "nudging": config.nudging.value,
        "learning_rate": config.learning_rate,
        "epochs": config.epochs,
        "seed": config.seed,
        "theta_scale": config.theta_scale,
    }
    return RunRecord(
        losses=losses,
        grad_norms=grad_norms,
        final_loss=loss(theta),
        theta_final=ParamVector(theta),
        wall_time=time.perf_counter() - started,
        config=snapshot,
    )
