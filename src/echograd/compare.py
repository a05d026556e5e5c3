"""Estimator comparison matrix: every (estimator, beta) cell against the oracle.

Each trajectory estimator is validated against a finite-difference gradient
of the loss it actually answers: the initial-value estimators share the free
trajectory loss, while the boundary-value estimator is compared on its own
(coarsened) pinned-endpoint problem.  When both the echo and final-value
estimators are present, every beta row also reports their mutual discrepancy,
which for Legendre-partner models should sit at roundoff for any beta.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from .core import EstimatorMethod, HamiltonianModel, LagrangianModel, NudgeMode, ParamVector
from .dynamics import integrate_lagrangian_ivp
from .glep import CbvpRelaxConfig, CbvpSpec, CivpSpec, PfvpSpec, grad_cbvp, grad_civp, grad_pfvp
from .oracle import fd_gradient, trajectory_loss
from .rhel import LagrangianInitialState, grad_rhel
from .tasks import Task

__all__ = ["CompareCell", "ComparisonTable", "compare_estimators"]

CSV_HEADER = [
    "task",
    "estimator",
    "beta",
    "nudging",
    "rel_err_vs_oracle",
    "rhel_pfvp_rel_diff",
    "gradient",
]


@dataclass(frozen=True)
class CompareCell:
    task: str
    estimator: str
    beta: float
    nudging: str
    gradient: np.ndarray
    rel_err_vs_oracle: float
    rhel_pfvp_rel_diff: float | None
    wall_time: float


@dataclass(frozen=True)
class ComparisonTable:
    cells: tuple

    def to_json_payload(self) -> dict:
        rows = []
        for c in self.cells:
            rows.append(
                {
                    "task": c.task,
                    "estimator": c.estimator,
                    "beta": c.beta,
                    "nudging": c.nudging,
                    "gradient": [float(v) for v in c.gradient],
                    "rel_err_vs_oracle": c.rel_err_vs_oracle,
                    "rhel_pfvp_rel_diff": c.rhel_pfvp_rel_diff,
                }
            )
        return {"rows": rows}

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for c in self.cells:
                writer.writerow(
                    [
                        c.task,
                        c.estimator,
                        repr(float(c.beta)),
                        c.nudging,
                        repr(float(c.rel_err_vs_oracle)),
                        "" if c.rhel_pfvp_rel_diff is None else repr(float(c.rhel_pfvp_rel_diff)),
                        ";".join(repr(float(v)) for v in c.gradient),
                    ]
                )

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _rel_err(value, reference):
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def compare_estimators(
    lagrangian: LagrangianModel,
    hamiltonian: HamiltonianModel,
    theta: ParamVector,
    task: Task,
    betas,
    estimators,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
    cbvp_config: CbvpRelaxConfig | None = None,
    cbvp_coarsen: int = 16,
) -> ComparisonTable:
    """Run the (estimator, beta) matrix on one task.

    Emits one cell per combination, in the given order: estimators vary
    fastest so each beta block stays together.
    """
    methods = [EstimatorMethod(e) for e in estimators]
    nudging = NudgeMode(nudging)
    alpha, gamma = task.initial_position, task.initial_velocity
    civp_spec = CivpSpec(alpha, gamma)
    pfvp_spec = PfvpSpec(alpha, gamma)

    ivp_oracle = None
    if any(m in (EstimatorMethod.CIVP, EstimatorMethod.PFVP, EstimatorMethod.RHEL) for m in methods):
        ivp_oracle = fd_gradient(
            lambda p: trajectory_loss(lagrangian, task.cost, p, civp_spec, task.grid, task.x, task.y),
            theta,
            eps=fd_eps,
        ).value

    cbvp_oracle = None
    coarse = None
    cbvp_spec = None
    if EstimatorMethod.CBVP in methods:
        coarse = task.coarsened(cbvp_coarsen)
        free = integrate_lagrangian_ivp(lagrangian, theta, alpha, gamma, coarse.grid, coarse.x)
        cbvp_spec = CbvpSpec(alpha, free.positions[-1])
        cbvp_oracle = fd_gradient(
            lambda p: trajectory_loss(
                lagrangian, coarse.cost, p, cbvp_spec, coarse.grid, coarse.x, coarse.y,
                cbvp_config=cbvp_config,
            ),
            theta,
            eps=fd_eps,
        ).value

    x0 = task.x.value(0) if task.x is not None else None
    init = LagrangianInitialState(lagrangian, alpha, gamma, x0=x0)

    cells = []
    for beta in betas:
        estimates = {}
        for method in methods:
            started = time.perf_counter()
            if method is EstimatorMethod.CIVP:
                est = grad_civp(
                    lagrangian, task.cost, theta, civp_spec, task.grid, task.x, task.y,
                    beta, nudging=nudging, fd_eps=fd_eps,
                )
                oracle = ivp_oracle
            elif method is EstimatorMethod.PFVP:
                est = grad_pfvp(
                    lagrangian, task.cost, theta, pfvp_spec, task.grid, task.x, task.y,
                    beta, nudging=nudging, fd_eps=fd_eps,
                )
                oracle = ivp_oracle
            elif method is EstimatorMethod.RHEL:
                est = grad_rhel(
                    hamiltonian, task.cost, theta, init, task.grid, task.x, task.y,
                    beta, nudging=nudging, fd_eps=fd_eps,
                )
                oracle = ivp_oracle
            elif method is EstimatorMethod.CBVP:
                est = grad_cbvp(
                    lagrangian, coarse.cost, theta, cbvp_spec, coarse.grid, coarse.x, coarse.y,
                    beta, nudging=nudging, config=cbvp_config,
                )
                oracle = cbvp_oracle
            else:
                raise ValueError(f"estimator {method.value} is not comparable on trajectory tasks")
            estimates[method] = (est, time.perf_counter() - started, oracle)

        diff = None
        if EstimatorMethod.RHEL in estimates and EstimatorMethod.PFVP in estimates:
            rhel_val = estimates[EstimatorMethod.RHEL][0].value
            pfvp_val = estimates[EstimatorMethod.PFVP][0].value
            diff = _rel_err(rhel_val, pfvp_val)

        for method in methods:
            est, elapsed, oracle = estimates[method]
            cells.append(
                CompareCell(
                    task=task.name,
                    estimator=method.value,
                    beta=float(beta),
                    nudging=nudging.value,
                    gradient=est.value,
                    rel_err_vs_oracle=_rel_err(est.value, oracle),
                    rhel_pfvp_rel_diff=diff if method is EstimatorMethod.RHEL else None,
                    wall_time=elapsed,
                )
            )
    return ComparisonTable(cells=tuple(cells))
