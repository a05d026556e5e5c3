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
from .estimators import prepare
from .glep import CbvpRelaxConfig
from .oracle import fd_gradient
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
    fastest so each beta block stays together.  One oracle per loss regime;
    both lists are checked before any oracle or estimate runs.
    """
    nudging = NudgeMode(nudging)
    if np.ndim(betas) != 1 or len(betas) == 0 or not np.all(np.isfinite(betas)) or 0.0 in betas:
        raise ValueError(f"betas must be a non-empty list of finite nonzero values, got {betas!r}")
    problems = [prepare(m, lagrangian, hamiltonian, task, theta, nudging, fd_eps, cbvp_config,
                        cbvp_coarsen) for m in estimators]
    if not problems:
        raise ValueError("estimators must list at least one trajectory method")

    oracles = {}
    for problem in problems:
        if problem.regime not in oracles:
            oracles[problem.regime] = fd_gradient(problem.loss, theta, eps=fd_eps).value

    cells = []
    for beta in betas:
        estimates = {}
        for problem in problems:
            started = time.perf_counter()
            estimates[problem.method] = (problem.estimate(theta, beta),
                                         time.perf_counter() - started)

        diff = None
        if EstimatorMethod.RHEL in estimates and EstimatorMethod.PFVP in estimates:
            diff = _rel_err(estimates[EstimatorMethod.RHEL][0].value,
                            estimates[EstimatorMethod.PFVP][0].value)

        for problem in problems:
            est, elapsed = estimates[problem.method]
            cells.append(
                CompareCell(
                    task=task.name,
                    estimator=problem.method.value,
                    beta=float(beta),
                    nudging=nudging.value,
                    gradient=est.value,
                    rel_err_vs_oracle=_rel_err(est.value, oracles[problem.regime]),
                    rhel_pfvp_rel_diff=diff if problem.method is EstimatorMethod.RHEL else None,
                    wall_time=elapsed,
                )
            )
    return ComparisonTable(cells=tuple(cells))
