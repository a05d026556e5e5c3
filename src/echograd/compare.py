"""Estimator comparison matrix: every (estimator, beta) cell against the oracle.

Each trajectory estimator is validated against a finite-difference gradient
of the loss it actually answers: the initial-value estimators share the free
trajectory loss, while the boundary-value estimator is compared on its own
pinned-endpoint problem; each oracle rides the first estimator of its regime
(``estimators.estimate_and_oracle``, as in ``gradcheck``).  When both the
echo and final-value estimators are present, every beta row also reports
their mutual discrepancy, at roundoff for Legendre partners at any beta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import (
    EstimatorMethod,
    HamiltonianModel,
    LagrangianModel,
    NudgeMode,
    ParamVector,
    check_betas,
    relative_error,
)
from .estimators import estimate_and_oracle, prepare
from .serialize import finite_or_null, write_json
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
                    "rel_err_vs_oracle": finite_or_null(c.rel_err_vs_oracle),
                    "rhel_pfvp_rel_diff": finite_or_null(c.rhel_pfvp_rel_diff),
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
        write_json(path, self.to_json_payload())


def compare_estimators(
    lagrangian: LagrangianModel,
    hamiltonian: HamiltonianModel,
    theta: ParamVector,
    task: Task,
    betas,
    estimators,
    nudging: NudgeMode = NudgeMode.SYMMETRIC,
    fd_eps: float = 1e-5,
    cbvp_tol: float = 1e-10,
) -> ComparisonTable:
    """Run the (estimator, beta) matrix on one task.

    Emits one cell per combination, in the given order: estimators vary
    fastest so each beta block stays together.  One ``estimate(theta,
    betas)`` call per estimator integrates its free run once and every signed
    beta as one nudged run; the first of each loss regime is made by
    :func:`estimate_and_oracle`, which evaluates the regime's oracle with it.
    Every cell of an estimator has that call's ``wall_time``, which counts the
    oracle's rows where they ride a CIVP or PFVP lockstep.  Both lists are
    checked before any oracle or estimate runs.
    """
    nudging = NudgeMode(nudging)
    if np.ndim(betas) != 1:
        raise ValueError(f"betas must be a non-empty 1-d list, got {betas!r}")
    check_betas(betas)
    problems = [prepare(m, lagrangian, hamiltonian, task, theta, nudging, fd_eps, cbvp_tol)
                for m in estimators]
    if not problems:
        raise ValueError("estimators must list at least one trajectory method")

    oracles, estimates = {}, {}
    for problem in problems:
        if problem.regime in oracles:
            estimates[problem.method] = problem.estimate(theta, betas)
        else:
            estimates[problem.method], oracle = estimate_and_oracle(problem, theta, betas, fd_eps)
            oracles[problem.regime] = oracle.value

    cells = []
    for i, beta in enumerate(betas):
        diff = None
        if EstimatorMethod.RHEL in estimates and EstimatorMethod.PFVP in estimates:
            diff = relative_error(estimates[EstimatorMethod.RHEL][i].value,
                                  estimates[EstimatorMethod.PFVP][i].value)

        for problem in problems:
            est = estimates[problem.method][i]
            cells.append(
                CompareCell(
                    task=task.name,
                    estimator=problem.method.value,
                    beta=float(beta),
                    nudging=nudging.value,
                    gradient=est.value,
                    rel_err_vs_oracle=relative_error(est.value, oracles[problem.regime]),
                    rhel_pfvp_rel_diff=diff if problem.method is EstimatorMethod.RHEL else None,
                    wall_time=est.wall_time,
                )
            )
    return ComparisonTable(cells=tuple(cells))
