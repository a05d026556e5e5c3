"""Ground-truth gradients by central finite differences over parameters.

The oracle deliberately re-runs a full forward solve per probe and shares no
code with the contrastive estimators beyond the simulators that define the
loss itself.  It is built to be slow and trustworthy: every estimator in the
package is validated against it.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CostModel,
    EstimatorMethod,
    GradientEstimate,
    LagrangianModel,
    NudgeMode,
    ParamVector,
    Signal,
    TimeGrid,
    as_params,
    trapezoid,
)
from .dynamics import integrate_lagrangian_ivp
from .errors import NumericalError
from .glep import CbvpRelaxConfig, CbvpSpec, CivpSpec, solve_cbvp

__all__ = ["fd_gradient", "trajectory_loss"]

DEFAULT_FD_EPS = 1e-5


def fd_gradient(loss, theta: ParamVector, eps: float = DEFAULT_FD_EPS) -> GradientEstimate:
    """Central-difference gradient of ``loss(theta) -> float``.

    ``loss`` must be deterministic; a non-finite evaluation aborts.
    """
    if eps <= 0:
        raise ValueError("finite-difference step must be positive")
    th = as_params(theta)
    grad = np.empty(th.shape[0])
    for j in range(th.shape[0]):
        th_p, th_m = th.copy(), th.copy()
        th_p[j] += eps
        th_m[j] -= eps
        f_plus = float(loss(ParamVector(th_p)))
        f_minus = float(loss(ParamVector(th_m)))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError(f"loss evaluated to a non-finite value at probe {j}")
        grad[j] = (f_plus - f_minus) / (2.0 * eps)
    return GradientEstimate(
        value=grad, method=EstimatorMethod.FD_ORACLE, beta=0.0, nudging=NudgeMode.SYMMETRIC
    )


def trajectory_loss(
    model: LagrangianModel,
    cost: CostModel,
    theta,
    spec,
    grid: TimeGrid,
    x: Signal | None,
    y: Signal,
    cbvp_config: CbvpRelaxConfig | None = None,
) -> float:
    """Trapezoid-rule cost of the free trajectory under a boundary regime.

    Initial-value regimes integrate directly; the two-endpoint regime solves
    the free boundary value problem first.
    """
    th = as_params(theta)
    if not cost.position_only:
        raise ValueError("trajectory losses are defined on position-only costs")
    if isinstance(spec, CivpSpec):
        traj = integrate_lagrangian_ivp(model, th, spec.position, spec.velocity, grid, x)
    elif isinstance(spec, CbvpSpec):
        traj = solve_cbvp(model, th, spec, grid, x, config=cbvp_config).trajectory
    else:
        raise TypeError(f"unsupported boundary spec {type(spec).__name__}")
    return float(trapezoid(cost.cost_rows(traj.positions, y.values), grid.dt))
