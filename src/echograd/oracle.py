"""Ground-truth gradients by central finite differences over parameters.

The oracle deliberately re-runs a full forward solve per probe and shares no
code with the contrastive estimators beyond the simulators that define the
loss itself.  It is built to be slow and trustworthy: every estimator in the
package is validated against it.  The 2P probes are still one forward solve
each; the loss takes them as one ``(2P, P)`` stack, so the initial-value
solves run in lockstep along the integrators' batch axis, each row bitwise
the solve it would be on its own.  That stack may ride with an estimator's
own runs: every gradient check, and a comparison for the first estimator
of each loss regime, hand :func:`fd_gradient` a loss that passes the probe
rows to the estimate as ``loss_thetas`` (``estimators.estimate_and_oracle``),
which the CIVP and PFVP estimators run inside their first lockstep and
static EP inside its free relaxation.  Every free-run loss of a trajectory,
here and there, is formed by ``core.free_losses``, which raises
``NumericalError`` for a non-finite one.
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
    check_positive_finite,
    free_losses,
)
from .dynamics import integrate_lagrangian_ivp
from .errors import NumericalError
from .glep import CbvpSpec, CivpSpec, solve_cbvp

__all__ = ["fd_gradient", "trajectory_loss"]

DEFAULT_FD_EPS = 1e-5


def fd_gradient(loss, theta: ParamVector, eps: float = DEFAULT_FD_EPS) -> GradientEstimate:
    """Central-difference gradient of a stacked loss.

    ``loss`` takes a ``(2P, P)`` array of parameter rows and returns their
    ``2P`` losses.  Rows ``2j`` and ``2j + 1`` are ``theta`` with entry ``j``
    shifted by ``+eps`` and ``-eps``.  ``loss`` must be deterministic and
    evaluate every row as it would on its own; a non-finite value aborts.
    """
    check_positive_finite(eps, "finite-difference step")
    th = as_params(theta)
    n = th.shape[0]
    probes = np.repeat(th[None, :], 2 * n, axis=0)
    j = np.arange(n)
    probes[2 * j, j] += eps
    probes[2 * j + 1, j] -= eps
    values = np.asarray(loss(probes), dtype=float)
    if values.shape != (2 * n,):
        raise ValueError(f"loss must return one value per probe row, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        probe = int(np.argmin(finite)) // 2
        raise NumericalError(f"loss evaluated to a non-finite value at probe {probe}")
    grad = (values[0::2] - values[1::2]) / (2.0 * eps)
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
    cbvp_tol: float = 1e-10,
) -> float:
    """Trapezoid-rule cost of the free trajectory under a boundary regime.

    Initial-value regimes integrate directly; the two-endpoint regime solves
    the free boundary value problem first, to ``cbvp_tol``.  ``theta`` of
    shape ``(P,)`` gives a float; a ``(B, P)`` stack gives the ``B`` losses
    as an array, the initial-value solves run in lockstep and the boundary
    value problems one after another.  A loss that is not finite raises
    ``NumericalError`` naming its row (:func:`~echograd.core.free_losses`).
    """
    th = as_params(theta)
    if isinstance(spec, CivpSpec):
        positions = integrate_lagrangian_ivp(model, th, spec.position, spec.velocity, grid,
                                             x).positions
    elif isinstance(spec, CbvpSpec):
        positions = np.array([solve_cbvp(model, row, spec, grid, x,
                                         tol=cbvp_tol).trajectory.positions
                              for row in np.atleast_2d(th)])
    else:
        raise TypeError(f"unsupported boundary spec {type(spec).__name__}")
    losses = free_losses(cost, positions.reshape((-1,) + positions.shape[-2:]), y, grid.dt)
    return float(losses[0]) if th.ndim == 1 else losses
