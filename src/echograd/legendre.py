"""Forward and backward Legendre transforms as evaluatable wrappers.

The transforms close over the source model and solve the momentum relation
numerically where needed; nothing symbolic happens.  Invertibility of the
relevant Hessian is checked lazily at each evaluation point.

Conversion rules:

- velocity -> momentum is always explicit: ``p = dL/dv``.
- momentum -> velocity solves ``dL/dv = p``.  Models that declare a constant
  velocity Hessian get the closed-form solve; everything else runs a Newton
  iteration (tolerance 1e-12, at most 50 steps).
- velocity from a Hamiltonian is explicit: ``v = dH/dp``; the reverse solves
  ``dH/dp = v`` by Newton with a finite-difference momentum Hessian.

The parameter gradients of the wrappers use the envelope identity: at
corresponding points the Hamiltonian and Lagrangian parameter gradients are
exact negatives, so no derivative of the implicit map is ever needed.
"""

from __future__ import annotations

import numpy as np

from .core import BoundHamiltonian, HamiltonianModel, LagrangianModel
from .errors import ConvergenceError, SingularHessianError

__all__ = [
    "forward_legendre",
    "backward_legendre",
    "velocity_from_momentum",
    "momentum_from_velocity",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
_FD_HESSIAN_EPS = 1e-6


def _solve(matrix, rhs, what):
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError(f"singular {what} Hessian") from exc


def momentum_from_velocity(model: LagrangianModel, s, v, theta, x=None) -> np.ndarray:
    return np.asarray(model.grad_velocity(s, v, theta, x), dtype=float)


def velocity_from_momentum(model: LagrangianModel, s, p, theta, x=None) -> np.ndarray:
    """Solve dL/dv(s, v) = p for v."""
    p = np.asarray(p, dtype=float)
    if model.quadratic_kinetic:
        zero = np.zeros(model.dim)
        hess = np.asarray(model.velocity_hessian(s, zero, theta, x), dtype=float)
        offset = np.asarray(model.grad_velocity(s, zero, theta, x), dtype=float)
        return _solve(hess, p - offset, "velocity")
    v = p.copy()
    for _ in range(NEWTON_MAX_ITER):
        residual = np.asarray(model.grad_velocity(s, v, theta, x), dtype=float) - p
        if np.max(np.abs(residual)) <= NEWTON_TOL * (1.0 + np.max(np.abs(p))):
            return v
        hess = np.asarray(model.velocity_hessian(s, v, theta, x), dtype=float)
        v = v - _solve(hess, residual, "velocity")
    raise ConvergenceError("momentum inversion did not converge")


def _momentum_hessian_fd(model: HamiltonianModel, s, p, theta, x):
    d = model.dim
    hess = np.empty((d, d))
    for j in range(d):
        dp = np.zeros(d)
        dp[j] = _FD_HESSIAN_EPS
        gp = np.asarray(model.grad_momentum(s, p + dp, theta, x), dtype=float)
        gm = np.asarray(model.grad_momentum(s, p - dp, theta, x), dtype=float)
        hess[:, j] = (gp - gm) / (2.0 * _FD_HESSIAN_EPS)
    return hess


def _momentum_from_hamiltonian(model: HamiltonianModel, s, v, theta, x=None) -> np.ndarray:
    """Solve dH/dp(s, p) = v for p (Newton, FD momentum Hessian)."""
    v = np.asarray(v, dtype=float)
    p = v.copy()
    for _ in range(NEWTON_MAX_ITER):
        residual = np.asarray(model.grad_momentum(s, p, theta, x), dtype=float) - v
        if np.max(np.abs(residual)) <= NEWTON_TOL * (1.0 + np.max(np.abs(v))):
            return p
        hess = _momentum_hessian_fd(model, s, p, theta, x)
        p = p - _solve(hess, residual, "momentum")
    raise ConvergenceError("velocity inversion did not converge")


class LegendreHamiltonian(HamiltonianModel):
    """Hamiltonian view of a Lagrangian model: H = p.v(s,p) - L(s, v(s,p))."""

    def __init__(self, source: LagrangianModel):
        self._source = source
        self.dim = source.dim
        self.theta_dim = source.theta_dim
        self.input_dim = source.input_dim
        self.time_reversible = source.reversible
        self.separable = source.quadratic_kinetic

    def _velocity(self, s, p, theta, x):
        return velocity_from_momentum(self._source, s, p, theta, x)

    def hamiltonian(self, s, p, theta, x=None):
        p = np.asarray(p, dtype=float)
        v = self._velocity(s, p, theta, x)
        return float(p @ v) - self._source.lagrangian(s, v, theta, x)

    def grad_position(self, s, p, theta, x=None):
        v = self._velocity(s, p, theta, x)
        return -np.asarray(self._source.grad_position(s, v, theta, x), dtype=float)

    def grad_momentum(self, s, p, theta, x=None):
        return self._velocity(s, p, theta, x)

    def grad_params(self, s, p, theta, x=None):
        v = self._velocity(s, p, theta, x)
        return -np.asarray(self._source.grad_params(s, v, theta, x), dtype=float)

    def bind(self, theta, xs=None):
        return _BoundLegendreHamiltonian(self, theta, xs)


class _BoundLegendreHamiltonian(BoundHamiltonian):
    """The methods above, evaluated through the source model's binding, so a
    source with a closed-form velocity never reaches the momentum solve.

    The per-step methods are the source binding's own bound methods, set on
    the instance: each force or velocity is one call into the source.
    """

    def __init__(self, model, theta, xs=None):
        super().__init__(model, theta, xs)
        self._source = model._source.bind(self.theta, xs)
        self.grad_position = self._source.partner_grad_position
        self.grad_momentum = self._source.velocity

    def grad_params_rows(self, positions, momenta):
        rows = self._source.grad_params_rows(positions, self._source.velocity_rows(positions, momenta))
        return np.negative(rows, out=rows)


class LegendreLagrangian(LagrangianModel):
    """Lagrangian view of a Hamiltonian model: L = p(s,v).v - H(s, p(s,v))."""

    quadratic_kinetic = False

    def __init__(self, source: HamiltonianModel):
        self._source = source
        self.dim = source.dim
        self.theta_dim = source.theta_dim
        self.input_dim = source.input_dim
        self.reversible = source.time_reversible

    def _momentum(self, s, v, theta, x):
        return _momentum_from_hamiltonian(self._source, s, v, theta, x)

    def lagrangian(self, s, v, theta, x=None):
        v = np.asarray(v, dtype=float)
        p = self._momentum(s, v, theta, x)
        return float(p @ v) - self._source.hamiltonian(s, p, theta, x)

    def grad_position(self, s, v, theta, x=None):
        p = self._momentum(s, v, theta, x)
        return -np.asarray(self._source.grad_position(s, p, theta, x), dtype=float)

    def grad_velocity(self, s, v, theta, x=None):
        return self._momentum(s, v, theta, x)

    def grad_params(self, s, v, theta, x=None):
        p = self._momentum(s, v, theta, x)
        return -np.asarray(self._source.grad_params(s, p, theta, x), dtype=float)

    def velocity_hessian(self, s, v, theta, x=None):
        v = np.asarray(v, dtype=float)
        d = self.dim
        hess = np.empty((d, d))
        for j in range(d):
            dv = np.zeros(d)
            dv[j] = _FD_HESSIAN_EPS
            gp = self.grad_velocity(s, v + dv, theta, x)
            gm = self.grad_velocity(s, v - dv, theta, x)
            hess[:, j] = (gp - gm) / (2.0 * _FD_HESSIAN_EPS)
        return hess


def forward_legendre(model: LagrangianModel) -> HamiltonianModel:
    """Hamiltonian partner of a Lagrangian model."""
    return LegendreHamiltonian(model)


def backward_legendre(model: HamiltonianModel) -> LagrangianModel:
    """Lagrangian partner of a Hamiltonian model."""
    return LegendreLagrangian(model)
