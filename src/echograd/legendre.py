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

import functools

import numpy as np

from .core import (
    BoundHamiltonian,
    HamiltonianModel,
    LagrangianModel,
    central_probes,
    central_quotient,
)
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
    return _newton(model.grad_velocity, model.velocity_hessian, s, p, theta, x, "velocity",
                   "momentum inversion did not converge")


def _hessian_fd(grad, s, c, theta, x):
    """Central-difference Jacobian of ``grad(s, c, theta, x)`` in ``c``."""
    probes = central_probes(c, _FD_HESSIAN_EPS)
    return central_quotient([grad(s, row, theta, x) for row in probes], _FD_HESSIAN_EPS)


def _momentum_from_hamiltonian(model: HamiltonianModel, s, v, theta, x=None) -> np.ndarray:
    """Solve dH/dp(s, p) = v for p (Newton, FD momentum Hessian)."""
    return _newton(model.grad_momentum, functools.partial(_hessian_fd, model.grad_momentum), s,
                   v, theta, x, "momentum", "velocity inversion did not converge")


def _newton(grad, hessian, s, target, theta, x, what, failure):
    """Solve ``grad(s, c, theta, x) = target`` for ``c`` by Newton from
    ``c = target``, to ``NEWTON_TOL`` relative to ``target`` within
    ``NEWTON_MAX_ITER`` steps, else ``ConvergenceError(failure)``; ``what``
    names the Hessian in a singular-solve error."""
    target = np.asarray(target, dtype=float)
    c = target.copy()
    for _ in range(NEWTON_MAX_ITER):
        residual = np.asarray(grad(s, c, theta, x), dtype=float) - target
        if np.max(np.abs(residual)) <= NEWTON_TOL * (1.0 + np.max(np.abs(target))):
            return c
        c = c - _solve(np.asarray(hessian(s, c, theta, x), dtype=float), residual, what)
    raise ConvergenceError(failure)


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
        return _BoundLegendreHamiltonian(self, theta, xs, self._source.bind(theta, xs))


class _BoundLegendreHamiltonian(BoundHamiltonian):
    """The methods above, evaluated through ``source``, the source model's
    binding at the same ``theta`` and ``xs``, so a source with a closed-form
    velocity never reaches the momentum solve.

    The per-step methods are the source binding's own bound methods, set on
    the instance: each velocity is one call into the source, and ``force``
    is the source binding's, the force of the partner flow.
    """

    def __init__(self, model, theta, xs, source):
        super().__init__(model, theta, xs)
        self._source = source
        self.grad_position = source.partner_grad_position
        self.grad_momentum = source.velocity
        self.force = source.force

    def grad_params_contrast(self, positions, momenta, ref_positions, ref_momenta, dt):
        """dH/dtheta = -dL/dtheta at the velocities of the momenta: the
        source binding's contrast at ``velocity_rows``, negated."""
        source = self._source
        contrast = source.grad_params_contrast(
            positions, source.velocity_rows(positions, momenta),
            ref_positions, source.velocity_rows(ref_positions, ref_momenta), dt)
        return np.negative(contrast, out=contrast)


class _BindingPartner(LegendreHamiltonian):
    """The partner of ``source.model`` for one solve at the ``theta`` and
    ``xs`` that the source binding ``source`` fixes: ``bind`` reuses it
    instead of binding the source model again."""

    def __init__(self, source):
        super().__init__(source.model)
        self._bound_source = source

    def bind(self, theta, xs=None):
        return _BoundLegendreHamiltonian(self, theta, xs, self._bound_source)


class LegendreLagrangian(LagrangianModel):
    """Lagrangian view of a Hamiltonian model: L = p(s,v).v - H(s, p(s,v)).

    It backs the Legendre round-trip checks.  It does not declare
    ``quadratic_kinetic``, so the integrators refuse it."""

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
        return _hessian_fd(self.grad_velocity, s, v, theta, x)


def forward_legendre(model: LagrangianModel) -> HamiltonianModel:
    """Hamiltonian partner of a Lagrangian model."""
    return LegendreHamiltonian(model)


def backward_legendre(model: HamiltonianModel) -> LagrangianModel:
    """Lagrangian partner of a Hamiltonian model."""
    return LegendreLagrangian(model)
