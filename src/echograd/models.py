"""Coupled-oscillator model zoo and instantaneous cost functions.

Every zoo member is a Lagrangian/Hamiltonian pair built from one potential

    V(s, theta, x) = 1/2 s^T K(theta) s + s^T W(theta) x + q/4 * sum_i s_i^4

with unit-mass kinetic term, so L = 1/2 |v|^2 - V and H = 1/2 |p|^2 + V are
exact Legendre partners by construction.  The Lagrangian is even in the
velocity and the Hamiltonian even in the momentum, which makes every member
time-reversible.

The stiffness parameterisation depends on the coupling descriptor:

- ``"direct"``: K is filled symmetrically from d(d+1)/2 parameters (upper
  triangle, row-major).  Useful for analytically checkable instances; K is
  not guaranteed positive definite.
- ``"dense"``: K = A^T A + 0.1 I with A a full d x d matrix read from d^2
  parameters.  Positive definite, so trajectories stay bounded.
- ``"chain"``: K = A^T A + 0.1 I with A lower bidiagonal (2d - 1 parameters),
  giving tridiagonal nearest-neighbour coupling.
- a boolean (d, d) mask: like ``"direct"`` restricted to the masked entries;
  the mask must be symmetric.

When ``input_dim > 0`` the remaining parameters fill the input coupling W
(d x input_dim, row-major).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundHamiltonian,
    BoundLagrangian,
    CostModel,
    HamiltonianModel,
    LagrangianModel,
    ParamVector,
)

__all__ = [
    "make_oscillator_model",
    "make_quartic_model",
    "OscillatorLagrangian",
    "OscillatorHamiltonian",
    "QuadraticTrackingCost",
    "PhaseTrackingCost",
    "ZeroCost",
    "ZooMember",
    "model_zoo",
]

_STIFFNESS_FLOOR = 0.1


def _triangle_indices(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


class _OscillatorCore:
    """Shared potential machinery behind the Lagrangian/Hamiltonian pair."""

    def __init__(self, dim, coupling, input_dim, quartic):
        if int(dim) != dim or dim < 1:
            raise ValueError(f"state dimension must be a positive integer, got {dim}")
        if int(input_dim) != input_dim or input_dim < 0:
            raise ValueError(f"input_dim must be a non-negative integer, got {input_dim}")
        if quartic < 0:
            raise ValueError("quartic strength must be non-negative")
        self.dim = int(dim)
        self.input_dim = int(input_dim)
        self.quartic = float(quartic)
        self.coupling = coupling

        if isinstance(coupling, str):
            if coupling == "direct":
                self._entries = _triangle_indices(self.dim)
                self._n_stiffness = len(self._entries)
            elif coupling == "dense":
                self._n_stiffness = self.dim * self.dim
            elif coupling == "chain":
                self._n_stiffness = 2 * self.dim - 1
            else:
                raise ValueError(
                    f"unknown coupling topology {coupling!r}; "
                    "expected 'direct', 'dense', 'chain', or a symmetric boolean mask"
                )
        else:
            mask = np.asarray(coupling, dtype=bool)
            if mask.shape != (self.dim, self.dim):
                raise ValueError(f"coupling mask must have shape ({self.dim}, {self.dim})")
            if not np.array_equal(mask, mask.T):
                raise ValueError("coupling mask implies an asymmetric stiffness matrix")
            self.coupling = "mask"
            self._entries = [(i, j) for (i, j) in _triangle_indices(self.dim) if mask[i, j]]
            self._n_stiffness = len(self._entries)

        self.theta_dim = self._n_stiffness + self.dim * self.input_dim
        if self.coupling in ("direct", "mask"):
            self._entry_rows, self._entry_cols = np.array(
                self._entries, dtype=int).reshape(-1, 2).T

    def _split(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.theta_dim,):
            raise ValueError(
                f"expected {self.theta_dim} parameters for this topology, got shape {theta.shape}"
            )
        theta_k = theta[: self._n_stiffness]
        w = None
        if self.input_dim > 0:
            w = theta[self._n_stiffness :].reshape(self.dim, self.input_dim)
        return theta_k, w

    def _factor(self, theta_k):
        """The matrix A in K = A^T A + floor, for the factored topologies."""
        d = self.dim
        if self.coupling == "dense":
            return theta_k.reshape(d, d)
        a = np.zeros((d, d))
        a[np.arange(d), np.arange(d)] = theta_k[:d]
        if d > 1:
            a[np.arange(1, d), np.arange(d - 1)] = theta_k[d:]
        return a

    def stiffness(self, theta) -> np.ndarray:
        theta_k, _ = self._split(theta)
        d = self.dim
        if self.coupling in ("direct", "mask"):
            k = np.zeros((d, d))
            for m, (i, j) in enumerate(self._entries):
                k[i, j] = theta_k[m]
                k[j, i] = theta_k[m]
            return k
        a = self._factor(theta_k)
        return a.T @ a + _STIFFNESS_FLOOR * np.eye(d)

    def _input_force(self, w, x):
        if w is None:
            return 0.0
        if x is None:
            raise ValueError("model has input coupling but no input sample was provided")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"input sample must have shape ({self.input_dim},), got {x.shape}")
        return w @ x

    def potential(self, s, theta, x):
        _, w = self._split(theta)
        s = np.asarray(s, dtype=float)
        value = 0.5 * s @ (self.stiffness(theta) @ s)
        if w is not None:
            value += s @ self._input_force(w, x)
        if self.quartic:
            value += 0.25 * self.quartic * np.sum(s**4)
        return float(value)

    def potential_grad_s(self, s, theta, x):
        _, w = self._split(theta)
        s = np.asarray(s, dtype=float)
        grad = self.stiffness(theta) @ s
        if w is not None:
            grad = grad + self._input_force(w, x)
        if self.quartic:
            grad = grad + self.quartic * s**3
        return grad

    def potential_grad_theta(self, s, theta, x):
        theta_k, w = self._split(theta)
        s = np.asarray(s, dtype=float)
        if self.coupling in ("direct", "mask"):
            g_k = np.empty(self._n_stiffness)
            for m, (i, j) in enumerate(self._entries):
                g_k[m] = 0.5 * s[i] * s[i] if i == j else s[i] * s[j]
        else:
            a = self._factor(theta_k)
            as_ = a @ s
            if self.coupling == "dense":
                g_k = np.outer(as_, s).ravel()
            else:
                d = self.dim
                g_k = np.empty(self._n_stiffness)
                g_k[:d] = as_ * s
                if d > 1:
                    g_k[d:] = as_[1:] * s[:-1]
        if w is None:
            return g_k
        x = np.asarray(x, dtype=float)
        g_w = np.outer(s, x).ravel()
        return np.concatenate([g_k, g_w])


class _BoundPotential:
    """V(s, theta, x_k) with theta and the input samples fixed for one solve.

    ``theta`` is one vector or a ``(B, theta_dim)`` stack.  K and the input
    force W x_k of every grid point are formed once per theta row; the force
    on a ``(B, dim)`` state stack is one stacked matrix product per step.
    The parameter gradient of a whole trajectory (single theta) is one array
    product per block.  Row by row, the arithmetic of ``grad_s`` is that of
    ``potential_grad_s``.
    """

    def __init__(self, core: _OscillatorCore, theta, xs):
        thetas = np.atleast_2d(theta)
        splits = [core._split(row) for row in thetas]
        self._core = core
        # (rows, d, d): np.matmul against (B, d, 1) states reproduces K @ s
        # bitwise per row, which S @ K.T does not.
        self._stiffness = np.stack([core.stiffness(row) for row in thetas])
        self._single = theta.ndim == 1
        self._factor = None
        if self._single and core.coupling not in ("direct", "mask"):
            self._factor = core._factor(splits[0][0])
        self._xs = None
        self._drive = None
        if core.input_dim > 0:
            if xs is None:
                raise ValueError("model has input coupling but no input samples were provided")
            xs = np.asarray(xs, dtype=float)
            if xs.ndim != 2 or xs.shape[1] != core.input_dim:
                raise ValueError(
                    f"input samples must have shape (n_points, {core.input_dim}), got {xs.shape}"
                )
            self._xs = xs
            # (n_points, rows, d), so the drive of step k is one contiguous block.
            self._drive = np.stack([xs @ w.T for _, w in splits], axis=1)

    def grad_s(self, s, k):
        """dV/ds of the ``(B, dim)`` state stack ``s`` at grid point ``k``."""
        grad = np.matmul(self._stiffness, s[:, :, None])[:, :, 0]
        if self._drive is not None:
            grad = grad + self._drive[k]
        if self._core.quartic:
            grad = grad + self._core.quartic * s**3
        return grad

    def grad_s_rows(self, positions, ks):
        """dV/ds at one state per row, row ``i`` at the grid index ``ks[i]``.

        Needs a single theta; row by row, the arithmetic is that of ``grad_s``.
        """
        if not self._single:
            raise ValueError("position gradient rows need a single parameter vector")
        grad = np.matmul(self._stiffness, positions[:, :, None])[:, :, 0]
        if self._drive is not None:
            grad = grad + self._drive[ks, 0]
        if self._core.quartic:
            grad = grad + self._core.quartic * positions**3
        return grad

    def grad_theta_rows(self, positions):
        """(rows, theta_dim) array of dV/dtheta, row k at ``positions[k]`` and x_k.

        Needs a single theta.
        """
        core = self._core
        if not self._single:
            raise ValueError("parameter gradient rows need a single parameter vector")
        s = np.asarray(positions, dtype=float)
        n_rows, d = s.shape
        rows = np.empty((n_rows, core.theta_dim))
        g_k = rows[:, : core._n_stiffness]
        if core.coupling in ("direct", "mask"):
            i, j = core._entry_rows, core._entry_cols
            np.multiply(s[:, i], s[:, j], out=g_k)
            g_k[:, i == j] *= 0.5
        else:
            as_ = s @ self._factor.T
            if core.coupling == "dense":
                np.multiply(as_[:, :, None], s[:, None, :], out=g_k.reshape(n_rows, d, d))
            else:
                np.multiply(as_, s, out=g_k[:, :d])
                np.multiply(as_[:, 1:], s[:, :-1], out=g_k[:, d:])
        if self._xs is not None:
            if self._xs.shape[0] != n_rows:
                raise ValueError(f"expected {self._xs.shape[0]} states, got {n_rows}")
            g_w = rows[:, core._n_stiffness :].reshape(n_rows, d, core.input_dim)
            np.multiply(s[:, :, None], self._xs[:, None, :], out=g_w)
        return rows


class OscillatorLagrangian(LagrangianModel):
    """Unit-mass Lagrangian 1/2 |v|^2 - V(s, theta, x)."""

    reversible = True
    quadratic_kinetic = True

    def __init__(self, core: _OscillatorCore):
        self._core = core
        self.dim = core.dim
        self.theta_dim = core.theta_dim
        self.input_dim = core.input_dim

    def lagrangian(self, s, v, theta, x=None):
        v = np.asarray(v, dtype=float)
        return 0.5 * float(v @ v) - self._core.potential(s, theta, x)

    def grad_position(self, s, v, theta, x=None):
        return -self._core.potential_grad_s(s, theta, x)

    def grad_velocity(self, s, v, theta, x=None):
        return np.array(v, dtype=float)

    def grad_params(self, s, v, theta, x=None):
        return -self._core.potential_grad_theta(s, theta, x)

    def velocity_hessian(self, s, v, theta, x=None):
        return np.eye(self.dim)

    def grad_velocity_params(self, s, v, theta, x=None, eps=1e-5):
        return np.zeros((self.dim, self.theta_dim))

    def bind(self, theta, xs=None):
        return _BoundOscillatorLagrangian(self, theta, xs)


class OscillatorHamiltonian(HamiltonianModel):
    """Separable Hamiltonian 1/2 |p|^2 + V(s, theta, x)."""

    time_reversible = True
    separable = True

    def __init__(self, core: _OscillatorCore):
        self._core = core
        self.dim = core.dim
        self.theta_dim = core.theta_dim
        self.input_dim = core.input_dim

    def hamiltonian(self, s, p, theta, x=None):
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ p) + self._core.potential(s, theta, x)

    def grad_position(self, s, p, theta, x=None):
        return self._core.potential_grad_s(s, theta, x)

    def grad_momentum(self, s, p, theta, x=None):
        return np.array(p, dtype=float)

    def grad_params(self, s, p, theta, x=None):
        return self._core.potential_grad_theta(s, theta, x)

    def bind(self, theta, xs=None):
        return _BoundOscillatorHamiltonian(self, theta, xs)


# Unit mass: velocity and momentum coincide, so the Legendre map is the
# identity and the bound methods below return the momentum as the velocity.


class _BoundOscillatorLagrangian(BoundLagrangian):
    def __init__(self, model, theta, xs=None):
        super().__init__(model, theta, xs)
        self._potential = _BoundPotential(model._core, self.theta, xs)

    def grad_position(self, s, v, k):
        return -self._potential.grad_s(s, k)

    def grad_velocity(self, s, v, k):
        return np.array(v, dtype=float)

    def grad_position_rows(self, positions, velocities, ks):
        return -self._potential.grad_s_rows(positions, ks)

    def grad_velocity_rows(self, positions, velocities, ks):
        return np.array(velocities, dtype=float)

    def velocity(self, s, p, k):
        return p

    def partner_grad_position(self, s, p, k):
        return self._potential.grad_s(s, k)

    def velocity_rows(self, positions, momenta):
        return np.array(momenta, dtype=float)

    def grad_params_rows(self, positions, velocities):
        rows = self._potential.grad_theta_rows(positions)
        return np.negative(rows, out=rows)


class _BoundOscillatorHamiltonian(BoundHamiltonian):
    def __init__(self, model, theta, xs=None):
        super().__init__(model, theta, xs)
        self._potential = _BoundPotential(model._core, self.theta, xs)

    def grad_position(self, s, p, k):
        return self._potential.grad_s(s, k)

    def grad_momentum(self, s, p, k):
        return p

    def grad_params_rows(self, positions, momenta):
        return self._potential.grad_theta_rows(positions)


def make_oscillator_model(dim, coupling="dense", input_dim=0):
    """Build a Legendre-partner (Lagrangian, Hamiltonian) oscillator pair.

    Raises ValueError for a non-positive dimension or a coupling descriptor
    that would imply an asymmetric stiffness matrix.
    """
    core = _OscillatorCore(dim, coupling, input_dim, quartic=0.0)
    return OscillatorLagrangian(core), OscillatorHamiltonian(core)


def make_quartic_model(dim, coupling="chain", input_dim=0, strength=1.0):
    """Oscillator pair with an extra quartic well, for nonlinear dynamics."""
    core = _OscillatorCore(dim, coupling, input_dim, quartic=strength)
    return OscillatorLagrangian(core), OscillatorHamiltonian(core)


def _selector(dim, indices):
    """The coordinates a tracking cost reads, as a tuple and as an index array."""
    if indices is None:
        indices = range(dim)
    indices = tuple(int(i) for i in indices)
    if any(i < 0 or i >= dim for i in indices):
        raise ValueError(f"selector indices must lie in [0, {dim}), got {indices}")
    return indices, np.array(indices, dtype=int)


class QuadraticTrackingCost(CostModel):
    """l2 tracking error on a selected subset of position coordinates."""

    position_only = True

    def __init__(self, dim, indices=None):
        self.dim = int(dim)
        self.indices, self._index = _selector(self.dim, indices)
        self.target_dim = len(self.indices)

    def cost(self, state, target):
        err = np.asarray(state, dtype=float)[self._index] - np.asarray(target, dtype=float)
        return 0.5 * float(err @ err)

    def grad_state(self, state, target):
        grad = np.zeros(self.dim)
        err = np.asarray(state, dtype=float)[self._index] - np.asarray(target, dtype=float)
        grad[self._index] = err
        return grad

    def cost_rows(self, states, targets):
        err = np.asarray(states, dtype=float)[:, self._index] - np.asarray(targets, dtype=float)
        return 0.5 * np.einsum("ij,ij->i", err, err)

    def grad_state_rows(self, states, targets):
        states = np.asarray(states, dtype=float)
        grad = np.zeros_like(states)
        grad[:, self._index] = states[:, self._index] - np.asarray(targets, dtype=float)
        return grad


class PhaseTrackingCost(CostModel):
    """Tracking error on positions plus a momentum penalty on the same subset.

    Exercises the momentum-dependent cost path of the echo phase; not usable
    with the purely configuration-space estimators.
    """

    position_only = False

    def __init__(self, dim, indices=None, momentum_weight=0.1):
        self.dim = int(dim)
        self.indices, self._index = _selector(self.dim, indices)
        self.momentum_weight = float(momentum_weight)
        self.target_dim = len(self.indices)

    def cost(self, state, target):
        state = np.asarray(state, dtype=float)
        s, p = state[: self.dim], state[self.dim :]
        idx = self._index
        err = s[idx] - np.asarray(target, dtype=float)
        return 0.5 * float(err @ err) + 0.5 * self.momentum_weight * float(p[idx] @ p[idx])

    def grad_state(self, state, target):
        state = np.asarray(state, dtype=float)
        s, p = state[: self.dim], state[self.dim :]
        idx = self._index
        grad = np.zeros(2 * self.dim)
        grad[idx] = s[idx] - np.asarray(target, dtype=float)
        grad[self.dim + idx] = self.momentum_weight * p[idx]
        return grad


class ZeroCost(CostModel):
    """Identically zero cost; the nudged dynamics coincide with the free ones."""

    position_only = True

    def __init__(self, dim):
        self.dim = int(dim)

    def cost(self, state, target):
        return 0.0

    def grad_state(self, state, target):
        return np.zeros(self.dim)

    def grad_state_rows(self, states, targets):
        return np.zeros_like(np.asarray(states, dtype=float))


@dataclass(frozen=True)
class ZooMember:
    name: str
    lagrangian: LagrangianModel
    hamiltonian: HamiltonianModel
    theta: ParamVector


def model_zoo() -> list[ZooMember]:
    """Canonical members used by the retrace report and the test suite.

    Parameters are fixed constants so every consumer sees the same models.
    """
    members = []

    lag, ham = make_oscillator_model(1, coupling="direct")
    members.append(ZooMember("osc1_direct", lag, ham, ParamVector([1.0])))

    lag, ham = make_oscillator_model(2, coupling="chain")
    members.append(ZooMember("osc2_chain", lag, ham, ParamVector([1.1, 0.9, 0.35])))

    lag, ham = make_oscillator_model(2, coupling="dense", input_dim=1)
    members.append(
        ZooMember(
            "osc2_dense_driven",
            lag,
            ham,
            ParamVector([1.0, 0.3, -0.2, 0.8, 0.5, -0.4]),
        )
    )

    lag, ham = make_quartic_model(2, coupling="chain", strength=1.0)
    members.append(ZooMember("quartic2_chain", lag, ham, ParamVector([1.0, 1.2, 0.25])))

    return members
