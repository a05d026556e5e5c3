"""Coupled-oscillator model zoo and instantaneous cost functions.

Every zoo member is a Lagrangian/Hamiltonian pair built from one potential

    V(s, theta, x) = 1/2 s^T K(theta) s + s^T W(theta) x + q/4 * sum_i s_i^4

with unit-mass kinetic term, so L = 1/2 |v|^2 - V and H = 1/2 |p|^2 + V are
exact Legendre partners by construction.  The Lagrangian is even in the
velocity and the Hamiltonian even in the momentum, which makes every member
time-reversible.

The leading parameters theta_k fill a table of entries, in this order, of K
(mirrored) or of the factor A in K = A^T A + 0.1 I; the coupling picks it:

- ``"direct"``: K's upper triangle, row-major (d(d+1)/2 parameters).  Useful
  for analytically checkable instances; K need not be positive definite.
- a symmetric boolean (d, d) mask: K's masked upper-triangle entries,
  row-major.
- ``"dense"``: all of A, row-major (d^2 parameters).  K is positive
  definite, so trajectories stay bounded.
- ``"chain"``: A's diagonal (i, i), then its sub-diagonal (i + 1, i)
  (2d - 1 parameters): tridiagonal nearest-neighbour coupling.

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
    _nudge_term,
)

__all__ = [
    "make_oscillator_model",
    "OscillatorLagrangian",
    "OscillatorHamiltonian",
    "QuadraticTrackingCost",
    "PhaseTrackingCost",
    "ZeroCost",
    "ZooMember",
    "model_zoo",
]

_STIFFNESS_FLOOR = 0.1


class _OscillatorCore:
    """Shared potential machinery behind the Lagrangian/Hamiltonian pair.

    Every consumer of theta_k reads one layout table: the flat indices
    ``_at`` of the entries it fills, of A if ``_factored`` else of K.
    """

    def __init__(self, dim, coupling, input_dim, quartic):
        if int(dim) != dim or dim < 1:
            raise ValueError(f"state dimension must be a positive integer, got {dim}")
        if int(input_dim) != input_dim or input_dim < 0:
            raise ValueError(f"input_dim must be a non-negative integer, got {input_dim}")
        if not 0 <= quartic < np.inf:
            raise ValueError(f"quartic strength must be non-negative and finite, got {quartic!r}")
        self.dim = d = int(dim)
        self.input_dim = int(input_dim)
        self.quartic = float(quartic)

        if isinstance(coupling, str):
            if coupling == "direct":
                rows, cols = np.triu_indices(d)
            elif coupling == "dense":
                rows, cols = np.divmod(np.arange(d * d), d)
            elif coupling == "chain":
                rows, cols = np.r_[0:d, 1:d], np.r_[0:d, 0 : d - 1]
            else:
                raise ValueError(
                    f"unknown coupling topology {coupling!r}; "
                    "expected 'direct', 'dense', 'chain', or a symmetric boolean mask"
                )
            self._factored = coupling != "direct"
        else:
            mask = np.asarray(coupling, dtype=bool)
            if mask.shape != (d, d):
                raise ValueError(f"coupling mask must have shape ({d}, {d})")
            if not np.array_equal(mask, mask.T):
                raise ValueError("coupling mask implies an asymmetric stiffness matrix")
            rows, cols = np.nonzero(np.triu(mask))
            self._factored = False

        self._at = rows * d + cols
        # entries of K also fill their mirror images, and the read-out
        # halves the diagonal ones
        self._mirror = cols * d + rows
        self._halved = np.flatnonzero((rows == cols) & (not self._factored))
        self._n_stiffness = len(rows)
        self.theta_dim = self._n_stiffness + d * self.input_dim
        if self.theta_dim == 0:
            raise ValueError(
                "the model has no parameters: the coupling mask selects no entry of K "
                "and input_dim is 0"
            )

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

    def _place(self, theta_k):
        """theta_k written into the table's entries of a d x d matrix: A, or K."""
        m = np.zeros(self.dim * self.dim)
        m[self._at] = theta_k
        if not self._factored:
            m[self._mirror] = theta_k
        return m.reshape(self.dim, self.dim)

    def _read_out(self, product):
        """The gradient of 1/2 tr(K M) in theta_k, from ``product``: A M when
        factored, else M itself.  It is ``product`` at the table's entries,
        halved on K's diagonal."""
        g_k = product.ravel()[self._at]
        g_k[self._halved] *= 0.5
        return g_k

    def stiffness(self, theta) -> np.ndarray:
        theta_k, _ = self._split(theta)
        m = self._place(theta_k)
        if self._factored:
            # a huge theta overflows to inf here; the integrator's typed
            # divergence error reports it, not a RuntimeWarning
            with np.errstate(over="ignore", invalid="ignore"):
                return m.T @ m + _STIFFNESS_FLOOR * np.eye(self.dim)
        return m

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
        # M = s s^T, and A M = (A s) s^T
        left = self._place(theta_k) @ s if self._factored else s
        g_k = self._read_out(np.outer(left, s))
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
    The parameter-gradient contrast of a whole trajectory (single theta) is
    a few d x d matrix products.  Row by row, the arithmetic of ``grad_s`` is
    that of ``potential_grad_s``.
    """

    def __init__(self, core: _OscillatorCore, theta, xs):
        thetas = np.atleast_2d(theta)
        splits = [core._split(row) for row in thetas]
        self._core = core
        # (rows, d, d): np.matmul against (B, d, 1) states reproduces K @ s
        # bitwise per row, which S @ K.T does not.
        self._stiffness = np.stack([core.stiffness(row) for row in thetas])
        self._single = theta.ndim == 1
        self._a = None
        if self._single and core._factored:
            self._a = core._place(splits[0][0])
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
        """dV/ds of the ``(B, dim)`` state stack ``s`` at grid point ``k``.

        ``k`` indexes the leading ``(n_points, rows)`` axes of the input
        force, so ``(ks, 0)`` evaluates one state per row at the grid
        indices ``ks`` (a slice or an index array) for a single theta.
        """
        grad = np.matmul(self._stiffness, s[:, :, None])[:, :, 0]
        if self._drive is not None:
            grad = grad + self._drive[k]
        if self._core.quartic:
            grad = grad + self._core.quartic * s**3
        return grad

    def force(self, batch, nudge=None, scale=1.0):
        """``f(s, p, k)``: ``scale`` times -dV/ds of the ``(batch, dim)``
        state stack ``s`` at grid point ``k``, nudged as
        :func:`~echograd.core._nudge_term` says, written into one buffer
        allocated here.  dV/ds is that of ``grad_s``, on operands of the
        stack's shape (the input force is copied to ``batch`` rows once
        here); the nudge joins it as -beta dc/ds, and one multiply by
        ``-scale`` finishes the force.  ``p`` is not read.  Outputs are
        passed positionally, as in the leapfrog step that calls it.
        """
        d, stiffness, quartic = self._core.dim, self._stiffness, self._core.quartic
        product = np.empty((batch, d, 1))
        f = product[:, :, 0]
        drive = None
        if self._drive is not None:
            drive = np.ascontiguousarray(
                np.broadcast_to(self._drive, (len(self._drive), batch, d)))
        cube = np.empty((batch, d)) if quartic else None
        factor = np.full((batch, d), -float(scale))
        add_nudge = _nudge_term(batch, d, nudge)

        def force(s, p, k):
            np.matmul(stiffness, s[:, :, None], product)
            if drive is not None:
                np.add(f, drive[k], f)
            if quartic:
                np.multiply(quartic, np.power(s, 3, cube), cube)
                np.add(f, cube, f)
            if add_nudge is not None:
                add_nudge(f, s, k)
            return np.multiply(f, factor, f)

        return force

    def grad_theta_contrast(self, positions, ref_positions, dt):
        """Trapezoid integral of dV/dtheta at ``positions`` minus at
        ``ref_positions``, both one state per grid point with rows aligned
        with the input samples.

        ``positions`` is one trajectory, giving a ``(theta_dim,)`` result, or
        a ``(B, n_points, dim)`` stack, giving one row per trajectory.  Needs
        a single theta.  With trapezoid weights w, states E, reference F and
        D = E - F, the stiffness block is linear in the d x d matrix
        M = (w D)^T E + (w F)^T D = sum_k w_k (e_k e_k^T - f_k f_k^T) and the
        input block is (w D)^T X, so the cost is O(n_points d^2) and no
        (n_points, theta_dim) array is formed.  Each trajectory is copied
        contiguous first: numpy's matmul leaves BLAS for strided operands,
        and a stack row then no longer matches the same trajectory on its own.
        """
        core = self._core
        if not self._single:
            raise ValueError("parameter gradients need a single parameter vector")
        ref = np.ascontiguousarray(ref_positions, dtype=float)
        n_rows, d = ref.shape
        if self._xs is not None and self._xs.shape[0] != n_rows:
            raise ValueError(f"expected {self._xs.shape[0]} states, got {n_rows}")
        weights = np.full((n_rows, 1), float(dt))
        weights[[0, -1]] *= 0.5
        weighted_ref = weights * ref
        stack = np.asarray(positions, dtype=float)
        out = np.empty(stack.shape[:-2] + (core.theta_dim,))
        rows = zip(out.reshape(-1, core.theta_dim), stack.reshape((-1, n_rows, d)))
        # huge finite states overflow the products: the estimate that reads
        # the result raises its typed error, not a RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            for row, states in rows:
                states = np.ascontiguousarray(states)
                delta = states - ref
                weighted_delta = weights * delta
                gram = weighted_delta.T @ states + weighted_ref.T @ delta
                gram = gram if self._a is None else self._a @ gram
                row[: core._n_stiffness] = core._read_out(gram)
                if self._xs is not None:
                    row[core._n_stiffness :] = (weighted_delta.T @ self._xs).ravel()
        return out


class OscillatorLagrangian(LagrangianModel):
    """Unit-mass Lagrangian 1/2 |v|^2 - V(s, theta, x)."""

    reversible = True
    quadratic_kinetic = True
    theta_free_momentum = True

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
        if not isinstance(k, (int, np.integer)):
            # rows at their own grid indices need a single theta, whose input
            # force is parameter row 0
            self.check_index(k)
            k = (k, 0)
        return -self._potential.grad_s(s, k)

    def grad_velocity(self, s, v, k):
        self.check_index(k)
        return np.array(v, dtype=float)

    def velocity(self, s, p, k):
        return p

    def partner_grad_position(self, s, p, k):
        return self._potential.grad_s(s, k)

    def force(self, batch, nudge=None, scale=1.0):
        return self._potential.force(batch, nudge, scale)

    def velocity_rows(self, positions, momenta):
        return np.array(momenta, dtype=float)

    def grad_params_contrast(self, positions, velocities, ref_positions, ref_velocities, dt):
        contrast = self._potential.grad_theta_contrast(positions, ref_positions, dt)
        return np.negative(contrast, out=contrast)


class _BoundOscillatorHamiltonian(BoundHamiltonian):
    def __init__(self, model, theta, xs=None):
        super().__init__(model, theta, xs)
        self._potential = _BoundPotential(model._core, self.theta, xs)

    def grad_position(self, s, p, k):
        return self._potential.grad_s(s, k)

    def grad_momentum(self, s, p, k):
        return p

    def force(self, batch, nudge=None, scale=1.0):
        return self._potential.force(batch, nudge, scale)

    def grad_params_contrast(self, positions, momenta, ref_positions, ref_momenta, dt):
        return self._potential.grad_theta_contrast(positions, ref_positions, dt)


def make_oscillator_model(dim, coupling="dense", input_dim=0, quartic=0.0):
    """Build a Legendre-partner (Lagrangian, Hamiltonian) oscillator pair.

    ``quartic > 0`` adds the quartic well q/4 * sum_i s_i^4, for nonlinear
    dynamics.  Raises ValueError for a non-positive dimension, a negative
    quartic strength or a coupling descriptor that would imply an asymmetric
    stiffness matrix.
    """
    core = _OscillatorCore(dim, coupling, input_dim, quartic)
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
        # An increasing run of coordinates is read and written as a slice,
        # a view, where an index array would copy.
        first = self.indices[0] if self.indices else 0
        if self.indices == tuple(range(first, first + self.target_dim)):
            self._index = slice(first, first + self.target_dim)

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
        grad = np.zeros(states.shape)
        self.grad_writer(grad)(states, targets)
        return grad

    def grad_writer(self, out):
        index = self._index
        if isinstance(index, slice):
            selected = out[:, index]
            return lambda states, targets: np.subtract(states[:, index], targets, selected)

        def write(states, targets):
            out[:, index] = states[:, index] - np.asarray(targets, dtype=float)

        return write


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

    lag, ham = make_oscillator_model(2, coupling="chain", quartic=1.0)
    members.append(ZooMember("quartic2_chain", lag, ham, ParamVector([1.0, 1.2, 0.25])))

    return members
