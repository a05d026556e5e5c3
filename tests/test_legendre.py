"""Legendre transforms: closed forms, round trips, envelope identities."""

import numpy as np
import pytest

import echograd.legendre
from echograd.core import HamiltonianModel, LagrangianModel, PhaseState, TimeGrid
from echograd.dynamics import integrate_hamiltonian, integrate_lagrangian_ivp
from echograd.errors import ConvergenceError, SingularHessianError
from echograd.legendre import backward_legendre, forward_legendre, velocity_from_momentum
from echograd.models import model_zoo


class MassLagrangian(LagrangianModel):
    """L = m/2 |v|^2 - k/2 |s|^2 with fixed mass, parameter k."""

    reversible = True
    quadratic_kinetic = True
    input_dim = 0
    theta_dim = 1

    def __init__(self, dim=1, mass=2.0):
        self.dim = dim
        self.mass = mass

    def lagrangian(self, s, v, theta, x=None):
        s, v = np.asarray(s), np.asarray(v)
        return 0.5 * self.mass * float(v @ v) - 0.5 * theta[0] * float(s @ s)

    def grad_position(self, s, v, theta, x=None):
        return -theta[0] * np.asarray(s, dtype=float)

    def grad_velocity(self, s, v, theta, x=None):
        return self.mass * np.asarray(v, dtype=float)

    def grad_params(self, s, v, theta, x=None):
        s = np.asarray(s)
        return np.array([-0.5 * float(s @ s)])

    def velocity_hessian(self, s, v, theta, x=None):
        return self.mass * np.eye(self.dim)


class LinearVelocityLagrangian(LagrangianModel):
    """L = v: the velocity Hessian is identically singular."""

    reversible = False
    quadratic_kinetic = True
    dim = 1
    theta_dim = 1
    input_dim = 0

    def lagrangian(self, s, v, theta, x=None):
        return float(np.asarray(v)[0])

    def grad_position(self, s, v, theta, x=None):
        return np.zeros(1)

    def grad_velocity(self, s, v, theta, x=None):
        return np.ones(1)

    def grad_params(self, s, v, theta, x=None):
        return np.zeros(1)

    def velocity_hessian(self, s, v, theta, x=None):
        return np.zeros((1, 1))


class MomentumFreeHamiltonian(HamiltonianModel):
    """H = k/2 |s|^2: independent of momentum."""

    time_reversible = True
    separable = True
    dim = 1
    theta_dim = 1
    input_dim = 0

    def hamiltonian(self, s, p, theta, x=None):
        s = np.asarray(s)
        return 0.5 * theta[0] * float(s @ s)

    def grad_position(self, s, p, theta, x=None):
        return theta[0] * np.asarray(s, dtype=float)

    def grad_momentum(self, s, p, theta, x=None):
        return np.zeros(1)

    def grad_params(self, s, p, theta, x=None):
        s = np.asarray(s)
        return np.array([0.5 * float(s @ s)])


def test_forward_transform_textbook_form():
    # L = v^2/2 - theta s^2/2  ->  H = p^2/2 + theta s^2/2
    member = [m for m in model_zoo() if m.name == "osc1_direct"][0]
    ham = forward_legendre(member.lagrangian)
    th = np.array([0.7])
    rng = np.random.default_rng(0)
    for _ in range(50):
        s, p = rng.normal(size=1), rng.normal(size=1)
        expected = 0.5 * float(p @ p) + 0.35 * float(s @ s)
        assert abs(ham.hamiltonian(s, p, th) - expected) <= 1e-12


def test_forward_transform_with_mass():
    lag = MassLagrangian(mass=2.0)
    ham = forward_legendre(lag)
    th = np.array([1.0])
    p = lag.grad_velocity(np.zeros(1), np.array([3.0]), th)
    assert np.array_equal(p, [6.0])
    # H(s=0, p=6) = p^2 / (2m) = 9
    assert ham.hamiltonian(np.zeros(1), np.array([6.0]), th) == pytest.approx(9.0, abs=1e-12)


def test_forward_transform_singular_kinetic_term():
    ham = forward_legendre(LinearVelocityLagrangian())
    with pytest.raises(SingularHessianError):
        ham.hamiltonian(np.zeros(1), np.ones(1), np.ones(1))


def test_backward_transform_free_particle():
    member = [m for m in model_zoo() if m.name == "osc1_direct"][0]
    lag = backward_legendre(member.hamiltonian)
    th = np.array([0.0])  # stiffness zero: H = p^2/2 -> L = v^2/2
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(size=1)
        assert abs(lag.lagrangian(np.zeros(1), v, th) - 0.5 * v[0] ** 2) <= 1e-10


def test_backward_transform_momentum_free_hamiltonian():
    lag = backward_legendre(MomentumFreeHamiltonian())
    with pytest.raises(SingularHessianError):
        lag.lagrangian(np.ones(1), np.ones(1), np.ones(1))


def test_roundtrip_identity_per_zoo_member():
    rng = np.random.default_rng(2)
    for member in model_zoo():
        roundtrip = backward_legendre(forward_legendre(member.lagrangian))
        worst = 0.0
        for _ in range(100):
            s = rng.normal(size=member.lagrangian.dim)
            v = rng.normal(size=member.lagrangian.dim)
            x = rng.normal(size=member.lagrangian.input_dim) if member.lagrangian.input_dim else None
            worst = max(
                worst,
                abs(
                    roundtrip.lagrangian(s, v, member.theta.values, x)
                    - member.lagrangian.lagrangian(s, v, member.theta.values, x)
                ),
            )
        assert worst <= 1e-10


def test_parameter_gradient_antisymmetry():
    rng = np.random.default_rng(3)
    for member in model_zoo():
        lag = member.lagrangian
        ham = forward_legendre(lag)
        worst = 0.0
        for _ in range(100):
            s = rng.normal(size=lag.dim)
            v = rng.normal(size=lag.dim)
            x = rng.normal(size=lag.input_dim) if lag.input_dim else None
            p = lag.grad_velocity(s, v, member.theta.values, x)
            total = ham.grad_params(s, p, member.theta.values, x) + lag.grad_params(
                s, v, member.theta.values, x
            )
            worst = max(worst, np.max(np.abs(total)))
        assert worst <= 1e-10


def test_transformed_dynamics_match_source():
    member = [m for m in model_zoo() if m.name == "osc2_chain"][0]
    grid = TimeGrid(dt=0.005, n_steps=400)
    alpha, gamma = np.array([0.5, -0.1]), np.array([0.2, 0.4])
    ham = forward_legendre(member.lagrangian)
    ham_run = integrate_hamiltonian(ham, member.theta, PhaseState(alpha, gamma), grid)
    lag_run = integrate_lagrangian_ivp(member.lagrangian, member.theta, alpha, gamma, grid)
    assert np.max(np.abs(ham_run.positions - lag_run.positions)) <= 1e-12


def test_reversibility_transport():
    rng = np.random.default_rng(4)
    for member in model_zoo():
        ham = forward_legendre(member.lagrangian)
        assert ham.time_reversible == member.lagrangian.reversible
        worst = 0.0
        for _ in range(50):
            s = rng.normal(size=ham.dim)
            p = rng.normal(size=ham.dim)
            x = rng.normal(size=ham.input_dim) if ham.input_dim else None
            worst = max(
                worst,
                abs(
                    ham.hamiltonian(s, p, member.theta.values, x)
                    - ham.hamiltonian(s, -p, member.theta.values, x)
                ),
            )
        assert worst <= 1e-12


class QuarticKineticLagrangian(MassLagrangian):
    """L = |v|^2/2 + sum v^4/4 - k/2 |s|^2: the velocity solve runs Newton."""

    quadratic_kinetic = False

    def grad_velocity(self, s, v, theta, x=None):
        v = np.asarray(v, dtype=float)
        return v + v**3

    def velocity_hessian(self, s, v, theta, x=None):
        return np.diag(1.0 + 3.0 * np.asarray(v, dtype=float) ** 2)


class QuarticKineticHamiltonian(MomentumFreeHamiltonian):
    """H = |p|^2/2 + sum p^4/4 + k/2 |s|^2: the momentum solve runs Newton."""

    dim = 2

    def grad_momentum(self, s, p, theta, x=None):
        p = np.asarray(p, dtype=float)
        return p + p**3


def test_newton_inversions_converge_and_name_their_failure(monkeypatch):
    th, s, c = np.array([1.0]), np.zeros(2), np.array([0.7, -1.3])
    lag, ham = QuarticKineticLagrangian(dim=2), QuarticKineticHamiltonian()
    p = lag.grad_velocity(s, c, th)
    assert np.max(np.abs(velocity_from_momentum(lag, s, p, th) - c)) <= 1e-12
    # the Lagrangian partner's dL/dv solves dH/dp = v for the momentum
    v = ham.grad_momentum(s, c, th)
    assert np.max(np.abs(backward_legendre(ham).grad_velocity(s, v, th) - c)) <= 1e-10
    monkeypatch.setattr(echograd.legendre, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="momentum inversion did not converge"):
        velocity_from_momentum(lag, s, p, th)
    with pytest.raises(ConvergenceError, match="velocity inversion did not converge"):
        backward_legendre(ham).grad_velocity(s, v, th)
