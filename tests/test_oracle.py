"""The finite-difference oracle and the trajectory losses it differentiates."""

import numpy as np
import pytest

from echograd.core import EstimatorMethod, ParamVector, Signal, TimeGrid
from echograd.errors import NumericalError
from echograd.glep import CivpSpec
from echograd.models import QuadraticTrackingCost, ZeroCost, make_oscillator_model
from echograd.oracle import fd_gradient, trajectory_loss

LAG1, _ = make_oscillator_model(1, coupling="direct")
TH1 = ParamVector([1.0])


def test_fd_exact_on_quadratics():
    # binary-exact probe arithmetic: with eps = 0.5 the quotient is exactly 6
    estimate = fd_gradient(lambda ths: ths[:, 0] ** 2, ParamVector([3.0]), eps=0.5)
    assert estimate.value[0] == 6.0
    assert estimate.method is EstimatorMethod.FD_ORACLE
    assert estimate.beta == 0.0


def test_fd_constant_loss_is_exactly_zero():
    estimate = fd_gradient(lambda ths: np.full(len(ths), 4.25), ParamVector([1.0, -2.0, 3.0]))
    assert np.array_equal(estimate.value, np.zeros(3))


def test_fd_sine_derivative():
    estimate = fd_gradient(lambda ths: np.sin(ths[:, 0]), ParamVector([0.0]), eps=1e-5)
    assert abs(estimate.value[0] - 1.0) <= 1e-9


def test_fd_rejects_bad_inputs():
    for eps in (0.0, -1e-5, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite-difference step"):
            fd_gradient(lambda ths: np.zeros(len(ths)), ParamVector([1.0]), eps=eps)
    with pytest.raises(NumericalError):
        fd_gradient(lambda ths: np.full(len(ths), np.nan), ParamVector([1.0]))


def test_fd_richardson_self_consistency():
    def loss(ths):
        return np.sin(ths[:, 0]) * np.exp(0.3 * ths[:, 1])

    theta = ParamVector([0.4, -0.7])
    gaps = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        a = fd_gradient(loss, theta, eps=eps).value
        b = fd_gradient(loss, theta, eps=eps / 2).value
        gaps.append(np.linalg.norm(a - b))
    slopes = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(np.abs(slopes - 2.0) <= 0.3)


def test_trajectory_loss_zero_cost():
    grid = TimeGrid(dt=0.01, n_steps=100)
    y = Signal.zeros(grid, 1)
    value = trajectory_loss(LAG1, ZeroCost(1), TH1, CivpSpec([1.0], [0.0]), grid, None, y)
    assert value == 0.0


def test_trajectory_loss_vanishes_on_own_trajectory():
    from echograd.dynamics import integrate_lagrangian_ivp

    grid = TimeGrid(dt=0.01, n_steps=200)
    traj = integrate_lagrangian_ivp(LAG1, TH1, [1.0], [0.0], grid)
    y = Signal(grid, traj.positions[:, :1])
    value = trajectory_loss(
        LAG1, QuadraticTrackingCost(1), TH1, CivpSpec([1.0], [0.0]), grid, None, y
    )
    assert value <= 1e-12


def test_trajectory_loss_harmonic_closed_form():
    # cos^2 / 2 integrated over a full period is pi/2
    grid = TimeGrid(dt=2 * np.pi / 2048, n_steps=2048)
    y = Signal.zeros(grid, 1)
    value = trajectory_loss(
        LAG1, QuadraticTrackingCost(1), TH1, CivpSpec([1.0], [0.0]), grid, None, y
    )
    assert abs(value - np.pi / 2) <= 1e-4


def test_trajectory_loss_rejects_phase_costs():
    from echograd.models import PhaseTrackingCost

    grid = TimeGrid(dt=0.01, n_steps=10)
    y = Signal.zeros(grid, 1)
    with pytest.raises(ValueError):
        trajectory_loss(LAG1, PhaseTrackingCost(1), TH1, CivpSpec([0.0], [0.0]), grid, None, y)
    with pytest.raises(TypeError):
        trajectory_loss(LAG1, QuadraticTrackingCost(1), TH1, "civp", grid, None, y)
