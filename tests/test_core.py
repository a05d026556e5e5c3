"""Domain types, invariants, and the model zoo's hand-coded derivatives."""

import importlib
import pkgutil

import numpy as np
import pytest

import echograd
from echograd.core import (
    EstimatorMethod,
    GradientEstimate,
    NudgeMode,
    ParamVector,
    PhaseState,
    Signal,
    TimeGrid,
    Trajectory,
    central_probes,
    central_quotient,
    trapezoid,
)
from echograd.models import make_oscillator_model, model_zoo


def test_time_grid_basics():
    grid = TimeGrid(dt=0.5, n_steps=4)
    assert grid.n_points == 5
    assert grid.horizon == 2.0
    assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("bad", [dict(dt=0.0, n_steps=3), dict(dt=-1.0, n_steps=3),
                                 dict(dt=0.1, n_steps=0), dict(dt=np.inf, n_steps=3)])
def test_time_grid_rejects_bad_fields(bad):
    with pytest.raises(ValueError):
        TimeGrid(**bad)


def test_signal_shape_and_alignment():
    grid = TimeGrid(dt=0.1, n_steps=3)
    sig = Signal(grid, np.arange(8.0).reshape(4, 2))
    assert sig.dim == 2
    with pytest.raises(ValueError):
        Signal(grid, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Signal(grid, np.full((4, 1), np.nan))


def test_signal_reversed_readout_is_involution():
    grid = TimeGrid(dt=0.1, n_steps=7)
    rng = np.random.default_rng(0)
    sig = Signal(grid, rng.normal(size=(8, 3)))
    rev = sig.time_reversed()
    for k in range(8):
        assert np.array_equal(rev.value(k), sig.values[7 - k])
    assert np.array_equal(rev.time_reversed().values, sig.values)


def test_signal_values_are_write_locked():
    sig = Signal.zeros(TimeGrid(dt=0.1, n_steps=2), 1)
    with pytest.raises(ValueError):
        sig.values[0, 0] = 1.0


def test_param_vector_probe_helpers():
    theta = ParamVector([1.0, 2.0])
    assert theta.dim == 2
    probes = central_probes(theta.values, 0.5)
    assert np.array_equal(probes[2], [1.0, 2.5])
    assert np.array_equal(probes[3], [1.0, 1.5])
    assert np.array_equal(theta.values, [1.0, 2.0])
    with pytest.raises(ValueError):
        ParamVector([np.nan])


def test_phase_state_vector_roundtrip():
    state = PhaseState([1.0, 2.0], [3.0, 4.0])
    assert state.dim == 2
    phi = state.as_vector()
    back = PhaseState(phi[:2], phi[2:])
    assert np.array_equal(back.position, state.position)
    assert np.array_equal(back.momentum, state.momentum)
    with pytest.raises(ValueError):
        PhaseState([1.0], [1.0, 2.0])


def test_trajectory_kind_guards():
    grid = TimeGrid(dt=0.1, n_steps=2)
    pos = np.zeros((3, 2))
    traj = Trajectory(grid, "hamiltonian", pos, pos)
    assert traj.momenta is not None
    with pytest.raises(ValueError):
        _ = traj.velocities
    with pytest.raises(ValueError):
        Trajectory(grid, "newtonian", pos, pos)
    with pytest.raises(ValueError):
        Trajectory(grid, "hamiltonian", pos, np.zeros((4, 2)))


def test_gradient_estimate_requires_nonzero_beta():
    GradientEstimate(np.ones(2), EstimatorMethod.FD_ORACLE, beta=0.0)
    with pytest.raises(ValueError):
        GradientEstimate(np.ones(2), EstimatorMethod.RHEL, beta=0.0)
    est = GradientEstimate(np.ones(2), "pfvp", beta=1e-3, nudging="one_sided")
    assert est.method is EstimatorMethod.PFVP
    assert est.nudging is NudgeMode.ONE_SIDED
    assert est.value.tolist() == [1.0, 1.0]


def test_trapezoid_matches_linear_integral():
    # exact for linear integrands regardless of step count
    values = np.linspace(0.0, 3.0, 31)
    assert trapezoid(values, 0.1) == pytest.approx(4.5, abs=1e-12)
    vec = np.stack([values, 2 * values], axis=1)
    assert np.allclose(trapezoid(vec, 0.1), [4.5, 9.0])


def test_oscillator_direct_example_value():
    lag, _ = make_oscillator_model(1, coupling="direct")
    value = lag.lagrangian(np.array([2.0]), np.array([0.0]), np.array([1.0]))
    assert value == pytest.approx(-2.0, abs=1e-14)


def test_oscillator_rejects_bad_descriptors():
    with pytest.raises(ValueError):
        make_oscillator_model(0, coupling="direct")
    with pytest.raises(ValueError):
        make_oscillator_model(2, coupling="upper_only")
    asym = np.array([[True, True], [False, True]])
    with pytest.raises(ValueError):
        make_oscillator_model(2, coupling=asym)
    # a symmetric mask is fine and restricts the parameter count
    lag, _ = make_oscillator_model(2, coupling=np.eye(2, dtype=bool))
    assert lag.theta_dim == 2


def _hand_layout(topology, mask, dim, theta):
    """K from theta as the models docstring lays it out, entry by entry."""
    values = iter(theta)
    m = np.zeros((dim, dim))
    if topology == "dense":
        for i in range(dim):
            for j in range(dim):
                m[i, j] = next(values)
    elif topology == "chain":
        for i in range(dim):
            m[i, i] = next(values)
        for i in range(dim - 1):
            m[i + 1, i] = next(values)
    else:
        for i in range(dim):
            for j in range(i, dim):
                if mask[i, j]:
                    m[i, j] = m[j, i] = next(values)
        return m, list(values)
    return m.T @ m + 0.1 * np.eye(dim), list(values)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("topology", ["direct", "dense", "chain", "mask", "diagonal_mask"])
def test_theta_fills_the_documented_entries(topology, dim):
    rng = np.random.default_rng(dim)
    upper = np.triu(rng.random((dim, dim)) < 0.5)
    mask = {"mask": upper | upper.T, "diagonal_mask": np.eye(dim, dtype=bool)}.get(
        topology, np.ones((dim, dim), dtype=bool))
    coupling = mask if topology.endswith("mask") else topology
    lag, ham = make_oscillator_model(dim, coupling, input_dim=2)
    theta = rng.normal(size=lag.theta_dim)
    expected, rest = _hand_layout(topology, mask, dim, theta)
    assert lag._core.stiffness(theta).tobytes() == expected.tobytes()
    # the remaining parameters are the input coupling W, row-major
    x = rng.normal(size=2)
    force = ham.grad_position(np.zeros(dim), np.zeros(dim), theta, x)
    assert np.array_equal(force, np.reshape(rest, (dim, 2)) @ x)


def test_lagrangian_reversibility_on_samples():
    rng = np.random.default_rng(1)
    for member in model_zoo():
        lag = member.lagrangian
        worst = 0.0
        for _ in range(100):
            s = rng.normal(size=lag.dim)
            v = rng.normal(size=lag.dim)
            x = rng.normal(size=lag.input_dim) if lag.input_dim else None
            worst = max(
                worst,
                abs(
                    lag.lagrangian(s, v, member.theta.values, x)
                    - lag.lagrangian(s, -v, member.theta.values, x)
                ),
            )
        assert lag.reversible
        assert worst == 0.0


def test_hamiltonian_momentum_flip_symmetry_on_samples():
    rng = np.random.default_rng(2)
    for member in model_zoo():
        ham = member.hamiltonian
        worst = 0.0
        for _ in range(100):
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
        assert worst <= 1e-14


def _fd_check(fn, grad, args, index, eps=1e-5):
    """Relative error of an analytic gradient against central differences."""
    base = np.asarray(args[index], dtype=float)
    g = np.asarray(grad, dtype=float)
    fd = np.empty_like(g)
    for j in range(base.shape[0]):
        plus, minus = base.copy(), base.copy()
        plus[j] += eps
        minus[j] -= eps
        fd[j] = (fn(*args[:index], plus, *args[index + 1:])
                 - fn(*args[:index], minus, *args[index + 1:])) / (2 * eps)
    scale = max(np.linalg.norm(fd), 1e-8)
    return np.linalg.norm(g - fd) / scale


def test_zoo_partials_match_finite_differences():
    rng = np.random.default_rng(3)
    for member in model_zoo():
        lag = member.lagrangian
        for _ in range(100):
            s = rng.normal(size=lag.dim)
            v = rng.normal(size=lag.dim)
            th = member.theta.values + rng.normal(scale=0.1, size=lag.theta_dim)
            x = rng.normal(size=lag.input_dim) if lag.input_dim else None

            def L(s_, v_, th_):
                return lag.lagrangian(s_, v_, th_, x)

            assert _fd_check(L, lag.grad_position(s, v, th, x), (s, v, th), 0) <= 1e-6
            assert _fd_check(L, lag.grad_velocity(s, v, th, x), (s, v, th), 1) <= 1e-6
            assert _fd_check(L, lag.grad_params(s, v, th, x), (s, v, th), 2) <= 1e-6


def test_hamiltonian_partials_match_finite_differences():
    rng = np.random.default_rng(4)
    for member in model_zoo():
        ham = member.hamiltonian
        for _ in range(50):
            s = rng.normal(size=ham.dim)
            p = rng.normal(size=ham.dim)
            th = member.theta.values + rng.normal(scale=0.1, size=ham.theta_dim)
            x = rng.normal(size=ham.input_dim) if ham.input_dim else None

            def H(s_, p_, th_):
                return ham.hamiltonian(s_, p_, th_, x)

            assert _fd_check(H, ham.grad_position(s, p, th, x), (s, p, th), 0) <= 1e-6
            assert _fd_check(H, ham.grad_momentum(s, p, th, x), (s, p, th), 1) <= 1e-6
            assert _fd_check(H, ham.grad_params(s, p, th, x), (s, p, th), 2) <= 1e-6


def test_zoo_pairs_are_legendre_partners():
    # H(s, dL/dv) + L(s, v) - (dL/dv) . v == 0 pointwise
    rng = np.random.default_rng(5)
    for member in model_zoo():
        lag, ham = member.lagrangian, member.hamiltonian
        worst = 0.0
        for _ in range(100):
            s = rng.normal(size=lag.dim)
            v = rng.normal(size=lag.dim)
            x = rng.normal(size=lag.input_dim) if lag.input_dim else None
            p = lag.grad_velocity(s, v, member.theta.values, x)
            gap = (
                ham.hamiltonian(s, p, member.theta.values, x)
                + lag.lagrangian(s, v, member.theta.values, x)
                - float(p @ v)
            )
            worst = max(worst, abs(gap))
        assert worst <= 1e-12


def test_quartic_model_is_nonlinear():
    lag, _ = make_oscillator_model(1, coupling="direct", quartic=2.0)
    th = np.array([0.5])
    s = np.array([1.5])
    g1 = lag.grad_position(s, np.zeros(1), th)
    g2 = lag.grad_position(2 * s, np.zeros(1), th)
    assert not np.allclose(g2, 2 * g1)


def test_every_public_name_of_every_module_resolves():
    # perfbench/tracer.py looks up every __all__ entry of the traced modules,
    # so a stale entry would crash each traced benchmark run
    modules = [importlib.import_module(f"echograd.{info.name}")
               for info in pkgutil.iter_modules(echograd.__path__)]
    assert len(modules) > 10
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_central_difference_probes_and_quotient():
    x = np.array([1.0, -2.0, 0.5])
    probes = central_probes(x, 0.5)
    assert np.array_equal(probes, [[1.5, -2.0, 0.5], [0.5, -2.0, 0.5], [1.0, -1.5, 0.5],
                                   [1.0, -2.5, 0.5], [1.0, -2.0, 1.0], [1.0, -2.0, 0.0]])
    # f(x) = (x0 x1, x2^2): binary-exact probe arithmetic at eps = 0.5
    jac = central_quotient([[p[0] * p[1], p[2] ** 2] for p in probes], 0.5)
    assert jac.flags.c_contiguous
    assert np.array_equal(jac, [[-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for eps in (0.0, -1e-5, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite-difference step"):
            central_probes(x, eps)
