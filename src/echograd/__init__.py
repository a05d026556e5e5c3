"""Contrastive gradient estimators for dynamical systems.

The package implements a family of learning rules that estimate parameter
gradients of trajectory costs by contrasting a free system execution with a
weakly cost-nudged one: static energy-based relaxation, trajectory-level
nudging under three boundary regimes, and Hamiltonian echo learning, all
cross-validated against a finite-difference oracle.
"""

from .core import (
    EstimatorMethod,
    GradientEstimate,
    NudgeMode,
    ParamVector,
    PhaseState,
    Signal,
    TimeGrid,
    Trajectory,
)
from .dynamics import (
    Nudge,
    echo_retrace_check,
    euler_lagrange_residual,
    integrate_hamiltonian,
    integrate_lagrangian_ivp,
    momentum_flip,
)
from .glep import (
    CbvpRelaxConfig,
    CbvpSpec,
    CivpSpec,
    grad_cbvp,
    grad_civp,
    grad_pfvp,
    solve_cbvp,
)
from .legendre import backward_legendre, forward_legendre
from .models import (
    PhaseTrackingCost,
    QuadraticTrackingCost,
    ZeroCost,
    make_oscillator_model,
    make_quartic_model,
    model_zoo,
)
from .oracle import fd_gradient, trajectory_loss
from .rhel import (
    CallableInitialState,
    ConstantInitialState,
    EchoRun,
    InitialStateMap,
    LagrangianInitialState,
    grad_rhel,
    retrace_deviation,
    run_echo,
)
from .static_ep import HopfieldEnergy, QuadraticEnergy, RelaxConfig, relax, static_ep_gradient
from .tasks import Task, make_task, sine_tracking_task, step_response_task, two_sines_task
from .training import RunRecord, TrainConfig, train

__version__ = "0.1.0"
