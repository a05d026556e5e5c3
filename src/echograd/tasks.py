"""Synthetic supervised tasks for exercising the estimators.

A task bundles the time grid, the input and target signals, the
instantaneous cost with its output selector, and the initial data of the
free trajectory.  Generators below produce the three stock families
(sinusoid tracking, sum of two sinusoids, step response); none of them aims
at a benchmark, they exist to give the estimators something nontrivial to
differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CostModel, Signal, TimeGrid, frozen_array
from .models import QuadraticTrackingCost

__all__ = [
    "Task",
    "sine_tracking_task",
    "two_sines_task",
    "step_response_task",
    "make_task",
    "TASK_GENERATORS",
]


@dataclass(frozen=True)
class Task:
    """A supervised tracking problem on a fixed grid."""

    name: str
    grid: TimeGrid
    x: Signal | None
    y: Signal
    cost: CostModel
    output_indices: tuple
    initial_position: np.ndarray
    initial_velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "initial_position", frozen_array(self.initial_position, "initial_position", 1)
        )
        object.__setattr__(
            self, "initial_velocity", frozen_array(self.initial_velocity, "initial_velocity", 1)
        )
        object.__setattr__(self, "output_indices", tuple(int(i) for i in self.output_indices))
        dim = self.initial_position.shape[0]
        if self.initial_velocity.shape[0] != dim:
            raise ValueError("initial position and velocity must share a dimension")
        if any(i < 0 or i >= dim for i in self.output_indices):
            raise ValueError(f"output indices must lie in [0, {dim})")
        if self.y.grid != self.grid:
            raise ValueError("target signal is not aligned to the task grid")
        if self.y.dim != len(self.output_indices):
            raise ValueError("target dimension must match the output selector")
        if self.x is not None and self.x.grid != self.grid:
            raise ValueError("input signal is not aligned to the task grid")

    @property
    def dim(self) -> int:
        return self.initial_position.shape[0]

    @property
    def input_dim(self) -> int:
        return 0 if self.x is None else self.x.dim

    def coarsened(self, factor: int) -> "Task":
        """Subsample every signal by an integer factor (same horizon).

        Exact by construction: samples are picked, never interpolated.  The
        CBVP numbers of ``compare`` and ``train`` are defined on such a
        coarsened task.
        """
        if factor < 1 or self.grid.n_steps % factor != 0:
            raise ValueError(f"coarsening factor must divide n_steps={self.grid.n_steps}")
        grid = TimeGrid(
            dt=self.grid.dt * factor,
            n_steps=self.grid.n_steps // factor,
            t_start=self.grid.t_start,
        )
        x = None if self.x is None else Signal(grid, self.x.values[::factor])
        y = Signal(grid, self.y.values[::factor])
        return replace(self, grid=grid, x=x, y=y)


def _drive_signal(grid, input_dim, amplitude, omega):
    """One sinusoid per channel, phase-shifted between channels."""
    if input_dim == 0 or amplitude == 0.0:
        return None

    def drive(t):
        return [amplitude * np.sin(omega * t + 2.0 * np.pi * j / max(input_dim, 1))
                for j in range(input_dim)]

    return Signal.from_function(grid, drive)


def _initial_data(dim, position, velocity):
    alpha = np.zeros(dim) if position is None else np.asarray(position, dtype=float)
    gamma = np.zeros(dim) if velocity is None else np.asarray(velocity, dtype=float)
    return alpha, gamma


def sine_tracking_task(
    grid: TimeGrid,
    dim: int = 2,
    output_index: int = 0,
    omega: float = 1.5,
    amplitude: float = 0.8,
    drive_amplitude: float = 1.0,
    input_dim: int = 1,
    initial_position=None,
    initial_velocity=None,
) -> Task:
    """Track a single sinusoid on one selected coordinate."""
    alpha, gamma = _initial_data(dim, initial_position, initial_velocity)
    y = Signal.from_function(grid, lambda t: [amplitude * np.sin(omega * t)])
    return Task(
        name="sine_tracking",
        grid=grid,
        x=_drive_signal(grid, input_dim, drive_amplitude, omega),
        y=y,
        cost=QuadraticTrackingCost(dim, indices=[output_index]),
        output_indices=(output_index,),
        initial_position=alpha,
        initial_velocity=gamma,
    )


def two_sines_task(
    grid: TimeGrid,
    dim: int = 2,
    output_index: int = 0,
    omega: float = 1.2,
    omega2: float = 2.3,
    amplitude: float = 0.5,
    amplitude2: float = 0.3,
    drive_amplitude: float = 1.0,
    input_dim: int = 1,
    initial_position=None,
    initial_velocity=None,
) -> Task:
    """Track a sum of two incommensurate sinusoids."""
    alpha, gamma = _initial_data(dim, initial_position, initial_velocity)
    y = Signal.from_function(
        grid, lambda t: [amplitude * np.sin(omega * t) + amplitude2 * np.sin(omega2 * t)]
    )
    return Task(
        name="two_sines",
        grid=grid,
        x=_drive_signal(grid, input_dim, drive_amplitude, omega),
        y=y,
        cost=QuadraticTrackingCost(dim, indices=[output_index]),
        output_indices=(output_index,),
        initial_position=alpha,
        initial_velocity=gamma,
    )


def step_response_task(
    grid: TimeGrid,
    dim: int = 3,
    output_index: int = 0,
    step_time: float = 1.0,
    level: float = 0.6,
    input_dim: int = 1,
    initial_position=None,
    initial_velocity=None,
) -> Task:
    """Drive the system with a step input and hold a constant target after it."""
    alpha, gamma = _initial_data(dim, initial_position, initial_velocity)
    x = None
    if input_dim > 0:
        x = Signal.from_function(
            grid, lambda t: [level if t >= step_time else 0.0 for _ in range(input_dim)]
        )
    y = Signal.from_function(grid, lambda t: [level if t >= step_time else 0.0])
    return Task(
        name="step_response",
        grid=grid,
        x=x,
        y=y,
        cost=QuadraticTrackingCost(dim, indices=[output_index]),
        output_indices=(output_index,),
        initial_position=alpha,
        initial_velocity=gamma,
    )


TASK_GENERATORS = {
    "sine_tracking": sine_tracking_task,
    "two_sines": two_sines_task,
    "step_response": step_response_task,
}


def make_task(name: str, grid: TimeGrid, **params) -> Task:
    if name not in TASK_GENERATORS:
        raise ValueError(f"unknown task {name!r}; choose from {sorted(TASK_GENERATORS)}")
    return TASK_GENERATORS[name](grid, **params)
