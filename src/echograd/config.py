"""Configuration: one nested key-value file, every default overridable.

The file is YAML; unknown keys are rejected rather than silently ignored.
Numeric fields tolerate string spellings like ``1e-4`` (which YAML 1.1
parses as a string) by coercing through ``float``.
"""

from __future__ import annotations

import copy

import numpy as np
import yaml

from .core import ParamVector, TimeGrid
from .errors import ConfigError
from .glep import CbvpRelaxConfig
from .models import make_oscillator_model, make_quartic_model
from .tasks import make_task

__all__ = ["DEFAULT_CONFIG", "load_config", "build_bundle", "Bundle", "cbvp_config_from"]

DEFAULT_CONFIG = {
    "seed": 0,
    "out": "out",
    "task": {
        "name": "sine_tracking",
        "dim": 2,
        "coupling": "dense",
        "input_dim": 1,
        "quartic": 0.0,
        "n_steps": 800,
        "t_end": 4.0,
        "theta_scale": 0.4,
        "params": {},
    },
    "estimator": {
        "method": "rhel",
        "beta": 1e-3,
        "nudging": "symmetric",
        "fd_eps": 1e-5,
    },
    "compare": {
        "betas": [1e-2, 1e-3, 1e-4],
        "estimators": ["civp", "cbvp", "pfvp", "rhel"],
        "cbvp_coarsen": 16,
    },
    "cbvp": {
        "tol": 1e-10,
    },
    "train": {
        "learning_rate": 0.5,
        "epochs": 200,
    },
    "retrace": {
        "dt": 1e-3,
        "t_end": 5.0,
    },
}

_FLOAT_KEYS = {
    "beta", "fd_eps", "t_end", "theta_scale", "learning_rate", "dt", "tol", "quartic",
}


def _coerce(key, value):
    if key == "betas" and isinstance(value, list):
        return [float(v) for v in value]
    if key in _FLOAT_KEYS and value is not None:
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {key!r} must be numeric, got {value!r}") from exc
    return value


def _merge(base, override, path=""):
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key {where!r}")
        if isinstance(base[key], dict) and key != "params":
            if not isinstance(value, dict):
                raise ConfigError(f"section {where!r} must be a mapping")
            merged[key] = _merge(base[key], value, where)
        else:
            merged[key] = _coerce(key, value)
    return merged


def load_config(path=None) -> dict:
    """Defaults, deep-merged with the optional YAML file."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"configuration file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse configuration file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration file must contain a mapping")
    return _merge(DEFAULT_CONFIG, data)


class Bundle:
    """Models, parameters, and task built from one configuration."""

    def __init__(self, lagrangian, hamiltonian, theta, task):
        self.lagrangian = lagrangian
        self.hamiltonian = hamiltonian
        self.theta = theta
        self.task = task


def build_bundle(config: dict) -> Bundle:
    """Instantiate the model pair and task; theta is drawn from the seed."""
    section = config["task"]
    dim = int(section["dim"])
    input_dim = int(section["input_dim"])
    try:
        if section["quartic"]:
            lagrangian, hamiltonian = make_quartic_model(
                dim, coupling=section["coupling"], input_dim=input_dim,
                strength=section["quartic"],
            )
        else:
            lagrangian, hamiltonian = make_oscillator_model(
                dim, coupling=section["coupling"], input_dim=input_dim
            )
        n_steps = int(section["n_steps"])
        grid = TimeGrid(dt=section["t_end"] / n_steps, n_steps=n_steps)
        params = dict(section.get("params") or {})
        task = make_task(section["name"], grid, dim=dim, input_dim=input_dim, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(int(config["seed"]))
    theta = ParamVector(rng.normal(scale=section["theta_scale"], size=lagrangian.theta_dim))
    return Bundle(lagrangian, hamiltonian, theta, task)


def cbvp_config_from(config: dict) -> CbvpRelaxConfig:
    return CbvpRelaxConfig(tol=config["cbvp"]["tol"])
