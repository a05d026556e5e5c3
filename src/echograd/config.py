"""Configuration: one nested key-value file, every default overridable.

The file is YAML; unknown keys are rejected rather than silently ignored.
Numeric fields tolerate string spellings like ``1e-4`` (which YAML 1.1
parses as a string) by coercing through ``float``; none may be null, NaN or
infinite (nor may a number in ``task.params``), the integer fields
(``seed``, ``task.dim``, ``task.input_dim``, ``task.n_steps``,
``train.epochs``) must hold integral values, which they keep as written, and
``seed`` must not be negative.  ``estimator.method`` and ``nudging`` must be
named choices, and the ``compare`` and ``train`` sections are checked on
load as those commands check them, so every command rejects the same files,
and the command line's flags are checked as file values.  Each error names
the dotted key.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import yaml

from .core import NudgeMode, ParamVector, TimeGrid, check_betas
from .errors import ConfigError
from .models import make_oscillator_model
from .tasks import make_task
from .training import check_train_settings

__all__ = ["DEFAULT_CONFIG", "load_config", "build_bundle", "Bundle"]

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
_INT_KEYS = {"seed", "dim", "input_dim", "n_steps", "epochs"}
_TRAJECTORY_METHODS = ("civp", "cbvp", "pfvp", "rhel")
_METHODS = ("static_ep",) + _TRAJECTORY_METHODS


def _finite(where, value):
    """Raise unless ``value``, or every number in a list ``value``, is finite."""
    if isinstance(value, list):
        for entry in value:
            _finite(where, entry)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field {where!r} must be finite, got {value!r}")
    return value


def _number(where, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {where!r} must be numeric, got {value!r}") from exc
    return _finite(where, number)


def _coerce(where, value):
    """Float keys become finite floats; integer keys keep their value, which
    must be integral; every number in ``task.params`` must be finite."""
    key = where.rsplit(".", 1)[-1]
    if key == "betas" and isinstance(value, list):
        return [_number(where, v) for v in value]
    if key == "params" and isinstance(value, dict):
        for name, entry in value.items():
            _finite(f"{where}.{name}", entry)
    if key in _FLOAT_KEYS:
        return _number(where, value)
    if key in _INT_KEYS and not (isinstance(value, int) or _number(where, value).is_integer()):
        raise ConfigError(f"field {where!r} must be an integer, got {value!r}")
    if where == "seed" and (value if isinstance(value, int) else _number(where, value)) < 0:
        raise ConfigError(f"field 'seed' must be non-negative, got {value!r}")
    return value


def _one_of(where, value, choices):
    if value not in choices:
        raise ConfigError(f"field {where!r} must be one of {', '.join(choices)}, got {value!r}")


def _check_sections(config):
    """The estimator's names, and the checks ``compare`` and ``train`` run."""
    _one_of("estimator.method", config["estimator"]["method"], _METHODS)
    _one_of("estimator.nudging", config["estimator"]["nudging"], [m.value for m in NudgeMode])
    betas = config["compare"]["betas"]
    try:
        if not isinstance(betas, list):
            raise ValueError(f"betas must be a non-empty 1-d list, got {betas!r}")
        check_betas(betas)
    except ValueError as exc:
        raise ConfigError(f"field 'compare.betas': {exc}") from exc
    methods = config["compare"]["estimators"]
    if not (isinstance(methods, list) and methods
            and all(m in _TRAJECTORY_METHODS for m in methods)):
        raise ConfigError(f"field 'compare.estimators' must list trajectory methods "
                          f"({', '.join(_TRAJECTORY_METHODS)}), got {methods!r}")
    train = config["train"]
    try:
        check_train_settings(train["learning_rate"], int(float(train["epochs"])))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
            merged[key] = _coerce(where, value)
    return merged


def load_config(path=None, overrides=None) -> dict:
    """Defaults, deep-merged with the optional YAML file, then ``overrides``; checked."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except FileNotFoundError as exc:
            raise ConfigError(f"configuration file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse configuration file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("configuration file must contain a mapping")
    config = _merge(_merge(DEFAULT_CONFIG, data), overrides or {})
    _check_sections(config)
    return config


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
        lagrangian, hamiltonian = make_oscillator_model(
            dim, coupling=section["coupling"], input_dim=input_dim, quartic=section["quartic"])
        n_steps = int(section["n_steps"])
        if n_steps < 2:
            raise ValueError(f"task.n_steps must be at least 2, got {n_steps}")
        grid = TimeGrid(dt=section["t_end"] / n_steps, n_steps=n_steps)
        params = dict(section.get("params") or {})
        task = make_task(section["name"], grid, dim=dim, input_dim=input_dim, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(int(config["seed"]))
    theta = ParamVector(rng.normal(scale=section["theta_scale"], size=lagrangian.theta_dim))
    return Bundle(lagrangian, hamiltonian, theta, task)
