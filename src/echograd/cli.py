"""Experiment command line.

Subcommands:
    gradcheck   one estimator against the finite-difference oracle
    compare     the full (estimator, beta) matrix on the configured task
    train       gradient-descent training, writing a per-epoch record
    retrace     echo-fidelity report over the model zoo
    export      run one echo pair and serialize all trajectories and signals

Every run writes its artifacts plus a manifest into the output directory.
The manifest's payload (config, seed, file hashes) is byte-reproducible;
wall-clock timings and the code identity (package version and source hash)
live outside the hashed payload.

Exit codes: 0 success; 1 gradcheck mismatch beyond --check-tol;
2 configuration error; 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .compare import compare_estimators
from .config import build_bundle, load_config
from .core import (EstimatorMethod, NudgeMode, ParamVector, PhaseState, Signal, TimeGrid,
                   check_positive_finite, relative_error)
from .errors import ConfigError, NumericalError
from .estimators import estimate_and_oracle, prepare
from .models import QuadraticTrackingCost, model_zoo
from .oracle import fd_gradient
from .rhel import LagrangianInitialState, echo_retrace_check, run_echo
from .serialize import echo_run_to_csv, finite_or_null, signal_to_csv, write_json, write_run
from .static_ep import HopfieldEnergy, relax, static_ep_gradient
from .training import train


@functools.cache
def _parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="echograd", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=Path, default=None, help="YAML configuration file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--estimator", default=None, help="override the estimator method")
    parser.add_argument("--beta", type=float, default=None, help="override the nudging strength")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("gradcheck", help="one estimator against the oracle")
    check.add_argument(
        "--check-tol",
        type=float,
        default=None,
        help="assert mode: exit 1 unless the relative error is within this tolerance",
    )
    sub.add_parser("compare", help="matrix of estimators and betas")
    sub.add_parser("train", help="gradient-descent training run")
    sub.add_parser("retrace", help="echo fidelity report over the model zoo")
    sub.add_parser("export", help="serialize one echo run")
    return parser


def _load(args):
    estimator = {"method": args.estimator, "beta": args.beta}
    overrides = {"estimator": {k: v for k, v in estimator.items() if v is not None}}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = load_config(args.config, overrides)
    out = Path(args.out) if args.out is not None else Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _static_ep_check(seed, beta, nudging, fd_eps):
    """Static EP on a seeded two-unit Hopfield energy, with its own theta.

    Theta and the oracle's probes relax in one lockstep call; theta's fixed
    point seeds the estimator, whose free relaxation then takes no sweep.
    """
    rng = np.random.default_rng(seed)
    energy = HopfieldEnergy(2)
    theta = ParamVector(rng.normal(scale=0.3, size=energy.theta_dim))
    x0 = rng.normal(size=2)
    y0 = rng.normal(scale=0.5, size=2)
    cost = QuadraticTrackingCost(2)
    fixed_points = []

    def relaxed_cost(thetas):
        states = relax(energy, np.concatenate([theta.values[None, :], thetas]), x0).state
        fixed_points.append(states[0])
        # cost.cost per row: cost_rows sums in another order, which would move the oracle's bits
        return [cost.cost(state, y0) for state in states[1:]]

    oracle = fd_gradient(relaxed_cost, theta, eps=fd_eps)
    est = static_ep_gradient(energy, cost, theta, x0, y0, beta, nudging=nudging,
                             initial_state=fixed_points[0])
    return est, oracle


def _prepare(config, method, bundle):
    """The configured :class:`Problem` of ``method`` on the bundle's task."""
    return prepare(method, bundle.lagrangian, bundle.hamiltonian, bundle.task, bundle.theta,
                   NudgeMode(config["estimator"]["nudging"]),
                   float(config["estimator"]["fd_eps"]), config["cbvp"]["tol"])


def cmd_gradcheck(args):
    config, out = _load(args)
    method = EstimatorMethod(config["estimator"]["method"])
    beta = float(config["estimator"]["beta"])
    nudging = NudgeMode(config["estimator"]["nudging"])
    fd_eps = float(config["estimator"]["fd_eps"])
    bundle = build_bundle(config)

    started = time.perf_counter()
    if method is EstimatorMethod.STATIC_EP:
        est, oracle = _static_ep_check(int(config["seed"]), beta, nudging, fd_eps)
    else:
        est, oracle = estimate_and_oracle(_prepare(config, method, bundle), bundle.theta, beta,
                                          fd_eps)
    # a zero oracle gives inf or NaN: written as null, and the check below fails it
    rel_err = relative_error(est.value, oracle.value)
    elapsed = time.perf_counter() - started

    report = {
        "estimator": method.value,
        "beta": beta,
        "nudging": nudging.value,
        "estimate": [float(v) for v in est.value],
        "oracle": [float(v) for v in oracle.value],
        "rel_err": finite_or_null(rel_err),
    }
    write_json(out / "gradcheck.json", report)
    write_run(out, "gradcheck", config, ["gradcheck.json"], {"total_seconds": elapsed})
    print(f"gradcheck {method.value}: rel_err={rel_err:.3e}")
    if args.check_tol is not None and not rel_err <= args.check_tol:
        print(f"FAIL: rel_err {rel_err:.3e} exceeds tolerance {args.check_tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


def cmd_compare(args):
    config, out = _load(args)
    bundle = build_bundle(config)
    section = config["compare"]
    started = time.perf_counter()
    table = compare_estimators(
        bundle.lagrangian,
        bundle.hamiltonian,
        bundle.theta,
        bundle.task,
        betas=section["betas"],
        estimators=section["estimators"],
        nudging=config["estimator"]["nudging"],
        fd_eps=float(config["estimator"]["fd_eps"]),
        cbvp_tol=config["cbvp"]["tol"],
    )
    elapsed = time.perf_counter() - started
    table.write_csv(out / "compare.csv")
    table.write_json(out / "compare.json")
    cell_times = {f"{c.estimator}@{c.beta!r}": c.wall_time for c in table.cells}
    write_run(out, "compare", config, ["compare.csv", "compare.json"],
              {"total_seconds": elapsed, "cells": cell_times})
    worst = max(c.rel_err_vs_oracle for c in table.cells)
    print(f"compare: {len(table.cells)} cells, worst rel_err={worst:.3e}")
    return 0


def cmd_train(args):
    config, out = _load(args)
    method = EstimatorMethod(config["estimator"]["method"])
    beta = float(config["estimator"]["beta"])
    learning_rate = float(config["train"]["learning_rate"])
    epochs = int(config["train"]["epochs"])
    bundle = build_bundle(config)
    started = time.perf_counter()
    record = train(_prepare(config, method, bundle), bundle.theta, beta, learning_rate, epochs)
    elapsed = time.perf_counter() - started

    with open(out / "losses.csv", "w") as fh:
        fh.write("epoch,loss,grad_norm\n")
        for k in range(epochs):
            fh.write(f"{k},{float(record.losses[k])!r},{float(record.grad_norms[k])!r}\n")
    report = {
        "config": {
            "estimator": method.value,
            "beta": beta,
            "nudging": NudgeMode(config["estimator"]["nudging"]).value,
            "learning_rate": learning_rate,
            "epochs": epochs,
            "seed": int(config["seed"]),
            "theta_scale": float(config["task"]["theta_scale"]),
        },
        "initial_loss": float(record.losses[0]),
        "final_loss": record.final_loss,
        "theta_final": [float(v) for v in record.theta_final.values],
    }
    write_json(out / "train.json", report)
    write_run(out, "train", config, ["losses.csv", "train.json"], {"total_seconds": elapsed})
    print(
        f"train {method.value}: loss {record.losses[0]:.6f} -> {record.final_loss:.6f} "
        f"in {epochs} epochs"
    )
    return 0


def cmd_retrace(args):
    config, out = _load(args)
    dt = float(config["retrace"]["dt"])
    t_end = float(config["retrace"]["t_end"])
    check_positive_finite(dt, "retrace.dt")
    grid = TimeGrid(dt=dt, n_steps=int(round(t_end / dt)))
    rng = np.random.default_rng(int(config["seed"]))
    started = time.perf_counter()
    rows = []
    for member in model_zoo():
        d = member.hamiltonian.dim
        phi0 = PhaseState(rng.normal(scale=0.5, size=d), rng.normal(scale=0.5, size=d))
        x = None
        if member.hamiltonian.input_dim > 0:
            x = Signal.from_function(
                grid, lambda t: [np.sin(1.3 * t)] * member.hamiltonian.input_dim
            )
        err = echo_retrace_check(member.hamiltonian, member.theta, phi0, grid, x)
        rows.append({"model": member.name, "dt": dt, "t_end": t_end, "max_error": err})
        print(f"retrace {member.name}: max_error={err:.3e}")
    write_json(out / "retrace.json", {"rows": rows})
    write_run(out, "retrace", config, ["retrace.json"],
              {"total_seconds": time.perf_counter() - started})
    return 0


def cmd_export(args):
    config, out = _load(args)
    bundle = build_bundle(config)
    task = bundle.task
    beta = float(config["estimator"]["beta"])
    x0 = task.x.value(0) if task.x is not None else None
    init = LagrangianInitialState(
        bundle.lagrangian, task.initial_position, task.initial_velocity, x0=x0
    )
    started = time.perf_counter()
    run = run_echo(bundle.hamiltonian, task.cost, bundle.theta, init, task.grid,
                   task.x, task.y, beta)
    echo_run_to_csv(run, out / "forward.csv", out / "echo.csv")
    signal_to_csv(task.y, out / "target.csv", prefix="y")
    files = ["forward.csv", "echo.csv", "target.csv"]
    if task.x is not None:
        signal_to_csv(task.x, out / "input.csv", prefix="x")
        files.append("input.csv")
    grid = task.grid
    write_run(out, "export", config, files, {"total_seconds": time.perf_counter() - started},
              beta=beta, grid={"dt": grid.dt, "n_steps": grid.n_steps, "t_start": grid.t_start},
              model=f"oscillator_d{task.dim}_{config['task']['coupling']}")
    print(f"export: wrote {len(files)} files to {out}")
    return 0


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "compare": cmd_compare,
    "train": cmd_train,
    "retrace": cmd_retrace,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"configuration error: the configured problem does not fit in memory ({exc})",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
