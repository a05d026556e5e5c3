"""Experiment command line.

Subcommands:
    gradcheck   one estimator against the finite-difference oracle
    compare     the full (estimator, beta) matrix on the configured task
    train       gradient-descent training, writing a per-epoch record
    retrace     echo-fidelity report over the model zoo
    export      run one echo pair and serialize all trajectories and signals

Every run writes its artifacts plus a manifest into the output directory.
The manifest's payload (config, seed, file hashes) is byte-reproducible;
wall-clock timings and the git description live outside the hashed payload.

Exit codes: 0 success; 1 gradcheck mismatch beyond --check-tol;
2 configuration error; 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .compare import compare_estimators
from .config import build_bundle, cbvp_config_from, load_config
from .core import EstimatorMethod, NudgeMode, ParamVector, PhaseState, Signal, TimeGrid
from .dynamics import echo_retrace_check
from .errors import ConfigError, NumericalError
from .estimators import prepare
from .models import QuadraticTrackingCost, model_zoo
from .oracle import fd_gradient
from .rhel import LagrangianInitialState, run_echo
from .serialize import echo_run_to_csv, file_sha256, signal_to_csv, write_manifest
from .static_ep import HopfieldEnergy, relax, static_ep_gradient
from .training import TrainConfig, train


def _parser():
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
        help="assert mode: exit 1 if the relative error exceeds this tolerance",
    )
    sub.add_parser("compare", help="matrix of estimators and betas")
    sub.add_parser("train", help="gradient-descent training run")
    sub.add_parser("retrace", help="echo fidelity report over the model zoo")
    sub.add_parser("export", help="serialize one echo run")
    return parser


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.estimator is not None:
        config["estimator"]["method"] = args.estimator
    if args.beta is not None:
        config["estimator"]["beta"] = args.beta
    out = Path(args.out) if args.out is not None else Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _static_ep_check(seed, beta, nudging, fd_eps):
    """Static EP on a seeded two-unit Hopfield energy, with its own theta."""
    rng = np.random.default_rng(seed)
    energy = HopfieldEnergy(2)
    theta = ParamVector(rng.normal(scale=0.3, size=energy.theta_dim))
    x0 = rng.normal(size=2)
    y0 = rng.normal(scale=0.5, size=2)
    cost = QuadraticTrackingCost(2)
    est = static_ep_gradient(energy, cost, theta, x0, y0, beta, nudging=nudging)

    def relaxed_cost(thetas):
        return [cost.cost(relax(energy, p, x0).state, y0) for p in thetas]

    return est, fd_gradient(relaxed_cost, theta, eps=fd_eps)


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
        problem = prepare(method, bundle.lagrangian, bundle.hamiltonian, bundle.task,
                          bundle.theta, nudging, fd_eps, cbvp_config_from(config),
                          int(config["compare"]["cbvp_coarsen"]))
        est = problem.estimate(bundle.theta, beta)
        oracle = fd_gradient(problem.loss, bundle.theta, eps=fd_eps)
    rel_err = float(np.linalg.norm(est.value - oracle.value) / np.linalg.norm(oracle.value))
    elapsed = time.perf_counter() - started

    report = {
        "estimator": method.value,
        "beta": beta,
        "nudging": nudging.value,
        "estimate": [float(v) for v in est.value],
        "oracle": [float(v) for v in oracle.value],
        "rel_err": rel_err,
    }
    report_path = out / "gradcheck.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    payload = {
        "command": "gradcheck",
        "config": config,
        "outputs": {"gradcheck.json": file_sha256(report_path)},
    }
    write_manifest(out / "manifest.json", payload, timings={"total_seconds": elapsed})
    print(f"gradcheck {method.value}: rel_err={rel_err:.3e}")
    if args.check_tol is not None and rel_err > args.check_tol:
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
        cbvp_config=cbvp_config_from(config),
        cbvp_coarsen=int(section["cbvp_coarsen"]),
    )
    elapsed = time.perf_counter() - started
    table.write_csv(out / "compare.csv")
    table.write_json(out / "compare.json")
    payload = {
        "command": "compare",
        "config": config,
        "outputs": {
            "compare.csv": file_sha256(out / "compare.csv"),
            "compare.json": file_sha256(out / "compare.json"),
        },
    }
    cell_times = {f"{c.estimator}@{c.beta!r}": c.wall_time for c in table.cells}
    write_manifest(out / "manifest.json", payload,
                   timings={"total_seconds": elapsed, "cells": cell_times})
    worst = max(c.rel_err_vs_oracle for c in table.cells)
    print(f"compare: {len(table.cells)} cells, worst rel_err={worst:.3e}")
    return 0


def cmd_train(args):
    config, out = _load(args)
    bundle = build_bundle(config)
    cfg = TrainConfig(
        estimator=config["estimator"]["method"],
        beta=float(config["estimator"]["beta"]),
        nudging=config["estimator"]["nudging"],
        learning_rate=float(config["train"]["learning_rate"]),
        epochs=int(config["train"]["epochs"]),
        seed=int(config["seed"]),
        theta_scale=float(config["task"]["theta_scale"]),
        fd_eps=float(config["estimator"]["fd_eps"]),
        cbvp=cbvp_config_from(config),
        cbvp_coarsen=int(config["compare"]["cbvp_coarsen"]),
    )
    record = train(bundle.lagrangian, bundle.hamiltonian, bundle.task, cfg,
                   theta0=bundle.theta)

    losses_path = out / "losses.csv"
    with open(losses_path, "w") as fh:
        fh.write("epoch,loss,grad_norm\n")
        for k in range(cfg.epochs):
            fh.write(f"{k},{float(record.losses[k])!r},{float(record.grad_norms[k])!r}\n")
    report = {
        "config": record.config,
        "initial_loss": float(record.losses[0]),
        "final_loss": record.final_loss,
        "theta_final": [float(v) for v in record.theta_final.values],
    }
    report_path = out / "train.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    payload = {
        "command": "train",
        "config": config,
        "outputs": {
            "losses.csv": file_sha256(losses_path),
            "train.json": file_sha256(report_path),
        },
    }
    write_manifest(out / "manifest.json", payload,
                   timings={"total_seconds": record.wall_time})
    print(
        f"train {cfg.estimator.value}: loss {record.losses[0]:.6f} -> {record.final_loss:.6f} "
        f"in {cfg.epochs} epochs"
    )
    return 0


def cmd_retrace(args):
    config, out = _load(args)
    dt = float(config["retrace"]["dt"])
    t_end = float(config["retrace"]["t_end"])
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
    report_path = out / "retrace.json"
    with open(report_path, "w") as fh:
        json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    payload = {
        "command": "retrace",
        "config": config,
        "outputs": {"retrace.json": file_sha256(report_path)},
    }
    write_manifest(out / "manifest.json", payload,
                   timings={"total_seconds": time.perf_counter() - started})
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
    outputs = {
        "forward.csv": file_sha256(out / "forward.csv"),
        "echo.csv": file_sha256(out / "echo.csv"),
    }
    if task.x is not None:
        signal_to_csv(task.x, out / "input.csv", prefix="x")
        outputs["input.csv"] = file_sha256(out / "input.csv")
    signal_to_csv(task.y, out / "target.csv", prefix="y")
    outputs["target.csv"] = file_sha256(out / "target.csv")
    payload = {
        "command": "export",
        "config": config,
        "beta": beta,
        "grid": {"dt": task.grid.dt, "n_steps": task.grid.n_steps, "t_start": task.grid.t_start},
        "model": f"oscillator_d{task.dim}_{config['task']['coupling']}",
        "outputs": outputs,
    }
    write_manifest(out / "manifest.json", payload,
                   timings={"total_seconds": time.perf_counter() - started})
    print(f"export: wrote {len(outputs)} files to {out}")
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
