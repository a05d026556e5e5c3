#!/usr/bin/env python3
"""echograd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gradcheck-ivp --seed 3 --seconds 30 --trace 0

Closed loop with one caller: the next op starts when the previous one
returns, in this one interpreter, with no worker threads or processes.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
several fresh interpreters, each timed from its launch until it is ready for
the first op (imports, generated configs, up-front bundle), started one at a
time before the timed pass.  ``op_p50_s`` is the median over units of the
unit's mean op latency: a unit is one seeded draw's fixed op mix, so the
median does not fall in the gap between fast and slow kinds of op.

``--trace 1`` prints the per-layer metrics: an untraced pass of about half
the run, then the same ops again with the tracer installed, so the two can
be compared byte for byte and the tracing overhead measured.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, the library versions, the git revision and every op's seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import COMPARE_N_STEPS, WORKLOADS, units_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 25
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dynamics.integrate_hamiltonian.calls": "count",
    "dynamics.integrate_hamiltonian.steps": "count",
    "dynamics.integrate_hamiltonian.self_s": "s",
    "dynamics.us_per_step": "us",
    "dynamics.integrate_lagrangian_ivp.calls": "count",
    "dynamics.integrate_lagrangian_ivp.self_s": "s",
    "legendre.velocity_from_momentum.calls": "count",
    "legendre.velocity_from_momentum.s": "s",
    "models.grad_position.calls": "count",
    "models.grad_params.calls": "count",
    "models.grad_params.s": "s",
    "glep.grad_civp.s": "s",
    "glep.grad_pfvp.s": "s",
    "rhel.grad_rhel.calls": "count",
    "rhel.grad_rhel.s": "s",
    "rhel.grad_rhel.self_s": "s",
    "oracle.fd_gradient.calls": "count",
    "oracle.fd_gradient.s": "s",
    "oracle.trajectory_loss.calls": "count",
    "oracle.trajectory_loss.s": "s",
    "oracle.share": "ratio",
    "static_ep.static_ep_gradient.s": "s",
    "static_ep.relax.calls": "count",
    "static_ep.relax.iterations": "count",
    "compare.compare_estimators.s": "s",
    "compare.compare_estimators.self_s": "s",
    "config.load_config.s": "s",
    "config.build_bundle.s": "s",
    "serialize.write_manifest.s": "s",
    "serialize.git_describe.s": "s",
    "serialize.file_sha256.s": "s",
    "cli.main.self_s": "s",
    "failed_share": "ratio",
    "trace_overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


@dataclass
class Pass:
    ops: list
    units: int
    wall: float


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, default=None, metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser


def _load_program():
    """Import echograd from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "echograd" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no echograd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import echograd
    import echograd.cli  # noqa: F401  (the entry point every CLI op goes through)

    if Path(echograd.__file__).resolve().parent != SRC / "echograd":
        raise SystemExit(f"benchmark: imported echograd from {echograd.__file__}")


def _prepare(workload, seed, directory):
    """The set-up every run pays before its first op."""
    config_dir = directory / "configs"
    config_dir.mkdir(parents=True)
    ops = workload.plan(seed, config_dir)
    return ops, workload.setup(ops, config_dir)


def _setup_seconds(args, work):
    """Median launch-to-ready time of fresh interpreters, run one at a time."""
    samples = []
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work / f"s{k}")]
        launched = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"benchmark: set-up interpreter exited {done.returncode}")
        samples.append(float(done.stdout.split()[-1]) - launched)
    return samples


def _run_pass(workload, plan, ctx, out_root, seconds=None, n_units=None):
    """Run whole units until ``seconds`` have passed or ``n_units`` are done.

    Each unit is checked as soon as it completes; its results are then
    dropped and only their digests kept.
    """
    units = units_of(plan)
    done = []
    started = time.perf_counter()
    k = 0
    while (k < n_units) if n_units is not None else (time.perf_counter() - started < seconds):
        unit = []
        for template in units[k % len(units)]:
            op = template.fresh()
            workload.run(op, ctx, out_root / f"op{len(done) + len(unit):05d}")
            unit.append(op)
        workload.check_unit(unit)
        for op in unit:
            op.result = None
        done.extend(unit)
        k += 1
    return Pass(done, k, time.perf_counter() - started)


def _failed(ops):
    """Ops that missed a check; an op reused from the front of the plan must repeat."""
    first = {}
    for op in ops:
        if op.failure is None:
            ref = first.setdefault(op.index, op)
            if ref.digest != op.digest:
                op.failure = "reused op did not reproduce its outputs"
    return [op for op in ops if op.failure is not None]


def _git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _context(args, ops, extra):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_revision": _git_revision(),
        "compare_n_steps": COMPARE_N_STEPS,
        "ops": [dict(op.describe(), seconds=op.seconds, failure=op.failure) for op in ops],
        **extra,
    }


def _unit_latencies(ops):
    """Mean op latency of every unit whose ops all succeeded."""
    return [statistics.fmean(op.seconds for op in unit) for unit in units_of(ops)
            if all(op.failure is None for op in unit)]


def _end_to_end(setup_samples, run, latencies):
    ok = [op for op in run.ops if op.failure is None]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ok) / run.wall,
        "op_p50_s": statistics.median(latencies or [op.seconds for op in run.ops]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer, base, traced, failed, attempted):
    table = tracer.summary()

    def row(name, key):
        return table[name][key] if name in table else 0

    program_seconds = tracer.program_seconds()
    steps = tracer.totals["dynamics.integrate_hamiltonian.steps"]
    ham_self = row("dynamics.integrate_hamiltonian", "self_s")
    values = {
        "dynamics.us_per_step": 1e6 * ham_self / steps if steps else 0.0,
        "dynamics.integrate_hamiltonian.steps": steps,
        "legendre.velocity_from_momentum.calls": tracer.calls["legendre.velocity_from_momentum"],
        "legendre.velocity_from_momentum.s": tracer.seconds["legendre.velocity_from_momentum"],
        "models.grad_position.calls": tracer.calls["models.grad_position"],
        "models.grad_params.calls": tracer.calls["models.grad_params"],
        "models.grad_params.s": tracer.seconds["models.grad_params"],
        "static_ep.relax.iterations": tracer.totals["static_ep.relax.iterations"],
        "oracle.share": tracer.outermost_seconds("oracle.") / program_seconds,
        "failed_share": failed / attempted,
        "trace_overhead_share": (traced.wall - base.wall) / base.wall,
        # Time of the traced pass outside every top-level program span: the
        # benchmark's own work (output capture, reading, hashing and checking
        # outputs, drawing theta) and its loop.
        "trace.unattributed_share": (traced.wall - program_seconds) / traced.wall,
    }
    for name in PER_LAYER:
        if name not in values:
            span, _, key = name.rpartition(".")
            values[name] = row(span, key)
    return values


def _report(units, values, correct, attempted, failed):
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _run(args, work):
    workload = WORKLOADS[args.workload]
    if args.setup_only is not None:
        _load_program()
        _prepare(workload, args.seed, args.setup_only)
        print(repr(time.monotonic()))
        return
    setup_samples = [] if args.trace else _setup_seconds(args, work)
    _load_program()
    plan, ctx = _prepare(workload, args.seed, work / "main")

    if not args.trace:
        run = _run_pass(workload, plan, ctx, work / "pass0", seconds=args.seconds)
        bad = _failed(run.ops)
        latencies = _unit_latencies(run.ops)
        ops = run.ops
        extra = {"setup_samples_s": setup_samples, "op_p50_units": len(latencies)}
        correct, attempted = not bad, len(run.ops)
        values = _end_to_end(setup_samples, run, latencies)
        units = END_TO_END
    else:
        base = _run_pass(workload, plan, ctx, work / "pass0", seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                _, traced_ctx = _prepare(workload, args.seed, work / "traced")
            traced = _run_pass(workload, plan, traced_ctx, work / "pass1", n_units=base.units)
        finally:
            tracer.uninstall()
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{workload.name}.json")
        bad = _failed(base.ops) + _failed(traced.ops)
        ops = base.ops + traced.ops
        attempted = len(ops)
        differ = [a.index for a, b in zip(base.ops, traced.ops)
                  if (a.exit_code, a.digest) != (b.exit_code, b.digest)]
        missing = sorted(set(workload.layers) - tracer.layers_seen())
        if differ:
            print(f"benchmark: traced outputs differ for ops {differ}", file=sys.stderr)
        if missing:
            print(f"benchmark: traced run saw no call into {missing}", file=sys.stderr)
        correct = not (bad or differ or missing)
        values = _per_layer(tracer, base, traced, len(bad), attempted)
        extra = {"untraced_wall_s": base.wall, "traced_wall_s": traced.wall}
        units = PER_LAYER

    for op in bad:
        print(f"benchmark: op {op.index} ({op.kind}, seed {op.seed}) failed: {op.failure}",
              file=sys.stderr)
    print(json.dumps({"context": _context(args, ops, extra)}))
    print(json.dumps(_report(units, values, correct, attempted, len(bad))))


def main(argv=None):
    args = _parser().parse_args(argv)
    # One caller and no worker threads: numpy is imported after this, and the
    # set-up interpreters inherit it.
    os.environ.update({name: "1" for name in BLAS_THREADS})
    # The program runs `git describe` for its manifests; keep git from
    # searching above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_only is not None:
        work = args.setup_only
    try:
        _run(args, work)
    finally:
        if args.setup_only is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
