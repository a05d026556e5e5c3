"""The benchmark's workloads: how each op is generated, run and checked.

Every op's seed and config come from the workload seed; the program sees
only the generated config files and arguments.  CLI ops run in-process
through ``echograd.cli.main``, so config loading, bundle building and
manifest writing are part of the op.  No draw is ever filtered: an op whose
solve fails or misses a check counts as failed.

Ops run in units (a gradcheck cycle of four estimators, one compare table,
an echo-wide rhel/pfvp pair), and a timed pass only stops between units, so
every pass has the same op mix.  Each unit is checked as soon as it
completes, and its results are then dropped, keeping only their digests, so
memory does not grow with the op count.  The op list is generated up front
with room for several times the throughput measured on a 2-core host, and
is reused from the start if a pass outruns it; a reused op must reproduce
its outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

GRADCHECK_TOL = 1e-3      # criterion 02, IVP and static estimators
ECHO_EQUALS_PFVP = 1e-6   # criterion 03

GRADCHECK_ESTIMATORS = ("static_ep", "civp", "pfvp", "rhel")
COMPARE_ESTIMATORS = ("civp", "pfvp", "rhel")
# Lowered from the default 800 for run length; t_end and the betas are the
# defaults'.
COMPARE_N_STEPS = 200
ECHO_WIDE_DIM = 64


@dataclass
class Op:
    """One operation: what to run, and what came out of it."""

    index: int
    unit: int
    kind: str
    seed: int
    config: str | None = None
    argv: tuple = ()
    # filled in when the op runs
    seconds: float = 0.0
    exit_code: int | None = None
    message: str = ""
    digest: dict = field(default_factory=dict)
    result: object = None
    failure: str | None = None

    def describe(self):
        out = {"index": self.index, "kind": self.kind, "seed": self.seed}
        if self.config is not None:
            out["config"] = Path(self.config).name
        return out

    def fresh(self):
        return Op(self.index, self.unit, self.kind, self.seed, self.config, self.argv)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _seeds(workload, seed, count):
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _write_yaml(path, data):
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return str(path)


def _finite(values):
    return bool(np.all(np.isfinite(values)))


def _rel_diff(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _payload_sha(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)["payload_sha256"]


def _file_sha(path):
    return _sha(Path(path).read_bytes())


def _fail(ops, reason):
    for op in ops:
        op.failure = op.failure or reason


class Workload:
    """Base: CLI ops run through ``echograd.cli.main`` in-process."""

    name = ""
    units = 0           # units generated up front
    layers = ()         # layers a traced pass must see

    def plan(self, seed, config_dir):
        """Write the per-op configs; return the op list (the set-up's file work)."""
        raise NotImplementedError

    def setup(self, ops, config_dir):
        """Up-front library work before the first op; returns the run context."""
        return None

    def run(self, op, ctx, out_dir):
        import echograd.cli

        buffer = io.StringIO()
        argv = ["--config", op.config, "--out", str(out_dir), *op.argv]
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            started = perf_counter()
            code = echograd.cli.main(argv)
            op.seconds = perf_counter() - started
        op.exit_code = code
        lines = buffer.getvalue().strip().splitlines()
        op.message = lines[-1] if lines else ""
        if code == 0:
            self.collect(op, Path(out_dir))

    def collect(self, op, out_dir):
        """Read the op's outputs into ``op.result`` and ``op.digest``."""
        raise NotImplementedError

    def check_unit(self, ops):
        """Set ``op.failure`` on every op of one unit that missed an output check."""
        for op in ops:
            if op.exit_code != 0:
                op.failure = f"exit {op.exit_code}: {op.message}"


def units_of(ops):
    """Consecutive ops of one unit, as lists, in order."""
    return [list(group) for _, group in itertools.groupby(ops, key=lambda op: op.unit)]


class GradcheckIvp(Workload):
    """``echograd gradcheck --check-tol 1e-3`` on the default config.

    Dense d=2 model with one input, P=6, n=800.  One seeded theta per cycle;
    the cycle runs static_ep, civp, pfvp and rhel on it.  Why: the oracle's
    2P loss re-solves and CIVP's 2P endpoint probes run through the
    Legendre-wrapped integrator at small d, where per-step Python overhead
    dominates; the ~50 ms static_ep ops expose per-command cost (config,
    manifest, ``git describe``).  Never touches the CBVP solver.
    """

    name = "gradcheck-ivp"
    units = 24
    layers = ("dynamics", "legendre", "models", "glep", "rhel", "oracle", "static_ep",
              "config", "tasks", "serialize", "cli")

    def plan(self, seed, config_dir):
        ops = []
        for unit, op_seed in enumerate(_seeds(self.name, seed, self.units)):
            for method in GRADCHECK_ESTIMATORS:
                path = _write_yaml(config_dir / f"gc{unit:03d}-{method}.yaml",
                                   {"seed": op_seed, "estimator": {"method": method}})
                ops.append(Op(len(ops), unit, method, op_seed, path,
                              ("gradcheck", "--check-tol", repr(GRADCHECK_TOL))))
        return ops

    def collect(self, op, out_dir):
        report_path = out_dir / "gradcheck.json"
        with open(report_path) as fh:
            op.result = json.load(fh)
        op.digest = {"gradcheck.json": _file_sha(report_path),
                     "payload_sha256": _payload_sha(out_dir)}

    def check_unit(self, ops):
        super().check_unit(ops)
        for op in ops:
            if op.failure is not None:
                continue
            report = op.result
            if not (_finite(report["estimate"]) and _finite(report["oracle"])):
                op.failure = "non-finite estimate or oracle"
            elif not report["rel_err"] <= GRADCHECK_TOL:
                op.failure = f"rel_err {report['rel_err']:.3e} > {GRADCHECK_TOL}"
        cycle = {op.kind: op for op in ops if op.exit_code == 0}
        ivp = [cycle[m] for m in ("civp", "pfvp", "rhel") if m in cycle]
        if len(ivp) == 3 and len({tuple(o.result["oracle"]) for o in ivp}) != 1:
            _fail(ivp, "oracle vectors of one seed differ")
        if "rhel" in cycle and "pfvp" in cycle:
            diff = _rel_diff(cycle["rhel"].result["estimate"], cycle["pfvp"].result["estimate"])
            if not diff <= ECHO_EQUALS_PFVP:
                _fail([cycle["rhel"], cycle["pfvp"]], f"rhel vs pfvp rel diff {diff:.3e}")


class CompareIvp(Workload):
    """``echograd compare`` with ``compare.estimators: [civp, pfvp, rhel]``.

    Default task, horizon and betas (1e-2, 1e-3, 1e-4) with ``task.n_steps``
    lowered to 200; one seeded theta per op.  Each op is one IVP oracle
    (2P loss re-solves) and a 3 x 3 table of estimates.  Why: the one
    workload that goes through ``compare_estimators``, the table builder
    behind the paper's estimator comparison; it shares the oracle and
    estimators with gradcheck-ivp but not the per-estimator command cost.
    """

    name = "compare-ivp"
    units = 64
    layers = ("dynamics", "legendre", "models", "glep", "rhel", "oracle", "compare",
              "config", "tasks", "serialize", "cli")

    def plan(self, seed, config_dir):
        ops = []
        for unit, op_seed in enumerate(_seeds(self.name, seed, self.units)):
            path = _write_yaml(config_dir / f"cmp{unit:03d}.yaml", {
                "seed": op_seed,
                "task": {"n_steps": COMPARE_N_STEPS},
                "compare": {"estimators": list(COMPARE_ESTIMATORS)},
            })
            ops.append(Op(len(ops), unit, "compare", op_seed, path, ("compare",)))
        return ops

    def collect(self, op, out_dir):
        report_path = out_dir / "compare.json"
        with open(report_path) as fh:
            op.result = json.load(fh)["rows"]
        # compare.csv carries wall times, so neither it nor the manifest
        # payload that hashes it can repeat; compare.json does.
        op.digest = {"compare.json": _file_sha(report_path)}

    def check_unit(self, ops):
        """Criterion 02 for the IVP estimators (the smallest beta within 1e-3
        of the oracle, errors non-increasing as beta falls) and criterion 03
        (rhel equals pfvp to 1e-6 at every beta).  Larger betas carry the
        estimators' O(beta^2) bias, so they get no tolerance of their own."""
        super().check_unit(ops)
        for op in ops:
            if op.failure is None:
                op.failure = self._table_failure(op.result)

    @staticmethod
    def _table_failure(rows):
        errors = {}  # estimator -> rel errors in row order, betas falling
        for row in rows:
            where = f"{row['estimator']} at beta {row['beta']}"
            errors.setdefault(row["estimator"], []).append(row["rel_err_vs_oracle"])
            if not _finite(row["gradient"]):
                return f"non-finite gradient, {where}"
            if row["estimator"] == "rhel" and not row["rhel_pfvp_rel_diff"] <= ECHO_EQUALS_PFVP:
                return f"rhel vs pfvp rel diff {row['rhel_pfvp_rel_diff']:.3e}, {where}"
        if sorted(errors) != sorted(COMPARE_ESTIMATORS):
            return f"table has estimators {sorted(errors)}"
        for method, errs in errors.items():
            if not errs[-1] <= GRADCHECK_TOL:
                return f"{method} rel_err {errs[-1]:.3e} > {GRADCHECK_TOL} at the smallest beta"
            if errs != sorted(errs, reverse=True):
                return f"{method} errors {errs} grow as beta falls"
        return None


class EchoWide(Workload):
    """Public ``grad_rhel`` / ``grad_pfvp`` calls, alternating, at d=64.

    ``build_bundle`` of the default task with ``task.dim: 64`` (dense
    coupling, one input, P=4160, n=800) is built once in set-up.  Each pair
    draws theta from its seed at the config's ``theta_scale``.  No oracle:
    2P = 8320 re-solves is the cost the echo avoids.  Why: the one workload
    where the models' array work ((n+1) x P parameter-gradient rows, O(d^2)
    forces) dominates instead of per-call overhead; it also sets peak memory.
    """

    name = "echo-wide"
    units = 480
    layers = ("dynamics", "legendre", "models", "glep", "rhel", "config", "tasks")

    def plan(self, seed, config_dir):
        config = _write_yaml(config_dir / "echo-wide.yaml", {
            "seed": _seeds(self.name, seed, 1)[0], "task": {"dim": ECHO_WIDE_DIM}})
        ops = []
        for unit, op_seed in enumerate(_seeds(self.name + "/theta", seed, self.units)):
            for method in ("rhel", "pfvp"):
                ops.append(Op(len(ops), unit, method, op_seed, config))
        return ops

    def setup(self, ops, config_dir):
        from echograd.config import build_bundle, load_config

        config = load_config(ops[0].config)
        bundle = build_bundle(config)
        return {"bundle": bundle, "beta": float(config["estimator"]["beta"]),
                "theta_scale": float(config["task"]["theta_scale"])}

    def run(self, op, ctx, out_dir):
        import echograd.glep
        import echograd.rhel
        from echograd.core import ParamVector
        from echograd.errors import NumericalError

        bundle, beta = ctx["bundle"], ctx["beta"]
        task = bundle.task
        theta = ParamVector(np.random.default_rng(op.seed).normal(
            scale=ctx["theta_scale"], size=bundle.lagrangian.theta_dim))
        started = perf_counter()
        try:
            if op.kind == "rhel":
                init = echograd.rhel.LagrangianInitialState(
                    bundle.lagrangian, task.initial_position, task.initial_velocity,
                    x0=task.x.value(0))
                est = echograd.rhel.grad_rhel(bundle.hamiltonian, task.cost, theta, init,
                                              task.grid, task.x, task.y, beta)
            else:
                spec = echograd.glep.PfvpSpec(task.initial_position, task.initial_velocity)
                est = echograd.glep.grad_pfvp(bundle.lagrangian, task.cost, theta, spec,
                                              task.grid, task.x, task.y, beta)
        except NumericalError as exc:
            op.seconds = perf_counter() - started
            op.exit_code, op.message = 3, str(exc)
            return
        op.seconds = perf_counter() - started
        op.exit_code = 0
        op.result = est.value
        op.digest = {"estimate": _sha(est.value.tobytes())}

    def check_unit(self, ops):
        super().check_unit(ops)
        for op in ops:
            if op.failure is None and not _finite(op.result):
                op.failure = "non-finite estimate"
        pair = {op.kind: op for op in ops if op.failure is None}
        if "rhel" in pair and "pfvp" in pair:
            diff = _rel_diff(pair["rhel"].result, pair["pfvp"].result)
            if not diff <= ECHO_EQUALS_PFVP:
                _fail(ops, f"rhel vs pfvp rel diff {diff:.3e}")


WORKLOADS = {w.name: w for w in (GradcheckIvp(), CompareIvp(), EchoWide())}
