"""Quick self-check of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload for one unit of ops, untraced and traced, and checks
that each named metric is emitted with its unit.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END, PER_LAYER, ROOT, SRC, WORK
from tracer import Tracer
from workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = {w["name"] for w in BENCHMARK["workloads"]}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, *BENCHMARK["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_what_run_emits():
    assert LISTED == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0, done.stderr
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    context = json.loads(done.stdout.splitlines()[-2])["context"]
    assert len(context["ops"]) == result["attempted"]


# Functions imported by name into several modules; each holder is rebound.
REBOUND = {
    "integrate_hamiltonian": ("dynamics", "rhel"),
    "integrate_lagrangian_ivp": ("dynamics", "glep", "oracle", "compare", "training", "cli"),
    "solve_cbvp": ("glep", "oracle"),
}


def _echograd_names():
    import echograd.cli  # noqa: F401
    import echograd.models as models

    owners = [m for n, m in sys.modules.items() if n == "echograd" or n.startswith("echograd.")]
    owners += [models.OscillatorLagrangian, models.OscillatorHamiltonian]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_rebinds_and_restores_every_name():
    sys.path.insert(0, str(SRC))
    before = _echograd_names()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _echograd_names()
    finally:
        tracer.uninstall()
    after = _echograd_names()
    for name, holders in REBOUND.items():
        keys = [(id(sys.modules[f"echograd.{m}"]), name) for m in holders]
        assert all(traced[k] is not before[k] for k in keys), name
        assert len({id(traced[k]) for k in keys}) == 1, name
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_refuses_to_run_without_the_program():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = _bench("--workload", sorted(LISTED)[0], "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
