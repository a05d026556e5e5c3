"""End-to-end CLI runs: outputs, exit codes, byte reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

# The child runs from a temporary directory, so a relative ``PYTHONPATH=src``
# would not resolve there; hand it the repository's ``src`` by absolute path.
SRC = Path(__file__).resolve().parents[1] / "src"

FAST_CONFIG = """
seed: 3
task:
  name: sine_tracking
  dim: 2
  coupling: chain
  input_dim: 0
  n_steps: 400
  t_end: 2.0
  params:
    omega: 2.1
    amplitude: 0.6
    initial_position: [0.8, -0.3]
    initial_velocity: [0.2, 0.5]
estimator:
  method: pfvp
  beta: 0.001
compare:
  betas: [0.001]
  estimators: [pfvp, rhel]
  cbvp_coarsen: 8
train:
  epochs: 3
  learning_rate: 0.3
retrace:
  dt: 0.01
  t_end: 0.5
"""

DIVERGING_CONFIG = """
task:
  name: sine_tracking
  dim: 1
  coupling: direct
  input_dim: 0
  quartic: 5.0
  n_steps: 40
  t_end: 400.0
  params:
    initial_position: [1.0]
    initial_velocity: [0.0]
estimator:
  method: pfvp
  beta: 0.001
"""


def _run(args, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "echograd.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=600,
    )


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(FAST_CONFIG)
    return path


def test_gradcheck_passes_and_asserts(tmp_path, fast_config):
    out = tmp_path / "run"
    result = _run(
        ["--config", str(fast_config), "--out", str(out), "gradcheck", "--check-tol", "0.001"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["rel_err"] <= 1e-3
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("estimator", ["civp", "cbvp", "rhel", "static_ep"])
def test_gradcheck_covers_every_estimator(tmp_path, fast_config, estimator):
    result = _run(
        ["--config", str(fast_config), "--out", str(tmp_path / estimator),
         "--estimator", estimator, "gradcheck", "--check-tol", "0.01"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_gradcheck_assert_mode_failure_exits_one(tmp_path, fast_config):
    out = tmp_path / "r"
    result = _run(
        ["--config", str(fast_config), "--out", str(out), "gradcheck",
         "--check-tol", "1e-15"],
        tmp_path,
    )
    assert result.returncode == 1
    # exit 1 must be the tolerance check, not an interpreter that failed to start
    assert "exceeds tolerance" in result.stderr, result.stderr
    assert (out / "gradcheck.json").exists()


def test_missing_config_exits_two(tmp_path):
    result = _run(["--config", str(tmp_path / "nope.yaml"), "gradcheck"], tmp_path)
    assert result.returncode == 2


def test_unknown_config_key_exits_two(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("tusk:\n  name: sine_tracking\n")
    result = _run(["--config", str(bad), "gradcheck"], tmp_path)
    assert result.returncode == 2
    assert "unknown configuration key" in result.stderr


def test_numerical_failure_exits_three(tmp_path):
    cfg = tmp_path / "diverge.yaml"
    cfg.write_text(DIVERGING_CONFIG)
    result = _run(["--config", str(cfg), "--out", str(tmp_path / "r"), "gradcheck"], tmp_path)
    assert result.returncode == 3
    assert "numerical failure" in result.stderr
    assert "Warning" not in result.stderr, result.stderr


def test_default_config_cbvp_train_completes(tmp_path):
    # The recorded loss is the free-trajectory cost, while CBVP descends its
    # own pinned, coarse loss, so only completion and finiteness are checked.
    out = tmp_path / "cbvp"
    result = _run(["--out", str(out), "--estimator", "cbvp", "train"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = (out / "losses.csv").read_text().splitlines()
    assert len(lines) == 201  # header + the default 200 epochs
    values = [float(v) for line in lines[1:] for v in line.split(",")]
    assert all(math.isfinite(v) for v in values)


def test_compare_outputs(tmp_path, fast_config):
    out = tmp_path / "cmp"
    result = _run(["--config", str(fast_config), "--out", str(out), "compare"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 3  # header + |betas| * |estimators|
    rows = json.loads((out / "compare.json").read_text())["rows"]
    assert {r["estimator"] for r in rows} == {"pfvp", "rhel"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert "compare.csv" in manifest["payload"]["outputs"]


@pytest.mark.parametrize(
    "edit, field",
    [
        (("betas: [0.001]", "betas: []"), "betas"),
        (("betas: [0.001]", "betas: [0.001, 0.0]"), "betas"),
        (("betas: [0.001]", "betas: 0.001"), "betas"),
        (("estimators: [pfvp, rhel]", "estimators: []"), "estimators"),
        (("estimators: [pfvp, rhel]", "estimators: [pfvp, static_ep]"), "static_ep"),
    ],
)
def test_compare_rejects_bad_lists_and_writes_nothing(tmp_path, edit, field):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(*edit))
    out = tmp_path / "cmp"
    result = _run(["--config", str(cfg), "--out", str(out), "compare"], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "configuration error" in result.stderr and field in result.stderr, result.stderr
    assert not (out / "manifest.json").exists()
    assert not (out / "compare.csv").exists()


def test_train_and_flag_overrides(tmp_path, fast_config):
    out = tmp_path / "train"
    result = _run(
        ["--config", str(fast_config), "--out", str(out), "--estimator", "rhel",
         "--beta", "0.002", "--seed", "9", "train"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "train.json").read_text())
    assert report["config"]["estimator"] == "rhel"
    assert report["config"]["beta"] == 0.002
    assert report["config"]["seed"] == 9
    losses = (out / "losses.csv").read_text().splitlines()
    assert losses[0] == "epoch,loss,grad_norm"
    assert len(losses) == 4
    for k, row in enumerate(losses[1:]):
        epoch, loss, grad_norm = row.split(",")
        assert int(epoch) == k
        # plain decimals, not numpy scalar reprs such as np.float64(0.17)
        assert math.isfinite(float(loss)) and math.isfinite(float(grad_norm))


def test_retrace_report(tmp_path, fast_config):
    out = tmp_path / "ret"
    result = _run(["--config", str(fast_config), "--out", str(out), "retrace"], tmp_path)
    assert result.returncode == 0, result.stderr
    rows = json.loads((out / "retrace.json").read_text())["rows"]
    assert len(rows) == 4
    assert all(r["max_error"] <= 1e-8 for r in rows)


def test_export_writes_trajectories(tmp_path, fast_config):
    out = tmp_path / "exp"
    result = _run(["--config", str(fast_config), "--out", str(out), "export"], tmp_path)
    assert result.returncode == 0, result.stderr
    for name in ("forward.csv", "echo.csv", "target.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload"]["beta"] == 0.001
    assert manifest["payload"]["grid"]["n_steps"] == 400


def test_runs_are_byte_reproducible(tmp_path, fast_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        result = _run(["--config", str(fast_config), "--out", str(out), "export"], tmp_path)
        assert result.returncode == 0, result.stderr
    for name in ("forward.csv", "echo.csv", "target.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    hash_a = json.loads((out_a / "manifest.json").read_text())["payload_sha256"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["payload_sha256"]
    assert hash_a == hash_b


def test_compare_payload_is_byte_reproducible(tmp_path, fast_config):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        result = _run(["--config", str(fast_config), "--out", str(out), "compare"], tmp_path)
        assert result.returncode == 0, result.stderr
    for name in ("compare.csv", "compare.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert manifests[0]["payload_sha256"] == manifests[1]["payload_sha256"]
    # per-cell wall times stay available, outside the hashed payload
    assert set(manifests[0]["timings"]["cells"]) == {"pfvp@0.001", "rhel@0.001"}
