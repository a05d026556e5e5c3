"""End-to-end CLI runs: outputs, exit codes, byte reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
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


@pytest.mark.parametrize("fd_eps", ["0", "-1.0e-5", ".nan"])
def test_gradcheck_rejects_a_bad_finite_difference_step(tmp_path, fd_eps):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace("  beta: 0.001\n", f"  beta: 0.001\n  fd_eps: {fd_eps}\n", 1))
    out = tmp_path / "r"
    result = _run(["--config", str(cfg), "--out", str(out), "--estimator", "civp", "gradcheck"],
                  tmp_path)
    assert result.returncode == 2, result.stderr
    # a NaN is refused on load, naming its key; the others by the estimator
    expected = "'estimator.fd_eps' must be finite" if fd_eps == ".nan" else "finite-difference step"
    assert expected in result.stderr, result.stderr
    assert "Warning" not in result.stderr, result.stderr
    assert not (out / "gradcheck.json").exists()


def test_default_config_cbvp_train_completes(tmp_path):
    # The recorded loss is the one CBVP descends: its own pinned loss, on the
    # task's full grid.
    out = tmp_path / "cbvp"
    result = _run(["--out", str(out), "--estimator", "cbvp", "train"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = (out / "losses.csv").read_text().splitlines()
    assert len(lines) == 201  # header + the default 200 epochs
    values = [float(v) for line in lines[1:] for v in line.split(",")]
    assert all(math.isfinite(v) for v in values)
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert losses[-1] < losses[0]


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


@pytest.mark.parametrize("estimator", ["pfvp", "rhel"])
def test_gradcheck_rejects_a_bad_step_before_integrating(tmp_path, monkeypatch, capsys,
                                                          estimator):
    # the zoo's velocity Jacobian builds no probes, so the estimator itself
    # must check the step, ahead of its free run
    import echograd.cli
    import echograd.glep
    import echograd.rhel

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the step was checked")

    monkeypatch.setattr(echograd.glep, "integrate_lagrangian_ivp", no_integration)
    monkeypatch.setattr(echograd.rhel, "integrate_hamiltonian", no_integration)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace("  beta: 0.001\n", "  beta: 0.001\n  fd_eps: -1.0e-5\n", 1))
    out = tmp_path / "r"
    code = echograd.cli.main(["--config", str(cfg), "--out", str(out), "--estimator", estimator,
                              "gradcheck"])
    assert code == 2
    assert "finite-difference step" in capsys.readouterr().err
    assert not (out / "gradcheck.json").exists()


@pytest.mark.parametrize("command, estimator", [
    ("gradcheck", "static_ep"), ("gradcheck", "civp"), ("gradcheck", "cbvp"),
    ("gradcheck", "pfvp"), ("gradcheck", "rhel"), ("train", "pfvp"),
])
def test_in_process_runs_give_identical_payloads(tmp_path, fast_config, command, estimator):
    import echograd.cli

    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = echograd.cli.main(["--config", str(fast_config), "--out", str(out),
                                  "--estimator", estimator, command])
        assert code == 0
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert manifests[0]["payload_sha256"] == manifests[1]["payload_sha256"]
    for name in manifests[0]["payload"]["outputs"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command, input_dim", [
    ("gradcheck", 0), ("compare", 0), ("train", 0), ("retrace", 0), ("export", 0),
    ("export", 1),
])
def test_manifest_names_every_output_with_its_hash(tmp_path, command, input_dim):
    import echograd.cli
    from echograd.config import load_config

    cfg = tmp_path / "config.yaml"
    cfg.write_text(FAST_CONFIG.replace("input_dim: 0", f"input_dim: {input_dim}"))
    out = tmp_path / "out"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), command]) == 0
    payload = json.loads((out / "manifest.json").read_text())["payload"]
    assert payload["command"] == command
    assert payload["config"] == json.loads(json.dumps(load_config(cfg)))
    files = {path.name for path in out.iterdir()} - {"manifest.json"}
    assert payload["outputs"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files
    }
    if command == "export":
        assert ("input.csv" in files) == (input_dim == 1)


def test_gradcheck_fails_a_nan_relative_error(tmp_path):
    # a zero-gradient task: the estimate and the oracle are both zero, so
    # rel_err is 0/0, which no tolerance admits
    cfg = tmp_path / "flat.yaml"
    cfg.write_text("task:\n  input_dim: 0\n  n_steps: 200\n  params: {amplitude: 0.0}\n")
    out = tmp_path / "r"
    result = _run(["--config", str(cfg), "--out", str(out), "gradcheck", "--check-tol", "1e-3"],
                  tmp_path)
    assert result.returncode == 1, result.stderr
    assert "exceeds tolerance" in result.stderr, result.stderr
    assert "Warning" not in result.stderr, result.stderr
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["oracle"] == [0.0] * len(report["oracle"])
    assert report["rel_err"] is None


@pytest.mark.parametrize("tol", ["-1", "0", ".nan", ".inf"])
@pytest.mark.parametrize("command, estimator", [
    ("gradcheck", "rhel"), ("gradcheck", "cbvp"), ("compare", None), ("train", None),
])
def test_a_bad_boundary_value_tolerance_exits_two(tmp_path, capsys, tol, command, estimator):
    import echograd.cli

    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG + f"cbvp:\n  tol: {tol}\n")
    out = tmp_path / "r"
    argv = ["--config", str(cfg), "--out", str(out)]
    if estimator is not None:
        argv += ["--estimator", estimator]
    assert echograd.cli.main(argv + [command]) == 2
    # NaN and infinity are refused on load, naming their key
    expected = "boundary value tolerance" if tol in ("-1", "0") else "'cbvp.tol' must be finite"
    assert expected in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("setting, value", [
    ("learning_rate", "-0.1"), ("learning_rate", ".nan"), ("epochs", "0"),
])
def test_train_rejects_bad_settings_before_preparing(tmp_path, monkeypatch, capsys, setting,
                                                      value):
    # a pinned cbvp problem runs a free solve when prepared, whose numerical
    # error would otherwise exit 3 for what is a configuration error
    import echograd.cli

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepared the problem before the settings were checked")

    monkeypatch.setattr(echograd.cli, "prepare", no_prepare)
    cfg = tmp_path / "bad.yaml"
    train = {"epochs": "3", "learning_rate": "0.3", setting: value}
    cfg.write_text(FAST_CONFIG.replace(
        "train:\n  epochs: 3\n  learning_rate: 0.3\n",
        f"train:\n  epochs: {train['epochs']}\n  learning_rate: {train['learning_rate']}\n", 1))
    out = tmp_path / "r"
    code = echograd.cli.main(["--config", str(cfg), "--out", str(out), "--estimator", "cbvp",
                              "train"])
    assert code == 2
    assert setting in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, edit", [
    ("gradcheck", ("n_steps: 400", "n_steps: 0")),
    ("compare", ("n_steps: 400", "n_steps: 0")),
    ("train", ("n_steps: 400", "n_steps: 0")),
    ("retrace", ("dt: 0.01", "dt: 0")),
    ("gradcheck", ("n_steps: 400", "n_steps: 1")),
])
def test_a_zero_step_count_or_step_size_exits_two(tmp_path, capsys, command, edit):
    import echograd.cli

    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(*edit, 1))
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert edit[1].split(":")[0] in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, edit, field", [
    ("gradcheck", ("seed: 3", "seed: null"), "seed"),
    ("train", ("epochs: 3", "epochs: null"), "epochs"),
    ("gradcheck", ("  beta: 0.001", "  beta: null"), "beta"),
    ("train", ("  beta: 0.001", "  beta: null"), "beta"),
    ("compare", ("betas: [0.001]", "betas: [0.001, null]"), "betas"),
    ("train", ("epochs: 3", "epochs: 2.5"), "epochs"),
    ("gradcheck", ("n_steps: 400", "n_steps: 400.9"), "n_steps"),
    ("gradcheck", ("dim: 2", "dim: 2.5"), "dim"),
    ("gradcheck", ("input_dim: 0", "input_dim: 0.5"), "input_dim"),
])
def test_null_and_non_integral_values_exit_two(tmp_path, capsys, command, edit, field):
    import echograd.cli

    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(*edit, 1))
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    # the message names the dotted key, which ends in the field's own name
    assert "configuration error" in err and f"{field}' must be" in err, err
    assert not (out / "manifest.json").exists()


def test_a_config_that_sets_the_removed_cbvp_coarsen_key_exits_two(tmp_path, capsys):
    # CBVP runs on the task's own grid; the old knob is an unknown key
    import echograd.cli

    cfg = tmp_path / "old.yaml"
    cfg.write_text(FAST_CONFIG.replace("  betas: [0.001]\n",
                                       "  betas: [0.001]\n  cbvp_coarsen: 8\n"))
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), "compare"]) == 2
    err = capsys.readouterr().err
    assert "unknown configuration key 'compare.cbvp_coarsen'" in err, err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("epochs", [1, 20])
@pytest.mark.parametrize("estimator", ["civp", "pfvp", "rhel"])
def test_a_training_run_whose_gradient_blows_up_exits_three(tmp_path, capsys, estimator,
                                                            epochs):
    # lr 1000 throws theta far out in one update: the loss after it overflows
    # while the states stay finite, and the next estimate is non-finite (CIVP,
    # whose contrast overflows) or diverges (the others); every one is a
    # numerical failure, with no warning
    import echograd.cli

    cfg = tmp_path / "steep.yaml"
    cfg.write_text(f"task: {{n_steps: 100}}\ntrain: {{learning_rate: 1000, epochs: {epochs}}}\n")
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = echograd.cli.main(["--config", str(cfg), "--out", str(out),
                                  "--estimator", estimator, "train"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_compare_on_a_zero_gradient_task_warns_nothing(tmp_path):
    # estimates and the oracle are all zero, so every relative error is 0/0;
    # the test suite turns a RuntimeWarning into an error
    import echograd.cli

    cfg = tmp_path / "flat.yaml"
    cfg.write_text("task:\n  input_dim: 0\n  n_steps: 200\n  params: {amplitude: 0.0}\n"
                   "compare:\n  estimators: [civp, pfvp, rhel]\n")
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), "compare"]) == 0
    rows = json.loads((out / "compare.json").read_text())["rows"]
    assert len(rows) == 9
    for row in rows:
        assert row["gradient"] == [0.0] * len(row["gradient"])
        assert row["rel_err_vs_oracle"] is None


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


# The second config has a zero oracle, so every relative error is non-finite.
@pytest.mark.parametrize("config", [FAST_CONFIG, "task: {input_dim: 0, n_steps: 160}\n"],
                         ids=["fast", "zero_oracle"])
def test_every_written_json_is_strict(tmp_path, config):
    import echograd.cli

    cfg = tmp_path / "config.yaml"
    cfg.write_text(config)
    for command in ("gradcheck", "compare", "retrace", "export"):
        out = tmp_path / command
        assert echograd.cli.main(["--config", str(cfg), "--out", str(out), command]) == 0
        written = sorted(out.glob("*.json"))
        assert len(written) == (1 if command == "export" else 2)
        for path in written:
            _strict_json(path.read_text())


@pytest.mark.parametrize("edit, message", [
    (("  coupling: chain\n", "  coupling: [[false, false], [false, false]]\n"),
     "model has no parameters"),
    (("  input_dim: 0\n", "  input_dim: 0\n  quartic: -1.0\n"), "non-negative and finite"),
])
def test_a_model_config_error_exits_two_and_names_its_cause(tmp_path, capsys, edit, message):
    import echograd.cli

    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(*edit, 1))
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), "gradcheck"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err, err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, edit, key", [
    ("retrace", ("  t_end: 2.0\n", "  t_end: 2.0\n  theta_scale: .inf\n"), "task.theta_scale"),
    ("gradcheck", ("  dt: 0.01", "  dt: .nan"), "retrace.dt"),
    ("gradcheck", ("  input_dim: 0\n", "  input_dim: 0\n  quartic: .nan\n"), "task.quartic"),
    ("gradcheck", ("  input_dim: 0\n", "  input_dim: 0\n  quartic: .inf\n"), "task.quartic"),
    ("compare", ("betas: [0.001]", "betas: [0.001, -.inf]"), "compare.betas"),
    ("export", ("omega: 2.1", "omega: .nan"), "task.params.omega"),
    ("gradcheck", ("seed: 3", "seed: -1"), "seed"),
    ("gradcheck", ("betas: [0.001]", "betas: []"), "compare.betas"),
    ("gradcheck", ("estimators: [pfvp, rhel]", "estimators: [bogus]"), "compare.estimators"),
    ("retrace", ("estimators: [pfvp, rhel]", "estimators: [static_ep]"), "compare.estimators"),
    ("export", ("epochs: 3", "epochs: 0"), "train.epochs"),
    ("retrace", ("method: pfvp", "method: bogus"), "estimator.method"),
    ("compare", ("method: pfvp", "method: fd_oracle"), "estimator.method"),
    ("export", ("  beta: 0.001\n", "  beta: 0.001\n  nudging: both\n"), "estimator.nudging"),
], ids=["theta_scale_inf", "retrace_dt_nan", "quartic_nan", "quartic_inf", "betas_inf",
        "params_nan", "negative_seed", "empty_betas", "bogus_estimators",
        "static_estimators", "zero_epochs", "bogus_method", "oracle_method", "bogus_nudging"])
def test_a_bad_value_in_any_section_exits_two_on_load(tmp_path, capsys, command, edit, key):
    # every command checks every section before any work, so no file is written
    import echograd.cli

    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_CONFIG.replace(*edit, 1))
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, command, key", [
    (["--beta", "nan"], "compare", "estimator.beta"),
    (["--estimator", "bogus"], "compare", "estimator.method"),
    (["--seed", "-1"], "gradcheck", "seed"),
], ids=["beta_nan", "bogus_estimator", "negative_seed"])
def test_a_bad_flag_exits_two_on_load(tmp_path, capsys, fast_config, flags, command, key):
    # the flags are merged and checked as the file's values are, before any work
    import echograd.cli

    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(fast_config), "--out", str(out), *flags,
                              command]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["civp", "pfvp", "rhel"])
def test_a_huge_finite_difference_step_is_a_divergence_without_warnings(tmp_path, capsys,
                                                                          estimator):
    # the probes overflow K = A^T A; the smoke run turns RuntimeWarnings into errors
    import echograd.cli

    cfg = tmp_path / "huge.yaml"
    cfg.write_text(FAST_CONFIG.replace("  beta: 0.001\n", "  beta: 0.001\n  fd_eps: 1.0e+300\n", 1))
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = echograd.cli.main(["--config", str(cfg), "--out", str(out),
                                  "--estimator", estimator, "gradcheck"])
    assert code == 3
    assert "integration diverged" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_a_problem_too_large_to_allocate_exits_two(tmp_path, capsys):
    # the default dense coupling asks numpy for d^2 = 1e18 entries (6.94 EiB)
    # first, which it refuses at once: nothing is allocated
    import echograd.cli

    cfg = tmp_path / "huge_dim.yaml"
    cfg.write_text("task:\n  dim: 1000000000\n")
    out = tmp_path / "r"
    assert echograd.cli.main(["--config", str(cfg), "--out", str(out), "gradcheck"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "does not fit in memory" in err, err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()
