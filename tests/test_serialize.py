"""CSV/JSON round trips and manifest reproducibility."""

import hashlib
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import echograd
from echograd import serialize
from echograd.core import (
    ParamVector,
    PhaseState,
    Signal,
    TimeGrid,
)
from echograd.models import make_oscillator_model
from echograd.rhel import ConstantInitialState, run_echo
from echograd.serialize import (
    code_identity,
    echo_run_to_csv,
    payload_hash,
    signal_from_csv,
    signal_to_csv,
    trajectory_from_csv,
    trajectory_to_csv,
    write_json,
    write_manifest,
)
from echograd.dynamics import integrate_hamiltonian, integrate_lagrangian_ivp


def test_signal_csv_roundtrip(tmp_path):
    grid = TimeGrid(dt=0.1, n_steps=5, t_start=0.5)
    rng = np.random.default_rng(0)
    sig = Signal(grid, rng.normal(size=(6, 2)))
    path = tmp_path / "sig.csv"
    signal_to_csv(sig, path)
    assert path.read_text().splitlines()[0] == "t,x_0,x_1"
    back = signal_from_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.values, sig.values)


def test_trajectory_csv_roundtrip_both_kinds(tmp_path):
    lag, ham = make_oscillator_model(2, coupling="chain")
    th = ParamVector([1.1, 0.9, 0.35])
    grid = TimeGrid(dt=0.02, n_steps=40)
    ham_run = integrate_hamiltonian(ham, th, PhaseState([0.4, -0.2], [0.1, 0.6]), grid)
    lag_run = integrate_lagrangian_ivp(lag, th, [0.4, -0.2], [0.1, 0.6], grid)

    for traj, prefix in ((ham_run, "p"), (lag_run, "v")):
        path = tmp_path / f"{prefix}.csv"
        trajectory_to_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == f"t,s_0,s_1,{prefix}_0,{prefix}_1"
        back = trajectory_from_csv(path)
        assert back.kind == traj.kind
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.conjugate, traj.conjugate)


def test_echo_run_export(tmp_path):
    _, ham = make_oscillator_model(1, coupling="direct")
    grid = TimeGrid(dt=0.01, n_steps=100)
    run = run_echo(ham, None, ParamVector([1.0]),
                   ConstantInitialState(PhaseState([1.0], [0.0])), grid, None, None, 0.0)
    echo_run_to_csv(run, tmp_path / "fwd.csv", tmp_path / "echo.csv")
    fwd_lines = (tmp_path / "fwd.csv").read_text().splitlines()
    assert fwd_lines[0] == "t,phase,s_0,p_0"
    assert fwd_lines[1].split(",")[1] == "forward"
    echo_lines = (tmp_path / "echo.csv").read_text().splitlines()
    assert echo_lines[1].split(",")[1] == "echo"
    back = trajectory_from_csv(tmp_path / "fwd.csv")
    assert np.array_equal(back.positions, run.forward.positions)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_write_json_with_a_non_finite_value_leaves_no_file(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"config": {"task": {"theta_scale": bad}}})
    assert not path.exists()
    with pytest.raises(ValueError, match="not JSON compliant"):
        payload_hash({"dt": bad})
    # a finite payload hashes as before the check
    assert payload_hash({"dt": 0.5}) == hashlib.sha256(b'{"dt":0.5}').hexdigest()


def test_manifest_payload_hash_is_stable(tmp_path):
    payload = {"command": "compare", "config": {"seed": 0, "betas": [1e-2, 1e-3]}}
    first = write_manifest(tmp_path / "m1.json", payload, timings={"total_seconds": 1.23})
    second = write_manifest(tmp_path / "m2.json", payload, timings={"total_seconds": 9.87})
    assert first == second == payload_hash(payload)
    blob = json.loads((tmp_path / "m1.json").read_text())
    assert blob["payload_sha256"] == first
    assert blob["code"] == code_identity()


def test_one_changed_source_byte_changes_the_source_hash(tmp_path):
    package = tmp_path / "echograd"
    shutil.copytree(Path(echograd.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = serialize._source_sha256(package)
    assert code_identity() == {"version": echograd.__version__, "source_sha256": before}
    assert len(before) == 64
    target = package / "models.py"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert serialize._source_sha256(package) != before


def test_code_identity_ignores_the_working_directory(tmp_path, monkeypatch):
    expected = code_identity()
    code_identity.cache_clear()
    monkeypatch.chdir(tmp_path)
    assert code_identity() == expected


def test_write_manifest_spawns_no_process(tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("write_manifest started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    code_identity.cache_clear()  # the first write computes the identity
    payload = {"command": "gradcheck"}
    assert write_manifest(tmp_path / "m.json", payload) == payload_hash(payload)
    assert json.loads((tmp_path / "m.json").read_text())["code"] == code_identity()
