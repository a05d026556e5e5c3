"""CSV and JSON persistence for signals, trajectories, and run artifacts.

Floats are written with ``repr`` (shortest round-trip form), so identical
runs produce byte-identical files.  Manifests separate a deterministic
payload, whose canonical-JSON hash certifies reproducibility, from fields
outside the hash: timings and the identity of the code that ran.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .core import Signal, TimeGrid, Trajectory

__all__ = [
    "signal_to_csv",
    "signal_from_csv",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "echo_run_to_csv",
    "canonical_json",
    "payload_hash",
    "write_json",
    "finite_or_null",
    "write_manifest",
    "write_run",
    "file_sha256",
    "code_identity",
]

_CONJUGATE_PREFIX = {"hamiltonian": "p", "lagrangian": "v"}


def _fmt(value) -> str:
    return repr(float(value))


def signal_to_csv(signal: Signal, path, prefix: str = "x") -> None:
    """Header ``t, <prefix>_0..<prefix>_{dim-1}``, one row per grid point."""
    times = signal.grid.times()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{prefix}_{j}" for j in range(signal.dim)])
        for k in range(signal.grid.n_points):
            writer.writerow([_fmt(times[k])] + [_fmt(v) for v in signal.values[k]])


def _grid_from_times(times) -> TimeGrid:
    times = np.asarray(times, dtype=float)
    if times.shape[0] < 2:
        raise ValueError("need at least two samples to infer a grid")
    n = times.shape[0] - 1
    # the span quotient recovers round step sizes exactly; pairwise diffs do not
    dt = (times[-1] - times[0]) / n
    expected = times[0] + dt * np.arange(n + 1)
    if not np.allclose(times, expected, rtol=0.0, atol=1e-9 * max(abs(dt), 1.0)):
        raise ValueError("samples are not on a uniform grid")
    return TimeGrid(dt=float(dt), n_steps=n, t_start=float(times[0]))


def signal_from_csv(path) -> Signal:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    if header[0] != "t":
        raise ValueError("signal files must start with a 't' column")
    data = np.asarray(rows, dtype=float)
    return Signal(_grid_from_times(data[:, 0]), data[:, 1:])


def trajectory_to_csv(traj: Trajectory, path, phase: str | None = None) -> None:
    """Header ``t, s_0.., p_0..`` (momenta) or ``t, s_0.., v_0..`` (velocities).

    An optional constant ``phase`` column disambiguates forward/echo files
    without resorting to negative timestamps.
    """
    prefix = _CONJUGATE_PREFIX[traj.kind]
    d = traj.dim
    times = traj.grid.times()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        if phase is not None:
            header.append("phase")
        header += [f"s_{j}" for j in range(d)] + [f"{prefix}_{j}" for j in range(d)]
        writer.writerow(header)
        for k in range(traj.n_points):
            row = [_fmt(times[k])]
            if phase is not None:
                row.append(phase)
            row += [_fmt(v) for v in traj.positions[k]]
            row += [_fmt(v) for v in traj.conjugate[k]]
            writer.writerow(row)


def trajectory_from_csv(path) -> Trajectory:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    has_phase = len(header) > 1 and header[1] == "phase"
    start = 2 if has_phase else 1
    names = header[start:]
    d = sum(1 for name in names if name.startswith("s_"))
    kind = "hamiltonian" if names[d].startswith("p_") else "lagrangian"
    times = np.array([float(r[0]) for r in rows])
    values = np.array([[float(v) for v in r[start:]] for r in rows])
    return Trajectory(_grid_from_times(times), kind, values[:, :d], values[:, d:])


def echo_run_to_csv(run, forward_path, echo_path) -> None:
    trajectory_to_csv(run.forward, forward_path, phase="forward")
    trajectory_to_csv(run.echo, echo_path, phase="echo")


def write_json(path, data) -> None:
    """Every JSON report and manifest: indent 2, sorted keys, trailing newline.
    Strict JSON: a NaN or infinity raises ``ValueError`` (see :func:`finite_or_null`)
    before the file is opened, so a failed write leaves no file behind."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def finite_or_null(value: float | None) -> float | None:
    """``value``, or ``None`` (JSON ``null``) when it is missing or not finite."""
    return value if value is not None and math.isfinite(value) else None


def canonical_json(payload) -> str:
    """Compact, sorted-key, strict JSON: the form :func:`payload_hash` hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def payload_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _source_sha256(package) -> str:
    """sha256 over the package directory's ``*.py`` files in sorted-name order,
    each prefixed by its name and byte length."""
    digest = hashlib.sha256()
    for path in sorted(Path(package).glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_identity() -> dict:
    """The running echograd: its version and the hash of its own sources.

    Computed on first use, once per process; it depends on the package's
    files only, never on the working directory.
    """
    from . import __version__

    package = Path(__file__).resolve().parent
    return {"version": __version__, "source_sha256": _source_sha256(package)}


def write_manifest(path, payload: dict, timings: dict | None = None) -> str:
    """Write a manifest and return the payload hash.

    The payload must be fully determined by config and seed; timings and the
    code identity (:func:`code_identity`) are recorded alongside but excluded
    from the hash.
    """
    digest = payload_hash(payload)
    manifest = {
        "payload": payload,
        "payload_sha256": digest,
        "code": dict(code_identity()),
        "timings": timings or {},
    }
    write_json(path, manifest)
    return digest


def write_run(out, command: str, config: dict, files, timings: dict, **fields) -> str:
    """Write ``out/manifest.json`` for one command run; return the payload hash.

    The payload is ``{"command", "config", **fields, "outputs"}``; ``outputs``
    maps each name in ``files``, a file in ``out``, to its sha256.
    """
    out = Path(out)
    outputs = {name: file_sha256(out / name) for name in files}
    payload = {"command": command, "config": config, **fields, "outputs": outputs}
    return write_manifest(out / "manifest.json", payload, timings)
