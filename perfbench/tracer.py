"""Outside-in tracer: rebinds echograd's public functions to timing wrappers.

Nothing inside ``src/`` knows about it.  ``install`` replaces every public
function of the traced modules in every ``echograd`` module that holds it by
name (``integrate_lagrangian_ivp`` is imported into glep, oracle, compare,
training and cli, so all five names are rebound), and replaces the per-step
model methods on their classes.  ``uninstall`` puts the originals back.

Three wrapper kinds, chosen by how often a function runs:

- span: name, start, end and parent index, kept in memory; self time is the
  span's duration minus its child spans;
- timed: a call count and accumulated seconds, no span (runs per step);
- counted: a call count only, no timer (runs per step).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer name -> public functions to wrap; None means the module's __all__.
LAYERS = {
    "dynamics": None,
    "legendre": None,
    "models": None,
    "glep": None,
    "rhel": None,
    "oracle": None,
    "static_ep": None,
    "training": None,
    "compare": None,
    "config": None,
    "tasks": None,
    "serialize": None,
    "cli": ("main",),
}

# Functions that run once or more per integration step: no span, timer only.
PER_STEP_TIMED = {("legendre", "velocity_from_momentum")}

# Per-step methods on the model classes: (class, method, kind).
MODEL_METHODS = (
    ("OscillatorLagrangian", "grad_position", "counted"),
    ("OscillatorHamiltonian", "grad_position", "counted"),
    ("OscillatorLagrangian", "grad_params", "timed"),
    ("OscillatorHamiltonian", "grad_params", "timed"),
)

# Spans the benchmark opens around its own work (prefix), not the program's.
BENCH_PREFIX = "bench."


def _public_functions(module, names):
    if names is None:
        names = getattr(module, "__all__", ())
    for name in names:
        value = getattr(module, name)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


class Tracer:
    """Spans and counters for one traced pass; install once, uninstall once."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, failed]
        self._stack = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.totals = defaultdict(int)     # summed from results (steps, iterations)
        self._patches = []

    # -- wrappers -------------------------------------------------------

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, False])
        stack.append(index)
        try:
            yield
        except BaseException:
            spans[index][4] = True
            raise
        finally:
            spans[index][2] = perf_counter()
            stack.pop()

    def _span_wrapper(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _timed_wrapper(self, name, fn):
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - started
                calls[name] += 1

        return wrapper

    def _counted_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            importlib.import_module(f"echograd.{layer}")
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "echograd" or n.startswith("echograd.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"echograd.{layer}"]
            for fname, original in _public_functions(module, names):
                name = f"{layer}.{fname}"
                if (layer, fname) in PER_STEP_TIMED:
                    wrapper = self._timed_wrapper(name, original)
                else:
                    wrapper = self._span_wrapper(name, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, original, wrapper)
        models = sys.modules["echograd.models"]
        for cls_name, method, kind in MODEL_METHODS:
            cls = getattr(models, cls_name)
            original = cls.__dict__[method]
            name = f"models.{method}"
            make = self._timed_wrapper if kind == "timed" else self._counted_wrapper
            self._patch(cls, method, original, make(name, original))

    def uninstall(self):
        """Restore every rebound name; raise if any is not the original afterwards."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")
        self._patches = []

    # -- results --------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, failures."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        for i, (name, _, _, _, failed) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["s"] += durations[i]
            row["self_s"] += durations[i] - child[i]
            row["failed"] += int(failed)
        return table

    def program_seconds(self):
        """Inclusive time of the top-level spans the program itself opened."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0 and not name.startswith(BENCH_PREFIX))

    def outermost_seconds(self, prefix):
        """Inclusive time of spans named ``prefix*`` with no such ancestor."""
        total = 0.0
        inside = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            mine = name.startswith(prefix)
            above = parent >= 0 and inside[parent]
            inside[i] = mine or above
            if mine and not above:
                total += end - start
        return total

    def layers_seen(self):
        seen = {name.split(".")[0] for name, *_ in self.spans}
        seen.update(name.split(".")[0] for name, count in self.calls.items() if count)
        return seen

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - origin, "end": e - origin, "parent": p, "failed": f}
                for n, s, e, p, f in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "calls": dict(self.calls),
                       "seconds": dict(self.seconds)}, fh)
            fh.write("\n")


def _observe_steps(tracer, trajectory):
    tracer.totals["dynamics.integrate_hamiltonian.steps"] += trajectory.grid.n_steps


def _observe_relax(tracer, result):
    tracer.totals["static_ep.relax.iterations"] += result.iterations


_OBSERVERS = {
    "dynamics.integrate_hamiltonian": _observe_steps,
    "static_ep.relax": _observe_relax,
}
