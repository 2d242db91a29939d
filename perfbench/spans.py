"""Per-module spans for the traced run, recorded from outside the program.

``Tracer.installed()`` wraps every public function of the traced qclock
modules and binds the wrapper to every qclock module attribute that holds
the function, so calls through a name imported with ``from .linalg import
tensor`` are seen as well as calls through ``linalg.tensor``.  Spans are
kept in memory as (name, start, end, parent) and aggregated once, when
the run ends.  Nothing under ``src/`` is touched; uninstalling restores the
original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = (
    "clock",
    "dynamics",
    "linalg",
    "observables",
    "histories",
    "feynman",
    "sync",
    "serialize",
    "selftest",
    "cli",
)

#: Functions whose calls and self time are reported as per-layer metrics.
REPORTED = (
    "cli.main",
    "serialize.dynamic_from_json",
    "serialize.circuit_from_json",
    "serialize.canonical_dumps",
    "selftest.run_self_test",
    "clock.make_clock",
    "clock.verify_strong_complementarity",
    "linalg.tensor",
    "linalg.max_abs_diff",
    "linalg.swap_map",
    "linalg.orthonormal_range",
    "dynamics.dynamic_from_generator",
    "dynamics.validate_dynamic",
    "dynamics.hamiltonian",
    "dynamics.spectrum_checks",
    "dynamics.stone_reconstruct",
    "histories.is_em_morphism",
    "histories.schrodinger_solve",
    "histories.reconstruct_history",
    "observables.weyl_ccr_check",
    "observables.uncertainty_check",
    "observables.demolition_measurement",
    "feynman.composite_dynamic",
    "feynman.ground_space",
    "feynman.feynman_check",
    "sync.synchronized_family",
    "sync.clock_energy_collapse",
    "sync.subsystem_energy_measure",
    "sync.conundrum_check",
    "sync.internal_time_observable",
)


def _dynamic_key(d) -> tuple:
    # a valid dynamic is fixed by N and its one-step unitary
    return (d.N, d.dim, d.unitaries[1 % d.N].tobytes())


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.tensor_entries = 0
        self.hamiltonian_calls = 0
        self._op_dynamics: set = set()
        self.distinct_dynamics = 0

    def begin_op(self) -> None:
        """Start an operation: dynamics are counted distinct within one op."""
        self.distinct_dynamics += len(self._op_dynamics)
        self._op_dynamics = set()

    def take_counts(self) -> tuple[int, int, int]:
        """(tensor entries, hamiltonian calls, distinct dynamics) since last take."""
        self.begin_op()
        out = (self.tensor_entries, self.hamiltonian_calls, self.distinct_dynamics)
        self.tensor_entries = self.hamiltonian_calls = self.distinct_dynamics = 0
        return out

    def _wrap(self, fn, name: str):
        tracer = self
        is_tensor = name == "linalg.tensor"
        is_hamiltonian = name == "dynamics.hamiltonian"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_hamiltonian:
                tracer.hamiltonian_calls += 1
                tracer._op_dynamics.add(_dynamic_key(args[0]))
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if is_tensor:
                tracer.tensor_entries += out.size
            return out

        return traced

    @contextmanager
    def installed(self):
        """Bind wrappers everywhere the traced functions are bound, then undo."""
        wrappers = {}  # original function -> its wrapper
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"qclock.{short}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "qclock" and not modname.startswith("qclock."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    rebound.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in rebound:
                setattr(mod, attr, obj)


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, tuple[int, float]]:
    """Per function: (calls, total self time).  Self time is a span's length
    minus the time its direct children cover; calls are sequential, so the
    children of one span never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out
