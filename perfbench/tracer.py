"""Per-layer tracing from outside the program.

The tracer wraps layer entry points of the ``subcities`` package in place
and restores them on exit. A function is replaced under every name that
binds it in any loaded ``subcities`` module, because several modules import
helpers by name (``planner`` imports ``_solve_weights_best``, ``cli`` imports
``radius_of_mass``, ...); patching only the defining module would miss those
calls. Methods are patched on their class, which every importer shares.

Two kinds of hook exist. A span hook records a call count and self time
(the span's CPU time, ``time.process_time``, minus the CPU time its child
spans cover). A count hook
only counts calls; it is used for hot inner calls such as the workspace
``stats`` evaluation, whose time stays with the enclosing span.

A hook point that is absent (renamed or deleted by a later change) is
recorded in ``missing`` and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_PACKAGE = "subcities"

# (metric name, module, attribute path, kind). Span names double as metric
# prefixes: a span "x" yields "x.calls" and "x.busy_s".
HOOKS = (
    ("discrete_transport.solve", "discrete_transport", "solve_discrete_transport", "span"),
    ("semidiscrete.weight_solve", "semidiscrete", "_solve_weights_best", "span"),
    ("semidiscrete.fallback.sweeps", "semidiscrete", "_coordinate_sweep", "count"),
    ("semidiscrete.level_polish.calls", "semidiscrete", "_level_polish", "count"),
    ("semidiscrete.stats.calls", "semidiscrete", "_Workspace.stats", "count"),
    ("semidiscrete.jacobian.calls", "semidiscrete", "_Workspace.full_jacobian", "count"),
    ("semidiscrete.workspace.builds", "semidiscrete", "_Workspace.__init__", "count"),
    ("semidiscrete.density", "semidiscrete", "density_from_weights", "span"),
    ("semidiscrete.induced_cost", "semidiscrete", "induced_transport_cost", "span"),
    ("semidiscrete.radius_of_mass", "semidiscrete", "radius_of_mass", "span"),
    ("planner.bounded", "planner", "solve_bounded", "span"),
    ("planner.optimize_masses", "planner", "optimize_masses", "span"),
    ("planner.assemble_rn", "planner", "assemble_rn_solution", "span"),
    ("subcity.curve_build", "subcity", "EnergyCurve.build", "span"),
    ("subcity.energy.calls", "subcity", "subcity_energy", "count"),
    ("oracle.brute_force", "oracle", "brute_force_full", "span"),
    ("oracle.inner_solves", "oracle", "best_density_for", "count"),
    ("cli.run", "cli", "run", "span"),
    ("measures.io", "measures", "GridDensity.to_csv", "span"),
    ("measures.io", "measures", "GridDensity.to_pgm", "span"),
    ("measures.io", "discrete_transport", "TransportPlan.dump_csv", "span"),
)

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "discrete_transport.solve.calls": "count",
    "discrete_transport.solve.busy_s": "s",
    "discrete_transport.solve.pairs": "count",
    "discrete_transport.solve.cost_bytes": "bytes",
    "semidiscrete.weight_solve.calls": "count",
    "semidiscrete.weight_solve.busy_s": "s",
    "semidiscrete.weight_solve.converged_ratio": "ratio",
    "semidiscrete.fallback.sweeps": "count",
    "semidiscrete.level_polish.calls": "count",
    "semidiscrete.stats.calls": "count",
    "semidiscrete.jacobian.calls": "count",
    "semidiscrete.workspace.builds": "count",
    "semidiscrete.workspace.cells_x_atoms": "count",
    "semidiscrete.density.busy_s": "s",
    "semidiscrete.induced_cost.busy_s": "s",
    "semidiscrete.radius_of_mass.calls": "count",
    "semidiscrete.radius_of_mass.busy_s": "s",
    "planner.bounded.busy_s": "s",
    "planner.bounded.candidates": "count",
    "planner.bounded.rounds": "count",
    "planner.bounded.candidates_per_round": "count",
    "planner.optimize_masses.calls": "count",
    "planner.optimize_masses.busy_s": "s",
    "planner.assemble_rn.busy_s": "s",
    "subcity.curve_build.busy_s": "s",
    "subcity.energy.calls": "count",
    "oracle.brute_force.busy_s": "s",
    "oracle.inner_solves": "count",
    "cli.run.busy_s": "s",
    "measures.io.busy_s": "s",
    "measures.io.bytes": "bytes",
}


def _argument(args, kwargs, position, name):
    """Argument ``name`` of a call, passed by keyword or at ``position``."""
    if name in kwargs:
        return kwargs[name]
    return args[position]


def _transport_pairs(tracer, args, kwargs, result):
    source = _argument(args, kwargs, 0, "source")
    target = _argument(args, kwargs, 1, "target")
    tracer.counts["discrete_transport.solve.pairs"] += len(source) * len(target)


def _weight_solve_outcome(tracer, args, kwargs, result):
    tol = _argument(args, kwargs, 4, "tol")
    if result[1] <= tol:
        tracer.counts["semidiscrete.weight_solve.converged"] += 1
    if tracer.active["planner.bounded"]:
        tracer.counts["planner.bounded.candidates"] += 1


def _workspace_size(tracer, args, kwargs, result):
    atoms = _argument(args, kwargs, 1, "atoms")
    grid = _argument(args, kwargs, 4, "grid")
    tracer.counts["semidiscrete.workspace.cells_x_atoms"] += grid.n_cells * len(atoms)


def _bounded_rounds(tracer, args, kwargs, result):
    tracer.counts["planner.bounded.rounds"] += result.metadata["rounds_used"]


def _io_bytes(tracer, args, kwargs, result):
    from pathlib import Path

    tracer.counts["measures.io.bytes"] += Path(_argument(args, kwargs, 1, "path")).stat().st_size


# Extra accounting run after a hooked call returns, keyed by attribute path.
_EXTRAS = {
    "solve_discrete_transport": _transport_pairs,
    "_solve_weights_best": _weight_solve_outcome,
    "_Workspace.__init__": _workspace_size,
    "solve_bounded": _bounded_rounds,
    "GridDensity.to_csv": _io_bytes,
    "GridDensity.to_pgm": _io_bytes,
    "TransportPlan.dump_csv": _io_bytes,
}

_EXTRA_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


class Tracer:
    """Wraps the hook points while active; use as a context manager."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.busy = defaultdict(float)
        self.active = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _extra(self, attr_path):
        fn = _EXTRAS.get(attr_path)
        if fn is None:
            return None

        def guarded(args, kwargs, result):
            try:
                fn(self, args, kwargs, result)
            except _EXTRA_ERRORS:
                # the hook's signature or result changed: report, do not crash
                if attr_path + " (accounting)" not in self.missing:
                    self.missing.append(attr_path + " (accounting)")

        return guarded

    def _span(self, name, fn, extra):
        stack, busy, counts, active = self._stack, self.busy, self.counts, self.active
        clock = time.process_time
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[name] -= 1
                stack.pop()
                busy[name] += dur - frame[0]
                counts[calls] += 1
                if stack:
                    stack[-1][0] += dur
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn, extra):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _install(self, name, module_name, attr_path, kind):
        try:
            module = importlib.import_module(f"{_PACKAGE}.{module_name}")
        except ImportError:
            self.missing.append(f"{module_name}.{attr_path}")
            return
        owner, _, attr = attr_path.rpartition(".")
        make = self._span if kind == "span" else self._count
        extra = self._extra(attr_path)
        if owner:
            cls = getattr(module, owner, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr_path}")
                return
            if isinstance(raw, classmethod):
                patched = classmethod(make(name, raw.__func__, extra))
            elif callable(raw):
                patched = make(name, raw, extra)
            else:
                self.missing.append(f"{module_name}.{attr_path}")
                return
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, patched)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr_path}")
            return
        wrapper = make(name, original, extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def __enter__(self):
        # import every hooked module before patching any, so that no module
        # binds a wrapper by name while being imported (it would never be
        # restored)
        for _, module_name, _, _ in HOOKS:
            try:
                importlib.import_module(f"{_PACKAGE}.{module_name}")
            except ImportError:
                pass  # reported as missing by _install
        for hook in HOOKS:
            self._install(*hook)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, 0 where its layer did not run."""
        c, b = self.counts, self.busy
        out = {}
        for name in LAYER_METRICS:
            if name.endswith(".busy_s"):
                out[name] = b[name[: -len(".busy_s")]]
            else:
                out[name] = c[name]
        out["discrete_transport.solve.cost_bytes"] = 8.0 * c["discrete_transport.solve.pairs"]
        solves = c["semidiscrete.weight_solve.calls"]
        out["semidiscrete.weight_solve.converged_ratio"] = (
            c["semidiscrete.weight_solve.converged"] / solves if solves else 0.0
        )
        rounds = c["planner.bounded.rounds"]
        out["planner.bounded.candidates_per_round"] = (
            c["planner.bounded.candidates"] / rounds if rounds else 0.0
        )
        return out
