"""Span tracer that wraps geowave's public functions from outside the package.

`Tracer.install` replaces each traced function or method with a thin wrapper
that records one span (name, start, end, parent) per call.  A module-level
function is patched in every `geowave` module that binds it, because
`solver`, `energy`, `ldp` and `cli` import their helpers by name.  Spans stay
in memory until `write_spans`; `uninstall` restores every original object and
`leftover_wrappers` proves that none survived.

Times are integer nanoseconds from `time.perf_counter_ns`, so self time, a
span's duration minus the part of it that its child spans cover, is exact and
never negative.  A layer's self time excludes the traced layers it calls.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from contextlib import contextmanager

PACKAGE = "geowave"

# (module, attribute) of every traced boundary.  "Class.method" names patch
# the class attribute, which every instance then resolves.
TARGETS = (
    ("cli", "run_command"),
    ("ldp", "rate_function"),
    ("energy", "verify_energy_inequality"),
    ("energy", "energy"),
    ("solver", "solve_batch"),
    ("solver", "solve_stochastic"),
    ("solver", "solve_skeleton"),
    ("solver", "curvature_force"),
    ("wave_group", "apply_arrays"),
    ("geometry", "ManifoldModel.nearest_point"),
    ("geometry", "ManifoldModel.tangent_project_at"),
    ("geometry", "ManifoldModel.constraint_residual"),
    ("geometry", "ManifoldModel.extended_sff_perp"),
    ("geometry", "DiffusionField.__call__"),
    ("function_spaces", "derivative1"),
    ("function_spaces", "derivative2"),
    ("function_spaces", "extend_array"),
    ("function_spaces", "integrate_samples"),
    ("noise", "NoiseBasis.evaluate"),
    ("rng", "stream"),
    ("states", "make_grid"),
    ("states", "constant_state"),
    ("states", "rotating_state"),
    ("states", "bump_state"),
    ("states", "random_state"),
    ("states", "twin_pair"),
)

# Spans the benchmark opens around its own code.
OWN_SPANS = ("perfbench.setup", "perfbench.op", "perfbench.observer")

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS) + OWN_SPANS

SOLVER_ENTRIES = ("solver.solve_batch", "solver.solve_stochastic", "solver.solve_skeleton")
ENERGY_ENTRY = "energy.verify_energy_inequality"

# Spans whose self time under a solver entry is reported per column-step.
COL_STEP_SPANS = SOLVER_ENTRIES + (
    "solver.curvature_force",
    "wave_group.apply_arrays",
    "geometry.ManifoldModel.nearest_point",
    "geometry.ManifoldModel.tangent_project_at",
    "geometry.ManifoldModel.constraint_residual",
    "geometry.ManifoldModel.extended_sff_perp",
    "geometry.DiffusionField.__call__",
    "function_spaces.derivative1",
    "function_spaces.derivative2",
    "function_spaces.extend_array",
    "noise.NoiseBasis.evaluate",
    "rng.stream",
    "perfbench.observer",
)

# Spans whose self time under the energy verifier is reported on its own.
ENERGY_SPLIT_SPANS = (
    "solver.curvature_force",
    "geometry.ManifoldModel.extended_sff_perp",
    "geometry.DiffusionField.__call__",
    "function_spaces.derivative1",
    "function_spaces.derivative2",
    "function_spaces.integrate_samples",
)

# Spans whose inclusive time (self plus traced children) is reported too.
TOTAL_SPANS = (
    "cli.run_command",
    "ldp.rate_function",
    "energy.verify_energy_inequality",
    "energy.energy",
    "solver.solve_batch",
    "solver.solve_stochastic",
    "solver.solve_skeleton",
    "solver.curvature_force",
    "wave_group.apply_arrays",
)

BYTES_SPANS = ("wave_group.apply_arrays", "solver.curvature_force")


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _solver_extra(args, kwargs, result):
    steps = len(result.times) - 1
    return {"col_steps": steps * int(result.metadata.get("nbatch", 1))}


def _apply_arrays_extra(args, kwargs, result):
    return {"bytes_in": _nbytes(*args[:2]), "bytes_out": _nbytes(*result)}


def _curvature_extra(args, kwargs, result):
    return {"bytes_in": _nbytes(*args[1:4]), "bytes_out": _nbytes(result)}


def _rate_extra(args, kwargs, result):
    return {"iterations": int(result.iterations), "solves": int(result.metadata.get("solves", 0))}


# Per-call measurements taken from a span's arguments and result.
EXTRAS = {
    "solver.solve_batch": _solver_extra,
    "solver.solve_stochastic": _solver_extra,
    "solver.solve_skeleton": _solver_extra,
    "wave_group.apply_arrays": _apply_arrays_extra,
    "solver.curvature_force": _curvature_extra,
    "ldp.rate_function": _rate_extra,
}


def per_layer_specs() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    specs += [(f"{name}.total_s", "s") for name in TOTAL_SPANS]
    specs += [(f"{name}.us_per_col_step", "us") for name in COL_STEP_SPANS]
    specs += [(f"{name}.energy_self_s", "s") for name in ENERGY_SPLIT_SPANS]
    for name in BYTES_SPANS:
        specs += [(f"{name}.computed_bytes_in", "B"), (f"{name}.computed_bytes_out", "B")]
    specs += [
        ("solver.col_steps", "count"),
        ("rng.stream.noise_draws", "count"),
        ("ldp.rate.iterations", "count"),
        ("ldp.rate.solves", "count"),
        ("ldp.rate.solves_per_iteration", "ratio"),
        ("trace.spans", "count"),
        ("trace.wall_s_untraced", "s"),
        ("trace.wall_s_traced", "s"),
        ("trace.overhead", "ratio"),
    ]
    return specs


def _package_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class Tracer:
    """In-memory span recorder plus the patch table for geowave's boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name id, start, end, parent index, extra] record per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, extra=None):
        """A wrapper around `fn` that records one span per call."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name_id, 0, 0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[1] = start
                stack.pop()
            if extra is not None:
                record[4] = extra(args, kwargs, result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = len(self.spans)
        record = [self._name_id(name), 0, 0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._patch(cls, method, original, self.wrap(name, original, EXTRAS.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, EXTRAS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Every geowave module or class attribute that is still a span wrapper."""
        found = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if hasattr(value, "perfbench_span"):
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for meth, member in vars(value).items():
                        if hasattr(member, "perfbench_span"):
                            found.append(f"{mod.__name__}.{key}.{meth}")
        return found

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as a gzip CSV row: index, name, start, end, parent."""
        with gzip.open(path, "wt") as out:
            out.write("index,name,start_ns,end_ns,parent\n")
            for index, (name_id, start, end, parent, _) in enumerate(self.spans):
                out.write(f"{index},{self.names[name_id]},{start},{end},{parent}\n")


def self_times(spans: list[list]) -> tuple[list[int], list[int]]:
    """(self nanoseconds, child-covered nanoseconds) per span.

    Coverage is the union of the children's intervals clipped to the parent,
    so overlapping or out-of-order children are never counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, record in enumerate(spans):
        if record[3] >= 0:
            children[record[3]].append(index)
    selfs, covered = [], []
    for index, (_, start, end, _, _) in enumerate(spans):
        cover = 0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                cover += hi - lo
                reach = hi
        covered.append(cover)
        selfs.append((end - start) - cover)
    return selfs, covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (every name in per_layer_specs)."""
    spans, names = tracer.spans, tracer.names
    selfs, _ = self_times(spans)
    out = {name: 0.0 for name, _ in per_layer_specs()}
    solver_ids = {i for i, name in enumerate(names) if name in SOLVER_ENTRIES}
    energy_ids = {i for i, name in enumerate(names) if name == ENERGY_ENTRY}
    # under_solver[i]: span i is a solver entry or runs inside one
    under_solver = [False] * len(spans)
    under_energy = [False] * len(spans)
    col_steps = 0
    col_step_self: dict[str, int] = {}
    for index, (name_id, start, end, parent, extra) in enumerate(spans):
        parent_solver = parent >= 0 and under_solver[parent]
        under_solver[index] = parent_solver or name_id in solver_ids
        under_energy[index] = parent >= 0 and (under_energy[parent] or spans[parent][0] in energy_ids)
        name = names[name_id]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[index] * 1e-9
        if name in TOTAL_SPANS:
            out[f"{name}.total_s"] += (end - start) * 1e-9
        if under_solver[index]:
            col_step_self[name] = col_step_self.get(name, 0) + selfs[index]
            if name == "rng.stream":
                out["rng.stream.noise_draws"] += 1
            if name_id in solver_ids and not parent_solver and extra:
                col_steps += extra["col_steps"]
        if under_energy[index] and name in ENERGY_SPLIT_SPANS:
            out[f"{name}.energy_self_s"] += selfs[index] * 1e-9
        if name in BYTES_SPANS and extra:
            out[f"{name}.computed_bytes_in"] += extra["bytes_in"]
            out[f"{name}.computed_bytes_out"] += extra["bytes_out"]
        if name == "ldp.rate_function" and extra:
            out["ldp.rate.iterations"] += extra["iterations"]
            out["ldp.rate.solves"] += extra["solves"]
    if col_steps:
        for name in COL_STEP_SPANS:
            out[f"{name}.us_per_col_step"] = 1e-3 * col_step_self.get(name, 0) / col_steps
    out["solver.col_steps"] = col_steps
    if out["ldp.rate.iterations"]:
        out["ldp.rate.solves_per_iteration"] = out["ldp.rate.solves"] / out["ldp.rate.iterations"]
    out["trace.spans"] = len(spans)
    return out
