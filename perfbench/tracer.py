"""Spans around gravelast's public functions, installed from outside the program.

``Tracer.install`` replaces each named function by a wrapper wherever a
``gravelast.*`` module holds the original object, so ``from .radial import
moment_integral`` in another module is wrapped too. Every call becomes a
span (op id, span id, parent id, name, start, end, self time, failed) kept
in memory; self time is the span's duration minus the time its child spans
cover. A few wrappers also add counters read off the call's arguments or
result. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

PACKAGE = "gravelast"
LAYERS = ("cli", "io", "verify", "shooting", "fixed_point", "radial",
          "constitutive", "parameters", "temporal")

WRAPPED = (
    "cli.main",
    "io.write_csv", "io.read_float_columns", "io.write_manifest", "io.sha256_of",
    "verify.residual_report",
    "shooting.solve_separable", "shooting.sweep", "shooting.boundary_mismatch",
    "fixed_point.picard_solve", "fixed_point.apply_F",
    "radial.moment_integral", "radial.reconstruct_geometry", "radial.apply_L_inverse",
    "constitutive.validate_model", "constitutive.ConstitutiveModel.U",
    "parameters.build_parameter_box",
    "temporal.evolve_q", "temporal.collapse_time", "temporal.assemble_motion",
)

# Functions whose raised exceptions are counted as <name>.errors.
COUNT_ERRORS = ("fixed_point.picard_solve", "shooting.boundary_mismatch",
                "shooting.solve_separable", "temporal.evolve_q", "temporal.collapse_time")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(key, pos, name):
    def count(counters, args, kwargs, result):
        counters[key] += Path(_arg(args, kwargs, pos, name)).stat().st_size
    return count


def _picard_iterations(counters, args, kwargs, result):
    counters["fixed_point.picard_iterations"] += result[1].iterations


def _samples(counters, args, kwargs, result):
    counters["temporal.samples"] += len(result.t)


def _moment_bytes(counters, args, kwargs, result):
    # Computed, not measured: the float64 values read plus the moments written.
    counters["radial.moment_integral.bytes_computed"] += 16 * (_arg(args, kwargs, 0, "grid").n + 1)


COUNTERS = {
    "io.write_csv": _file_bytes("io.bytes_written", 0, "path"),
    "io.write_manifest": _file_bytes("io.bytes_written", 0, "path"),
    "io.read_float_columns": _file_bytes("io.bytes_read", 0, "path"),
    "io.sha256_of": _file_bytes("io.bytes_read", 0, "path"),
    "fixed_point.picard_solve": _picard_iterations,
    "temporal.evolve_q": _samples,
    "radial.moment_integral": _moment_bytes,
}


_UNITS = ((".calls", "count"), (".self_ms", "ms"), (".errors", "count"), ("_pct", "%"),
          ("bytes_computed", "B"), ("bytes_written", "B"), ("bytes_read", "B"),
          ("_ratio", "ratio"), ("_per_solve", "count"), ("_per_picard", "count"),
          (".samples", "count"))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in _UNITS:
        if metric.endswith(suffix):
            return u
    raise KeyError(metric)


class Tracer:
    def __init__(self, names=WRAPPED):
        self.names = tuple(names)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self._op = None

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        return [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._patch(self._modules())
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, modules) -> None:
        by_name = {m.__name__: m for m in modules}
        for name in self.names:
            module_name, _, attr_path = name.partition(".")
            owner = by_name.get(f"{PACKAGE}.{module_name}")
            if owner is None:
                raise LookupError(f"traced module {PACKAGE}.{module_name} not found")
            *classes, attr = attr_path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
                if owner is None:
                    raise LookupError(f"traced class in {name} not found")
            original = vars(owner).get(attr)
            if not callable(original):
                raise LookupError(f"traced function {PACKAGE}.{name} not found")
            wrapper = self._wrap(name, original)
            targets = [owner] + [m for m in modules if m is not owner]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        after = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:  # outside an op, e.g. in the oracles: not recorded
                return fn(*args, **kwargs)
            parent = stack[-1]
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[1] += t1 - t0
                tracer.spans.append(
                    (tracer._op, frame[0], parent[0], name, t0, t1, t1 - t0 - frame[1], failed))
            if after is not None:
                after(tracer.counters, args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as op ``op_id``: a root span named "op" holds its calls."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((op_id, frame[0], None, "op", t0, t1, t1 - t0 - frame[1], False))
            self._op = None

    def metrics(self) -> dict[str, float]:
        """Per-op means of the span and counter totals over the traced ops."""
        ops = {s[0] for s in self.spans if s[3] == "op"}
        n_ops = len(ops)
        if not n_ops:
            raise ValueError("no traced ops")
        calls, self_s, errors = Counter(), Counter(), Counter()
        op_time = 0.0
        for _op, _sid, _parent, name, t0, t1, self_time, failed in self.spans:
            if name == "op":
                op_time += t1 - t0
                continue
            calls[name] += 1
            self_s[name] += self_time
            errors[name] += failed

        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
        for name in COUNT_ERRORS:
            out[f"{name}.errors"] = errors[name] / n_ops
        for key in ("radial.moment_integral.bytes_computed", "io.bytes_written",
                    "io.bytes_read", "temporal.samples"):
            out[key] = self.counters[key] / n_ops

        solves = calls["shooting.solve_separable"]
        evals = calls["shooting.boundary_mismatch"]
        # Iterations come from the diagnostics that successful calls return.
        picards = calls["fixed_point.picard_solve"] - errors["fixed_point.picard_solve"]
        out["shooting.mismatch_evals_per_solve"] = evals / solves if solves else 0.0
        out["shooting.useful_eval_ratio"] = solves / evals if evals else 0.0
        out["fixed_point.iterations_per_picard"] = (
            self.counters["fixed_point.picard_iterations"] / picards if picards else 0.0)

        for layer in LAYERS:
            layer_s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_pct"] = 100.0 * layer_s / op_time
        return out
