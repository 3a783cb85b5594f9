"""Span tracing around graphwave's public functions, from outside the library.

``Tracer.install()`` replaces each traced function by a wrapper in the module
that defines it and in every graphwave module that imported it by name (so
``evolve`` calling ``step`` and ``minimize`` calling ``ground_state`` are both
seen), and ``restore()`` puts the originals back.  Spans are kept in memory;
``layer_totals`` folds them into per-layer calls, self time and counts, where
self time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

MODULES = ("graphs", "mesh", "spectrum", "starwaves", "minimizers", "evolution", "cli")


def _csv_bytes(result, args):
    return {"bytes": os.path.getsize(args[1])}


def _iterations(result, args):
    return {"iterations": result.iterations}


def _mesh_size(result, args):
    return {"n_nodes": result.n_nodes, "nnz": result.A.nnz}


# (module, function) -> (layer, counter taken from the result and arguments)
TRACED = {
    ("graphs", "parse_graph"): ("graphs.parse_graph", None),
    ("mesh", "build"): ("mesh.build", _mesh_size),
    **{("mesh", f): ("mesh.norms", None)
       for f in ("mass", "quadratic_form", "g_norm_sq", "lp_norm", "grad_norm_sq",
                 "h1_norm_sq", "h1_inner", "gn_ratio")},
    ("mesh", "save_function_csv"): ("mesh.csv_write", _csv_bytes),
    ("mesh", "load_function_csv"): ("mesh.csv_read", _csv_bytes),
    ("spectrum", "ground_state"): ("spectrum.ground_state", _iterations),
    ("starwaves", "mass_curve"): ("starwaves.mass_curve", None),
    ("starwaves", "solve_omega_for_mass"): ("starwaves.solve_omega_for_mass", None),
    ("starwaves", "evaluate_wave"): ("starwaves.evaluate_wave", None),
    ("minimizers", "minimize"): ("minimizers.minimize", _iterations),
    **{("minimizers", f): ("minimizers.diagnostics", None)
       for f in ("energy", "lagrange_multiplier", "structure_diagnostics")},
    ("evolution", "step"): ("evolution.step", None),
    ("evolution", "evolve"): ("evolution.evolve", None),
    ("evolution", "stability_experiment"): ("evolution.stability_experiment", None),
    ("evolution", "orbit_distance"): ("evolution.orbit_distance", None),
    ("cli", "dispatch"): ("cli.dispatch", None),
}

LAYERS = sorted({layer for layer, _ in TRACED.values()})


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of a traced function, nested by call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer, fn, count):
        from graphwave.errors import GraphWaveError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, layer, 0.0, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except GraphWaveError:
                span.counts["typed_errors"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(result, args))
            return result

        return traced

    def install(self) -> "Tracer":
        mods = [importlib.import_module("graphwave")]
        mods += [importlib.import_module(f"graphwave.{m}") for m in MODULES]
        for (mod_name, fn_name), (layer, count) in TRACED.items():
            original = getattr(importlib.import_module(f"graphwave.{mod_name}"), fn_name)
            wrapper = self._wrap(layer, original, count)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def layer_totals(self) -> dict:
        """{layer: {"calls", "self_s", <counts>}} summed over all spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for s in self.spans:
            row = out[s.layer]
            row["calls"] += 1
            row["self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
            for k, v in s.counts.items():
                row[k] = row.get(k, 0) + v
        return out
