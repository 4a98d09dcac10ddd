"""Spans around calls into tautdr, recorded from outside the package.

``install`` replaces public functions by timing wrappers in the module
namespaces where their callers look them up, so the package itself is
unchanged.  Spans are kept in memory; ``Collector.summary`` turns them into
per-layer totals and ``write_spans`` saves them when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested in one thread, so the children of a span never
overlap and their durations add up to the part of the span they cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name).  A module attribute is patched where the
# caller reads it: pixton and intersection each import the census function
# by name, so each of their bindings is wrapped.
FUNCTION_TARGETS = (
    ("tautdr.pixton", "enumerate_stable_graphs", "stable_graphs.census"),
    ("tautdr.intersection", "enumerate_stable_graphs", "stable_graphs.census"),
    ("tautdr.cli", "enumerate_stable_graphs", "stable_graphs.census"),
    ("tautdr.weightsums", "edge_weight_forms", "stable_graphs.edge_weight_forms"),
    ("tautdr.pixton", "weighting_power_sums", "weightsums.power_sums"),
    ("tautdr.pixton", "newton_interpolate", "qpoly.newton_interpolate"),
    ("tautdr.pixton", "generators_of_degree", "intersection.generators_of_degree"),
    ("tautdr.intersection", "kappa_psi_integral", "intersection.kappa_psi_integral"),
    ("tautdr.pixton", "r_polynomial", "pixton"),
    ("tautdr.pixton", "vanishing_check", "pixton"),
    ("tautdr.pixton", "_evaluate_template", "pixton.pixton_class"),
    ("tautdr.cli", "r_polynomial", "pixton"),
    ("tautdr.cli", "vanishing_check", "pixton"),
    ("tautdr.cli", "constant_term", "pixton"),
    ("tautdr.bipartite", "enumerate_bipartite", "bipartite.enumerate"),
    ("tautdr.series", "assemble_t0", "series.assemble_t0"),
    ("tautdr.series", "c_gamma0", "series.c_gamma0"),
    ("tautdr.series", "c_gamma_infty", "series.c_gamma_infty"),
)
METHOD_TARGETS = (
    ("tautdr.intersection", "TautClass", "product", "intersection.product"),
    ("tautdr.intersection", "TautClass", "integrate", "intersection.integrate"),
)


class Collector:
    """Open spans on a stack; closed spans in a list."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.census_keys: set = set()
        self.census_sizes: dict[str, int] = {}
        self.edge_form_keys: set = set()
        # False while the benchmark checks results, so the checks' own calls
        # into the package are not counted.
        self.active = True
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, name, start, end, duration - child))

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- counts made where the work happens ---------------------------------

    def _census(self, args, result) -> None:
        key = (int(args[0]), int(args[1]))
        self.census_keys.add(key)
        self.counts["census.graphs"] += len(result)
        self.census_sizes[f"{key[0]},{key[1]}"] = len(result)

    def _edge_forms(self, args, result) -> None:
        graph, leg_values = args[0], args[1]
        self.edge_form_keys.add((graph, tuple(leg_values)))

    def _generators(self, args, result) -> None:
        self.counts["generators"] += len(result)

    def _bipartite(self, args, result) -> None:
        self.counts["bipartite.graphs"] += len(result)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, self time and total time, plus the counts."""
        layers: dict[str, dict] = {}
        for _id, _parent, name, start, end, self_s in self.spans:
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "census_distinct": len(self.census_keys),
            "census_sizes": self.census_sizes,
            "edge_forms_distinct": len(self.edge_form_keys),
        }



def write_spans(path, spans) -> None:
    """One JSON array per span: [process,] id, parent id, name, start, end, self."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def install(collector: Collector) -> None:
    """Wrap every target that exists; a missing one records no calls."""
    import importlib

    hooks = {
        "stable_graphs.census": collector._census,
        "stable_graphs.edge_weight_forms": collector._edge_forms,
        "intersection.generators_of_degree": collector._generators,
        "bipartite.enumerate": collector._bipartite,
    }
    for module_name, attr, name in FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, collector.wrap(name, fn, hooks.get(name)))
    for module_name, cls_name, attr, name in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, collector.wrap(name, getattr(cls, attr)))
