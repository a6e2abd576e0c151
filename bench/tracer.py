"""Span tracing of the whiskers layers from outside the package.

Each listed public function is wrapped, and the wrapper is rebound under
every name that holds the original in any loaded ``whiskers.*`` module, in
a class of such a module, or in ``properties.CHECKS``.  Modules such as
``ideals`` and ``complexes`` import ``rank_*`` by name, so patching
``whiskers.fields`` alone would miss their calls.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index of
the enclosing span (or -1) and ``run_id`` names the benchmark item that made
it.  Spans stay in memory until :meth:`Tracer.write`.  Self time is a span's
duration minus the time its direct children cover; total time counts only
spans with no enclosing span of the same name, so recursion is not counted
twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer, attribute path in whiskers.<layer>, work-count name or None)
TARGETS = [
    ("graph", "Graph.maximal_independent_sets", "sets"),
    ("graph", "Graph.independent_set_count", None),
    ("graph", "Graph.is_chordal", None),
    ("complexes", "independence_complex", "facets"),
    ("complexes", "SimplicialComplex.reduced_homology_dims", None),
    ("complexes", "SimplicialComplex.alexander_dual", None),
    ("fields", "rank_gf2", "cells"),
    ("fields", "rank_modp", "cells"),
    ("fields", "rank_rational", "cells"),
    ("ideals", "ideal_of", None),
    ("ideals", "betti_oracle", None),
    ("ideals", "betti_recursive_cover", None),
    ("ideals", "has_linear_resolution", None),
    ("whisker", "build_whiskered", None),
    ("whisker", "validate_partitions", None),
    ("whisker", "decompose_delete", None),
    ("whisker", "decompose_link", None),
    ("decomposability", "is_vertex_decomposable", None),
    ("decomposability", "verify_certificate", None),
    ("decomposability", "shedding_vertices", None),
    ("decomposability", "is_scm_via_dual", None),
    ("poset", "FacetPoset.__init__", None),
    ("poset", "FacetPoset.interval_stats", None),
    ("poset", "count_facets_pi", None),
    ("poset", "FacetPoset.to_dot", None),
    ("io", "parse_graph", None),
    ("io", "parse_partition", None),
    ("io", "parse_complex", None),
    ("io", "format_graph", None),
    ("io", "graph_to_dot", None),
    ("cli", "run", None),
]

CLI_COMMANDS = ["build", "check-vd", "export-dot", "facets", "poset", "betti",
                "properties"]
CHECKS_SPAN = "properties.CHECKS"


def span_name(layer: str, path: str) -> str:
    """``FacetPoset.__init__`` is reported as ``poset.FacetPoset``; methods
    by their method name alone."""
    if path.endswith(".__init__"):
        return f"{layer}.{path[:-len('.__init__')]}"
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


def _cells(args) -> int:
    """Matrix rows x cols, computed from the arguments of a rank kernel."""
    mat = args[0]
    if not mat:
        return 0
    if isinstance(mat[0], int):  # rank_gf2: one bitmask per column
        return len(mat) * max(c.bit_length() for c in mat)
    return len(mat) * len(mat[0])


def _work(kind: str | None, args, result) -> int:
    if kind == "sets":
        return len(result)
    if kind == "facets":
        return len(result.facets)
    if kind == "cells":
        return _cells(args)
    return 0


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer (name, unit) the traced run reports."""
    out = []
    for layer, path, work in TARGETS:
        name = span_name(layer, path)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.total_s", "s")]
        if work:
            out.append((f"{name}.{work}", "count"))
        if name == "cli.run":
            for cmd in CLI_COMMANDS:
                out += [(f"cli.run.{cmd}.calls", "count"),
                        (f"cli.run.{cmd}.total_s", "s")]
    out += [(f"{CHECKS_SPAN}.calls", "count"), (f"{CHECKS_SPAN}.self_s", "s"),
            (f"{CHECKS_SPAN}.total_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.work: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work: str | None = None):
        spans, stack, counts = self.spans, self._stack, self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.run":  # split by subcommand: "cli.run.betti"
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.run.{argv[0]}" if argv else name
            else:
                label = name
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, stack[-1] if stack else -1,
                              self.run_id)
            if work:
                counts[f"{name}.{work}"] += _work(work, args, result)
            return result

        return wrapper

    def _rebind(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def install(self) -> None:
        """Wrap every target wherever a loaded whiskers module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "whiskers" or n.startswith("whiskers.")]
        for layer, path, work in TARGETS:
            owner = sys.modules[f"whiskers.{layer}"]
            *cls_path, attr = path.split(".")
            holder = owner
            for part in cls_path:
                holder = getattr(holder, part)
            original = holder.__dict__[attr]
            wrapper = self._wrap(span_name(layer, path), original, work)
            if cls_path:  # a method: the class is shared by every importer
                self._rebind(holder, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        checks = sys.modules["whiskers.properties"].CHECKS
        for key, fn in list(checks.items()):
            self._undo.append((checks, key, fn))
            checks[key] = self._wrap(CHECKS_SPAN, fn)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self and total seconds, and work counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {name: 0 for name, _ in metric_names()}
        for i, (label, start, end, parent, _) in enumerate(spans):
            name = "cli.run" if label.startswith("cli.run.") else label
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if label != name and f"{label}.calls" in out:
                out[f"{label}.calls"] += 1
                out[f"{label}.total_s"] += dur
            outer = parent
            while outer >= 0 and spans[outer][0] != label:
                outer = spans[outer][3]
            if outer < 0:
                out[f"{name}.total_s"] += dur
        out.update(self.work)
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
