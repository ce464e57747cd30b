"""Spans around calls into wallcross's public functions.

Tracer.install() replaces each function or method listed in TARGETS by a
wrapper that records a span [name, start_ns, end_ns, parent, attrs], and
rebinds every module-level alias of it inside the package, so calls made by
the package itself are seen too.  Spans stay in a list in memory; the worker
hands them to the benchmark when its job ends.

self_times() turns a span list into per-span self time: the span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _k(args, result):
    return {"k": args[0].k}


def _fold_k(args, result):
    return {"k": args[0].arrangement.k}


def _size(args, result):
    return {"n": len(result)}


# (module, attribute path, span name, attrs(args, result) or None)
TARGETS = (
    ("wallcross.gitwalls", "candidate_weights", "gitwalls.probe", _size),
    ("wallcross.gitwalls", "candidate_twalls", "gitwalls.scan", _size),
    ("wallcross.gitwalls", "compute_walls", "gitwalls.sweep", _size),
    ("wallcross.gitwalls", "wall_report", "gitwalls.report", None),
    ("wallcross.arrangement", "ProductArrangement.cells", "arrangement.cells", _k),
    ("wallcross.arrangement", "ProductArrangement.all_cells", "arrangement.cells", _k),
    ("wallcross.arrangement", "crossing_graph", "arrangement.graph", _k),
    ("wallcross.arrangement", "SymmetricFolding.orbits", "arrangement.orbits", _fold_k),
    ("wallcross.arrangement", "SymmetricFolding.orbit_count", "arrangement.orbits", _fold_k),
    ("wallcross.arrangement", "SymmetricFolding.burnside_orbit_count", "arrangement.burnside", _fold_k),
    ("wallcross.arrangement", "render", "arrangement.render", lambda a, r: {"fmt": a[1]}),
    ("wallcross.stackalg", "FiniteGroupoidModel.elements", "stackalg.closure", _size),
    ("wallcross.stackalg", "product_model", "stackalg.product_model", None),
    ("wallcross.stackalg", "orbit_space", "stackalg.orbit_space", None),
    ("wallcross.stackalg", "groupoid_cardinality", "stackalg.cardinality", None),
    ("wallcross.stackalg", "sym_quotient_model", "stackalg.sym_quotient", None),
    ("wallcross.stackalg", "canonicalize", "stackalg.canonicalize", None),
    ("wallcross.stackalg", "classify_product_map", "stackalg.classify", None),
    ("wallcross.invariants", "product_numerics", "invariants.product_numerics", None),
    ("wallcross.invariants", "consistency_check", "invariants.consistency_check", None),
    ("wallcross.exactq", "MoebiusMap.compose", "exactq.moebius", None),
    ("wallcross.exactq", "MoebiusMap.inverse", "exactq.moebius", None),
    ("wallcross.exactq", "MoebiusMap.__call__", "exactq.moebius", None),
    ("wallcross.exactq", "parse_rational", "exactq.codec", None),
    ("wallcross.exactq", "format_rational", "exactq.codec", None),
    ("wallcross.wallsets", "load_registry", "wallsets.load_registry", None),
    ("wallcross.wallsets", "WallSet.locate", "wallsets.locate", None),
    ("wallcross.cli", "main", "cli.main", lambda a, r: {"verb": a[0][0]}),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        for modname, path, name, attrs in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, attrs)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if (
                    getattr(other, "__name__", "").startswith("wallcross")
                    and getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapped)


def self_times(spans):
    """(span, self_ns) for every span, children subtracted."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    return [(span, span[2] - span[1] - child_ns[i]) for i, span in enumerate(spans)]
