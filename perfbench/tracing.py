"""Spans and counters around ncgeo's public functions, installed from outside.

The library is not edited: ``Tracer.install`` replaces every ``ncgeo.*``
module global bound to one of the functions in ``SPANNED`` with a wrapper
that records a span (name, start, end, parent, task, attributes) in memory.
Patching the globals rather than the defining module alone matters because
``ncgeo.cli`` binds names with ``from ... import`` and modules call each
other through their globals.

Value counters replace ``Cyclotomic.__init__``, ``Cyclotomic.__mul__`` and
``Fraction.__new__`` with counting wrappers; those counts are exact and
repeat from run to run, the span times are only indicative.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

SPANNED = {
    "cli": ("run",),
    "groups": ("build_group", "class_calculus", "conjugacy_classes"),
    "linalg": (
        "rank", "solve_affine", "nullspace", "invert", "rank_mod_p",
        "certified_rank_blocks",
    ),
    "calculus": (
        "exterior_dimension_info", "quadratic_dimension", "omega2_basis",
        "wedge", "d1",
    ),
    "riemann": (
        "solve_torsion_free", "solve_torsion_cotorsion_free", "solve_ricci_flat",
        "ricci", "cotorsion", "curvature_2forms", "levi_civita",
    ),
    "dirac": ("dirac_operator", "verify_spectrum", "dirac_eigenbasis", "laplacian"),
    "cohomology": (
        "de_rham_h1", "constant_flat_connections", "s4_cross_relations_check",
    ),
}

# lru-cached calculus data whose hit ratio is reported
CACHED = (
    "braiding", "degree2_relations", "omega2_basis", "de_basis", "_psi_sparse",
    "_bracket_sparse", "_factorial_sparse", "_word_grading",
)

DEGREES = range(2, 7)

# (layer, unit) for every per-layer metric, in report order
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.self_s", "s")]
    + [(f"groups.{f}.busy_s", "s") for f in SPANNED["groups"]]
    + [("groups.self_s", "s")]
    + [(f"cyclotomic.{k}.calls", "count") for k in ("new", "mul", "fraction_new")]
    + [(f"linalg.{f}.{k}", "s" if k == "busy_s" else "count")
       for f, keys in (
           ("rank", ("calls", "busy_s", "cells")),
           ("solve_affine", ("calls", "busy_s", "cells")),
           ("nullspace", ("calls", "busy_s")),
           ("invert", ("calls", "busy_s")),
           ("rank_mod_p", ("calls", "busy_s", "cells")),
       ) for k in keys]
    + [("linalg.certified_rank_blocks.busy_s", "s"), ("linalg.self_s", "s")]
    + [(f"calculus.exterior_dimension_info.m{m}.busy_s", "s") for m in DEGREES]
    + [(f"calculus.quadratic_dimension.m{m}.busy_s", "s") for m in DEGREES]
    + [("calculus.omega2_basis.busy_s", "s"), ("calculus.wedge.calls", "count"),
       ("calculus.d1.calls", "count"), ("calculus.cache_hit_ratio", "ratio"),
       ("calculus.self_s", "s")]
    + [(f"riemann.{f}.busy_s", "s") for f in (
        "solve_torsion_free", "solve_torsion_cotorsion_free", "solve_ricci_flat")]
    + [(f"riemann.{f}.calls", "count") for f in ("ricci", "cotorsion", "curvature_2forms")]
    + [("riemann.evals_per_unknown", "ratio"), ("riemann.levi_civita.busy_s", "s"),
       ("riemann.self_s", "s")]
    + [("dirac.dirac_operator.busy_s", "s"), ("dirac.verify_spectrum.busy_s", "s"),
       ("dirac.verify_spectrum.candidates", "count"),
       ("dirac.verify_spectrum.hit_ratio", "ratio"),
       ("dirac.dirac_eigenbasis.busy_s", "s"), ("dirac.laplacian.busy_s", "s"),
       ("dirac.self_s", "s")]
    + [(f"cohomology.{f}.busy_s", "s") for f in SPANNED["cohomology"]]
    + [("cohomology.self_s", "s")]
    + [("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio")]
)

# counts that must repeat exactly between two traced passes on the same inputs
DETERMINISTIC_SUFFIXES = (".calls", ".cells", ".candidates", "evals_per_unknown")


def _cells(m) -> int:
    shape = getattr(m, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
    return m.rows * m.cols


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Span attributes that the per-layer metrics need."""
    if name in ("linalg.rank", "linalg.solve_affine", "linalg.nullspace",
                "linalg.invert", "linalg.rank_mod_p"):
        return {"cells": _cells(args[0])}
    if name in ("calculus.exterior_dimension_info", "calculus.quadratic_dimension"):
        return {"m": args[1] if len(args) > 1 else kwargs["m"]}
    if name == "riemann.solve_torsion_free":
        return {"dim": result.dimension if result is not None else 0}
    if name == "dirac.verify_spectrum":
        return {"candidates": len(args[1]), "hits": len(result)}
    return None


class Tracer:
    """Holds the spans and counts of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task: object = None
        self.counts = {"new": 0, "mul": 0, "fraction_new": 0}
        self._cached: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                    self.task, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            span[5] = _attrs(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function in SPANNED and install the counters.

        Call after every ncgeo module the process will use is imported.
        """
        calculus = importlib.import_module("ncgeo.calculus")
        self._cached = [getattr(calculus, n) for n in CACHED]
        replace = {}
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"ncgeo.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                replace[id(orig)] = (orig, self._wrap(f"{layer}.{fname}", orig))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ncgeo" or modname.startswith("ncgeo.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        self._count_values()

    def _count_values(self) -> None:
        from ncgeo.cyclotomic import Cyclotomic

        counts = self.counts
        init, mul, fnew = Cyclotomic.__init__, Cyclotomic.__mul__, Fraction.__new__

        # explicit signatures: *args/**kwargs wrappers cost twice as much
        def counting_init(obj, re=0, om=0):
            counts["new"] += 1
            init(obj, re, om)

        def counting_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)

        def counting_new(cls, numerator=0, denominator=None, *, _normalize=True):
            counts["fraction_new"] += 1
            return fnew(cls, numerator, denominator, _normalize=_normalize)

        Cyclotomic.__init__ = counting_init
        Cyclotomic.__mul__ = Cyclotomic.__rmul__ = counting_mul
        Fraction.__new__ = staticmethod(counting_new)

    def cache_totals(self) -> list[int]:
        infos = [f.cache_info() for f in self._cached]
        return [sum(i.hits for i in infos), sum(i.misses for i in infos)]

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _busy(spans: list[list], keep) -> float:
    """Time inside spans selected by keep, counting nested same-name spans once."""
    total = 0.0
    for span in spans:
        if not keep(span):
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def _has_ancestor(spans: list[list], span: list, name: str) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(procs: list[dict], task_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    procs holds one record per process of the pass: its spans, value counts,
    lru-cache hits and misses during the tasks, and (CLI) its import time.
    task_wall_s is the summed wall time of the pass's tasks.
    """
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    calls: dict[str, int] = {}
    cells: dict[str, int] = {}
    hits = misses = evals = unknowns = cand = cand_hits = 0
    covered = 0.0
    for proc in procs:
        spans = proc["spans"]
        out["cli.import_s"] += proc.get("import_s", 0.0)
        covered += proc.get("import_s", 0.0)
        for key, value in proc["counts"].items():
            out[f"cyclotomic.{key}.calls"] += value
        hits += proc["cache"][0]
        misses += proc["cache"][1]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            name, start, end, parent, task, attrs = span
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if attrs and "cells" in attrs:
                cells[name] = cells.get(name, 0) + attrs["cells"]
            if parent is None and task != "setup":
                covered += end - start
            if name == "riemann.cotorsion" and _has_ancestor(
                    spans, span, "riemann.solve_torsion_cotorsion_free"):
                evals += 1
            elif name == "riemann.ricci" and _has_ancestor(
                    spans, span, "riemann.solve_ricci_flat"):
                evals += 1
            elif name == "riemann.solve_torsion_free" and (
                    _has_ancestor(spans, span, "riemann.solve_torsion_cotorsion_free")
                    or _has_ancestor(spans, span, "riemann.solve_ricci_flat")):
                unknowns += attrs["dim"] if attrs else 0
            elif name == "dirac.verify_spectrum" and attrs:
                cand += attrs["candidates"]
                cand_hits += attrs["hits"]
        for key in list(out):
            parts = key.split(".")
            if parts[-1] != "busy_s" or len(parts) < 3:
                continue
            fname = f"{parts[0]}.{parts[1]}"
            if len(parts) == 4:
                m = int(parts[2][1:])
                out[key] += _busy(spans, lambda s: s[0] == fname and s[5] and s[5]["m"] == m)
            else:
                out[key] += _busy(spans, lambda s: s[0] == fname)
    for key in out:
        parts = key.split(".")
        if len(parts) == 3 and parts[2] in ("calls", "cells") and parts[0] != "cyclotomic":
            source = calls if parts[2] == "calls" else cells
            out[key] = source.get(f"{parts[0]}.{parts[1]}", 0)
    out["calculus.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["riemann.evals_per_unknown"] = evals / unknowns if unknowns else 0.0
    out["dirac.verify_spectrum.candidates"] = cand
    out["dirac.verify_spectrum.hit_ratio"] = cand_hits / cand if cand else 0.0
    out["trace.coverage"] = covered / task_wall_s if task_wall_s else 0.0
    return out
