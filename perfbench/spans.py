"""Span tracing of gentledef's layers, installed from outside the package.

`Tracer.installed()` rebinds every traced public function in each
gentledef module that holds a reference to it (so `fingerprint` is
wrapped in both `lifts` and `udr`, `rref` in `linalg`, `lifts` and
`udr`), and traced methods on their class.  Leaving the block puts every
original back.  Spans are kept in memory as small lists and written out
once, at the end of a run; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (home module, attribute path, span name).
TARGETS = [
    ("presentation", "table1_catalog", "presentation.table1_catalog"),
    ("strings", "string_module", "strings.string_module"),
    ("strings", "enumerate_strings", "strings.enumerate_strings"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "LinearSystem.add_equation", "linalg.add_equation"),
    ("linalg", "Presolved.__init__", "linalg.presolved"),
    ("linalg", "Presolved.solve_many", "linalg.solve_many"),
    ("homext", "hom_system", "homext.hom_system"),
    ("homext", "hom_dim", "homext.hom_dim"),
    ("homext", "ext1_dim", "homext.ext1_dim"),
    ("homext", "end_is_trivial", "homext.end_is_trivial"),
    ("homext", "modules_isomorphic", "homext.modules_isomorphic"),
    ("homext", "brute_force_ext", "homext.brute_force_ext"),
    ("lifts", "fingerprint", "lifts.fingerprint"),
    ("lifts", "count_deformations", "lifts.count_deformations"),
    ("lifts", "count_ring_morphisms", "lifts.count_ring_morphisms"),
    ("udr", "universal_deformation_ring", "udr.universal_deformation_ring"),
    ("udr", "build_sequence", "udr.build_sequence"),
    ("udr", "connecting_letters", "udr.connecting_letters"),
    ("claims", "published_ring", "claims.published_ring"),
    ("claims", "paper_agreement", "claims.paper_agreement"),
    ("sweep", "sweep_catalog", "sweep.sweep_catalog"),
]


def _shape_cells(args, result):
    rows, cols = np.shape(args[0])
    return rows * cols


def _columns(args, result):
    return args[1].shape[1]


def _truth(args, result):
    return bool(result)


# What a span records as its value, where the layer metrics need one.
VALUES = {
    "linalg.rref": _shape_cells,
    "linalg.solve_many": _columns,
    "homext.end_is_trivial": _truth,
}

# Span fields, in the order a span list holds them.
NAME, START, END, PARENT, RUN, ERROR, VALUE, NESTED = range(8)


class Tracer:
    """Records one span per call into a traced function."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, active = self.spans, self._stack, self._active
        # A span inside another of its group is not counted twice in the
        # group's time; the claims functions call each other.
        group = "claims" if name.startswith("claims.") else name
        value = VALUES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                    None, None, active.get(group, 0) > 0]
            stack.append(len(spans))
            spans.append(span)
            active[group] = active.get(group, 0) + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[ERROR] = type(err).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                active[group] -= 1
            if value is not None:
                span[VALUE] = value(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        import gentledef  # noqa: F401  (loads every submodule)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "gentledef" or key.startswith("gentledef.")]
        for home, path, name in TARGETS:
            owner = sys.modules[f"gentledef.{home}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name)
            for module in modules:
                for attr, held in list(vars(module).items()):
                    if held is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path, header: dict) -> None:
        """Writes the header, then every span as one JSON line.

        Span times are relative to the first span's start; `parent` is
        the index of the enclosing span among the lines after the header.
        """
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps({
                    "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT],
                    "run": s[RUN], "error": s[ERROR], "value": s[VALUE]},
                    separators=(",", ":")) + "\n")


def span_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds that recording one span adds to a call.

    Times `calls` calls of a no-op, plain and wrapped, and takes the
    fastest of `repeats` readings of each.
    """
    def noop(arg):
        return arg

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "trace.noop")
    clock = time.perf_counter
    best = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(repeats):
        for fn in best:
            tracer.spans.clear()
            start = clock()
            for i in range(calls):
                fn(i)
            best[fn] = min(best[fn], clock() - start)
    return (best[wrapped] - best[noop]) / calls


def layer_unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".s", "self_s", "overhead_s")):
        return "s"
    return "count"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times, counts and ratios derived from recorded spans.

    `X.s` is the time inside calls to X, outer calls only; `X.self_s`
    subtracts the time covered by X's traced children; `X.calls` counts
    calls.  Ratios are 0 when their base is 0.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, float] = {}
    claims_s = 0.0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        if not s[NESTED]:
            total[name] = total.get(name, 0.0) + dur
            if name.startswith("claims."):
                claims_s += dur
        if s[VALUE] is not None:
            values[name] = values.get(name, 0) + s[VALUE]

    def ratio(num, den):
        return num / den if den else 0.0

    # Count each budget failure once, at the innermost lifts span that raised.
    raised_below = set()
    for s in spans:
        if (s[ERROR] == "BudgetExceededError" and s[NAME].startswith("lifts.")
                and s[PARENT] >= 0):
            raised_below.add(s[PARENT])
    budget_errors = sum(
        1 for i, s in enumerate(spans)
        if s[ERROR] == "BudgetExceededError" and s[NAME].startswith("lifts.")
        and i not in raised_below)
    brute = [s for s in spans if s[NAME] == "homext.brute_force_ext"]
    filters = [s for s in spans if s[NAME] == "homext.end_is_trivial"
               and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == "sweep.sweep_catalog"]

    def get(table, name):
        return table.get(name, 0)

    return {
        "lifts.fingerprint.s": get(total, "lifts.fingerprint"),
        "lifts.fingerprint.self_s": get(self_time, "lifts.fingerprint"),
        "lifts.fingerprint.calls": get(calls, "lifts.fingerprint"),
        "lifts.count_deformations.s": get(total, "lifts.count_deformations"),
        "lifts.count_deformations.calls":
            get(calls, "lifts.count_deformations"),
        "lifts.budget_errors": budget_errors,
        "lifts.count_ring_morphisms.s":
            get(total, "lifts.count_ring_morphisms"),
        "homext.brute_force_ext.s": get(total, "homext.brute_force_ext"),
        "homext.brute_force_ext.calls": len(brute),
        "homext.brute_completed_ratio":
            ratio(sum(1 for s in brute if s[ERROR] is None), len(brute)),
        "homext.end_is_trivial.s": get(total, "homext.end_is_trivial"),
        "homext.end_is_trivial.calls": get(calls, "homext.end_is_trivial"),
        "homext.end_trivial_ratio":
            ratio(sum(1 for s in filters if s[VALUE]), len(filters)),
        "homext.hom_system.calls": get(calls, "homext.hom_system"),
        "homext.hom_dim.s": get(total, "homext.hom_dim"),
        "homext.ext1_dim.s": get(total, "homext.ext1_dim"),
        "homext.modules_isomorphic.s": get(total, "homext.modules_isomorphic"),
        "linalg.add_equation.s": get(total, "linalg.add_equation"),
        "linalg.add_equation.calls": get(calls, "linalg.add_equation"),
        "linalg.rref.s": get(total, "linalg.rref"),
        "linalg.rref.calls": get(calls, "linalg.rref"),
        "linalg.rref.cells": get(values, "linalg.rref"),
        "linalg.presolved.builds": get(calls, "linalg.presolved"),
        "linalg.solve_many.cols": get(values, "linalg.solve_many"),
        "udr.universal_deformation_ring.self_s":
            get(self_time, "udr.universal_deformation_ring"),
        "udr.build_sequence.s": get(total, "udr.build_sequence"),
        "udr.build_sequence.calls": get(calls, "udr.build_sequence"),
        "udr.connecting_letters.s": get(total, "udr.connecting_letters"),
        "strings.string_module.calls": get(calls, "strings.string_module"),
        "strings.enumerate_strings.s": get(total, "strings.enumerate_strings"),
        "presentation.table1_catalog.s":
            get(total, "presentation.table1_catalog"),
        "claims.s": claims_s,
        "sweep.sweep_catalog.self_s": get(self_time, "sweep.sweep_catalog"),
    }
