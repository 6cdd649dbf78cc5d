"""Spans around the program's public functions, installed from outside.

:func:`install` replaces every binding of each traced function in the
``carleson_lab`` modules (``dyadic`` and ``dirichlet`` import ``measures``
and ``dyadic`` functions by name, and ``Weight.density`` is a method), so
the program's source stays unchanged.  A span's self time is its duration
minus the durations of the traced spans it directly contains.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

COMPLEX_BYTES = 16


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    cells: int = 0  # cells swept, for ns/cell
    points: int = 0  # density evaluation points
    entries: int = 0  # kernel entries evaluated
    iterations: int = 0  # power iterations reported by the solver
    rss_growth_kb: int = 0  # growth of the process's peak RSS inside the span


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []  # [start, child time] per open span

    def wrap(self, name: str, fn, count=None, track_rss: bool = False):
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if track_rss else 0
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if track_rss:
                    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    stats.rss_growth_kb += rss1 - rss0
            if count is not None:
                count(stats, args, kwargs, result)
            return result

        return traced


def _quad_arg(args, kwargs, position):
    return kwargs["quad"] if "quad" in kwargs else args[position]


def _count_cells(position):
    def count(stats, args, kwargs, result):
        stats.cells += _quad_arg(args, kwargs, position).n_cells

    return count


def _count_points(stats, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    stats.points += int(np.size(z))


def _count_entries(stats, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    w = args[2] if len(args) > 2 else kwargs["w"]
    stats.entries += int(np.prod(np.broadcast_shapes(np.shape(z), np.shape(w))))


def _count_iterations(stats, args, kwargs, result):
    stats.iterations += int(result.iterations)


# (module, attribute, counter, track_rss); ``Weight.density`` is handled apart.
TRACED = (
    ("measures", "parse_weight", None, False),
    ("measures", "build_quadrature", None, False),
    ("measures", "box_level_sums", _count_cells(0), False),
    ("measures", "box_mass", None, False),
    ("measures", "reverse_doubling_report", None, False),
    ("dyadic", "two_weight_testing_constant", None, False),
    ("dyadic", "two_weight_norm_check", None, True),
    ("dyadic", "dyadic_apply", _count_cells(3), False),
    ("dyadic", "tree_averages", None, False),
    ("dyadic", "carleson_embedding_constant", None, False),
    ("dyadic", "weak_type_norm", None, False),
    ("dyadic", "strong_embedding_check", None, False),
    ("operators", "eval_kernel", _count_entries, False),
    ("operators", "assemble_operator", None, False),
    ("operators", "operator_norm", _count_iterations, False),
    ("dirichlet", "carleson_constant", None, False),
    ("dirichlet", "theorem_pipeline", None, False),
    ("cli", "run", None, False),
)


PACKAGE = "carleson_lab"


def install() -> Tracer:
    """Wrap the traced functions in every loaded module of the program."""
    tracer = Tracer()
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    for short, attr, count, track_rss in TRACED:
        owner = sys.modules[f"{PACKAGE}.{short}"]
        original = getattr(owner, attr)
        traced = tracer.wrap(f"{short}.{attr}", original, count, track_rss)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    weight_cls = sys.modules[f"{PACKAGE}.measures"].Weight
    weight_cls.density = tracer.wrap(
        "measures.Weight.density", weight_cls.density, _count_points
    )
    return tracer


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer values of one invocation, by metric name: ``(value, unit)``."""
    s = tracer.stats

    def ms(name):
        return s[name].self_s * 1e3

    def ns_per_cell(name):
        cells = s[name].cells
        return s[name].total_s * 1e9 / cells if cells else 0.0

    out = {}
    for name in sorted(s):
        out[f"{name}.ms"] = (ms(name), "ms")
    out["measures.Weight.density.points"] = (float(s["measures.Weight.density"].points), "count")
    for name in ("measures.box_level_sums", "dyadic.dyadic_apply"):
        out[f"{name}.calls"] = (float(s[name].calls), "count")
        out[f"{name}.ns_per_cell"] = (ns_per_cell(name), "ns")
    out["measures.box_mass.calls"] = (float(s["measures.box_mass"].calls), "count")
    out["dyadic.two_weight_norm_check.rss_growth_mb"] = (
        s["dyadic.two_weight_norm_check"].rss_growth_kb / 1024.0, "MB"
    )
    entries = s["operators.eval_kernel"].entries
    out["operators.eval_kernel.entries"] = (float(entries), "count")
    out["operators.eval_kernel.bytes"] = (float(entries * COMPLEX_BYTES), "B")
    out["operators.operator_norm.iterations"] = (
        float(s["operators.operator_norm"].iterations), "count"
    )
    return out
