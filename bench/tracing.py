"""Spans around nterm's public functions, installed from outside the package.

:func:`traced` wraps each function in :data:`TARGETS` and rebinds the
wrapper in every ``nterm.*`` module namespace that holds the original,
so ``from .functionals import h_functional`` in cli, rates and approx is
traced too.  ``RearrangedWeight.iter_blocks`` is wrapped per ``next()``
call: producing one chunk of the stream is a child span of the
functional that consumes it.

Spans are kept in memory and reduced to per-layer metrics by
:func:`layer_metrics` once a pass ends.  Self time is a span's duration
minus the durations of its direct children (spans nest strictly, since
one thread makes every call).
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) -> attributes recorded from (args, kwargs, result)
TARGETS = {
    ("lattice", "shell_counts"): lambda a, k, res: {"r": a[0], "d": a[1], "m": a[2]},
    ("lattice", "ball_counts"): lambda a, k, res: {"m": a[2]},
    ("lattice", "enumerate_ball"): lambda a, k, res: {"r": a[1], "d": a[2], "m": a[0]},
    ("functionals", "h_functional"): lambda a, k, res: {
        "regime": "tail" if (a[2] if len(a) > 2 else k["s"]) > 1.0 else "sup",
        "l_star": res.l_star if res is not None else None},
    ("functionals", "find_l_star"): None,
    ("functionals", "tail_sum"): None,
    ("approx", "class_best_nterm_sp"): None,
    ("approx", "greedy_order"): lambda a, k, res: {"terms": len(a[0].entries)},
    ("approx", "extremal_function_f1"): None,
    ("trig_lp", "evaluate_on_grid"): lambda a, k, res: {
        "points": a[1].N ** a[1].d, "terms": len(a[0].entries)},
    ("trig_lp", "lp_norm"): None,
    ("rates", "rate_table"): lambda a, k, res: {"rows": len(a[1])},
    ("cli", "main"): None,
}

STREAM = "weights.iter_blocks.stream"  # zero-length marker: one per iter_blocks() call
BLOCK = "weights.iter_blocks"  # one per next() on the stream


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0

    def open(self, name: str) -> int:
        self.spans.append(Span(name, time.perf_counter(), self.stack[-1] if self.stack else -1, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, error: bool = False, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        if attrs:
            span.attrs = attrs
        self.stack.pop()

    def mark(self, name: str) -> None:
        self.close(self.open(name))


def _wrap(tracer: Tracer, name: str, fn, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, error=True, attrs=attrs_of(args, kwargs, None) if attrs_of else None)
            raise
        tracer.close(idx, attrs=attrs_of(args, kwargs, result) if attrs_of else None)
        return result

    return wrapper


def _wrap_iter_blocks(tracer: Tracer, method):
    @functools.wraps(method)
    def iter_blocks(self, *args, **kwargs):
        tracer.mark(STREAM)
        gen = method(self, *args, **kwargs)
        try:
            while True:
                idx = tracer.open(BLOCK)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx, error=True)
                    raise
                tracer.close(idx, attrs={"radii": len(item[0])})
                yield item
        finally:
            gen.close()

    return iter_blocks


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "nterm" or name.startswith("nterm.")}
    undo = []
    for (mod_name, attr), attrs_of in TARGETS.items():
        orig = getattr(modules["nterm." + mod_name], attr)
        wrapper = _wrap(tracer, f"{mod_name}.{attr}", orig, attrs_of)
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, orig))
    rw = modules["nterm.weights"].RearrangedWeight
    orig_iter = rw.iter_blocks
    rw.iter_blocks = _wrap_iter_blocks(tracer, orig_iter)
    try:
        yield tracer
    finally:
        rw.iter_blocks = orig_iter
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _has_closed_counts(r: float, d: int) -> bool:
    return math.isinf(r) or r == 1.0 or (r == 2.0 and d <= 2)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors = {"lattice": 0, "functionals": 0}
    h_regime: dict[int, str] = {}
    streams = {"tail": 0, "sup": 0, "": 0}
    radii = {"tail": 0, "sup": 0, "": 0}
    m = {"enumerated_points": 0, "max_radius": 0, "ball_radii": 0, "l_star_sum": 0,
         "blocks": 0, "greedy_terms": 0, "points": 0, "terms": 0, "term_points": 0, "rows": 0}

    def regime_of(i: int) -> str:
        while i >= 0 and i not in h_regime:
            i = spans[i].parent
        return h_regime.get(i, "")

    for i, s in enumerate(spans):
        key = s.name
        if s.name == "functionals.h_functional":
            h_regime[i] = s.attrs["regime"]
            key = f"{s.name}.{s.attrs['regime']}"
            m["l_star_sum"] += s.attrs["l_star"] or 0
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + (s.end - s.start) - child_time[i]
        layer = _layer(s.name)
        if s.error and layer in errors and (s.parent < 0 or _layer(spans[s.parent].name) != layer):
            errors[layer] += 1
        a = s.attrs
        if s.name == STREAM:
            streams[regime_of(s.parent)] += 1
        elif s.name == BLOCK and "radii" in a:
            m["blocks"] += 1
            radii[regime_of(s.parent)] += a["radii"]
        elif s.name == "lattice.shell_counts":
            m["max_radius"] = max(m["max_radius"], int(a["m"]))
            if not s.error and not _has_closed_counts(a["r"], a["d"]):
                m["enumerated_points"] += (2 * int(a["m"]) + 1) ** a["d"]
        elif s.name == "lattice.enumerate_ball":
            m["max_radius"] = max(m["max_radius"], int(a["m"]))
            if not s.error:
                m["enumerated_points"] += (2 * int(a["m"]) + 1) ** a["d"]
        elif s.name == "lattice.ball_counts":
            arr = np.asarray(a["m"])
            m["ball_radii"] += int(arr.size)
            m["max_radius"] = max(m["max_radius"], int(arr.max()))
        elif s.name == "approx.greedy_order":
            m["greedy_terms"] += a["terms"]
        elif s.name == "trig_lp.evaluate_on_grid" and not s.error:
            m["points"] += a["points"]
            m["terms"] += a["terms"]
            m["term_points"] += a["points"] * a["terms"]
        elif s.name == "rates.rate_table" and not s.error:
            m["rows"] += a["rows"]

    h_calls = {reg: sum(1 for v in h_regime.values() if v == reg) for reg in ("tail", "sup")}
    n_h = sum(h_calls.values())

    def per(num, den):
        return num / den if den else 0.0

    n_streams = sum(streams.values())
    n_radii = sum(radii.values())
    return {
        "lattice.shell_counts.calls": calls.get("lattice.shell_counts", 0),
        "lattice.shell_counts.self_s": self_s.get("lattice.shell_counts", 0.0),
        "lattice.ball_counts.calls": calls.get("lattice.ball_counts", 0),
        "lattice.ball_counts.self_s": self_s.get("lattice.ball_counts", 0.0),
        "lattice.ball_counts.radii": m["ball_radii"],
        "lattice.enumerated_points": m["enumerated_points"],
        "lattice.max_radius": m["max_radius"],
        "lattice.errors": errors["lattice"],
        "weights.iter_blocks.streams": n_streams,
        "weights.iter_blocks.blocks": m["blocks"],
        "weights.iter_blocks.radii": n_radii,
        "weights.iter_blocks.self_s": self_s.get(BLOCK, 0.0),
        "weights.streams_per_eval": per(n_streams, n_h),
        "weights.streams_per_eval.tail": per(streams["tail"], h_calls["tail"]),
        "weights.streams_per_eval.sup": per(streams["sup"], h_calls["sup"]),
        "weights.radii_per_eval": per(n_radii, n_h),
        "functionals.h_functional.calls": n_h,
        "functionals.h_functional.tail.self_s": self_s.get("functionals.h_functional.tail", 0.0),
        "functionals.h_functional.sup.self_s": self_s.get("functionals.h_functional.sup", 0.0),
        "functionals.find_l_star.self_s": self_s.get("functionals.find_l_star", 0.0),
        "functionals.tail_sum.self_s": self_s.get("functionals.tail_sum", 0.0),
        "functionals.l_star_sum": m["l_star_sum"],
        "functionals.errors": errors["functionals"],
        "approx.class_best_nterm_sp.self_s": self_s.get("approx.class_best_nterm_sp", 0.0),
        "approx.greedy_order.calls": calls.get("approx.greedy_order", 0),
        "approx.greedy_order.self_s": self_s.get("approx.greedy_order", 0.0),
        "approx.greedy_order.terms": m["greedy_terms"],
        "approx.extremal_function_f1.self_s": self_s.get("approx.extremal_function_f1", 0.0),
        "trig_lp.evaluate_on_grid.calls": calls.get("trig_lp.evaluate_on_grid", 0),
        "trig_lp.evaluate_on_grid.self_s": self_s.get("trig_lp.evaluate_on_grid", 0.0),
        "trig_lp.evaluate_on_grid.points": m["points"],
        "trig_lp.evaluate_on_grid.terms": m["terms"],
        "trig_lp.evaluate_on_grid.term_points": m["term_points"],
        "trig_lp.lp_norm.self_s": self_s.get("trig_lp.lp_norm", 0.0),
        "rates.rate_table.calls": calls.get("rates.rate_table", 0),
        "rates.rate_table.rows": m["rows"],
        "rates.rate_table.self_s": self_s.get("rates.rate_table", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def median_metrics(passes: list[dict]) -> dict[str, float]:
    """Counts from the first traced pass (they must repeat); medians of times."""
    first = passes[0]
    return {k: (statistics.median(p[k] for p in passes) if k.endswith("self_s") else v)
            for k, v in first.items()}
