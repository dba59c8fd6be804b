"""Span tracer for one traced `greenlab run` invocation, and the per-layer
metrics derived from the spans.

Run as a script it stands in for `python -m greenlab.cli`:

    python3 perfbench/tracer.py SPANS.json run CONFIG --cache-dir DIR

It imports greenlab, wraps from outside every public function of the
modules in LAYER_MODULES (plus the StepMeasure sampling/pmf methods and the
scipy solver calls that `green` makes), runs the CLI, and writes the spans
it kept in memory to SPANS.json when the CLI returns.  No greenlab source
is changed: the wrappers replace every module-level binding of the wrapped
functions, including names imported with `from .green import ...`.

Importing this module loads nothing from greenlab; the parent benchmark
process uses `layer_metrics` on the merged spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

from workloads import WORKLOADS

LAYER_MODULES = ("green", "functionals", "measures", "walks", "cache",
                 "reporting", "cli")
STEP_MEASURE_METHODS = ("sample_shell_radii", "sample_stable_ints",
                        "to_pmf_on_z")
# The experiment kinds the workloads run; each gets cli.<kind>.wall_s/cpu_s.
KINDS = tuple(dict.fromkeys(cfg["kind"] for w in WORKLOADS.values()
                            for _, cfg, _ in w.invocations))


class Tracer:
    """Spans (id, name, start, end, parent id, counts) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []          # open span ids
        self._open = set()        # names of open spans (recursion guard)
        self._next = 0

    def call(self, name, fn, args, kwargs, count=None):
        if name in self._open:
            return fn(*args, **kwargs)      # a recursive call is one span
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._open.add(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)
        counts = count(args, kwargs, result) if count else None
        self.spans.append((sid, name, start, end, parent, counts))
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return wrapper


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _size_of(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _counters(cache_key):
    """Per-function counts recorded on each span, keyed by span name.
    `cache_key` is greenlab's unwrapped function, so counting adds no spans."""

    def load_table(args, kwargs, result):
        cache_dir, backend, mhash, domain, tol = (
            _arg(args, kwargs, i, k) for i, k in enumerate(
                ("cache_dir", "backend", "mhash", "domain", "tol")))
        path = os.path.join(cache_dir, cache_key(
            backend, mhash, domain.label, tol))
        return {"hit": int(result is not None), "bytes": _size_of(path)}

    return {
        "green.ball_domain": lambda a, k, r: {"points": len(r)},
        "green.killed_green_solve": lambda a, k, r: {
            "unknowns": len(_arg(a, k, 0, "omega")),
            "sources": len(_arg(a, k, 1, "sources"))},
        "functionals.delta": lambda a, k, r: {
            "boundary_points": len(_arg(a, k, 0, "domain").boundary)},
        "cache.load_table": load_table,
        "cache.save_table": lambda a, k, r: {"bytes": _size_of(r)},
        "measures.convolve_z": lambda a, k, r: {
            "points": len(r.vals),
            "bytes_computed": 8 * (len(_arg(a, k, 0, "p").vals)
                                   + len(_arg(a, k, 1, "q").vals)
                                   + len(r.vals))},
        "measures.sample_shell_radii": lambda a, k, r: {"draws": len(r)},
        "measures.sample_stable_ints": lambda a, k, r: {"draws": len(r)},
        "reporting.emit_report": lambda a, k, r: {
            "bytes": _size_of(_arg(a, k, 1, "path"))},
    }


class _LUProxy:
    """SuperLU factor whose `solve` calls are traced."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("green.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SolverProxy:
    """Stands in for `scipy.sparse.linalg` inside greenlab.green only."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer
        self.splu = tracer.wrap(
            "green.splu", lambda *a, **k: _LUProxy(spla.splu(*a, **k), tracer))

    def cg(self, *args, **kwargs):
        iters = [0]
        user_cb = kwargs.get("callback")

        def callback(xk):
            iters[0] += 1
            if user_cb is not None:
                user_cb(xk)

        kwargs["callback"] = callback
        return self._tracer.call("green.cg", self._spla.cg, args, kwargs,
                                 lambda a, k, r: {"iters": iters[0]})

    def __getattr__(self, name):
        return getattr(self._spla, name)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind every greenlab reference to them."""
    import importlib

    mods = {m: importlib.import_module(f"greenlab.{m}") for m in LAYER_MODULES}
    counters = _counters(mods["cache"].cache_key)
    replaced = {}
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                span = f"{short}.{name}"
                replaced[id(obj)] = tracer.wrap(span, obj, counters.get(span))
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "greenlab" or mod is None:
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
    step_measure = mods["measures"].StepMeasure
    for name in STEP_MEASURE_METHODS:
        span = f"measures.{name}"
        setattr(step_measure, name, tracer.wrap(
            span, getattr(step_measure, name), counters.get(span)))
    green = mods["green"]
    green.spla = _SolverProxy(green.spla, tracer)


# ---------------------------------------------------------------------------
# Per-layer metrics from merged spans
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order they are reported in.
PER_LAYER = {}


def _metric(name, unit, better="lower"):
    PER_LAYER[name] = (unit, better)


for _n in ("green.ball_domain.s", "green.cg.s", "green.splu.s",
           "green.lu_solve.s", "green.killed_green_solve.s",
           "green.killed_green_solve.self_s", "green.exit_distribution.s",
           "functionals.delta.s",
           "functionals.eps_delta_band_check.self_s", "cache.load_table.s",
           "cache.save_table.s", "measures.convolve_z.s",
           "measures.to_pmf_on_z.s", "measures.total_variation_shift.s",
           "walks.tv_dispersion_z.self_s", "measures.sample_shell_radii.s",
           "measures.sample_stable_ints.s", "walks.batch_lengths.s",
           "walks.increment_ratio_max.self_s",
           "walks.green_speed_estimate.self_s", "reporting.emit_report.s",
           "cli.run.self_s"):
    _metric(_n, "s")
for _n in ("green.ball_domain.points", "green.cg.iters",
           "green.cg.iters_per_solve", "green.killed_green_solve.unknowns",
           "green.killed_green_solve.sources", "green.exit_distribution.calls",
           "functionals.delta.boundary_points",
           "cache.misses", "measures.convolve_z.calls",
           "measures.convolve_z.points", "measures.sample_shell_radii.draws",
           "measures.sample_stable_ints.draws"):
    _metric(_n, "count")
_metric("cache.hits", "count", "higher")
_metric("cache.hit_ratio", "ratio", "higher")
for _n in ("cache.bytes_read", "cache.bytes_written",
           "measures.convolve_z.bytes_computed", "reporting.emit_report.bytes"):
    _metric(_n, "B")
for _kind in KINDS:
    _metric(f"cli.{_kind}.wall_s", "s")
    _metric(f"cli.{_kind}.cpu_s", "s")
_metric("trace.overhead_s", "s")


def layer_metrics(spans, invocations, overhead_s):
    """Per-layer metrics of one traced repetition.

    spans: dicts with name/start/end/id/parent/counts from every traced
    invocation (ids are unique across invocations).  invocations: untraced
    child records with kind/wall_s/cpu_s.  Layers that did not run read 0.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    total, self_s, calls, counts = {}, {}, {}, {}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(s["id"], 0.0)
        calls[name] = calls.get(name, 0) + 1
        for k, v in (s["counts"] or {}).items():
            counts[(name, k)] = counts.get((name, k), 0) + v

    out = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "s":
            out[name] = total.get(layer, 0.0)
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif field == "calls":
            out[name] = calls.get(layer, 0)
        elif (layer, field) in counts:
            out[name] = counts[(layer, field)]
    cg_calls = calls.get("green.cg", 0)
    out["green.cg.iters_per_solve"] = \
        counts.get(("green.cg", "iters"), 0) / cg_calls if cg_calls else 0.0
    hits = counts.get(("cache.load_table", "hit"), 0)
    lookups = calls.get("cache.load_table", 0)
    out["cache.hits"] = hits
    out["cache.misses"] = lookups - hits
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["cache.bytes_read"] = counts.get(("cache.load_table", "bytes"), 0)
    out["cache.bytes_written"] = counts.get(("cache.save_table", "bytes"), 0)
    for kind in KINDS:
        mine = [r for r in invocations if r["kind"] == kind]
        out[f"cli.{kind}.wall_s"] = sum(r["wall_s"] for r in mine)
        out[f"cli.{kind}.cpu_s"] = sum(r["cpu_s"] for r in mine)
    out["trace.overhead_s"] = overhead_s
    return {name: out.get(name, 0) for name in PER_LAYER}, calls


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import greenlab.cli

    tracer = Tracer()
    install(tracer)
    try:
        status = greenlab.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "counts": counts}
                       for sid, name, start, end, parent, counts
                       in tracer.spans], fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
