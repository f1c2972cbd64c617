"""Runtime span tracing of the fracsing public functions, from outside src/.

`install` replaces each traced public function with a wrapper under every
fracsing module name that refers to it, so that a call made through
`fracsing.stability.iterate_minimal` or `fracsing.mountainpass.sigma1` is
recorded as well as a direct call.  Spans (name, start, end, parent span,
run id, attributes) are kept in memory and written out once, when the
traced process ends.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

# Layer module -> public functions whose calls become spans.
TRACED = {
    "green": ("assemble", "load_operator", "save_operator"),
    "picard": ("iterate_minimal", "find_kstar", "first_eigenpair"),
    "stability": ("sigma1", "sigma1_rayleigh", "stability_gap_scan"),
    "mountainpass": ("build_form", "find_second_solution"),
    "classify": ("standard_battery", "estimate_k", "asymptotic_fit"),
}
LAYERS = ("green", "picard", "stability", "mountainpass", "classify", "cli")
METHOD_TAGS = {"MountainPassAlgorithm": "mp", "DeflatedNewton": "dn"}


def _attributes(name, args, kwargs, result, error):
    """Counts recorded at the layer boundary, read from the call's result."""
    if name == "green.assemble":
        return {"n": int(args[0].n)}
    if name == "picard.iterate_minimal" and result is not None:
        return {"iterations": int(result.iterations)}
    if name == "mountainpass.find_second_solution":
        method = kwargs.get("method", args[4] if len(args) > 4 else None)
        trace = result.trace if result is not None else getattr(error, "trace", ())
        return {
            "method": METHOD_TAGS[method or "MountainPassAlgorithm"],
            "steps": len(trace or ()),
            "found": result is not None,
        }
    return {}


class Tracer:
    """In-memory span recorder for one traced process.

    `context` holds attributes that the caller sets before a call and
    that are copied into the spans opened while they are set (the
    assembly case label).  With `measure_alloc`, assembly spans also
    record the tracemalloc peak of the call; tracemalloc slows assembly
    by about 40%, so those spans are not used for timing.
    """

    def __init__(self, run_id, measure_alloc=False):
        self.run_id = run_id
        self.measure_alloc = measure_alloc
        self.spans = []
        self.context = {}
        self.active = True
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            measure_alloc = (
                self.measure_alloc and name == "green.assemble" and not tracemalloc.is_tracing()
            )
            if measure_alloc:
                tracemalloc.start()
            result = error = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.monotonic()
                attrs = dict(self.context)
                if measure_alloc:
                    attrs["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                attrs.update(_attributes(name, args, kwargs, result, error))
                attrs["ok"] = error is None
                self._stack.pop()
                self.spans[index] = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                    "attrs": attrs,
                }

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer):
    """Wrap every traced function under every fracsing module that holds it.

    Returns the number of (module, name) bindings replaced.
    """
    for layer in (*TRACED, "cli"):
        importlib.import_module(f"fracsing.{layer}")
    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"fracsing.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            wrappers[id(original)] = tracer.wrap(f"{layer}.{fname}", original)
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fracsing" or modname.startswith("fracsing.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Calls are sequential within one process, so the direct children of a
    span never overlap and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def top_level_time(spans):
    """Total duration of the spans with no parent span."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
