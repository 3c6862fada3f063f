"""Per-layer spans for the traced run, recorded from outside the program.

Tracer.attach() rebinds every public function of the singk3 layer modules,
in every singk3 module namespace that holds it, to a timing wrapper;
detach() puts the originals back.  The program's source is not touched, so
calls the program makes through module-level names (compose inside
_decompose, class_group inside cli.run, ...) are all seen.  A generator
function is timed while it runs, one resume at a time, wherever it is
consumed; one call of it is one generator made.

Span format, one JSON object per line (Tracer.write):

  {"format": "singk3-spans/1", "clock": "perf_counter", "unit": "s", ...}
  {"op": 3, "id": 17, "parent": 16, "name": "classgroup.class_group",
   "start": 1.25, "end": 1.61, "self": 0.08,
   "leaf": {"forms.compose": [calls, busy_s, self_s]}, "attrs": {...}}

Times are seconds since the tracer was made.  Every operation has a root span
named "op".  Calls of LEAF functions (the forms layer and a few helpers that
call nothing but leaves) and the resumes of generators are too frequent to
keep one by one; they are summed into "leaf" of their nearest recorded
ancestor.  A span's self time is its duration minus the durations of its
direct children, recorded or summed, and the self times of all spans and
leaves add up to the time inside root spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("forms", "classgroup", "lattices", "modular", "k3", "cli")

LEAF = frozenset(
    {
        "classgroup.fundamental_data",
        "classgroup.is_two_torsion",
        "classgroup.distinct_fields",
        "classgroup.genus_characters",
        "lattices.tau_from_form",
        "lattices.minimal_form",
        "lattices.homothety_equal",
        "lattices.conductor",
        "modular.recognize_rational",
        "k3.surface_class",
        "k3.lem_bounds_applies",
    }
)

# functions whose outermost calls are timed together under one metric name
GROUPS = {
    "classgroup.genus_partition": "classgroup.genus",
    "classgroup.squares_subgroup": "classgroup.genus",
    "classgroup.classes_per_genus": "classgroup.genus",
    "classgroup.reduced_primitive_forms": "classgroup.enumerate",
    "classgroup.iter_reduced_primitive_forms": "classgroup.enumerate",
}


def _layer_functions(modules) -> list[tuple[str, object]]:
    """(layer.name, function) for every traced function."""
    found = []
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            inner = getattr(obj, "__wrapped__", obj)
            if getattr(inner, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere
            if layer == "cli" and attr != "run":
                continue  # the cli layer is the run() entry point
            found.append((f"{layer}.{attr}", obj))
    return found


def clear_caches(caches: dict, totals: list | None = None) -> None:
    """cache_clear() on every cache; first adds the classgroup hits and misses to totals."""
    for name, fn in caches.items():
        if totals is not None and name.startswith("classgroup."):
            info = fn.cache_info()
            totals[0] += info.hits
            totals[1] += info.misses
        fn.cache_clear()


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "self", "leaf", "attrs")

    def __init__(self, op, id, parent, name, start):
        self.op, self.id, self.parent, self.name, self.start = op, id, parent, name, start
        self.end = self.self = 0.0
        self.leaf: dict[str, list] = {}
        self.attrs: dict | None = None

    def as_json(self) -> dict:
        rec = {k: getattr(self, k) for k in self.__slots__}
        for k in ("leaf", "attrs"):
            if not rec[k]:
                del rec[k]
        return rec


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        modules = {layer: importlib.import_module(f"singk3.{layer}") for layer in LAYERS}
        self.namespaces = [vars(importlib.import_module("singk3"))]
        self.namespaces += [vars(m) for m in modules.values()]
        self.functions = _layer_functions(modules)
        self.caches = {n: f for n, f in self.functions if hasattr(f, "cache_info")}
        for attr, obj in vars(importlib.import_module("singk3._factor")).items():
            if hasattr(obj, "cache_info"):
                self.caches[f"_factor.{attr}"] = obj
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.cache_totals = [0, 0]  # classgroup lru hits, misses
        self._stack: list[list] = []  # open calls: [time in child calls, layer]
        self._rstack: list[Span] = []  # recorded spans still open
        self._group_depth: dict[str, int] = defaultdict(int)
        self.group_busy: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[dict, str, object]] = []
        self.op_id = -1

    # -- attaching -----------------------------------------------------------

    def attach(self) -> None:
        originals = {id(fn): self._wrap(name, fn) for name, fn in self.functions}
        for ns in self.namespaces:
            for attr, obj in list(ns.items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._saved.append((ns, attr, obj))
                    ns[attr] = wrapper

    def detach(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        self._saved.clear()

    def cache_hit_ratio(self) -> float:
        hits, misses = self.cache_totals
        for name, fn in self.caches.items():
            if name.startswith("classgroup."):
                info = fn.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        return hits / (hits + misses) if hits + misses else 0.0

    # -- recording -----------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._rstack[-1].id if self._rstack else None
        span = Span(self.op_id, len(self.spans), parent, name, time.perf_counter() - self.t0)
        self.spans.append(span)
        return span

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        perf = time.perf_counter
        stack = self._stack
        rstack = self._rstack
        errors = self.errors

        group = GROUPS.get(name)
        group_depth = self._group_depth
        tracer = self

        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):

            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                frame = [0.0, layer]
                busy = 0.0
                try:
                    while True:
                        stack.append(frame)
                        t0 = perf()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            if stack[-2][1] != layer:
                                errors[layer] += 1
                            raise
                        finally:
                            dur = perf() - t0
                            stack.pop()
                            stack[-1][0] += dur
                            busy += dur
                        yield item
                finally:  # exhausted, or closed by its consumer
                    entry = rstack[-1].leaf.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += busy
                    entry[2] += busy - frame[0]
                    if group and not group_depth[group]:
                        tracer.group_busy[group] += busy

            return generator

        if name in LEAF or layer == "forms":

            def leaf(*args, **kwargs):
                frame = [0.0, layer]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    if stack[-2][1] != layer:
                        errors[layer] += 1
                    raise
                finally:
                    dur = perf() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    agg = rstack[-1].leaf
                    entry = agg.get(name)
                    if entry is None:
                        agg[name] = [1, dur, dur - frame[0]]
                    else:
                        entry[0] += 1
                        entry[1] += dur
                        entry[2] += dur - frame[0]

            return leaf

        def recorded(*args, **kwargs):
            span = tracer._open(name)
            frame = [0.0, layer]
            stack.append(frame)
            rstack.append(span)
            if group:
                group_depth[group] += 1
            misses = fn.cache_info().misses if name == "classgroup.class_group" else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if stack[-2][1] != layer:
                    errors[layer] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                rstack.pop()
                stack[-1][0] += dur
                span.end = span.start + dur
                span.self = dur - frame[0]
                if group:
                    group_depth[group] -= 1
                    if not group_depth[group]:
                        tracer.group_busy[group] += dur
            if misses is not None:
                span.attrs = {"h": result.order, "computed": fn.cache_info().misses > misses}
            elif name == "modular.class_polynomial":
                span.attrs = {"degree": result.degree,
                           "coeff_bits": max(abs(c).bit_length() for c in result.coefficients)}
            elif name == "cli.run":
                out = args[1] if len(args) > 1 else kwargs.get("out")
                span.attrs = {"exit": result, "output_bytes": len(out.getvalue().encode())}
                if result != 0:
                    errors["cli"] += 1
            return result

        return recorded

    @contextmanager
    def op(self, **attrs):
        """Root span of one operation."""
        self.op_id += 1
        span = self._open("op")
        span.attrs = attrs
        frame = [0.0, None]
        self._stack.append(frame)
        self._rstack.append(span)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._rstack.pop()
            span.end = span.start + dur
            span.self = dur - frame[0]

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Per-name [calls, busy_s, self_s] over recorded spans and leaves."""
        tot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            t = tot[span.name]
            t[0] += 1
            t[1] += span.end - span.start
            t[2] += span.self
            for leaf, (calls, busy, self_s) in span.leaf.items():
                t = tot[leaf]
                t[0] += calls
                t[1] += busy
                t[2] += self_s
        return tot

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "singk3-spans/1", "clock": "perf_counter",
                                 "unit": "s", **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")
