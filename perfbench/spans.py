"""Span recorder for the traced run.

The package itself carries no instrumentation.  ``Tracer.install`` wraps
every public function of the seven layers at each name a package module
(or the package namespace) binds it under, e.g. ``scenarios.classify_regime``,
``oracle.adaptive_simpson`` or ``cli.run_sweep``; the benchmark calls the
package through module attributes, so its own calls are wrapped too.  The
integrand handed to ``adaptive_simpson`` and the objective handed to
``golden_section_min`` are wrapped as well and counted as evaluations.

A span is (name, start, end, parent).  Spans stay in memory; ``summary``
folds them into per-layer figures and ``dump`` writes them out.  Classes
in ``__all__`` (BarrierSystem, SweepSpec, ...) are not wrapped: their
construction is charged to the caller.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time

import numpy as np

LAYERS = ("kinematics", "amplitudes", "times", "numerics", "oracle", "scenarios", "cli")

_EVAL_COUNTERS = {
    "adaptive_simpson": "numerics.integrand_evals",
    "golden_section_min": "numerics.golden_evals",
}


class Tracer:
    """Spans and counts of one traced pass; install, run, uninstall, summarize."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.current = -1
        self.counts: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, fn, name_id, on_call=None):
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = len(spans)
            span = [name_id, clock(), 0.0, self.current]
            spans.append(span)
            self.current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.current = span[3]

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_callback(self, layer, fn_name, counter):
        """on_call hook that wraps the function argument of a numerics routine."""
        cb_id = self._name_id(f"{layer}.<{fn_name} callback>", layer)

        def on_call(args, kwargs):
            def counted(x, f=args[0]):
                self.add(counter, 1)
                return f(x)

            return (self._span(counted, cb_id), *args[1:]), kwargs

        return on_call

    def _point_counter(self, fn, layer, fn_name):
        """on_call hook that counts the points a call evaluates, or None."""
        if layer == "amplitudes":
            key = "amplitudes.points"
            if fn_name == "bulk_amplitudes":
                size = lambda args, kwargs: int(np.broadcast(*args[:4]).size)  # noqa: E731
            else:
                size = lambda args, kwargs: 1  # noqa: E731
        elif (layer, fn_name) == ("scenarios", "run_sweep"):
            key = "scenarios.points"
            size = lambda args, kwargs: args[0].points  # noqa: E731
        elif (layer, fn_name) == ("scenarios", "find_resonances"):
            key = "scenarios.points"
            signature = inspect.signature(fn)

            def size(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments["scan_points"]
        else:
            return None

        def on_call(args, kwargs):
            self.add(key, size(args, kwargs))
            return args, kwargs

        return on_call

    def install(self, package) -> None:
        """Wrap the public functions of every layer wherever the package binds them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        public = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for fn_name in mod.__all__:
                fn = getattr(mod, fn_name)
                if inspect.isfunction(fn):
                    public[id(fn)] = (fn, layer, fn_name)
        for mod in (package, *modules):
            caller = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if id(value) not in public:
                    continue
                fn, layer, fn_name = public[id(value)]
                name_id = self._name_id(f"{layer}.{fn_name}", layer)
                if fn_name in _EVAL_COUNTERS:
                    on_call = self._wrap_callback(caller if caller in LAYERS else layer, fn_name,
                                                  _EVAL_COUNTERS[fn_name])
                else:
                    on_call = self._point_counter(fn, layer, fn_name)
                self._installed.append((mod, attr, value))
                setattr(mod, attr, self._span(fn, name_id, on_call))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.current = -1

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the recorded counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        by_name: dict[str, int] = {}
        for idx, (name_id, start, end, parent) in enumerate(spans):
            layer = self.layer_of[name_id]
            calls[layer] += 1
            self_s[layer] += (end - start) - child[idx]
            name = self.names[name_id]
            by_name[name] = by_name.get(name, 0) + 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["kinematics.classify_calls"] = by_name.get("kinematics.classify_regime", 0)
        out["oracle.tm_solves"] = by_name.get("oracle.tm_solve", 0)
        for key in ("amplitudes.points", "scenarios.points", "numerics.integrand_evals",
                    "numerics.golden_evals", "cli.bytes_out"):
            out[key] = self.counts.get(key, 0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzip-compressed JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": self.names,
            "layers": self.layer_of,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
