"""Outside-in layer tracer: spans around the public functions of circleresp.

The library imports functions by name across modules (``cli`` holds its own
``assemble_operator`` and ``cr_norm``, ``transfer`` holds ``interpolation_matrix``
and ``sup_norm``), and ``solve_fixed_point`` keeps ``sup_norm`` as a default
argument. ``install`` therefore points *every* binding of an original function
object -- module attributes of every circleresp module and function defaults
-- at one wrapper, and ``restore`` puts each original back and proves it.

A span is ``[name, start, end, parent, experiment]``; spans stay in memory
until ``write_spans``. Self time is a span's duration minus the durations of
its direct children, so the self times of one experiment add up to the
duration of its root span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "circleresp"
LAYERS = ("spaces", "transfer", "fixed_point", "model_maps", "config", "reporting", "cli")

# Functions whose distinct inputs are counted for a unique_ratio.
KEYED = ("spaces.interpolation_matrix", "transfer.inverse_branches",
         "transfer.assemble_operator")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.experiment = None
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        # Objects keyed by id() are held here, so their ids are never reused.
        self._held: list = []
        self._patched: list[tuple] = []   # (owner, attribute, original)
        self._defaults: list[tuple] = []  # (function, attribute, original tuple/dict)

    # -- installation -------------------------------------------------------

    def _originals(self) -> dict[int, tuple[str, object]]:
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and _is_function(obj)
                        and getattr(obj, "__module__", None) == module.__name__):
                    found[id(obj)] = (f"{layer}.{attr}", obj)
        return found

    def install(self) -> None:
        """Point every binding of every public layer function at its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = self._originals()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        functions = [fn for module in modules for fn in self._functions_of(module)]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        spaces = sys.modules[f"{PACKAGE}.spaces"]
        self._patched.append((spaces, "CubicSpline", spaces.CubicSpline))
        spaces.CubicSpline = self._count_builds(spaces.CubicSpline)
        for fn in functions:
            self._patch_defaults(fn, originals, wrappers)

    @staticmethod
    def _functions_of(module):
        return [obj for obj in vars(module).values()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__]

    def _patch_defaults(self, fn, originals, wrappers) -> None:
        if fn.__defaults__ and any(id(d) in originals for d in fn.__defaults__):
            self._defaults.append((fn, "__defaults__", fn.__defaults__))
            fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in fn.__defaults__)
        if fn.__kwdefaults__ and any(id(d) in originals for d in fn.__kwdefaults__.values()):
            self._defaults.append((fn, "__kwdefaults__", fn.__kwdefaults__))
            fn.__kwdefaults__ = {k: wrappers.get(id(d), d) for k, d in fn.__kwdefaults__.items()}

    def restore(self) -> None:
        """Put every original back, then check that each binding holds it again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for fn, attr, original in reversed(self._defaults):
            setattr(fn, attr, original)
        wrong = [f"{owner.__name__}.{attr}" for owner, attr, original in self._patched
                 if getattr(owner, attr) is not original]
        wrong += [f"{fn.__qualname__}.{attr}" for fn, attr, original in self._defaults
                  if getattr(fn, attr) is not original]
        self._patched.clear()
        self._defaults.clear()
        if wrong:
            raise RuntimeError(f"tracer left wrappers in place: {', '.join(wrong)}")

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        keyed = name in KEYED
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                self._keys[name].add(self._key(args, kwargs))
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.experiment]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def _count_builds(self, cls):
        counters = self.counters

        def build(*args, **kwargs):
            counters["spaces.spline_builds"] += 1
            return cls(*args, **kwargs)

        return build

    def _key(self, args, kwargs) -> tuple:
        return tuple(self._key_part(a) for a in args) + tuple(
            (k, self._key_part(v)) for k, v in sorted(kwargs.items()))

    def _key_part(self, value):
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (np.ndarray, list, tuple, np.number)):
            arr = np.ascontiguousarray(np.asarray(value, dtype=float))
            return ("array", arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
        self._held.append(value)
        return ("object", id(value))

    # -- results ------------------------------------------------------------

    def unique_ratio(self, name: str, calls: int) -> float:
        return len(self._keys[name]) / calls if calls else 0.0

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per function: calls, self time and inclusive time (outermost spans only)."""
        selfs = self.self_times()
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return stats

    def experiment_self_s(self) -> dict:
        totals: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[4] is not None:
                totals[span[4]] += own
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["name", "start", "end", "parent", "experiment"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _interpolation_bytes(counters, args, kwargs, result):
    counters["spaces.interpolation_matrix.bytes"] += result.size * 8


def _picard_iterations(counters, args, kwargs, result):
    counters["fixed_point.solve_fixed_point.iterations"] += result.iterations


def _csv_bytes(counters, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    counters["reporting.csv_bytes"] += Path(path).stat().st_size


_HOOKS = {
    "spaces.interpolation_matrix": _interpolation_bytes,
    "fixed_point.solve_fixed_point": _picard_iterations,
    "reporting.emit_csv": _csv_bytes,
}
