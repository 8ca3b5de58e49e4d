"""Span tracer that wraps the public functions of the ``lidtest`` modules from
outside the package.

Each wrapped call is a span (name, start, end, parent, execution id).  Spans
are aggregated as they close (calls, inclusive seconds, self seconds, errors),
so the per-layer numbers are exact however many calls there are.  The span
records themselves are kept in memory only for the first KEEP_PER_NAME
calls of each name, which bounds memory and the size of the trace file; a
kept span's parent may therefore be a span that was aggregated but not kept.

A generator function's wrapper yields the same items; each ``next()`` on it
is one span, and the number of items it yielded is counted.  Wrappers return
values and raise exceptions unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import time
import types

KEEP_PER_NAME = 200

# Dunder methods that are hot inner operations of the library and are wrapped
# even though they are not public names.
EXTRA_METHODS = {"__call__"}

CALLS, INCLUSIVE, SELF, ERRORS, ACTIVE, ITEMS = range(6)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# name of the wrapped function -> [(size metric, "sum" | "max", fn(args, kwargs, result))]
EXTRACTORS = {
    "stratfile.load_strategy": [
        ("stratfile.bytes_read", "sum", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    ],
    "strategies.export_transcript": [
        ("strategies.transcript_bytes", "sum", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    ],
    "measurements.SubMeasurement.post_process": [
        ("measurements.post_process.outcomes", "sum", lambda a, k, r: len(a[0].outcomes)),
    ],
    "hypercube.HypercubeGraph.character_eigensystem": [
        ("hypercube.vertices", "max", lambda a, k, r: a[0].size),
    ],
    "sdp.solve": [
        ("sdp.newton_iterations", "sum", lambda a, k, r: r.newton_iterations),
        ("sdp.solve.r", "max", lambda a, k, r: _arg(a, k, 0, "instance").dim),
        ("sdp.solve.M", "max", lambda a, k, r: len(_arg(a, k, 0, "instance").outcomes)),
    ],
    "pasting.pasted_measurement": [
        ("pasting.tuples", "sum", lambda a, k, r: r.n_tuples),
        ("pasting.global_outcomes", "max", lambda a, k, r: len(r.family.outcomes)),
    ],
    "reporting.to_json": [
        ("reporting.report_bytes", "sum", lambda a, k, r: len(r.encode())),
    ],
}


def library_modules():
    """Import and return every submodule of ``lidtest``, sorted by name."""
    pkg = importlib.import_module("lidtest")
    names = sorted(info.name for info in pkgutil.iter_modules(pkg.__path__))
    return [importlib.import_module(f"lidtest.{n}") for n in names]


class Tracer:
    def __init__(self, exec_id):
        self.exec_id = exec_id
        self.stack = []        # open spans: [span id, seconds covered by children]
        self.stats = {}        # span name -> [calls, inclusive, self, errors, active, items]
        self.spans = []        # kept spans: (id, parent id, name, start, end)
        self.sizes = {}        # size metric -> value
        self.extractor_errors = 0
        self._ids = itertools.count(1)
        self._restore = []     # callables that undo install(), in install order

    # ---- installation ---------------------------------------------------------

    def install(self, modules):
        """Wrap every public function and method defined in ``modules`` and
        rebind each module-level name (or module-level dict value) bound to
        the same function object."""
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, f"{short}.{name}")
                elif ((isinstance(obj, types.FunctionType) or hasattr(obj, "__wrapped__"))
                      and id(obj) not in wrapped):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{obj.__name__}", obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._set(mod, name, wrapped[id(obj)][1])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and wrapped[id(val)][0] is val:
                            self._set_item(obj, key, wrapped[id(val)][1])

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _set(self, owner, name, value):
        original = vars(owner)[name]
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def _set_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def _wrap_class(self, cls, qualname):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in EXTRA_METHODS:
                continue
            span = f"{qualname}.{name}"
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(span, attr.__func__)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(span, attr.__func__)))
            elif isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrap(span, attr))

    # ---- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])
        extractors = EXTRACTORS.get(name, ())
        stack, spans, ids = self.stack, self.spans, self._ids
        clock = time.perf_counter

        def enter():
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            stat[ACTIVE] += 1
            return frame, parent, clock()

        def leave(frame, parent, t0):
            t1 = clock()
            stack.pop()
            stat[ACTIVE] -= 1
            dur = t1 - t0
            stat[CALLS] += 1
            stat[SELF] += dur - frame[1]
            if not stat[ACTIVE]:
                stat[INCLUSIVE] += dur  # outermost call only, so recursion is not counted twice
            if stack:
                stack[-1][1] += dur
            if stat[CALLS] <= KEEP_PER_NAME:
                spans.append((frame[0], parent, name, t0, t1))

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame, parent, t0 = enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            stat[ERRORS] += 1
                            raise
                        finally:
                            leave(frame, parent, t0)
                        stat[ITEMS] += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, t0 = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[ERRORS] += 1
                raise
            finally:
                leave(frame, parent, t0)
            for metric, how, get in extractors:
                self._record_size(metric, how, get, args, kwargs, result)
            return result
        return wrapper

    def _record_size(self, metric, how, get, args, kwargs, result):
        try:
            value = get(args, kwargs, result)
        except Exception:  # a size that cannot be read must not change the traced call
            self.extractor_errors += 1
            return
        old = self.sizes.get(metric, 0)
        self.sizes[metric] = old + value if how == "sum" else max(old, value)

    # ---- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates for every name that was called at least once."""
        return {
            "functions": {
                name: {"calls": s[CALLS], "s": s[INCLUSIVE], "self_s": s[SELF],
                       "errors": s[ERRORS], "items": s[ITEMS]}
                for name, s in self.stats.items() if s[CALLS]
            },
            "sizes": dict(self.sizes),
            "kept_spans": len(self.spans),
            "extractor_errors": self.extractor_errors,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "exec": self.exec_id}) + "\n")
