"""Outside-in span tracer for the spinbath package.

The tracer wraps the public functions and methods of every ``spinbath``
module from the outside, so the package itself carries no timing code.
A wrapped call is a span named ``<layer>.<qualname>``, where the layer is
the module name. Each thread keeps its own span stack: a call made in a
``ThreadPoolExecutor`` worker is a root span of that worker, and its time is
not charged to whichever span happens to be open on the main thread.

A span's self time is its duration minus the durations of its direct child
spans. Spans are aggregated in memory (calls, self time, inclusive time per
name and thread kind) and handed out by :meth:`Tracer.snapshot` when the run
ends; root spans of worker threads also keep their intervals, so that busy
time can be set beside the wall time the workers covered.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[types.SimpleNamespace] = []
        self.counters: dict[str, float] = {}

    def _state(self) -> types.SimpleNamespace:
        st = getattr(self._local, "st", None)
        if st is None:
            st = types.SimpleNamespace(
                main=threading.current_thread() is threading.main_thread(),
                stack=[],
                table={},
                roots=[],
            )
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def add(self, name: str, value: float, reduce=None) -> None:
        with self._lock:
            old = self.counters.get(name)
            if old is None:
                self.counters[name] = value
            else:
                self.counters[name] = reduce(old, value) if reduce else old + value

    def wrap(self, func, name: str, hook=None):
        """Return ``func`` wrapped in a span called ``name``.

        ``hook(tracer, args, result)`` runs after a successful call,
        outside the span, to record counts at the layer boundary.
        """
        clock = time.perf_counter
        state = self._state

        @functools.wraps(func)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec = st.table.get(name)
                if rec is None:
                    rec = st.table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
                if stack:
                    stack[-1][0] += dur
                elif not st.main:
                    st.roots.append((name, t0, t1))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        """Aggregated spans: {"main"|"worker": {name: [calls, self_s, total_s]}}
        plus the worker root intervals and the counters."""
        out = {"main": {}, "worker": {}, "worker_roots": [], "counters": {}}
        with self._lock:
            for st in self._threads:
                table = out["main" if st.main else "worker"]
                for name, (calls, self_s, total_s) in st.table.items():
                    acc = table.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += self_s
                    acc[2] += total_s
                out["worker_roots"].extend(st.roots)
            out["counters"] = dict(self.counters)
        return out


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def instrument(tracer: Tracer, package: str, hooks: dict | None = None) -> list[str]:
    """Wrap every public function and method defined in ``package``'s
    modules, and rebind each wrapped function in every module namespace of
    the package that holds it (``from .states import x`` makes a second
    binding). Returns the span names installed.

    Only code defined in the module's own source file is wrapped, so
    dataclass-generated ``__init__`` methods and re-exported names are left
    alone. ``hooks`` maps span names to hook callables (see Tracer.wrap).
    """
    hooks = hooks or {}
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if (name == package or name.startswith(package + ".")) and mod is not None
    }
    rebound: dict[int, object] = {}
    names: list[str] = []
    for mod_name, mod in modules.items():
        if mod_name == package:
            continue
        layer = mod_name.rsplit(".", 1)[-1]
        source = getattr(mod, "__file__", None)
        for attr, obj in list(vars(mod).items()):
            if not _public(attr) or getattr(obj, "__module__", None) != mod_name:
                continue
            if isinstance(obj, types.FunctionType):
                span = f"{layer}.{obj.__name__}"
                rebound[id(obj)] = tracer.wrap(obj, span, hooks.get(span))
                names.append(span)
            elif isinstance(obj, type):
                for meth_name, meth in list(vars(obj).items()):
                    if not _public(meth_name):
                        continue
                    kind = None
                    if isinstance(meth, (staticmethod, classmethod)):
                        kind, meth = type(meth), meth.__func__
                    if not isinstance(meth, types.FunctionType):
                        continue
                    if meth.__code__.co_filename != source:
                        continue
                    span = f"{layer}.{obj.__name__}.{meth_name}"
                    wrapped = tracer.wrap(meth, span, hooks.get(span))
                    setattr(obj, meth_name, kind(wrapped) if kind else wrapped)
                    names.append(span)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapped = rebound.get(id(obj))
            if wrapped is not None:
                setattr(mod, attr, wrapped)
    return names
