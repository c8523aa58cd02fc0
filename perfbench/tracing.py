"""In-memory span recorder for the traced run.

Spans are recorded around calls into the matching package from the
outside: :class:`Patcher` swaps a public function or method for a
wrapper that opens a span, calls through and closes it, and puts the
original back afterwards.  Nothing in the package itself changes.

The load is one closed-loop caller, so at any instant at most one
thread runs traced code (a daemon handler thread works only while the
caller waits on its HTTP reply).  One span stack, shared by all
threads, therefore nests a handler's spans under the caller's open
HTTP span and keeps self times disjoint.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


#: Op id of the set-up window.
SETUP = "setup"


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: Any
    #: Whether the caller's own (main) thread recorded the span.
    main: bool


@dataclass
class Tracer:
    """Spans of one traced run, plus per-layer counters."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Seconds spent inside :meth:`window` blocks: the traced wall.
    wall: float = 0.0
    enabled: bool = False
    op: Any = None
    _stack: list[int] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def begin(self, name: str) -> int:
        t = self.clock()
        with self._lock:
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(
                name, t, None, parent, self.op,
                threading.current_thread() is threading.main_thread()))
            self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        t = self.clock()
        with self._lock:
            self.spans[idx].end = t
            # Normally the top; search anyway so a span closed out of
            # order never leaves a stale parent behind.
            for k in range(len(self._stack) - 1, -1, -1):
                if self._stack[k] == idx:
                    del self._stack[k]
                    break

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextmanager
    def window(self, op: Any) -> Iterator[None]:
        """Trace the block as part of op ``op``; its duration adds to
        :attr:`wall`.  Work outside windows (output checks) is not
        traced and not counted."""
        self.enabled, self.op = True, op
        t0 = self.clock()
        try:
            yield
        finally:
            self.wall += self.clock() - t0
            self.enabled, self.op = False, None

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Count per op: set-up work is traced but not counted."""
        if self.enabled and self.op != SETUP:
            with self._lock:
                self.counters[counter] = \
                    self.counters.get(counter, 0.0) + amount


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_breakdown(spans: list[Span], wall: float,
                    layers: set[str]) -> tuple[dict[str, float], float]:
    """Self time per span name in ``layers`` and the ``other``
    remainder, which together add up to ``wall``.

    Spans not named in ``layers`` (the per-op root) count as other.
    """
    totals = {name: 0.0 for name in layers}
    for s, t in zip(spans, self_times(spans)):
        if s.name in totals:
            totals[s.name] += t
    return totals, wall - sum(totals.values())


def chrome_trace(spans: list[Span]) -> dict[str, Any]:
    """The spans as a chrome://tracing document (``traceEvents``)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    # Daemon handler threads never overlap under a closed loop, so
    # they share one track.
    events: list[dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": label}}
        for tid, label in ((0, "load"), (1, "daemon handlers"))]
    for s in spans:
        events.append({
            "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
            "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
            "pid": 1, "tid": 0 if s.main else 1, "args": {"op": s.op}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)


OnReturn = Callable[[Tracer, tuple, dict, Any], None]


def traced(tracer: Tracer, name: str, fn: Callable,
           on_return: OnReturn | None = None) -> Callable:
    """``fn`` wrapped in a ``name`` span (a plain call while the
    tracer is off)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_return is not None:
            on_return(tracer, args, kwargs, out)
        return out

    return wrapper


class Patcher:
    """Swaps functions and methods for traced wrappers; :meth:`undo`
    restores every original."""

    def __init__(self, tracer: Tracer, package: str = "repro") -> None:
        self.tracer = tracer
        self.package = package
        self._undo: list[tuple[Callable, Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, target: str, name: str,
                 on_return: OnReturn | None = None) -> None:
        """Wrap ``module:function`` wherever the package bound it:
        modules that imported it by name hold their own reference."""
        mod_name, attr = target.split(":")
        orig = getattr(importlib.import_module(mod_name), attr)
        wrapper = traced(self.tracer, name, orig, on_return)
        for mod_key, mod in list(sys.modules.items()):
            if mod is None or not (mod_key == self.package or
                                   mod_key.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def method(self, target: str, name: str,
               on_return: OnReturn | None = None) -> None:
        """Wrap ``module:Class.method`` on the class (plain methods and
        classmethods)."""
        mod_name, path = target.split(":")
        cls_name, attr = path.split(".")
        cls = getattr(importlib.import_module(mod_name), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(traced(self.tracer, name, raw.__func__,
                                         on_return))
        else:
            wrapper = traced(self.tracer, name, raw, on_return)
        self._set(cls, attr, wrapper)

    def attribute(self, owner: Any, attr: str, name: str,
                  on_return: OnReturn | None = None) -> None:
        """Wrap a callable held in an instance attribute (a registry
        entry's function); frozen dataclasses included."""
        orig = getattr(owner, attr)
        self._undo.append((object.__setattr__, owner, attr, orig))
        object.__setattr__(owner, attr,
                           traced(self.tracer, name, orig, on_return))

    def undo(self) -> None:
        while self._undo:
            setter, owner, attr, orig = self._undo.pop()
            setter(owner, attr, orig)
