import sys
import types

import pytest

from perfbench.tracing import (SETUP, Patcher, Span, Tracer, chrome_trace,
                               layer_breakdown, self_times)


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _nested(tracer, clock):
    """root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]."""
    with tracer.window(0):
        with tracer.span("root"):
            clock.t = 1.0
            with tracer.span("a"):
                clock.t = 2.0
                with tracer.span("b"):
                    clock.t = 3.0
                clock.t = 4.0
            clock.t = 5.0
            with tracer.span("c"):
                clock.t = 9.0
            clock.t = 10.0
        clock.t = 12.0


def test_self_time_subtracts_children():
    clock = Clock()
    tracer = Tracer(clock=clock)
    _nested(tracer, clock)
    by_name = {s.name: t for s, t in zip(tracer.spans,
                                         self_times(tracer.spans))}
    assert by_name == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert tracer.wall == 12.0


def test_overlapping_children_are_covered_once():
    spans = [Span("p", 0.0, 10.0, None, 0, True),
             Span("x", 1.0, 6.0, 0, 0, True),
             Span("y", 4.0, 8.0, 0, 0, False)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_other_is_the_remainder_of_the_wall():
    clock = Clock()
    tracer = Tracer(clock=clock)
    _nested(tracer, clock)
    totals, other = layer_breakdown(tracer.spans, tracer.wall,
                                    {"a", "b", "c", "unused"})
    assert totals == {"a": 2.0, "b": 1.0, "c": 4.0, "unused": 0.0}
    # root's own 3 s and the 2 s after it are in no layer.
    assert other == 5.0
    assert sum(totals.values()) + other == tracer.wall


def test_spans_and_counts_only_inside_windows():
    tracer = Tracer()
    with tracer.span("outside"):
        tracer.add("n")
    with tracer.window(SETUP):
        tracer.add("n")  # set-up is traced but not counted per op
        with tracer.span("setup-span"):
            pass
    with tracer.window(3):
        tracer.add("n", 2)
        with tracer.span("op-span"):
            pass
    assert [s.name for s in tracer.spans] == ["setup-span", "op-span"]
    assert [s.op for s in tracer.spans] == [SETUP, 3]
    assert tracer.counters == {"n": 2}


def test_chrome_trace_events():
    clock = Clock()
    tracer = Tracer(clock=clock)
    _nested(tracer, clock)
    doc = chrome_trace(tracer.spans)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["root", "a", "b", "c"]
    assert spans[1]["ts"] == 1e6 and spans[1]["dur"] == 3e6
    assert all(e["tid"] == 0 and e["args"]["op"] == 0 for e in spans)


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Thing:
        def go(self):
            return work(1)

        @classmethod
        def make(cls):
            return cls()

    lib.work, lib.Thing = work, Thing
    user.work = work  # "from fakepkg.lib import work"
    mods = {"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user}
    sys.modules.update(mods)
    yield lib, user
    for name in mods:
        del sys.modules[name]


def test_patcher_wraps_every_binding_and_undoes(fake_package):
    lib, user = fake_package
    orig_work, orig_go = lib.work, lib.Thing.__dict__["go"]
    tracer = Tracer()
    patcher = Patcher(tracer, package="fakepkg")
    patcher.function("fakepkg.lib:work", "lib.work")
    patcher.method("fakepkg.lib:Thing.go", "lib.go")
    patcher.method("fakepkg.lib:Thing.make", "lib.make")
    with tracer.window(0):
        assert user.work(1) == 2
        assert isinstance(lib.Thing.make(), lib.Thing)
        assert lib.Thing().go() == 2
    assert [s.name for s in tracer.spans] == ["lib.work", "lib.make",
                                              "lib.go"]
    patcher.undo()
    assert lib.work is orig_work and user.work is orig_work
    assert lib.Thing.__dict__["go"] is orig_go
    assert isinstance(lib.Thing.__dict__["make"], classmethod)
