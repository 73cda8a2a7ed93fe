"""Tracer self-tests on a clock the test drives."""

import json

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Stage:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.advance(1.0)
        self.inner(2.0)
        self.clock.advance(0.5)
        self.inner(3.0)
        self.clock.advance(0.25)
        return "done"

    def inner(self, seconds):
        self.clock.advance(seconds)


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_subtracts_nested_spans(clock):
    with Tracer(clock) as tracer:
        tracer.wrap(Stage, "outer", "outer")
        tracer.wrap(Stage, "inner", "inner")
        assert Stage(clock).outer() == "done"
    outer, = [s for s in tracer.spans if s.layer == "outer"]
    inners = [s for s in tracer.spans if s.layer == "inner"]
    assert outer.duration == pytest.approx(6.75)
    assert [s.duration for s in inners] == pytest.approx([2.0, 3.0])
    assert all(s.parent == outer.id for s in inners)
    own = tracer.self_times()
    assert own[outer.id] == pytest.approx(1.75)
    assert [own[s.id] for s in inners] == pytest.approx([2.0, 3.0])


def test_restore_puts_the_originals_back(clock):
    original = Stage.outer
    with Tracer(clock) as tracer:
        tracer.wrap(Stage, "outer", "outer")
        assert Stage.outer is not original
    assert Stage.outer is original
    Stage(clock).outer()
    assert tracer.spans == []


def test_wrapping_twice_is_refused(clock):
    with Tracer(clock) as tracer:
        tracer.wrap(Stage, "inner", "inner")
        with pytest.raises(RuntimeError):
            tracer.wrap(Stage, "inner", "inner")


def test_exceptions_close_the_span_and_propagate(clock):
    class Boom(Stage):
        def outer(self):
            self.clock.advance(1.0)
            raise ValueError("bad")

    with Tracer(clock) as tracer:
        tracer.wrap(Boom, "outer", "outer")
        with pytest.raises(ValueError):
            Boom(clock).outer()
    span, = tracer.spans
    assert span.attrs["error"] == "ValueError"
    assert span.duration == 1.0


def test_observe_records_counts_and_chrome_export(clock, tmp_path):
    def observe(span, args, kwargs, result):
        span.attrs["seconds"] = args[1]

    with Tracer(clock) as tracer:
        tracer.run = "run-1"
        tracer.wrap(Stage, "inner", "inner", observe)
        with tracer.span("call-site", items=3):
            Stage(clock).inner(4.0)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    doc = json.loads(path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["call-site", "inner"]
    assert {e["cat"] for e in events} == {"run-1"}
    assert events[1]["args"]["seconds"] == 4.0
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    assert events[0]["args"]["items"] == 3
    assert events[1]["dur"] == 4e6
