"""Outside-in tracer: spans around a program's public entry points.

The benchmark measures layers without editing the program: it replaces
a method on its class with a wrapper that opens a span, calls the
original, and closes the span.  Spans stay in memory, each with a
parent link (the innermost span open on the same thread) and the id of
the run that produced it.  :meth:`Tracer.restore` puts every original
back.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_MARK = "__perfbench_original__"


@dataclass
class Span:
    """One closed timed call of a layer."""

    id: int
    parent: Optional[int]
    run: str
    layer: str
    thread: str
    t0: float
    t1: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans from wrapped methods and explicit call sites.

    ``clock`` is injectable so tests can drive a known timeline.
    ``observe(span, args, kwargs, result)`` hooks attached by
    :meth:`wrap` record counts on the span where the work happens.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.run = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[type, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None,
                    self.run, layer, threading.current_thread().name,
                    self.clock())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = self.clock()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, layer: str, **attrs) -> Iterator[Span]:
        """Record one span around a block at a call site."""
        span = self._open(layer)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner: type, name: str, layer: str,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.name`` with a span-recording wrapper."""
        original = getattr(owner, name)
        if hasattr(original, _MARK):
            raise RuntimeError(f"{owner.__name__}.{name} is already wrapped")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, original)
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def restore(self) -> None:
        """Put every wrapped method back, newest first."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's spans."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            edge = span.t0
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.t0):
                lo, hi = max(child.t0, edge), min(child.t1, span.t1)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[span.id] = span.duration - covered
        return out

    def to_chrome(self) -> dict:
        """A Chrome ``trace_event`` document of every span."""
        threads: Dict[str, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: (s.t0, s.id)):
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.layer, "cat": span.run, "ph": "X",
                "ts": round(span.t0 * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0, "tid": tid,
                "args": {"id": span.id, "parent": span.parent,
                         **{k: v for k, v in span.attrs.items()
                            if isinstance(v, (int, float, str, bool))}},
            })
        meta = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "args": {"name": name}} for name, tid in threads.items()]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)

