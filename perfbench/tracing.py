"""Spans around the public calls an operation makes into the program.

A span records its layer (the ``wsq`` module the call belongs to), the
call's name, the operation it serves, its parent span, its start and end,
the exception it raised if any, and size attributes used for bucketing.
Spans are kept in memory and written out when the run ends.  A layer's
self time is its span's duration minus the time covered by its child
spans.

The untraced measurement uses :class:`NullTracer`, whose ``call`` only
forwards, so an operation runs the same code with tracing on and off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullTracer:
    def call(self, layer, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def op(self, op_id, kind, bucket, layer=None):
        yield


class Span:
    __slots__ = ("id", "parent", "op", "layer", "name", "attrs", "start", "end", "child_time", "error")

    def __init__(self, span_id, parent, op, layer, name, attrs):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.attrs = attrs or {}
        self.start = time.perf_counter()
        self.end = None
        self.child_time = 0.0
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "layer": self.layer,
            "name": self.name,
            "attrs": self.attrs,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_time,
            "error": self.error,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None

    def _open(self, layer, name, attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, layer, name, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, error=None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.duration

    def call(self, layer, name, fn, *args, attrs=None, **kwargs):
        span = self._open(layer, name, attrs)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(span, type(exc).__name__)
            raise
        self._close(span)
        return result

    @contextmanager
    def op(self, op_id, kind, bucket, layer=None):
        """Root span of one operation; ``layer`` is set when the operation
        itself stands for a layer (the CLI replay)."""
        self._op = op_id
        span = self._open(layer, "op", {"kind": kind, "bucket": bucket})
        try:
            yield span
        except BaseException as exc:
            self._close(span, type(exc).__name__)
            raise
        else:
            self._close(span)
        finally:
            self._op = None
