"""In-memory spans recorded around the benchmark's calls into compalg.

The untraced run uses ``NO_TRACE``, whose spans are one shared no-op
context manager.  A ``Tracer`` keeps every span as
``[op, name, algebra, start, end, parent]`` in a list and writes nothing
until the caller dumps it at the end of the run.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class NoTrace:
    active = False

    def begin_op(self, op):
        pass

    def span(self, name, alg=None):
        return _NULL


NO_TRACE = NoTrace()


class Tracer:
    active = True

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._op = -1

    def begin_op(self, op):
        """Tag the spans that follow with op id ``op`` (-1: not in an op)."""
        self._op = op

    def span(self, name, alg=None):
        return _Span(self, name, alg)


class _Span:
    __slots__ = ("tracer", "name", "alg", "index")

    def __init__(self, tracer, name, alg):
        self.tracer = tracer
        self.name = name
        self.alg = alg

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([t._op, self.name, self.alg, perf_counter(), None, t._stack[-1]])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][4] = perf_counter()
        t._stack.pop()
        return False
