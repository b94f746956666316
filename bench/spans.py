"""Span recorder for the traced benchmark run.

Spans are opened by the benchmark around its calls into each library layer;
nothing inside the library is instrumented.  A span records its name, the
request it belongs to, its start and end, and the span that was open when it
began, so self time (duration minus the part covered by child spans) can be
computed after the run.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

_clock = time.perf_counter


class _Span:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        t = self._tracer
        t.parents.append(t._stack[-1] if t._stack else -1)
        t._stack.append(len(t.names))
        t.names.append(self._name)
        t.requests.append(t.request)
        t.ends.append(0.0)
        t.starts.append(_clock())
        return self

    def __exit__(self, *exc):
        t = self._tracer
        t.ends[t._stack.pop()] = _clock()
        return False


class Tracer:
    """Collects spans and counters for one traced run.

    Spans are stored column by column in flat arrays and a list of interned
    names, none of which the garbage collector tracks."""

    enabled = True

    def __init__(self):
        self.names = []
        self.requests = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.counters = Counter()
        self.request = -1
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n=1):
        self.counters[name] += n

    def summary(self):
        """Per span name: number of calls and total self time in seconds."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += duration
        calls, busy = Counter(), Counter()
        for name, duration, child in zip(self.names, durations, covered):
            calls[name] += 1
            busy[name] += duration - child
        return calls, busy

    def write(self, path):
        """One JSON array per line: request, name, start, end, parent."""
        columns = (self.requests, self.names, self.starts, self.ends, self.parents)
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(*columns):
                handle.write(json.dumps(row))
                handle.write("\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Stand-in for the untraced run: spans and counters cost one call."""

    enabled = False
    request = -1

    def span(self, name):
        return _NO_SPAN

    def count(self, name, n=1):
        pass


NULL_TRACER = NullTracer()
