"""In-memory span tracer that wraps functions where callers look them up.

A boundary is a ``(module, attribute)`` pair: the name under which some
caller finds a function at call time.  Installing a boundary replaces that
attribute with a wrapper that records a span ``[name, start, end, parent]``;
``restore`` puts every original back.  Spans stay in memory until the run
ends, and self time is derived from them afterwards: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import time


class BoundaryMissing(LookupError):
    """A traced boundary no longer exists, so its layer would read zero."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._patches = []       # (module, attribute, original)

    # -- recording -----------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), None, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = self.clock()

    def count(self, name, value=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def clear(self):
        """Drop recorded spans and counters (e.g. those of a warm-up)."""
        self.spans.clear()
        self.counters.clear()

    # -- installing wrappers -------------------------------------------------
    def install(self, boundaries):
        """Wrap each ``(module, attribute, span name, observer)``.

        Raises :class:`BoundaryMissing` (after undoing any partial install)
        when an attribute is gone or not callable.  ``observer``, when not
        None, is called as ``observer(tracer, result)`` after the span ends.
        """
        try:
            for module, attr, name, observer in boundaries:
                original = getattr(module, attr, None)
                if not callable(original):
                    raise BoundaryMissing(
                        f"traced boundary {module.__name__}.{attr} no longer "
                        "exists; update the benchmark's boundary table")
                setattr(module, attr, self._wrapper(name, original, observer))
                self._patches.append((module, attr, original))
        except BaseException:
            self.restore()
            raise

    def _wrapper(self, name, fn, observer):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observer is not None:
                observer(self, result)
            return result

        return traced

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------
    def summary(self):
        """{name: (calls, total self seconds)} derived from the spans."""
        return summarize(self.spans)

    def dump(self):
        """Compact JSON-ready form: span names once, spans as index rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}


def summarize(spans):
    """Calls and self time per span name from ``[name, start, end, parent]``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start - inner))
    return out
