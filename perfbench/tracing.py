"""In-memory spans around the benchmark's calls into the program's layers.

A span is ``[name, start, end, parent, rid, work]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``rid`` identifies the
truck-day or tick the call served, and ``work`` is a count the caller
attaches (candidates encoded, subgroup cells scored, batch size).
Spans stay in a list until :meth:`Tracer.write` at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """The untraced run: calls go straight through."""

    enabled = False

    def call(self, name, rid, work, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per :meth:`call`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]

    def call(self, name, rid, work, fn, *args, **kwargs):
        spans = self.spans
        span = [name, 0.0, 0.0, self._stack[-1], rid, work]
        self._stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed work.

        Self time is a span's duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid, _work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for i, (name, start, end, _parent, _rid, work) in enumerate(
                self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["work"] += work
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write ``header`` and then one JSON object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, rid, work) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid, "work": work}) + "\n")


class Timed:
    """Forward every attribute of ``target``; trace the named methods.

    ``methods`` maps a method name to ``(span name, work)``, where
    ``work(args)`` counts what one call does.  The benchmark swaps these
    in for a LEAD's public layer attributes during a traced pass, so
    calls LEAD makes internally are timed without touching its code.
    """

    def __init__(self, target, tracer: Tracer, methods: dict) -> None:
        self._target = target
        for method, (span, work) in methods.items():
            bound = getattr(target, method)
            setattr(self, method, self._wrap(tracer, span, work, bound))

    @staticmethod
    def _wrap(tracer, span, work, bound):
        if work is None:
            return lambda *args, **kwargs: tracer.call(
                span, None, 0, bound, *args, **kwargs)
        return lambda *args, **kwargs: tracer.call(
            span, None, work(args), bound, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._target, name)
