"""Spans recorded from outside the program, by wrapping module attributes.

A function is wrapped at the module attribute its caller looks it up
through: ``sceneground.metrics.axiom_closure`` and
``sceneground.planner.axiom_closure`` are two separate lookups of one
function, so each is wrapped on its own.  Spans stay in memory until the
run ends.  Each span is ``[name, start, end, parent, op, error]``: times
come from ``time.perf_counter``, ``parent`` indexes the enclosing span (or
is None), ``op`` is ``(pass number, entry id)`` of the operation that
caused it, and ``error`` is true when the call raised.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """Span recorder plus per-pass counters; ``close`` undoes every wrap."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: tuple[int, str] | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op[0] if self.op else -1][name] += amount

    def function(self, fn, name: str, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, args)`` may
        record counts and returns the value handed back to the caller."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, perf_counter(), None, parent, self.op, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            return after(result, args) if after is not None else result

        return traced

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.function(original, name, after))
        self._patches.append((module, attr, original))

    def close(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def summary(self, passes) -> dict[int, dict[str, dict[str, float]]]:
        """Per pass and span name: calls, raised calls, inclusive and self
        milliseconds.  Self time is a span's duration minus that of its
        direct children (spans nest: the program is single-threaded)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[int, dict[str, dict[str, float]]] = {p: {} for p in passes}
        for index, span in enumerate(self.spans):
            if span[OP] is None or span[OP][0] not in out:
                continue
            row = out[span[OP][0]].setdefault(
                span[NAME], {"calls": 0, "errors": 0, "ms": 0.0, "self_ms": 0.0}
            )
            duration = span[END] - span[START]
            row["calls"] += 1
            row["errors"] += span[ERROR]
            row["ms"] += duration * 1000.0
            row["self_ms"] += (duration - child[index]) * 1000.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "pass": span[OP][0] if span[OP] else None,
                            "op": span[OP][1] if span[OP] else None,
                            "error": span[ERROR],
                        }
                    )
                    + "\n"
                )
