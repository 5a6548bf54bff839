"""Spans and counts recorded around the benchmark's own calls into hartogs.

A span is (name, start, end, parent, op, phase): ``op`` numbers the
workload operation the span belongs to, ``phase`` says whether it came
from the timed loop ("ops") or from the layer probe ("probe").  Spans and
counts stay in memory and are written out once, when the run ends.
``NullTracer`` is what the untraced runs use: its spans cost one method
call and record nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.op, tr.phase])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.op = 0
        self.phase = "ops"

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float):
        self.counts[(name, self.phase)].append(value)

    def durations(self, name: str, phase: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[5] == phase]

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op, phase in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "phase": phase}) + "\n")
            for (name, phase), values in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "phase": phase, "values": values}) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False
    op = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float):
        pass


def count_evaluator_calls(profile, tally: list):
    """Wrap the instance's f, f1, f2, f3 so each call adds one to tally[0]."""
    for attr in ("f", "f1", "f2", "f3"):
        inner = getattr(profile, attr)

        def counted(t, _inner=inner):
            tally[0] += 1
            return _inner(t)

        setattr(profile, attr, counted)


def tree_nodes(expr) -> int:
    """Node count of an expression tree (dataclass nodes, Num leaves)."""
    children = [v for v in vars(expr).values() if hasattr(v, "__dataclass_fields__")]
    return 1 + sum(tree_nodes(c) for c in children)
