"""In-memory spans recorded around calls into the package, and the
arithmetic that turns them into per-cycle layer times.

A span is one call of a wrapped function: name, start, end, the index of
the span that was open when it started (its parent) and a dict of
attributes. Wrapping happens from outside the package by replacing a
module or class attribute for the duration of a ``with patched(...)``
block, so the package itself carries no timing code. Spans assume one
calling thread.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one timed region (a set-up or a comparison pass)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, describe=None):
        """``fn`` timed as a span; ``describe(result, *args, **kwargs)``
        returns attributes, and runs after the span has closed."""

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index).attrs["error"] = type(exc).__name__
                raise
            span = self.close(index)
            if describe is not None:
                span.attrs.update(describe(result, *args, **kwargs))
            return result

        return wrapper

    def counter(self, fn, name: str, amount):
        """``fn`` unchanged except that ``amount(*args, **kwargs)`` is added
        to ``counts[name]`` on each call; no span is recorded."""

        def wrapper(*args, **kwargs):
            self.counts[name] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)`` for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_sum = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_sum[span.parent] += span.duration
    return [span.duration - covered for span, covered in zip(spans, child_sum)]


def nesting_violations(spans) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    bad = []
    for i, span in enumerate(spans):
        if span.parent is None:
            continue
        parent = spans[span.parent]
        if span.start < parent.start or span.end > parent.end or span.parent >= i:
            bad.append(f"{span.name}#{i} outside {parent.name}#{span.parent}")
    return bad


@dataclass
class Cycle:
    """One assimilation cycle of one filter inside a comparison pass.

    It runs from the start of its ensemble forecast to the start of the
    next ensemble forecast, or to the end of the pass. The last cycle of a
    filter run therefore also carries that run's epilogue and the next
    run's initial-ensemble draw (milliseconds).
    """

    filter: str
    start: float
    end: float
    forecast: float
    analysis: float
    layers: Counter
    spans: list

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def bookkeeping(self) -> float:
        return self.wall - self.forecast - self.analysis


FORECAST = "models.forecast"
ANALYSIS = "filters.analysis"


def split_cycles(spans, root: int) -> list[Cycle]:
    """Cut the pass under span ``root`` into cycles at its ensemble forecasts.

    Layer times in ``Cycle.layers`` are self times summed by span name
    over every span that starts inside the cycle.
    """
    selfs = self_times(spans)
    starts = [i for i, s in enumerate(spans)
              if s.parent == root and s.name == FORECAST and s.attrs.get("ensemble")]
    bounds = [spans[i].start for i in starts] + [spans[root].end]
    cycles = []
    for k, first in enumerate(starts):
        lo, hi = bounds[k], bounds[k + 1]
        inside = []
        for i in range(first, len(spans)):  # spans are stored in start order
            if spans[i].start >= hi:
                break
            inside.append(i)
        analyses = [i for i in inside if spans[i].name == ANALYSIS and spans[i].parent == root]
        if len(analyses) != 1 or "error" in spans[analyses[0]].attrs:
            continue  # an incomplete cycle: the pass failed inside it
        layers = Counter()
        for i in inside:
            layers[spans[i].name] += selfs[i]
        cycles.append(Cycle(filter=spans[analyses[0]].attrs["filter"], start=lo, end=hi,
                            forecast=spans[first].duration,
                            analysis=spans[analyses[0]].duration,
                            layers=layers, spans=inside))
    return cycles
