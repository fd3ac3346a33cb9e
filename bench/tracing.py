"""Outside-in spans: the tracer replaces module and class attributes that a
layer's callers look up at call time with timing wrappers, and puts the
originals back afterwards. The package under test is not edited.

A span's self time is its duration minus the durations of the spans opened
directly inside it.
"""

from __future__ import annotations

import functools
import types
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (owner, attribute, span name, counter). The owner is a module or a class;
# the counter maps (args, result) to numbers summed into the span's counters.
Target = Tuple[object, str, str, Optional[Callable]]


class SpanStats:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("calls", "total", "self_time", "durations", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: List[float] = []
        self.counters: Dict[str, float] = {}


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        # Duration of the first call of each span name in this process; it
        # survives take() so a cold first call stays visible.
        self.first: Dict[str, float] = {}
        self._open: List[float] = []    # child time of each open span

    def record(self, span: str, duration: float, self_time: float,
               counters: Optional[dict] = None) -> None:
        s = self.stats.get(span)
        if s is None:
            s = self.stats[span] = SpanStats()
        s.calls += 1
        s.total += duration
        s.self_time += self_time
        s.durations.append(duration)
        for key, value in (counters or {}).items():
            s.counters[key] = s.counters.get(key, 0) + value
        self.first.setdefault(span, duration)

    def wrap(self, fn: Callable, span: str,
             counter: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open.append(0.0)
            t0 = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - t0
                children = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += duration
            tracer.record(span, duration, duration - children,
                          counter(args, out) if counter else None)
            return out

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target]):
        """Wrap every target for the duration of the block.

        A target that no longer exists raises at once: a renamed or moved
        function must fail the traced run, not read as zero calls.
        """
        saved = []
        try:
            for owner, attr, span, counter in targets:
                fn = _lookup(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, span, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def take(self) -> Dict[str, SpanStats]:
        """Return the spans recorded so far and start a new pass."""
        stats, self.stats = self.stats, {}
        return stats


def _lookup(owner, attr: str):
    if isinstance(owner, types.ModuleType):
        if not hasattr(owner, attr):
            raise LookupError(
                f"trace target {owner.__name__}.{attr} does not exist")
        return getattr(owner, attr)
    # A class: only attributes it defines itself, so a method that moved to
    # a base class is reported rather than wrapped in the wrong place.
    if attr not in vars(owner):
        raise LookupError(
            f"trace target {owner.__qualname__}.{attr} does not exist")
    return vars(owner)[attr]


def calls(stats: Dict[str, SpanStats], span: str) -> int:
    s = stats.get(span)
    return s.calls if s else 0


def total_ms(stats: Dict[str, SpanStats], span: str) -> float:
    s = stats.get(span)
    return 1e3 * s.total if s else 0.0


def self_ms(stats: Dict[str, SpanStats], span: str) -> float:
    s = stats.get(span)
    return 1e3 * s.self_time if s else 0.0


def counter(stats: Dict[str, SpanStats], span: str, key: str) -> float:
    s = stats.get(span)
    return s.counters.get(key, 0) if s else 0
