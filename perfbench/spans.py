"""Spans recorded around calls into the jamcom layers.

A :class:`Tracer` wraps module bindings (``module.attr``) so that every call
through them records a :class:`Span`: its name, start, end, the span that was
open when it began (its parent), and a small ``info`` dict extracted from the
call.  Spans are kept in memory; nothing is written while a run is timed.

The wrapped bindings are the ones the package itself resolves at call time
(``optimizer`` calls ``cvx.solve`` and its module-level imports by global
name, ``experiments`` calls ``opt.optimize``), so wrapping the module
attribute catches every internal call.  :meth:`Tracer.install` restores each
original binding in ``finally``.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter


@dataclass
class Span:
    name: str                     # "<layer>.<function>", e.g. "solver.solve"
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index of the enclosing span, if any
    overhead: float = 0.0         # wrapper time spent outside the wrapped call
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name, info extractor or None)
Target = Tuple[object, str, str, Optional[Callable]]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span.

        ``info(args, kwargs, result, error)`` fills the span's info dict after
        the call; its cost is counted as wrapper overhead.
        """
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            entered = _clock()
            idx = len(spans)
            span = Span(name, 0.0, parent=open_[-1] if open_ else None)
            spans.append(span)
            open_.append(idx)
            result, error = None, None
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = _clock()
                open_.pop()
                if info is not None:
                    span.info = info(args, kwargs, result, error)
                span.overhead = (span.start - entered) + (_clock() - span.end)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self, targets: Iterable[Target]):
        """Wrap every target binding for the duration of the block."""
        saved = []
        try:
            for module, attr, name, info in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: List[Span], first: int = 0) -> Dict[int, float]:
    """Self time of every span from index ``first`` on: its duration minus the
    part of its interval covered by its child spans."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans[first:]:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {i: spans[i].duration - covered_length(children.get(i, ()),
                                                   spans[i].start, spans[i].end)
            for i in range(first, len(spans))}
