"""Span-based tracing for the execution stack.

A :class:`Tracer` records nested, named spans — one per phase, pair
task, optimizer decision or kernel dispatch — with wall-clock bounds
and the identity of the thread that ran them.  Nesting is tracked with
a per-thread span stack, so spans opened on different worker threads
build independent subtrees under the run's root phases, which is
exactly the shape the Chrome trace-event viewer (Perfetto, chrome
://tracing) renders as one lane per thread.

Design constraints, in order:

1. **Strict no-op when disabled.**  Instrumented call sites go through
   :data:`NULL_SPAN` / :func:`repro.observe.maybe_span` when no
   observation is active; the disabled path is one global read, one
   ``None`` check and a shared, allocation-free context manager.
2. **Thread safety.**  Finished spans land in a lock-guarded deque; the
   open-span stack is ``threading.local``.  A long-lived recorder (the
   job server's) passes ``retain`` to keep only the newest spans.
3. **Self-contained.**  No imports from the rest of ``repro`` so every
   layer (kernels, resilience, core) can instrument without cycles.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any


class _NullSpan:
    """Shared, allocation-free stand-in for a span when tracing is off.

    A single module-level instance (:data:`NULL_SPAN`) is handed to
    every disabled call site, so ``with maybe_span(...):`` costs no
    allocation per kernel call.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, key: str, value: Any) -> None:
        return None


#: The singleton no-op span context (see :class:`_NullSpan`).
NULL_SPAN = _NullSpan()


@dataclass
class Span:
    """One finished (or still open) traced interval.

    ``start``/``end`` are :func:`time.perf_counter` readings relative to
    the tracer's epoch, in seconds.  ``thread_id``/``thread_name``
    identify the OS thread the span ran on; ``parent_id`` links the
    nesting structure (``None`` for thread-level roots).
    """

    span_id: int
    name: str
    category: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    thread_id: int = 0
    thread_name: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, key: str, value: Any) -> None:
        """Attach one key/value attribute to the span."""
        self.attrs[key] = value

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": dict(self.attrs),
        }


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._pop(self._span)

    def annotate(self, key: str, value: Any) -> None:
        self._span.annotate(key, value)


class Tracer:
    """Thread-safe recorder of nested spans.

    All timestamps are relative to the tracer's construction instant
    (``epoch_seconds`` holds the corresponding ``time.time()`` for
    absolute anchoring in exports).  With ``retain`` set, only the
    newest ``retain`` finished spans are kept.
    """

    def __init__(self, retain: int | None = None) -> None:
        self.epoch_seconds = time.time()
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=retain)
        self._next_id = 0
        self._stack = threading.local()

    # -- recording --------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return time.perf_counter() - self._origin

    def span(
        self, name: str, category: str = "phase", attrs: dict[str, Any] | None = None
    ) -> _SpanContext:
        """Open a span for the duration of a ``with`` block.

        The span nests under whatever span is currently open on the
        calling thread.
        """
        thread = threading.current_thread()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            category=category,
            start=self.now(),
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            attrs=dict(attrs) if attrs else {},
        )
        return _SpanContext(self, span)

    def instant(
        self, name: str, category: str = "event", attrs: dict[str, Any] | None = None
    ) -> Span:
        """Record a zero-length marker span (e.g. a retry event)."""
        with self.span(name, category, attrs):
            pass
        with self._lock:
            return self._spans[-1]

    def _push(self, span: Span) -> None:
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = []
            self._stack.open = stack
        if stack:
            span.parent_id = stack[-1].span_id
        stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.now()
        stack: list[Span] = self._stack.open
        # Tolerate mispaired exits (exceptions unwind in reverse order).
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self._spans.append(span)

    # -- inspection -------------------------------------------------------
    def spans(self) -> list[Span]:
        """Snapshot of all *finished* spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def roots(self) -> list[Span]:
        """Finished spans with no parent (thread-level roots)."""
        return [span for span in self.spans() if span.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        """Finished direct children of ``span``, ordered by start time."""
        kids = [s for s in self.spans() if s.parent_id == span.span_id]
        return sorted(kids, key=lambda s: s.start)

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name."""
        return [span for span in self.spans() if span.name == name]

    def iter_tree(self, span: Span, depth: int = 0) -> Iterator[tuple[int, Span]]:
        """Depth-first traversal of a span's subtree as (depth, span)."""
        yield depth, span
        for child in self.children(span):
            yield from self.iter_tree(child, depth + 1)
