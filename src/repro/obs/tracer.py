"""Span-based tracing for optimizer and executor decisions.

The paper's argument is all about *why* a placement algorithm chose a
plan — PullRank's per-join rank comparisons, Migration's series–parallel
fixpoint, System R's unpruneable retention. A :class:`Tracer` records that
reasoning as a tree of timed spans with attached events, exportable as
JSONL (one span per line) for offline analysis.

Tracing must cost nothing when off: the default :data:`NULL_TRACER` is a
:class:`NullTracer` whose ``span()`` returns a shared, stateless
:class:`NullSpan` singleton — no allocation, no timestamps, no branching
beyond the method call. Hot loops additionally guard per-decision events
with ``if tracer.enabled:`` so even argument packing is skipped.

JSONL schema (one object per span, in start order)::

    {"span": "optimize", "id": 0, "parent": null, "start_ms": 0.0,
     "duration_ms": 12.3, "attrs": {"strategy": "migration"},
     "events": [{"name": "...", "at_ms": 1.2, ...}, ...]}

``start_ms`` is relative to the tracer's creation, so traces are
deterministic up to wall-clock jitter and never leak absolute times.
"""

from __future__ import annotations

import time
from typing import Iterator


def canonical_value(value):
    """Coerce one attribute value to deterministic, JSON-safe data.

    Applied at *record* time (not export time) so a set of table names or
    a tuple of slots recorded into a span can never make ``export_jsonl``
    — or the Chrome trace export — raise later. Sets and frozensets become
    sorted lists (sorted on a type-then-text key, so mixed element types
    stay orderable); tuples become lists; dict keys become strings;
    anything non-primitive falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        items = [canonical_value(item) for item in value]
        items.sort(key=_canonical_sort_key)
        return items
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): canonical_value(item) for key, item in value.items()
        }
    return str(value)


def _canonical_sort_key(item) -> tuple[str, str]:
    return (item.__class__.__name__, str(item))


class NullSpan:
    """The do-nothing span: a stateless, reusable context manager."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def event(self, name: str, **attrs: object) -> None:
        """Record nothing."""

    def set(self, **attrs: object) -> None:
        """Record nothing."""


#: Shared instance handed out by :class:`NullTracer` — never allocates.
NULL_SPAN = NullSpan()


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``enabled`` is a class attribute so hot paths can skip event argument
    construction entirely (``if tracer.enabled: tracer.event(...)``).
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs: object) -> NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        """Record nothing."""

    def to_records(self) -> list[dict]:
        return []

    def export_jsonl(self, path: str) -> int:
        """Nothing to export; returns 0 without touching the filesystem."""
        return 0


#: Shared default tracer instance.
NULL_TRACER = NullTracer()


class Span(NullSpan):
    """One timed, attributed span in a :class:`Tracer`'s tree."""

    __slots__ = (
        "tracer", "span_id", "parent_id", "name", "start", "end",
        "attrs", "events",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start: float | None = None
        self.end: float | None = None
        self.attrs = attrs
        self.events: list[dict] = []

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        self.tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end = time.perf_counter()
        self.tracer._exit(self)
        return False

    def event(self, name: str, **attrs: object) -> None:
        """Attach a point-in-time event to this span."""
        record = {"name": name, "at_ms": self.tracer._elapsed_ms()}
        for key, value in attrs.items():
            record[key] = canonical_value(value)
        self.events.append(record)

    def set(self, **attrs: object) -> None:
        """Merge attributes into the span (e.g. results known at exit)."""
        for key, value in attrs.items():
            self.attrs[key] = canonical_value(value)

    def to_record(self, epoch: float) -> dict:
        start = self.start if self.start is not None else epoch
        end = self.end if self.end is not None else start
        return {
            "span": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_ms": (start - epoch) * 1000.0,
            "duration_ms": (end - start) * 1000.0,
            "attrs": self.attrs,
            "events": self.events,
        }


class Tracer(NullTracer):
    """Records nested spans and events; exports them as JSONL."""

    __slots__ = ("spans", "_stack", "_next_id", "_epoch")

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """A new span; nest it under the current one by entering it."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            self,
            self._next_id,
            parent,
            name,
            {key: canonical_value(value) for key, value in attrs.items()},
        )
        self._next_id += 1
        return span

    def event(self, name: str, **attrs: object) -> None:
        """Attach an event to the innermost open span (or drop it)."""
        if self._stack:
            self._stack[-1].event(name, **attrs)

    def _enter(self, span: Span) -> None:
        self.spans.append(span)
        self._stack.append(span)

    def _exit(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)

    def _elapsed_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    # -- inspection / export ----------------------------------------------

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name, in start order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> Iterator[Span]:
        for candidate in self.spans:
            if candidate.parent_id == span.span_id:
                yield candidate

    def to_records(self) -> list[dict]:
        return [span.to_record(self._epoch) for span in self.spans]

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the span count."""
        import json  # only an exporting run needs it

        records = self.to_records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)
