"""In-memory spans recorded by the benchmark around calls into a layer.

A span is ``{name, start, end, parent, op}``: ``start``/``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC, so readings taken in a
child process are comparable with the parent's), ``parent`` is the index
of the enclosing span (``None`` at top level) and ``op`` the sequence
number of the op the span belongs to (``None`` for set-up work).
"""

from __future__ import annotations

from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The untraced run's recorder: every span is a shared no-op."""

    enabled = False

    def span(self, name: str, op: int | None = None):
        return _NULL_SPAN


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder, record) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self):
        recorder = self.recorder
        stack = recorder._stack
        record = self.record
        if stack:
            parent = stack[-1]
            record["parent"] = parent
            if record["op"] is None:
                record["op"] = recorder.spans[parent]["op"]
        stack.append(len(recorder.spans))
        recorder.spans.append(record)
        record["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.recorder._stack.pop()
        return False


class SpanRecorder(NullRecorder):
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int | None = None):
        return _Span(
            self,
            {"name": name, "start": 0.0, "end": 0.0, "parent": None, "op": op},
        )

    def adopt(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a child process) under the
        currently open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": None if parent is None else self.spans[parent]["op"],
        })


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans must close after they open and lie inside their parent."""
    errors = []
    for index, span in enumerate(spans):
        if span["end"] < span["start"]:
            errors.append(f"span {index} ({span['name']}) ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < index:
            errors.append(f"span {index} ({span['name']}) has parent {parent}")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] or span["end"] > outer["end"]:
            errors.append(
                f"span {index} ({span['name']}) leaves its parent "
                f"{parent} ({outer['name']})"
            )
    return errors


def self_seconds(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover
    (children of one parent never overlap: one thread records them)."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
