"""Structured tracing: nested spans emitted as JSON lines.

A :class:`Tracer` owns one per-run trace file.  Instrumented code opens
spans with::

    with tracer.span("dse.generation", index=3):
        ...

and each completed span becomes one JSON line with monotonic start/end
timestamps, a span id, its parent's id (nesting is tracked per thread)
and the caller's attributes.  Lines are written on span *exit* only, so
a trace file never contains half-open records; readers sort by start
time to rebuild the tree.

Zero-overhead contract: the module-level :func:`repro.obs.span` helper
returns a shared no-op context manager when telemetry is off — no
timestamp is taken, no object allocated.  With tracing on, the *cost
math is untouched*: spans read the monotonic clock and write to the
trace file, nothing else, so results are bit-identical with tracing on
or off (asserted by the identity tests).

Forked worker processes inherit the parent's tracer object; to keep the
file single-writer, a tracer only records from the process that created
it (others fall back to no-ops).  Worker-side telemetry travels as
*metrics* (fork-merged registries) instead.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from types import TracebackType
from typing import IO, Any


class _NullSpan:
    """Reusable no-op span: the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None


#: The shared disabled-path singleton.
NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records on exit via its tracer."""

    __slots__ = ("tracer", "name", "id", "parent", "attrs", "start")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        parent: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.id: int | None = None
        self.start = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes after the span opened (e.g. result counts)."""
        self.attrs.update(attrs)

    def __enter__(self) -> _Span:
        self.id = self.tracer._enter(self)
        self.start = time.monotonic()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = time.monotonic()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._exit(self, end)
        return None


#: What ``Tracer.span`` / ``repro.obs.span`` hand back: a live span, or
#: the shared no-op when this process must not record.
SpanLike = _Span | _NullSpan


class Tracer:
    """Writes one process's spans to a JSON-lines trace file.

    Parameters
    ----------
    path:
        Trace file; created (parents included) on first write.  The
        first record is a ``{"type": "run"}`` header carrying the wall
        clock and pid, so monotonic span times can be anchored.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._file: IO[str] | None = None
        self._next_id = 0
        self.spans_written = 0

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def recording(self) -> bool:
        """Whether this process may write (single-writer guard)."""
        return os.getpid() == self.pid

    def span(self, name: str, **attrs: Any) -> SpanLike:
        if not self.recording:
            return NULL_SPAN
        return _Span(self, name, None, attrs)

    def _enter(self, span: _Span) -> int:
        stack = self._stack()
        span.parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id

    def _exit(self, span: _Span, end: float) -> None:
        stack = self._stack()
        if stack:
            stack.pop()
        record: dict[str, Any] = {
            "type": "span",
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "start": span.start,
            "end": end,
            "dur": end - span.start,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self._write(record)
        self.spans_written += 1

    # ------------------------------------------------------------------
    def _write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "w")
                header = {
                    "type": "run",
                    "pid": self.pid,
                    "wall_time": time.time(),
                    "monotonic": time.monotonic(),
                }
                self._file.write(json.dumps(header) + "\n")
            self._file.write(line)

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a trace file into its records (header included).  Raises
    ``ValueError`` naming the offending line on malformed input."""
    records, problems = _parse_trace(path, tolerant=False)
    assert not problems
    return records


def load_trace_tolerant(
    path: str | Path,
) -> tuple[list[dict[str, Any]], list[str]]:
    """Like :func:`load_trace`, but a malformed line is collected
    instead of raised.  A run killed mid-write leaves a final line cut
    in half; its trace is still worth summarizing.  Returns
    ``(records, problems)`` where each problem names the bad line."""
    return _parse_trace(path, tolerant=True)


def _parse_trace(
    path: str | Path, tolerant: bool
) -> tuple[list[dict[str, Any]], list[str]]:
    records: list[dict[str, Any]] = []
    problems: list[str] = []
    with open(Path(path)) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                message = f"{path}:{lineno}: not a trace line: {exc}"
                if tolerant:
                    problems.append(message)
                    continue
                raise ValueError(message)
            if not isinstance(record, dict) or "type" not in record:
                message = (
                    f"{path}:{lineno}: trace records are objects with a 'type'"
                )
                if tolerant:
                    problems.append(message)
                    continue
                raise ValueError(message)
            records.append(record)
    return records, problems


def trace_spans(
    records: list[dict[str, Any]] | str | Path,
) -> list[dict[str, Any]]:
    """The span records of a trace, sorted by start time."""
    if not isinstance(records, list):
        records = load_trace(records)
    spans = [r for r in records if r.get("type") == "span"]
    spans.sort(key=lambda r: (r["start"], r["id"]))
    return spans


def span_summary(
    records: list[dict[str, Any]] | str | Path,
) -> list[dict[str, Any]]:
    """Aggregate spans by name: count, total time, and *self* time
    (total minus the time covered by direct children), sorted by self
    time descending — the "where did the run spend its time" table."""
    spans = trace_spans(records)
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span["dur"]
    by_name: dict[str, dict[str, Any]] = {}
    for span in spans:
        row = by_name.setdefault(
            span["name"], {"name": span["name"], "count": 0, "total": 0.0, "self": 0.0}
        )
        row["count"] += 1
        row["total"] += span["dur"]
        row["self"] += max(span["dur"] - child_time.get(span["id"], 0.0), 0.0)
    return sorted(by_name.values(), key=lambda r: (-r["self"], r["name"]))


def trace_coverage(
    records: list[dict[str, Any]] | str | Path,
) -> float | None:
    """Fraction of the trace's wall-clock covered by *root* spans
    (union of their intervals over the first-start..last-end window);
    ``None`` for a trace without spans."""
    spans = trace_spans(records)
    if not spans:
        return None
    window_start = min(float(s["start"]) for s in spans)
    window_end = max(float(s["end"]) for s in spans)
    if window_end <= window_start:
        return 1.0
    roots = [s for s in spans if s.get("parent") is None]
    covered = 0.0
    cursor = window_start
    for span in sorted(roots, key=lambda s: float(s["start"])):
        start = max(float(span["start"]), cursor)
        end = float(span["end"])
        if end > start:
            covered += end - start
            cursor = end
    return covered / (window_end - window_start)
