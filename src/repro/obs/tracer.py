"""Nestable wall-time spans with attributes (the tracing half of obs).

A :class:`Tracer` records a tree of *spans*: named intervals of wall
time with arbitrary key/value attributes, opened and closed with a
context manager::

    tracer = Tracer()
    with activate(tracer):
        with span("harmonic.solve_linear", vertices=600) as sp:
            ...
            sp.set("nnz", nnz)

Instrumented library code never holds a tracer reference; it calls the
module-level :func:`span`, which routes to the *ambient* tracer held in
a :class:`contextvars.ContextVar`.  The default ambient tracer is a
:class:`NullTracer` whose ``span`` returns a shared no-op context
manager, so un-activated instrumentation costs one attribute lookup
and one call per span - negligible against the numerical work inside.

Span naming convention: dotted ``<layer>.<operation>`` names, e.g.
``plan.rotation_search``, ``harmonic.solve_linear``,
``distributed.flood_aggregate``.  The planner's Fig. 2 stages all live
under the ``plan.`` prefix so phase reports group naturally.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "activate",
    "span",
    "current_span",
]


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    Attributes
    ----------
    name : str
        Dotted span name.
    span_id : int
        Unique within the owning tracer, assigned in start order.
    parent_id : int or None
        ``span_id`` of the enclosing span, None at the root.
    depth : int
        Nesting depth (0 for root spans).
    t_start : float
        Seconds since the tracer's epoch (its construction instant).
    duration_s : float or None
        Wall-clock duration; None while the span is still open.
    attributes : dict
        Key/value pairs attached via :meth:`Span.set`.
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    t_start: float
    duration_s: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (the JSONL sink's span payload)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "t_start": self.t_start,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }


class Span:
    """Live handle to an open span; supports attaching attributes."""

    __slots__ = ("_record",)

    def __init__(self, record: SpanRecord) -> None:
        self._record = record

    @property
    def name(self) -> str:
        return self._record.name

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (values should be JSON-serialisable)."""
        self._record.attributes[str(key)] = value
        return self

    def set_attributes(self, **attrs: Any) -> "Span":
        """Attach several attributes at once."""
        for k, v in attrs.items():
            self._record.attributes[k] = v
        return self


class _NullSpan:
    """No-op stand-in for :class:`Span` under the null tracer."""

    __slots__ = ()
    name = ""

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_attributes(self, **attrs: Any) -> "_NullSpan":
        return self


class _NullSpanContext:
    """Reusable no-op context manager; ``span()`` under NullTracer."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every span is a shared no-op context manager."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def get_trace(self) -> list[SpanRecord]:
        return []

    def span_names(self) -> list[str]:
        return []

    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def absorb_records(
        self, records: list[dict], task_index: int | None = None
    ) -> None:
        """Dropped - there is no trace to absorb into."""


NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans with wall time, call counts and attributes.

    Parameters
    ----------
    sink : object, optional
        Anything with an ``emit(record: dict)`` method (e.g.
        :class:`repro.obs.sink.JsonlSink`); each span is emitted when it
        closes.

    Notes
    -----
    The span stack lives in a :class:`contextvars.ContextVar`, so
    nesting is tracked correctly per thread / async task; the record
    list is guarded by a lock for concurrent writers.
    """

    enabled = True

    def __init__(self, sink: Any = None) -> None:
        self.sink = sink
        self._epoch = time.perf_counter()
        self._records: list[SpanRecord] = []
        self._counts: dict[str, int] = {}
        self._totals: dict[str, float] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._stack: contextvars.ContextVar[tuple[SpanRecord, ...]] = (
            contextvars.ContextVar(f"repro_span_stack_{id(self)}", default=())
        )

    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; yields a :class:`Span` handle."""
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        t0 = time.perf_counter()
        with self._lock:
            record = SpanRecord(
                name=str(name),
                span_id=self._next_id,
                parent_id=None if parent is None else parent.span_id,
                depth=len(stack),
                t_start=t0 - self._epoch,
                attributes=dict(attrs),
            )
            self._next_id += 1
            self._records.append(record)
        token = self._stack.set(stack + (record,))
        try:
            yield Span(record)
        finally:
            self._stack.reset(token)
            duration = time.perf_counter() - t0
            with self._lock:
                record.duration_s = duration
                self._counts[record.name] = self._counts.get(record.name, 0) + 1
                self._totals[record.name] = (
                    self._totals.get(record.name, 0.0) + duration
                )
            if self.sink is not None:
                self.sink.emit(record.to_dict())

    # ------------------------------------------------------------------

    def absorb_records(
        self, records: list[dict], task_index: int | None = None
    ) -> None:
        """Fold span dicts recorded by a *worker* tracer into this one.

        Used by :class:`repro.exec.ParallelMap` to merge per-task
        traces back into the parent: span ids are remapped to fresh
        local ids (parent links within the batch are preserved), names
        and durations feed :meth:`phase_timings` exactly like locally
        recorded spans, and each absorbed span is emitted to the sink.
        ``t_start`` stays relative to the *worker's* epoch; the
        ``task_index`` attribute identifies the originating task.

        Call once per task in task order - that keeps the merged trace
        deterministic regardless of worker scheduling.
        """
        absorbed: list[SpanRecord] = []
        with self._lock:
            id_map: dict[Any, int] = {}
            for rec in records:
                new_id = self._next_id
                self._next_id += 1
                id_map[rec.get("span_id")] = new_id
                attributes = dict(rec.get("attributes") or {})
                if task_index is not None:
                    attributes["task_index"] = task_index
                attributes.setdefault("origin", "exec.worker")
                record = SpanRecord(
                    name=str(rec.get("name", "")),
                    span_id=new_id,
                    parent_id=id_map.get(rec.get("parent_id")),
                    depth=int(rec.get("depth", 0)),
                    t_start=float(rec.get("t_start", 0.0)),
                    duration_s=rec.get("duration_s"),
                    attributes=attributes,
                )
                self._records.append(record)
                if record.duration_s is not None:
                    self._counts[record.name] = (
                        self._counts.get(record.name, 0) + 1
                    )
                    self._totals[record.name] = (
                        self._totals.get(record.name, 0.0) + record.duration_s
                    )
                absorbed.append(record)
        if self.sink is not None:
            for record in absorbed:
                self.sink.emit(record.to_dict())

    def current(self) -> Span | _NullSpan:
        """Handle to the innermost open span of this context (no-op if none)."""
        stack = self._stack.get()
        return Span(stack[-1]) if stack else _NULL_SPAN

    def get_trace(self) -> list[SpanRecord]:
        """All recorded spans, in start order."""
        with self._lock:
            return list(self._records)

    def span_names(self) -> list[str]:
        """Span names in start order (handy for order assertions)."""
        with self._lock:
            return [r.name for r in self._records]

    def call_count(self, name: str) -> int:
        """How many spans with ``name`` have *finished*."""
        with self._lock:
            return self._counts.get(name, 0)

    def phase_timings(self) -> dict[str, dict[str, float]]:
        """Aggregate finished spans by name.

        ``self_s`` is exclusive time: each span's duration minus the
        durations of its direct children (linked by ``parent_id``), so
        nested spans are not counted twice.  Children that ran
        concurrently can outlast their parent; a span's self time
        floors at zero.

        Returns
        -------
        dict
            ``{name: {"calls": int, "total_s": float, "mean_s": float,
            "self_s": float}}`` sorted by descending total time.
        """
        with self._lock:
            items = [
                (name, self._counts[name], self._totals.get(name, 0.0))
                for name in self._counts
            ]
            finished = [r for r in self._records if r.duration_s is not None]
        children_s: dict[int, float] = {}
        for r in finished:
            if r.parent_id is not None:
                children_s[r.parent_id] = (
                    children_s.get(r.parent_id, 0.0) + r.duration_s
                )
        self_s: dict[str, float] = {}
        for r in finished:
            exclusive = max(0.0, r.duration_s - children_s.get(r.span_id, 0.0))
            self_s[r.name] = self_s.get(r.name, 0.0) + exclusive
        items.sort(key=lambda kv: -kv[2])
        return {
            name: {
                "calls": calls,
                "total_s": total,
                "mean_s": total / calls if calls else 0.0,
                "self_s": self_s.get(name, 0.0),
            }
            for name, calls, total in items
        }


# ----------------------------------------------------------------------
# Ambient tracer: instrumented code calls ``span(...)`` and whatever
# tracer is active receives it; the default is the no-op tracer.

_ACTIVE: contextvars.ContextVar[Tracer | NullTracer] = contextvars.ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def get_tracer() -> Tracer | NullTracer:
    """The currently active (ambient) tracer."""
    return _ACTIVE.get()


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` as the ambient tracer (None restores no-op)."""
    _ACTIVE.set(tracer if tracer is not None else NULL_TRACER)


@contextmanager
def activate(tracer: Tracer | NullTracer | None) -> Iterator[Tracer | NullTracer]:
    """Scope ``tracer`` as the ambient tracer for a ``with`` block."""
    resolved = tracer if tracer is not None else NULL_TRACER
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attrs: Any):
    """Open a span on the ambient tracer (no-op when tracing is off)."""
    return _ACTIVE.get().span(name, **attrs)


def current_span() -> Span | _NullSpan:
    """The ambient tracer's innermost open span, for attaching attributes."""
    return _ACTIVE.get().current()
