"""Zero-dependency observability layer: tracing, metrics, JSONL events.

Three pieces, designed to cost nothing when unused:

* :class:`Tracer` - nestable wall-time spans with attributes.  Library
  code opens spans through the ambient :func:`span` helper; the default
  ambient tracer is a no-op, so instrumentation is free until a caller
  activates a real tracer with :func:`activate`.
* :class:`Metrics` - a thread-safe registry of counters, gauges and
  histograms, likewise reachable ambiently via :func:`get_metrics`.
* :class:`JsonlSink` - a structured JSON-lines event sink; give one to
  a ``Tracer`` and every span lands in the file as it closes (this is
  what the CLI's ``--trace out.jsonl`` wires up).

Typical use::

    from repro import obs

    tracer = obs.Tracer(sink=obs.JsonlSink("out.jsonl"))
    with obs.activate(tracer):
        result = MarchingPlanner().plan(swarm, target)
    print(tracer.phase_timings())

Span names follow the dotted ``<layer>.<operation>`` convention; the
planner's Fig. 2 stages are all under the ``plan.`` prefix.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    activate_metrics,
    get_metrics,
    set_metrics,
)
from repro.obs.sink import JsonlSink, read_jsonl
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    activate,
    current_span,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "activate_metrics",
    "get_metrics",
    "set_metrics",
    "JsonlSink",
    "read_jsonl",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "activate",
    "get_tracer",
    "set_tracer",
    "span",
    "current_span",
]
