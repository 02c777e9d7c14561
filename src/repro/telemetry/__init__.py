"""End-to-end telemetry: tracing spans, exports, cost audit.

The measurement layer the cost model is graded against: a zero-dependency
tracer (:class:`Tracer`) producing nested spans with wall/CPU time and
attributes, exportable as structured JSON or as Chrome ``trace_event``
files; plus the cost-model misprediction report (:func:`audit_session`).
Counters, gauges and histograms live in :mod:`repro.metrics` and only
there.

Tracing is off by default — the shared :data:`NOOP` tracer swallows every
call — and enabled per session with ``VegaPlus(..., trace=True)`` or per
CLI run with ``--trace out.json``.
"""

from repro.telemetry.audit import (
    AuditEntry,
    MispredictionReport,
    PlanCandidate,
    audit_session,
    spearman,
)
from repro.telemetry.export import (
    to_chrome_trace,
    to_json,
    validate_chrome_trace,
    write_trace,
)
from repro.telemetry.tracer import (
    NOOP,
    NoopTracer,
    Span,
    TickClock,
    Tracer,
    as_tracer,
)

__all__ = [
    "AuditEntry",
    "MispredictionReport",
    "NOOP",
    "NoopTracer",
    "PlanCandidate",
    "Span",
    "TickClock",
    "Tracer",
    "as_tracer",
    "audit_session",
    "spearman",
    "to_chrome_trace",
    "to_json",
    "validate_chrome_trace",
    "write_trace",
]
