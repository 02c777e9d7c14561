"""Always-on metrics plane: labeled registry, sliding-window SLOs,
Prometheus export, and the slow-query log.

Where the tracer (:mod:`repro.telemetry`) is a deep, opt-in, per-session
microscope, this package is the permanent measurement plane: a
process-wide :class:`MetricsRegistry` of **labeled** counters, gauges,
and histograms that is cheap enough to stay on by default.  Every
histogram answers windowed p50/p95/p99 and every counter answers
``rate()`` over a sliding time-bucket window — the SLO view a serving
fleet scrapes.  Sessions bind ``session=``/``tenant=`` labels so
concurrent sessions over one shared Database aggregate exactly.

Entry points::

    from repro.metrics import REGISTRY, render_prometheus
    print(render_prometheus(REGISTRY))          # Prometheus exposition
    REGISTRY.slowlog.records()                  # structured slow queries

    python -m repro.metrics --demo              # top-style live view
    python -m repro.metrics.validate m.prom     # exposition validator
    python -m repro.metrics.regress             # bench baseline gate
"""

from repro.metrics.export import (
    render_prometheus,
    snapshot_json,
    write_snapshot,
)
from repro.metrics.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_WINDOW_BUCKETS,
    DEFAULT_WINDOW_SAMPLES,
    DEFAULT_WINDOW_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsView,
    NULL,
    NullMetrics,
    latency_summary,
    percentile,
)
from repro.metrics.process import (
    PEAK_RSS_GAUGE,
    peak_rss_bytes,
    update_process_gauges,
)
from repro.metrics.slowlog import (
    SlowQueryLog,
    SlowQueryRecord,
    canonical_query,
    plan_signature,
)

#: the process-wide default registry (the "always-on" in the title)
REGISTRY = MetricsRegistry()


def get_registry():
    """The process-wide default :class:`MetricsRegistry`."""
    return REGISTRY


def resolve_metrics(value):
    """Normalize a user-facing ``metrics=`` argument to a registry or
    None: True -> the process registry, False/None -> disabled, a
    :class:`MetricsRegistry` passes through."""
    if value is None or value is False:
        return None
    if value is True:
        return REGISTRY
    if isinstance(value, MetricsRegistry):
        return value
    raise TypeError(
        "metrics must be a bool or a MetricsRegistry, got {!r}".format(
            type(value))
    )


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_WINDOW_BUCKETS",
    "DEFAULT_WINDOW_SAMPLES",
    "DEFAULT_WINDOW_SECONDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsView",
    "NULL",
    "NullMetrics",
    "PEAK_RSS_GAUGE",
    "REGISTRY",
    "SlowQueryLog",
    "peak_rss_bytes",
    "update_process_gauges",
    "SlowQueryRecord",
    "canonical_query",
    "get_registry",
    "latency_summary",
    "percentile",
    "plan_signature",
    "render_prometheus",
    "resolve_metrics",
    "snapshot_json",
    "write_snapshot",
]
