"""Process-wide labeled metrics: counters, gauges, windowed histograms.

The tracer (:mod:`repro.telemetry`) is deep but opt-in and per-session;
this registry is the always-on plane a serving fleet scrapes.  Three
metric kinds, each **labeled** (``session=``/``tenant=``/free-form), all
behind one lock so concurrent sessions on a shared Database aggregate
exactly:

* :class:`Counter` — monotonic, plus a sliding time-bucket ring so
  ``rate()`` answers "per second over the last window";
* :class:`Gauge` — a set/add level (resident cache bytes);
* :class:`Histogram` — cumulative fixed-boundary buckets (the Prometheus
  exposition shape) plus a sliding window ring of raw samples, so
  ``window_percentile(50/95/99)`` answers the SLO question the batch
  helpers (:func:`percentile` / :func:`latency_summary`) answer offline
  — on the same samples the two agree exactly.

Everything is stdlib-only and cheap enough to stay on by default: one
lock acquisition and a couple of dict/list operations per update (the
overhead guard in ``tests/test_parallel_stress.py`` holds the budget).
A process-global default registry lives in :data:`repro.metrics.REGISTRY`.
"""

import math
import threading
import time

#: sliding window length every counter rate and histogram percentile
#: reads over, unless the registry overrides it
DEFAULT_WINDOW_SECONDS = 60.0
#: ring granularity: the window is split into this many time buckets
DEFAULT_WINDOW_BUCKETS = 12
#: raw samples retained per histogram time bucket; beyond it the window
#: percentiles degrade gracefully (``window_dropped`` counts the loss)
DEFAULT_WINDOW_SAMPLES = 512

#: default histogram boundaries: log-spaced seconds, 1us .. 100s
#: (mirrors the tracer's Histogram so bridged metrics bucket identically)
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the sample at or below it.  0.0 on an empty sample.

    This is the single shared implementation — the windowed histograms,
    the serving load report and the paper-claim tests (``tests/paper``)
    must agree, and do so by construction.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies):
    """p50/p95/p99/mean/max summary dict for a latency sample."""
    latencies = list(latencies)
    return {
        "events": len(latencies),
        "mean_s": (sum(latencies) / len(latencies)) if latencies else 0.0,
        "p50_s": percentile(latencies, 50),
        "p95_s": percentile(latencies, 95),
        "p99_s": percentile(latencies, 99),
        "max_s": max(latencies) if latencies else 0.0,
    }


def _label_key(labels):
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonic labeled counter with a sliding-window delta ring."""

    __slots__ = ("labels", "value", "_lock", "_width", "_slots",
                 "_epochs", "_deltas", "_clock")

    def __init__(self, labels, lock, clock, window_seconds, window_buckets):
        self.labels = labels
        self.value = 0
        self._lock = lock
        self._clock = clock
        self._width = window_seconds / window_buckets
        self._slots = window_buckets
        self._epochs = [-1] * window_buckets
        self._deltas = [0] * window_buckets

    def inc(self, delta=1):
        with self._lock:
            self.value += delta
            epoch = int(self._clock() / self._width)
            slot = epoch % self._slots
            if self._epochs[slot] != epoch:
                self._epochs[slot] = epoch
                self._deltas[slot] = 0
            self._deltas[slot] += delta
        return self.value

    def window_delta(self):
        """Increments observed inside the sliding window (including the
        current partial time bucket)."""
        with self._lock:
            return self._window_delta_locked()

    def _window_delta_locked(self):
        epoch = int(self._clock() / self._width)
        floor = epoch - self._slots + 1
        return sum(
            self._deltas[slot] for slot in range(self._slots)
            if self._epochs[slot] >= floor
        )

    def rate(self):
        """Increments per second over the sliding window."""
        with self._lock:
            return self._window_delta_locked() / (self._width * self._slots)


class Gauge:
    """A labeled level that can be set or adjusted."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels, lock):
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value):
        with self._lock:
            self.value = float(value)

    def add(self, delta):
        with self._lock:
            self.value += float(delta)
        return self.value


class _WindowBucket:
    __slots__ = ("count", "total", "samples", "dropped")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.samples = []
        self.dropped = 0


class Histogram:
    """A labeled distribution: cumulative fixed-boundary bucket counts
    (rendered as a Prometheus histogram) plus a sliding window of raw
    samples answering exact nearest-rank percentiles."""

    __slots__ = ("labels", "bounds", "count", "total", "minimum", "maximum",
                 "bucket_counts", "_lock", "_clock", "_width", "_slots",
                 "_epochs", "_window", "_sample_cap")

    def __init__(self, labels, lock, clock, window_seconds, window_buckets,
                 bounds=DEFAULT_BUCKETS, sample_cap=DEFAULT_WINDOW_SAMPLES):
        self.labels = labels
        self.bounds = tuple(bounds)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        #: per-bin (non-cumulative) counts; the exporter prefix-sums them
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._lock = lock
        self._clock = clock
        self._width = window_seconds / window_buckets
        self._slots = window_buckets
        self._epochs = [-1] * window_buckets
        self._window = [_WindowBucket() for _ in range(window_buckets)]
        self._sample_cap = sample_cap

    def observe(self, value):
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
            index = len(self.bounds)
            for position, bound in enumerate(self.bounds):
                if value <= bound:
                    index = position
                    break
            self.bucket_counts[index] += 1

            epoch = int(self._clock() / self._width)
            slot = epoch % self._slots
            bucket = self._window[slot]
            if self._epochs[slot] != epoch:
                self._epochs[slot] = epoch
                bucket.count = 0
                bucket.total = 0.0
                bucket.samples = []
                bucket.dropped = 0
            bucket.count += 1
            bucket.total += value
            if len(bucket.samples) < self._sample_cap:
                bucket.samples.append(value)
            else:
                bucket.dropped += 1

    def _live_buckets_locked(self):
        epoch = int(self._clock() / self._width)
        floor = epoch - self._slots + 1
        live = [
            (self._epochs[slot], self._window[slot])
            for slot in range(self._slots)
            if self._epochs[slot] >= floor
        ]
        live.sort(key=lambda item: item[0])
        return [bucket for _, bucket in live]

    def window_samples(self):
        """Raw samples inside the sliding window, oldest bucket first."""
        with self._lock:
            out = []
            for bucket in self._live_buckets_locked():
                out.extend(bucket.samples)
            return out

    def window_count(self):
        with self._lock:
            return sum(b.count for b in self._live_buckets_locked())

    def window_dropped(self):
        """Samples the window ring could not retain (percentiles degrade
        to the retained subset when this is nonzero)."""
        with self._lock:
            return sum(b.dropped for b in self._live_buckets_locked())

    def window_percentile(self, q):
        """Nearest-rank percentile over the sliding window, via the same
        :func:`percentile` the benchmark suite uses."""
        return percentile(self.window_samples(), q)

    def window_summary(self):
        """:func:`latency_summary` over the sliding window."""
        summary = latency_summary(self.window_samples())
        summary["dropped"] = self.window_dropped()
        return summary

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0


class Family:
    """All children of one metric name, across label sets."""

    __slots__ = ("name", "kind", "help", "bounds", "children")

    def __init__(self, name, kind, help_text="", bounds=None):
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help = help_text
        self.bounds = bounds
        self.children = {}  # label key tuple -> metric


class MetricsRegistry:
    """Thread-safe registry of labeled metric families plus the process
    slow-query log.  ``clock`` is injectable for deterministic window
    tests (defaults to ``time.monotonic``)."""

    def __init__(self, clock=None, window_seconds=DEFAULT_WINDOW_SECONDS,
                 window_buckets=DEFAULT_WINDOW_BUCKETS,
                 window_samples=DEFAULT_WINDOW_SAMPLES,
                 slow_query_seconds=None, slow_query_capacity=None):
        from repro.metrics.slowlog import SlowQueryLog

        self.clock = clock or time.monotonic
        self.window_seconds = float(window_seconds)
        self.window_buckets = int(window_buckets)
        self.window_samples = int(window_samples)
        self._lock = threading.Lock()
        self._families = {}
        self.slowlog = SlowQueryLog(
            threshold_seconds=slow_query_seconds,
            capacity=slow_query_capacity,
        )

    enabled = True

    # -- family / child access -------------------------------------------------

    def _family(self, name, kind, help_text="", bounds=None):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = Family(
                name, kind, help_text, bounds
            )
        elif family.kind != kind:
            raise ValueError(
                "metric {!r} already registered as a {} (requested {})"
                .format(name, family.kind, kind)
            )
        return family

    def counter(self, name, help="", **labels):
        """The labeled counter child for ``name`` (created on demand)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "counter", help)
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = Counter(
                    dict(labels), self._lock, self.clock,
                    self.window_seconds, self.window_buckets,
                )
        return child

    def gauge(self, name, help="", **labels):
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "gauge", help)
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = Gauge(
                    dict(labels), self._lock
                )
        return child

    def histogram(self, name, help="", buckets=None, **labels):
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "histogram", help,
                                  bounds=tuple(buckets or DEFAULT_BUCKETS))
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = Histogram(
                    dict(labels), self._lock, self.clock,
                    self.window_seconds, self.window_buckets,
                    bounds=family.bounds, sample_cap=self.window_samples,
                )
        return child

    # -- one-shot convenience ---------------------------------------------------

    def inc(self, name, delta=1, **labels):
        return self.counter(name, **labels).inc(delta)

    def set_gauge(self, name, value, **labels):
        self.gauge(name, **labels).set(value)

    def observe(self, name, value, **labels):
        self.histogram(name, **labels).observe(value)

    def view(self, **labels):
        """A :class:`MetricsView` with ``labels`` pre-bound (sessions
        bind ``session=``/``tenant=`` here)."""
        return MetricsView(self, labels)

    # -- introspection ----------------------------------------------------------

    def families(self):
        with self._lock:
            return dict(self._families)

    def snapshot(self):
        """One plain-data snapshot of every family, child, and the slow
        query log — the JSON exporter and the top view render this."""
        # Pull-model process gauges: refreshed at observation time so
        # every snapshot/scrape reports the current high-water mark.
        from repro.metrics.process import update_process_gauges

        update_process_gauges(self)
        out = {
            "window_seconds": self.window_seconds,
            "window_buckets": self.window_buckets,
            "families": {},
            "slowlog": self.slowlog.snapshot(),
        }
        for name, family in sorted(self.families().items()):
            children = []
            for key in sorted(family.children):
                child = family.children[key]
                entry = {"labels": dict(key)}
                if family.kind == "counter":
                    entry["value"] = child.value
                    entry["rate"] = child.rate()
                    entry["window_delta"] = child.window_delta()
                elif family.kind == "gauge":
                    entry["value"] = child.value
                else:
                    entry.update({
                        "count": child.count,
                        "sum": child.total,
                        "min": child.minimum,
                        "max": child.maximum,
                        "mean": child.mean,
                        "bounds": list(child.bounds),
                        "bucket_counts": list(child.bucket_counts),
                        "window": child.window_summary(),
                    })
                children.append(entry)
            out["families"][name] = {
                "kind": family.kind,
                "help": family.help,
                "children": children,
            }
        return out

    def reset(self):
        """Drop every family and clear the slow-query log (tests)."""
        with self._lock:
            self._families = {}
        self.slowlog.clear()


class MetricsView:
    """A registry handle with bound labels; what instrumented components
    hold.  Call-site labels merge over (and can override) bound ones."""

    __slots__ = ("registry", "labels")

    enabled = True

    def __init__(self, registry, labels):
        self.registry = registry
        self.labels = dict(labels)

    def _merged(self, labels):
        if not labels:
            return self.labels
        merged = dict(self.labels)
        merged.update(labels)
        return merged

    def counter(self, name, **labels):
        return self.registry.counter(name, **self._merged(labels))

    def gauge(self, name, **labels):
        return self.registry.gauge(name, **self._merged(labels))

    def histogram(self, name, buckets=None, **labels):
        return self.registry.histogram(
            name, buckets=buckets, **self._merged(labels)
        )

    def inc(self, name, delta=1, **labels):
        return self.registry.inc(name, delta, **self._merged(labels))

    def set_gauge(self, name, value, **labels):
        self.registry.set_gauge(name, value, **self._merged(labels))

    def observe(self, name, value, **labels):
        self.registry.observe(name, value, **self._merged(labels))

    def view(self, **labels):
        return MetricsView(self.registry, self._merged(labels))

    @property
    def slowlog(self):
        return self.registry.slowlog


class _NullChild:
    """Shared do-nothing metric child."""

    __slots__ = ()

    labels = {}
    value = 0

    def inc(self, delta=1):
        return 0

    def set(self, value):
        pass

    def add(self, delta):
        return 0

    def observe(self, value):
        pass

    def rate(self):
        return 0.0

    def window_delta(self):
        return 0

    def window_samples(self):
        return []

    def window_percentile(self, q):
        return 0.0

    def window_summary(self):
        return latency_summary([])


_NULL_CHILD = _NullChild()


class NullMetrics:
    """The disabled plane: every operation is a near-free no-op (the
    metrics analogue of the tracer's NOOP)."""

    enabled = False
    labels = {}

    def counter(self, name, **labels):
        return _NULL_CHILD

    def gauge(self, name, **labels):
        return _NULL_CHILD

    def histogram(self, name, buckets=None, **labels):
        return _NULL_CHILD

    def inc(self, name, delta=1, **labels):
        pass

    def set_gauge(self, name, value, **labels):
        pass

    def observe(self, name, value, **labels):
        pass

    def view(self, **labels):
        return self

    @property
    def slowlog(self):
        from repro.metrics.slowlog import NULL_SLOWLOG

        return NULL_SLOWLOG


#: the process-wide disabled view; instrumented components default to it
NULL = NullMetrics()
