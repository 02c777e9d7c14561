"""Zero-dependency tracer: nested spans, and nothing else.

The middleware's cost model *estimates* where a session spends its time;
this tracer *measures* it.  A :class:`Tracer` produces nested spans (trace
id, parent id, wall and CPU time, free-form attributes) via a context-
manager/decorator API.  It keeps no counters or histograms: a number is
written once, to the metrics registry (:mod:`repro.metrics`), and what a
span can say about its own work (rows, worker, fallback reason) rides on
the span as an attribute.  Everything is plain Python and deterministic
under an injected clock, so exports are stable in tests.

Tracing is off by default: the module-level :data:`NOOP` tracer swallows
every call with near-zero overhead (one attribute check per call site on
the hot paths), so instrumented code needs no conditionals beyond
``if tracer.enabled``.
"""

import functools
import time


class Span:
    """One timed region.  ``wall``/``cpu`` are seconds; ``start``/``end``
    are tracer-clock timestamps (perf_counter by default)."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "start", "end",
        "cpu_start", "cpu_end", "attributes", "_tracer",
    )

    def __init__(self, name, span_id, parent_id, trace_id, start, cpu_start,
                 tracer=None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end = None
        self.cpu_start = cpu_start
        self.cpu_end = None
        self.attributes = {}
        self._tracer = tracer

    @property
    def wall(self):
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def cpu(self):
        if self.cpu_end is None:
            return 0.0
        return self.cpu_end - self.cpu_start

    def set(self, **attributes):
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    # -- context manager -------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._finish(self)
        return False

    def as_dict(self):
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "wall": self.wall,
            "cpu": self.cpu,
            "attributes": dict(self.attributes),
        }

    def __repr__(self):
        return "Span({!r}, id={}, wall={:.6f}s)".format(
            self.name, self.span_id, self.wall
        )


class TickClock:
    """Deterministic clock for tests: every call advances by ``step``."""

    def __init__(self, start=0.0, step=0.001):
        self.now = float(start)
        self.step = float(step)

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class Tracer:
    """A recording tracer.

    ``clock``/``cpu_clock`` are zero-argument callables returning seconds;
    inject :class:`TickClock` for deterministic ids and timestamps.
    ``trace_id`` defaults to a stable literal so exports are reproducible;
    pass one per session if correlation across sessions matters.  Not
    thread-safe: open and close spans on the session thread only (engine
    workers hand their timings back as data and the session thread grafts
    them in with :meth:`measured_span`).
    """

    enabled = True

    def __init__(self, trace_id="trace-1", clock=None, cpu_clock=None):
        self.trace_id = trace_id
        self.clock = clock or time.perf_counter
        self.cpu_clock = cpu_clock or time.process_time
        self.spans = []          # finished spans, in completion order
        self._next_id = 1
        self._stack = []         # open spans (current last)
        self.metadata = {}       # free-form, included in exports

    # -- spans ----------------------------------------------------------------

    def span(self, name, **attributes):
        """Open a nested span; use as a context manager."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self.trace_id,
            start=self.clock(),
            cpu_start=self.cpu_clock(),
            tracer=self,
        )
        self._next_id += 1
        if attributes:
            span.attributes.update(attributes)
        self._stack.append(span)
        return span

    def _finish(self, span):
        span.end = self.clock()
        span.cpu_end = self.cpu_clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # exited out of order; drop anyway
            self._stack.remove(span)
        self.spans.append(span)

    def current_span(self):
        return self._stack[-1] if self._stack else None

    def measured_span(self, name, seconds, start=None, parent=None,
                      **attributes):
        """Append an already-measured (synthesized) finished span.

        Used to graft externally measured timings — engine plan-node
        times, virtual network seconds — into the span tree.  ``start``
        defaults to the parent's start (or now); the span nests under
        ``parent`` (default: the currently open span).
        """
        if parent is None:
            parent = self.current_span()
        if start is None:
            start = parent.start if parent is not None else self.clock()
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self.trace_id,
            start=start,
            cpu_start=0.0,
            tracer=None,
        )
        self._next_id += 1
        span.end = start + max(float(seconds), 0.0)
        span.cpu_end = 0.0
        span.attributes.update(attributes)
        self.spans.append(span)
        return span

    def trace(self, name=None, **attributes):
        """Decorator form: wraps a callable in a span."""

        def decorate(fn):
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name, **attributes):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- introspection ---------------------------------------------------------

    def find_spans(self, name=None, prefix=None):
        """Finished spans filtered by exact name or name prefix."""
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if prefix is not None and not span.name.startswith(prefix):
                continue
            out.append(span)
        return out

    def children_of(self, span):
        return [s for s in self.spans if s.parent_id == span.span_id]

    def clear(self):
        self.spans = []
        self._stack = []
        self._next_id = 1


class _NoopSpan:
    """Shared do-nothing span; every no-op call returns this instance."""

    __slots__ = ()

    name = "noop"
    span_id = 0
    parent_id = None
    attributes = {}
    wall = 0.0
    cpu = 0.0

    def set(self, **attributes):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The disabled tracer: every operation is a near-free no-op."""

    enabled = False
    trace_id = "noop"
    spans = ()
    metadata = {}

    def span(self, name, **attributes):
        return _NOOP_SPAN

    def measured_span(self, name, seconds, start=None, parent=None,
                      **attributes):
        return _NOOP_SPAN

    def current_span(self):
        return None

    def trace(self, name=None, **attributes):
        def decorate(fn):
            return fn

        return decorate

    def find_spans(self, name=None, prefix=None):
        return []

    def children_of(self, span):
        return []

    def clear(self):
        pass


#: the process-wide disabled tracer; instrumented code defaults to it
NOOP = NoopTracer()


def as_tracer(value):
    """Normalize a user-facing ``trace=`` argument: False/None -> NOOP,
    True -> a fresh recording Tracer, a Tracer instance passes through."""
    if not value:
        return NOOP
    if value is True:
        return Tracer()
    if isinstance(value, (Tracer, NoopTracer)):
        return value
    raise TypeError(
        "trace must be a bool or a Tracer, got {!r}".format(type(value))
    )
