"""The benchmark's own span recorder.

Wraps the program's public callables at run time, from outside: nothing
under ``src/`` is edited and none of the program's own telemetry is read.
A span is (name, start, end, parent, event); spans stay in memory until the
run ends.  A layer's self time is its span minus the part of that interval
its child spans cover.

The current span travels in a ``ContextVar``, so nesting is right per
thread and per asyncio task.  Where one request crosses tasks and threads
(``serve_hist``: client task -> connection task -> executor thread) the
boundary names a key under which the request's root span was published
(`adopt`), and may publish a key for later boundaries (`publish`).
"""

import contextvars
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

_current = contextvars.ContextVar("bench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "event", "value")

    def __init__(self, name, parent, event):
        self.name = name
        self.parent = parent
        self.event = event
        self.start = self.end = 0.0
        self.value = None

    @property
    def seconds(self):
        return self.end - self.start


class Boundary:
    """One wrapped callable.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``;
    ``subclasses`` wraps the method on every subclass that overrides it
    (an abstract base's own method is never the one that runs).
    ``capture(args, kwargs, result)`` keeps one value on the span.
    """

    def __init__(self, name, target, capture=None, subclasses=False,
                 adopt=None, publish=None):
        self.name = name
        self.target = target
        self.capture = capture
        self.subclasses = subclasses
        self.adopt = adopt
        self.publish = publish


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Recorder:
    def __init__(self):
        self.spans = []
        #: key -> root span, for requests that cross tasks/threads
        self.roots = {}
        #: boundary names that did not resolve
        self.missing = []
        self._undo = []

    # -- installing ----------------------------------------------------------

    def install(self, boundaries):
        for boundary in boundaries:
            try:
                self._install(boundary)
            except (ImportError, AttributeError):
                if boundary.name not in self.missing:
                    self.missing.append(boundary.name)

    def _install(self, boundary):
        module_name, _, path = boundary.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            wrapped = self._wrap(boundary, original)
            # ``from m import f`` copies the reference: replace every copy
            for other in list(sys.modules.values()):
                if other is None or \
                        not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapped)
            return
        owner = getattr(module, owner_name)
        owners = [owner]
        if boundary.subclasses:
            owners = [cls for cls in _all_subclasses(owner)
                      if attr in vars(cls)]
            if not owners:
                raise AttributeError(boundary.target)
        for cls in owners:
            self._set(cls, attr, self._wrap(boundary, getattr(cls, attr)))

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original, had in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, boundary, args, kwargs):
        parent = _current.get()
        if parent is None and boundary.adopt is not None:
            parent = self.roots.get(boundary.adopt(args, kwargs))
        span = Span(boundary.name, parent,
                    parent.event if parent is not None else None)
        return span, _current.set(span)

    def _close(self, boundary, span, token, args, kwargs, result):
        _current.reset(token)
        if boundary.capture is not None:
            span.value = boundary.capture(args, kwargs, result)
        if boundary.publish is not None and span.parent is not None:
            self.roots[boundary.publish(args, kwargs, result)] = span.parent
        self.spans.append(span)

    def _wrap(self, boundary, fn):
        recorder = self
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                span, token = recorder._open(boundary, args, kwargs)
                result = None
                span.start = clock()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    span.end = clock()
                    recorder._close(boundary, span, token, args, kwargs,
                                    result)
        else:
            def wrapper(*args, **kwargs):
                span, token = recorder._open(boundary, args, kwargs)
                result = None
                span.start = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    span.end = clock()
                    recorder._close(boundary, span, token, args, kwargs,
                                    result)
        wrapper.__name__ = getattr(fn, "__name__", boundary.name)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def event(self, event, key=None):
        """The root span of one timed event; everything recorded inside
        (or adopted through ``key``) belongs to ``event``."""
        span = Span("event", None, event)
        if key is not None:
            self.roots[key] = span
        token = _current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)


def span_cost(calls=5000, rounds=5):
    """Seconds one recorded span costs: a wrapped no-op minus the bare
    no-op, best of ``rounds``.  Measured on this host, free of whatever
    else the host is doing, so a share built on it can be asserted."""
    def noop():
        return None

    recorder = Recorder()
    wrapped = recorder._wrap(Boundary("noop", ""), noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(rounds):
        del recorder.spans[:]
        with recorder.event(0):
            start = clock()
            for _ in range(calls):
                wrapped()
            middle = clock()
        for _ in range(calls):
            noop()
        best = min(best, (middle - start) - (clock() - middle))
    return max(best, 0.0) / calls


# -- arithmetic over recorded spans ------------------------------------------


def self_seconds(spans):
    """``{id(span): self time}``: each span's duration minus the union of
    its children's intervals (clipped to the span, so a child that ran on
    another thread past its parent's end never counts twice)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(id(span), ()),
                            key=lambda s: s.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[id(span)] = span.seconds - covered
    return out
