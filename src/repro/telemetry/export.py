"""Trace exporters: plain JSON and Chrome ``trace_event`` format.

The Chrome format loads directly into ``chrome://tracing`` or Perfetto:
each finished span becomes a complete ("X") event with microsecond
timestamps.  Nesting is conveyed by time containment on a single thread,
which :func:`validate_chrome_trace` checks structurally (it is what the
CI job asserts on a real session's export).  Counted numbers are not the
tracer's to keep: both formats embed the session's ``stats()`` snapshot.
"""

import json


def to_json(tracer, stats=None):
    """Full structured dump: spans, metadata, the stats snapshot."""
    return {
        "trace_id": tracer.trace_id,
        "spans": [span.as_dict() for span in _by_start(tracer.spans)],
        "metadata": dict(tracer.metadata),
        "stats": stats if stats is not None else {},
    }


def to_chrome_trace(tracer, stats=None):
    """Chrome ``trace_event`` JSON object ({"traceEvents": [...]}).

    Wall-clock spans share thread lane 1, nested by time containment.
    Spans carrying a ``virtual_seconds`` attribute (the simulated network
    channel accounts time without sleeping, so a 40ms transfer can live
    inside a 7ms wall-clock parent) go to lane 2, laid out sequentially
    on their own virtual timeline.

    ``dur`` is the rounded end minus the rounded start, not the rounded
    duration: rounding every instant with the one monotone function keeps
    abutting spans abutting and nested spans nested in the export.
    """
    spans = _by_start(tracer.spans)
    base = spans[0].start if spans else 0.0
    events = []
    virtual_cursor = 0.0
    has_virtual = False
    for span in spans:
        args = {
            key: _jsonable(value) for key, value in span.attributes.items()
        }
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        virtual = "virtual_seconds" in span.attributes
        if virtual:
            has_virtual = True
            ts = base + virtual_cursor
            virtual_cursor += span.wall
            end = base + virtual_cursor
        else:
            ts, end = span.start, span.end
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".")[0].split(":")[0],
                "ph": "X",
                "ts": _micros(ts),
                "dur": round(_micros(end) - _micros(ts), 3),
                "pid": 1,
                "tid": 2 if virtual else 1,
                "args": args,
            }
        )
    if events:
        events.insert(0, {
            "name": "thread_name", "ph": "M", "ts": 0, "pid": 1, "tid": 1,
            "args": {"name": "session (wall clock)"},
        })
        if has_virtual:
            events.insert(1, {
                "name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
                "tid": 2, "args": {"name": "network (virtual clock)"},
            })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": tracer.trace_id,
            "metadata": dict(tracer.metadata),
            "stats": stats if stats is not None else {},
        },
    }
    return document


def write_trace(tracer, path, format="chrome", stats=None):
    """Serialize the trace to ``path``; returns the exported document."""
    if format == "chrome":
        document = to_chrome_trace(tracer, stats=stats)
    elif format == "json":
        document = to_json(tracer, stats=stats)
    else:
        raise ValueError("unknown trace format {!r}".format(format))
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, default=_jsonable)
    return document


def validate_chrome_trace(document):
    """Structural checks on a Chrome trace document.

    Returns a list of problem strings (empty = valid): every event needs
    the required keys, and on each (pid, tid) lane spans must nest — any
    two "X" events either are disjoint or one contains the other.
    """
    problems = []
    if not isinstance(document, dict) or "traceEvents" not in document:
        return ["document has no traceEvents array"]
    events = document["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    lanes = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append("event {} is not an object".format(index))
            continue
        for key in ("name", "ph", "ts", "pid"):
            if key not in event:
                problems.append(
                    "event {} ({!r}) missing {!r}".format(
                        index, event.get("name"), key
                    )
                )
        if event.get("ph") != "X":
            continue
        if "dur" not in event:
            problems.append(
                "complete event {} ({!r}) missing dur".format(
                    index, event.get("name")
                )
            )
            continue
        lane = (event.get("pid"), event.get("tid"))
        lanes.setdefault(lane, []).append(
            (float(event["ts"]), float(event["ts"]) + float(event["dur"]),
             event.get("name"))
        )
    epsilon = 1e-3  # one nanosecond in microseconds: rounding slack
    for lane, intervals in lanes.items():
        # Sort enclosing spans before the spans they contain (same start,
        # larger end first), then sweep with an open-interval stack.
        intervals.sort(key=lambda interval: (interval[0], -interval[1]))
        stack = []
        for start, end, name in intervals:
            while stack and start >= stack[-1][1] - epsilon:
                stack.pop()
            if stack and end > stack[-1][1] + epsilon:
                problems.append(
                    "spans {!r} and {!r} overlap without nesting on lane "
                    "{}".format(stack[-1][2], name, lane)
                )
                continue
            stack.append((start, end, name))
    return problems


def _micros(seconds):
    return round(seconds * 1e6, 3)


def _by_start(spans):
    return sorted(spans, key=lambda span: (span.start, span.span_id))


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)
