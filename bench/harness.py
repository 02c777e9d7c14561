"""Phases, clock and summaries shared by every workload.

One run of one workload, in one fresh process:

* *set-up*, repeated ``SETUP_REPEATS`` times so ``setup_s`` is a median:
  generate data from the seed, build the session, ``startup()``, warm up.
  The last set-up is the one that gets timed.
* *timed*: a closed loop (the next event is issued when the previous one
  returns) that runs until the plan is used up or for ``--seconds``, and
  never fewer than ``min_events`` events.  Only the call into the program is inside the clock; preparing
  an op and checking its result are not.
* *verify*: the sampled events' outputs against ``reference.py``.

End-to-end numbers come from a run with nothing wrapped.  ``--trace 1`` is
a separate run that installs the benchmark's own recorder.
"""

import math
import random
import resource
import statistics
import time

import layers
import plans
from recorder import Recorder, span_cost

SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
MIN_EVENTS = 200
SMOKE_EVENTS = 30
#: seeded events checked against the reference besides the first and last
VERIFY_SAMPLES = 10
#: a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
#: events per block of the per-block summaries: the fewest that give p95
#: its ``TAIL_SAMPLES`` beyond it
BLOCK_EVENTS = 200
#: shares of ``--seconds`` the traced run gives its three kinds of pass
#: (untraced with metrics=False, untraced default, traced)
TRACE_SPLIT = (0.2, 0.3, 0.5)
#: the default session alternates this many untraced and traced blocks
TRACE_CYCLES = 4

END_TO_END = {
    "setup_s": "s",
    "startup_ms": "ms",
    "event_p50_ms": "ms",
    "event_p95_ms": "ms",
    "perceived_p50_ms": "ms",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def percentile(values, share):
    """Nearest-rank percentile: the smallest value with at least
    ``share`` of the sample at or below it."""
    ordered = sorted(values)
    rank = max(int(math.ceil(share * len(ordered))), 1)
    return ordered[rank - 1]


def supports(count, share):
    """The sample-count rule: ``share`` needs ``TAIL_SAMPLES`` beyond it."""
    return count * (1.0 - share) >= TAIL_SAMPLES


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """What the timed blocks of one kind (untraced, or traced) measured."""

    def __init__(self):
        self.ops = []
        self.walls = []          # seconds inside the program, per event
        self.networks = []       # virtual link seconds the program charged
        self.errors = []         # (event index, message); -1 = invariant
        self.shots = []          # (event index, snapshot) to verify
        #: public counters: summed change over the blocks, and last seen
        self.delta = {}
        self.after = None

    @property
    def failed_events(self):
        """Distinct events that failed; an index of -1 marks a broken
        whole-phase invariant, counted separately."""
        return len({index for index, _ in self.errors if index >= 0})


def verify_indices(seed, name, min_events):
    rng = random.Random("verify:{}:{}".format(name, seed))
    return set(rng.sample(range(1, min_events), min(VERIFY_SAMPLES,
                                                    min_events - 1))) | {0}


def timed_block(workload, state, ops, first, seconds, min_events, sample_at,
                phase, recorder=None):
    """Run ops[first:] for ``seconds`` and at least ``min_events`` events,
    appending to ``phase``; returns the index of the next op."""
    before = workload.counters(state)
    clock = time.perf_counter
    deadline = clock() + seconds
    result = None
    shot = True
    index = first
    while index < len(ops):
        if index - first >= min_events and clock() >= deadline:
            break
        op = ops[index]
        call = workload.prepare(state, op)
        error = None
        result = None
        try:
            if recorder is None:
                start = clock()
                result = call()
                wall = clock() - start
            else:
                with recorder.event(index):
                    start = clock()
                    result = call()
                    wall = clock() - start
        except Exception as exc:   # a raised event is a failed event
            wall = clock() - start
            error = "raised {!r}".format(exc)
        phase.ops.append(op)
        phase.walls.append(wall)
        if error is None:
            error = workload.check(state, op, result)
        # the event right after a write sees the written rows
        after_write = state.previous_op is not None \
            and state.previous_op[0] == "append"
        state.previous_op = op
        shot = False
        if error is not None:
            phase.errors.append((index, error))
            phase.networks.append(0.0)
            result = None
        else:
            phase.networks.append(result.breakdown.network)
            if index in sample_at or after_write:
                phase.shots.append(
                    (index, workload.snapshot(state, op, result)))
                shot = True
        index += 1
    if result is not None and not shot:   # the last event of the block
        phase.shots.append(
            (index - 1, workload.snapshot(state, ops[index - 1], result)))
    phase.after = workload.counters(state)
    for key, value in phase.after.items():
        phase.delta[key] = phase.delta.get(key, 0) + value - before[key]
    return index


def merged(*phases):
    """One phase holding every event and error of ``phases``."""
    out = Phase()
    for phase in phases:
        out.ops.extend(phase.ops)
        out.walls.extend(phase.walls)
        out.networks.extend(phase.networks)
        out.errors.extend(phase.errors)
    return out


def close_phase(workload, state, phase):
    """Whole-phase invariants, then the sampled events' outputs against
    the reference."""
    for message in workload.invariants(state, phase.delta, phase.after,
                                       phase.ops):
        phase.errors.append((-1, message))
    for index, shot in phase.shots:
        for message in workload.verify(state, shot)[:3]:
            phase.errors.append((index, "reference: " + message))


def setups(workload, seed, smoke, scratch, repeats, **overrides):
    """Set up ``repeats`` times; returns (last state, walls, startups)."""
    walls, startups = [], []
    state = None
    for _ in range(repeats):
        if state is not None:
            state.close()
        start = time.perf_counter()
        state = workload.setup(seed, smoke, scratch, **overrides)
        walls.append(time.perf_counter() - start)
        startups.append(state.startup_seconds)
    return state, walls, startups


def blocks(values):
    """Contiguous, nearly equal blocks of at least ``BLOCK_EVENTS``
    values each (one block when there are fewer than two blocks' worth)."""
    count = max(len(values) // BLOCK_EVENTS, 1)
    edges = [len(values) * index // count for index in range(count + 1)]
    return [values[lo:hi] for lo, hi in zip(edges, edges[1:])]


def summarize(walls, networks):
    """The event-latency metrics of one timed phase, in ms and 1/s.

    Each is computed per block of ``BLOCK_EVENTS`` consecutive events and
    reported as the median over the blocks: a burst of interference from
    the host then spoils some blocks, not the run's tail percentile.  A
    run shorter than two blocks is one block, i.e. plain nearest rank over
    all its events."""
    perceived = [w + n for w, n in zip(walls, networks)]
    median = statistics.median
    return {
        "event_p50_ms": 1000.0 * median(
            percentile(block, 0.50) for block in blocks(walls)),
        "event_p95_ms": 1000.0 * median(
            percentile(block, 0.95) for block in blocks(walls)),
        "perceived_p50_ms": 1000.0 * median(
            percentile(block, 0.50) for block in blocks(perceived)),
        # closed loop, no think time: events per second spent waiting
        "events_per_s": median(
            len(block) / sum(block) for block in blocks(walls)),
    }


def record_for(workload, seed, smoke, ops, phase, metrics, units):
    events = len(phase.walls)
    return {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "plan_hash": plans.plan_hash(ops),
        "attempted": events,
        "failed": phase.failed_events
        + sum(1 for index, _ in phase.errors if index < 0),
        "failed_share": phase.failed_events / events if events else 1.0,
        "errors": ["event {}: {}".format(i, m) if i >= 0 else m
                   for i, m in phase.errors[:10]],
        "samples": {"events": events,
                    "blocks": max(events // BLOCK_EVENTS, 1),
                    "p95_supported": supports(events, 0.95)},
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


# -- the end-to-end run ------------------------------------------------------


def run_end_to_end(workload, seed, seconds, smoke, scratch):
    min_events = SMOKE_EVENTS if smoke else MIN_EVENTS
    ops = workload.plan(seed)
    state, walls, startups = setups(workload, seed, smoke, scratch,
                                    SETUP_REPEATS)
    try:
        # more fresh sessions over the already generated table
        for _ in range(STARTUP_SAMPLES - len(startups)):
            start = time.perf_counter()
            workload.new_session(state.table)
            startups.append(time.perf_counter() - start)
        phase = Phase()
        timed_block(workload, state, ops, 0, seconds, min_events,
                    verify_indices(seed, workload.name, min_events), phase)
        rss = peak_rss_mb()    # before the reference allocates anything
        close_phase(workload, state, phase)
    finally:
        state.close()
    metrics = {"setup_s": statistics.median(walls),
               "startup_ms": 1000.0 * statistics.median(startups)}
    metrics.update(summarize(phase.walls, phase.networks))
    metrics["peak_rss_mb"] = rss
    record = record_for(workload, seed, smoke, ops, phase, metrics,
                        END_TO_END)
    record["samples"].update(setups=len(walls), startups=len(startups))
    return record


# -- the traced run -----------------------------------------------------------


def run_traced(workload, seed, seconds, smoke, scratch, host):
    min_events = (SMOKE_EVENTS if smoke else MIN_EVENTS) // 2
    ops = workload.plan(seed)
    sample_at = verify_indices(seed, workload.name, min_events)

    # the metrics plane's cost: one untraced pass with it switched off,
    # compared below with the untraced blocks of the default session
    state = workload.setup(seed, smoke, scratch, metrics=False)
    try:
        metrics_off = Phase()
        timed_block(workload, state, ops, 0, seconds * TRACE_SPLIT[0],
                    min_events, (), metrics_off)
    finally:
        state.close()

    # one default session, alternating untraced and traced blocks, so
    # that drift of the host cancels out of the tracing overhead
    recorder = Recorder()
    recorder.install(layers.BOUNDARIES)   # set-up is traced too
    plain, traced = Phase(), Phase()
    try:
        state = workload.setup(seed, smoke, scratch)
        try:
            position = 0
            for _ in range(TRACE_CYCLES):
                recorder.uninstall()
                position = timed_block(
                    workload, state, ops, position,
                    seconds * TRACE_SPLIT[1] / TRACE_CYCLES,
                    -(-min_events // TRACE_CYCLES), sample_at, plain)
                recorder.install(layers.BOUNDARIES)
                position = timed_block(
                    workload, state, ops, position,
                    seconds * TRACE_SPLIT[2] / TRACE_CYCLES,
                    -(-min_events // TRACE_CYCLES), sample_at, traced,
                    recorder)
            recorder.uninstall()
            events = len(traced.walls)
            metrics = layers.span_metrics(recorder.spans, events)
            metrics.update(layers.scan_metrics(
                state.session.backend, recorder.spans, events,
                metrics["engine.execute_ms"]))
            appends = sum(op[0] == "append" for op in traced.ops)
            metrics.update(layers.counter_metrics(
                traced.delta, traced.after,
                (events - appends) * len(workload.sinks)))
            metrics.update(data_metrics(state))
            close_phase(workload, state, plain)
            close_phase(workload, state, traced)
        finally:
            state.close()
    finally:
        recorder.uninstall()

    plain_p50 = percentile(plain.walls, 0.50)
    metrics["metrics.overhead_share"] = \
        (plain_p50 - percentile(metrics_off.walls, 0.50)) / plain_p50
    metrics.update(trace_shares(recorder, plain, traced))
    metrics["trace.coverage_share"] = layers.coverage(
        metrics, 1000.0 * sum(traced.walls) / events)
    metrics.update(host)
    finish_traced(workload, recorder, traced, metrics, smoke)
    record = record_for(workload, seed, smoke, ops, merged(plain, traced),
                        complete(metrics), layers.UNITS)
    record["missing"] = layers.metrics_of(recorder.missing)
    return record


def data_metrics(state):
    from repro.data import consolidation_count

    return {
        "data.disk_mb":
            state.store.bytes_on_disk() / 1e6 if state.store else 0.0,
        "data.consolidations":
            float(consolidation_count() - state.consolidations),
        "datagen.rows_per_s": state.rows / state.gen_seconds,
    }


def trace_shares(recorder, plain, traced):
    """What tracing cost, two ways.

    ``trace.overhead_share`` compares the traced blocks' median event with
    the untraced blocks': everything tracing does to an event, but over a
    hundred events a side it carries a few percent of host noise either
    way.  ``trace.recorder_share`` is the recorder's own bookkeeping: spans
    recorded in the traced events times the calibrated cost of one span,
    over those events' wall.  It is steady, so it is the one asserted."""
    plain_p50 = percentile(plain.walls, 0.50)
    spans = sum(1 for span in recorder.spans if span.event is not None)
    return {
        "trace.overhead_share":
            (percentile(traced.walls, 0.50) - plain_p50) / plain_p50,
        "trace.recorder_share": spans * span_cost() / sum(traced.walls),
    }


#: below this median the wrappers' own cost (a few us per span, tens of
#: spans per event) is a visible share of an event, so the recorder's
#: share is reported but not asserted: flights_warm, brush_stream's
#: brushes and serve_hist in practice
OVERHEAD_ASSERTED_FROM = 5e-3


def finish_traced(workload, recorder, phase, metrics, smoke):
    """The traced run's own assertions; each failure fails the run.  None
    of them depends on how busy the host was."""
    for name in recorder.missing:
        phase.errors.append((-1, "boundary {} is missing".format(name)))
    share = metrics["trace.coverage_share"]
    if not 0.98 <= share <= 1.02:
        phase.errors.append(
            (-1, "layer self times cover {:.3f} of the event wall".format(
                share)))
    if not smoke and percentile(phase.walls, 0.50) >= OVERHEAD_ASSERTED_FROM \
            and metrics["trace.recorder_share"] > 0.10:
        phase.errors.append(
            (-1, "the recorder took {:.3f} > 0.10 of the traced events"
             .format(metrics["trace.recorder_share"])))
    if workload.name != "brush_stream" and metrics["planner.optimize_calls"]:
        phase.errors.append((-1, "the planner ran during the timed phase"))


def complete(metrics):
    """Every declared per-layer metric, 0.0 where a layer did no work on
    this workload."""
    return {name: float(metrics.get(name, 0.0)) for name in layers.PER_LAYER}
