"""Seeded event plans: what each workload's simulated user does.

Pure stdlib and free of any ``repro`` import, so a plan depends only on
(workload, seed, length) and the program under test receives nothing but
the generated inputs.  An op is a JSON-able list:

    ["interact", signal, value]       one ``session.interact`` call
    ["brush", signal, raw_bound, op]  a brush move; the bound is snapped to
                                      the tile grid at run time, untimed
    ["append", k]                     ``session.append_data`` of batch k
    ["window", fraction]              a log time-window start, as a share of
                                      (time span - width); made absolute
                                      against the generated data, untimed
"""

import hashlib
import json
import random

HIST_FIELDS = ("dep_delay", "arr_delay", "distance", "air_time")

#: maxbins values one histogram walk may visit (around the spec's default
#: of 20); with the four bin fields the walk touches at most 4 * 6 = 24 row
#: queries plus 4 extent queries, which fits the 64-entry result cache by
#: construction.  The window is the same for every seed: result sizes, and
#: with them the cost of an event, follow the bin count.
HIST_LOW = 18
HIST_WINDOW = 6

#: every Nth op of ``brush_stream`` is an append (10 % writes)
APPEND_EVERY = 10


def rng_for(workload, seed, stream=0):
    # str seeds hash through sha512: identical across processes and runs
    return random.Random("{}:{}:{}".format(workload, seed, stream))


def plan_hash(ops):
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: events per stratum sweep; equal to the harness's block size, so every
#: block of a run sees the same spread of parameter values
CELLS = 200


def stratified(rng, count, per_cell):
    """``count`` distinct ints in ``range(CELLS * per_cell)``.

    The range is cut into ``CELLS`` equal cells; each run of ``CELLS``
    consecutive draws visits every cell once, in seeded order, at a seeded
    offset inside the cell.  Seeds then differ in order and offset but not
    in how the values spread over the range, which is what the cost of an
    event follows."""
    if count > CELLS * per_cell:
        raise ValueError("cannot draw {} distinct values".format(count))
    out = []
    for offset in rng.sample(range(per_cell), per_cell):
        for cell in rng.sample(range(CELLS), CELLS):
            out.append(cell * per_cell + offset)
            if len(out) == count:
                return out
    return out


def cold_thresholds(rng, count):
    """Distinct delay thresholds on a 0.01 grid over [0, 40): drawn
    without replacement, so no event repeats an earlier query."""
    return [["interact", "thr", round(k * 0.01, 2)]
            for k in stratified(rng, count, 20)]


def hist_walk(rng, count, low=HIST_LOW):
    """A Markov user on the flights histogram: mostly keeps dragging the
    maxbins slider the way it was going, sometimes turns round, sometimes
    picks another bin field.  Every op changes a signal value."""
    field = 0
    maxbins = low + HIST_WINDOW // 2
    direction = rng.choice((-1, 1))
    ops = []
    for _ in range(count):
        if rng.random() < 0.25:
            field = (field + rng.randrange(1, len(HIST_FIELDS))) \
                % len(HIST_FIELDS)
            ops.append(["interact", "binField", HIST_FIELDS[field]])
            continue
        if rng.random() < 0.2:
            direction = -direction
        if not low <= maxbins + direction < low + HIST_WINDOW:
            direction = -direction
        maxbins += direction
        ops.append(["interact", "maxbins", maxbins])
    return ops


def hist_states(low=HIST_LOW):
    """Every (binField, maxbins) state a walk can reach, as ops: the
    warm-up sweep that fills the result cache."""
    ops = []
    for field in HIST_FIELDS:
        ops.append(["interact", "binField", field])
        for maxbins in range(low, low + HIST_WINDOW):
            ops.append(["interact", "maxbins", maxbins])
    return ops


def scatter_distances(rng, count):
    """Distinct whole ``minDistance`` values in [0, 600)."""
    return [["interact", "minDistance", value]
            for value in stratified(rng, count, 3)]


def brush_stream(rng, count):
    ops = []
    appends = 0
    for index in range(count):
        if index % APPEND_EVERY == APPEND_EVERY - 1:
            ops.append(["append", appends])
            appends += 1
        elif rng.random() < 0.5:
            ops.append(["brush", "lo", rng.uniform(0.0, 1400.0), ">="])
        else:
            ops.append(["brush", "hi", rng.uniform(1600.0, 3000.0), "<"])
    return ops


def log_windows(rng, count):
    """Distinct window starts, as a fraction of (time span - width)."""
    return [["window", k / 100000.0]
            for k in stratified(rng, count, 500)]
