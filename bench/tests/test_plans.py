"""Event plans depend on (workload, seed) and on nothing else."""

import pytest

import plans
import run


def plan_of(name, seed):
    workload, _, _ = run.build(name)
    return workload.plan(seed)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_plan_different_seed_different_plan(name):
    first = plans.plan_hash(plan_of(name, 1))
    assert first == plans.plan_hash(plan_of(name, 1))
    assert first != plans.plan_hash(plan_of(name, 2))


def test_cold_thresholds_never_repeat():
    ops = plans.cold_thresholds(plans.rng_for("flights_cold", 3), 1500)
    values = [value for _, _, value in ops]
    assert len(set(values)) == len(values)
    assert all(0.0 <= value < 40.0 for value in values)


def test_hist_walk_stays_in_its_window_and_always_moves():
    rng = plans.rng_for("flights_warm", 5)
    low = plans.HIST_LOW
    state = {"binField": "dep_delay",
             "maxbins": low + plans.HIST_WINDOW // 2}
    for _, signal, value in plans.hist_walk(rng, 5000):
        assert state[signal] != value
        state[signal] = value
        assert low <= state["maxbins"] < low + plans.HIST_WINDOW
        assert state["binField"] in plans.HIST_FIELDS
    reachable = {(op[1], op[2]) for op in plans.hist_states()}
    assert len(reachable) == len(plans.HIST_FIELDS) + plans.HIST_WINDOW


def test_brush_stream_appends_every_tenth_op():
    ops = plans.brush_stream(plans.rng_for("brush_stream", 1), 400)
    appends = [index for index, op in enumerate(ops) if op[0] == "append"]
    assert appends == list(range(9, 400, 10))
    assert [ops[index][1] for index in appends] == list(range(40))


def test_stratified_draws_are_distinct_and_cover_every_cell_per_sweep():
    values = plans.stratified(plans.rng_for("x", 1), 600, 3)
    assert len(set(values)) == 600 and set(values) == set(range(600))
    for sweep in range(3):
        cells = {value // 3 for value in
                 values[sweep * plans.CELLS:(sweep + 1) * plans.CELLS]}
        assert cells == set(range(plans.CELLS))
    with pytest.raises(ValueError):
        plans.stratified(plans.rng_for("x", 1), 601, 3)
